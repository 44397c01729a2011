"""Closed-form statistical signal features.

These are the ground-truth computations the imitating networks are trained
to reproduce: Shannon entropy of the amplitude histogram, excess kurtosis,
skewness, fundamental frequency, mel-frequency cepstral coefficients, and
a burst-suppression regularity score. Each function is a pure function of
the signal and doubles as the regression target generator and the
verification oracle for a trained network.

Conventions: moments are biased (1/N) central moments; entropy is base-2
over an equal-width amplitude histogram; degenerate inputs raise
`DegenerateSignal` rather than returning NaN.
"""

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import DegenerateSignal

# Canonical lowercase feature names, used in file formats and CLI flags.
FEATURE_NAMES = ("entropy", "kurtosis", "skewness", "f0", "mfcc", "regularity")

DEFAULT_N_BINS = 16
DEFAULT_N_MFCC = 13

# Fundamental-frequency detector knobs: normalized-autocorrelation peaks
# must clear this threshold, and nothing slower than F0_MIN_HZ is searched.
F0_THRESHOLD = 0.3
F0_MIN_HZ = 1.0

# MFCC pipeline constants: 25 ms Hamming frames, 10 ms hop, 26 triangular
# mel filters spanning 0..Nyquist, log floor, DCT-II (orthonormal).
MFCC_FRAME_SECONDS = 0.025
MFCC_HOP_SECONDS = 0.010
MFCC_N_FILTERS = 26
MFCC_LOG_FLOOR = 1e-10


@dataclass(frozen=True)
class Signal:
    """A finite 1-D real-valued time series with a sample rate in Hz."""

    samples: np.ndarray
    sample_rate: float

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("samples must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples must be finite")
        if not (self.sample_rate > 0):
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", float(self.sample_rate))

    def __len__(self):
        return self.samples.size


def feature_width(feature: str, n_mfcc: int = DEFAULT_N_MFCC) -> int:
    """Output dimension of a feature: 1 for scalars, n_mfcc for mfcc."""
    if feature not in FEATURE_NAMES:
        raise ValueError(f"unknown feature {feature!r}")
    return n_mfcc if feature == "mfcc" else 1


def shannon_entropy(signal: Signal, n_bins: int = DEFAULT_N_BINS) -> float:
    """Shannon entropy (bits) of the equal-width amplitude histogram.

    The histogram spans [min, max] of the samples with `n_bins` bins; a
    constant signal puts all mass in one bin and scores 0. The result is
    bounded by log2(n_bins).
    """
    if n_bins < 2:
        raise ValueError("n_bins must be >= 2")
    x = signal.samples
    if x.min() == x.max():
        return 0.0
    counts, _ = np.histogram(x, bins=n_bins)
    p = counts[counts > 0] / x.size
    return float(-(p * np.log2(p)).sum())


def _central_moments(x: np.ndarray, orders) -> list[float]:
    centered = x - x.mean()
    return [float(np.mean(centered ** k)) for k in orders]


def kurtosis(signal: Signal) -> float:
    """Fisher excess kurtosis m4/m2^2 - 3 with biased central moments."""
    x = signal.samples
    if x.size < 4:
        raise ValueError("kurtosis needs at least 4 samples")
    m2, m4 = _central_moments(x, (2, 4))
    if m2 <= 0.0:
        raise DegenerateSignal("zero-variance signal has undefined kurtosis")
    return m4 / (m2 * m2) - 3.0


def skewness(signal: Signal) -> float:
    """Skewness m3/m2^1.5 with biased central moments."""
    x = signal.samples
    if x.size < 3:
        raise ValueError("skewness needs at least 3 samples")
    m2, m3 = _central_moments(x, (2, 3))
    if m2 <= 0.0:
        raise DegenerateSignal("zero-variance signal has undefined skewness")
    return m3 / m2 ** 1.5


def _autocorrelation(x: np.ndarray) -> np.ndarray:
    """Biased normalized autocorrelation r[tau], r[0] = 1, via FFT."""
    xm = x - x.mean()
    n = x.size
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(xm, nfft)
    acf = np.fft.irfft(spec * np.conj(spec), nfft)[:n]
    if acf[0] <= 0.0:
        raise DegenerateSignal("zero-variance signal has no autocorrelation")
    return acf / acf[0]


def fundamental_frequency(
    signal: Signal,
    f_min: float = F0_MIN_HZ,
    threshold: float = F0_THRESHOLD,
):
    """Lowest periodic frequency of the waveform, or None when aperiodic.

    Scans the normalized autocorrelation for the smallest lag that is a
    local maximum above `threshold`; partial periodicities (individual
    harmonics of a richer waveform) score low there, so the first
    qualifying lag is the waveform's repetition period. The lag is refined
    by parabolic interpolation and converted to Hz.

    Returns None (no periodicity) when no peak clears the threshold; this
    is a sentinel value, not an error.
    """
    fs = signal.sample_rate
    n = len(signal)
    if n < 2 * fs / f_min:
        raise ValueError(
            f"need at least {2 * fs / f_min:.0f} samples to detect {f_min} Hz"
        )
    r = _autocorrelation(signal.samples)
    max_lag = min(int(np.floor(fs / f_min)), n - 2)
    for lag in range(2, max_lag + 1):
        if r[lag] > threshold and r[lag] >= r[lag - 1] and r[lag] > r[lag + 1]:
            denom = r[lag - 1] - 2.0 * r[lag] + r[lag + 1]
            shift = 0.0 if denom == 0.0 else 0.5 * (r[lag - 1] - r[lag + 1]) / denom
            shift = float(np.clip(shift, -0.5, 0.5))
            return float(fs / (lag + shift))
    return None


def _mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz) / 700.0)


def _mel_inv(mel):
    return 700.0 * (10.0 ** (np.asarray(mel) / 2595.0) - 1.0)


def mel_filterbank(n_filters: int, n_fft: int, sample_rate: float) -> np.ndarray:
    """Triangular mel filters over rfft bins, 0 to Nyquist.

    Filters are evaluated in continuous frequency (no bin snapping), so
    narrow filters at low FFT resolutions degrade gracefully to zero
    weight instead of dividing by zero.
    """
    bin_hz = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    mel_points = _mel_inv(np.linspace(0.0, float(_mel(sample_rate / 2)), n_filters + 2))
    bank = np.zeros((n_filters, bin_hz.size))
    for j in range(n_filters):
        left, center, right = mel_points[j], mel_points[j + 1], mel_points[j + 2]
        if center > left:
            rising = (bin_hz - left) / (center - left)
            bank[j] = np.where((bin_hz >= left) & (bin_hz <= center), rising, 0.0)
        if right > center:
            falling = (right - bin_hz) / (right - center)
            bank[j] = np.where(
                (bin_hz > center) & (bin_hz <= right), falling, bank[j]
            )
    return bank


def mfcc(signal: Signal, n_coeffs: int = DEFAULT_N_MFCC) -> np.ndarray:
    """Mel-frequency cepstral coefficients, mean-pooled across frames.

    Pipeline: 25 ms Hamming-windowed frames at a 10 ms hop, per-frame
    power spectrum, 26-filter mel filterbank, log with a 1e-10 floor,
    orthonormal DCT-II, first `n_coeffs` coefficients, mean over frames.
    The output length is exactly `n_coeffs` regardless of signal length.
    """
    if n_coeffs < 1:
        raise ValueError("n_coeffs must be >= 1")
    x = signal.samples
    fs = signal.sample_rate
    frame_len = max(int(round(MFCC_FRAME_SECONDS * fs)), 2)
    hop = max(int(round(MFCC_HOP_SECONDS * fs)), 1)
    if x.size < frame_len:
        raise ValueError(f"signal shorter than one {frame_len}-sample frame")
    n_frames = 1 + (x.size - frame_len) // hop
    idx = np.arange(frame_len)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = x[idx] * np.hamming(frame_len)
    power = np.abs(np.fft.rfft(frames, axis=1)) ** 2 / frame_len
    energies = power @ mel_filterbank(MFCC_N_FILTERS, frame_len, fs).T
    log_e = np.log(np.maximum(energies, MFCC_LOG_FLOOR))
    coeffs = scipy.fft.dct(log_e, type=2, norm="ortho", axis=1)[:, :n_coeffs]
    return coeffs.mean(axis=0)


def regularity(signal: Signal) -> float:
    """Amplitude-persistence score in [0, 1].

    Squared amplitudes are sorted descending and weighted by the square of
    their rank; sustained activity keeps energy at high ranks and scores
    near 1, while isolated bursts concentrate it at low ranks and score
    near 0.
    """
    x = signal.samples
    if x.size < 2:
        raise ValueError("regularity needs at least 2 samples")
    q = np.sort(x * x)[::-1]
    total = q.sum()
    if total <= 0.0:
        raise DegenerateSignal("all-zero signal has undefined regularity")
    n = x.size
    ranks = np.arange(1, n + 1, dtype=np.float64)
    value = np.sqrt((ranks * ranks * q).sum() / (n * n / 3.0 * total))
    return float(np.clip(value, 0.0, 1.0))


def normalize_feature(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Affinely map raw feature values into [0, 1], clipping out-of-range ones.

    `values` holds one feature vector or a batch of them in its last axis;
    `lo` and `hi` give the range of each component and must satisfy
    hi > lo elementwise.
    """
    if lo.shape != values.shape[-1:] or hi.shape != values.shape[-1:]:
        raise ValueError("normalization range shape mismatch")
    if not np.all(hi > lo):
        raise ValueError("normalization range requires hi > lo elementwise")
    return np.clip((values - lo) / (hi - lo), 0.0, 1.0)


@dataclass(frozen=True)
class FeatureConfig:
    """Knobs shared by every oracle call in a corpus or benchmark run."""

    n_bins: int = DEFAULT_N_BINS
    n_mfcc: int = DEFAULT_N_MFCC
    f0_min: float = F0_MIN_HZ
    f0_threshold: float = F0_THRESHOLD


def compute_feature(
    signal: Signal, feature: str, config: FeatureConfig = FeatureConfig()
) -> np.ndarray:
    """Raw oracle value for one named feature, always as a 1-D vector.

    An aperiodic signal's fundamental frequency encodes as 0.0 Hz so that
    regression targets stay numeric.
    """
    if feature == "entropy":
        return np.array([shannon_entropy(signal, config.n_bins)])
    if feature == "kurtosis":
        return np.array([kurtosis(signal)])
    if feature == "skewness":
        return np.array([skewness(signal)])
    if feature == "f0":
        f0 = fundamental_frequency(signal, config.f0_min, config.f0_threshold)
        return np.array([0.0 if f0 is None else f0])
    if feature == "mfcc":
        return mfcc(signal, config.n_mfcc)
    if feature == "regularity":
        return np.array([regularity(signal)])
    raise ValueError(f"unknown feature {feature!r}")
