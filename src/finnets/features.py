"""Closed-form statistical signal features.

These are the ground-truth computations the imitating networks are trained
to reproduce: Shannon entropy of the amplitude histogram, excess kurtosis,
skewness, fundamental frequency, mel-frequency cepstral coefficients, and
a burst-suppression regularity score. Each is a pure function of the
signal and doubles as the regression target generator and the
verification oracle for a trained network.

There is one implementation of each oracle: `compute_features` evaluates
it over a batch of equal-length rows, a fixed number of rows at a time,
and `compute_feature` and the named per-signal functions are its one-row
calls. Every row's value is bit for bit the value of that row alone: the
few steps whose batched form rounds differently (skewness's final power,
f0's power spectrum) run per row.

Conventions: moments are biased (1/N) central moments; entropy is base-2
over an equal-width amplitude histogram, binned exactly as `np.histogram`
bins; degenerate inputs raise `DegenerateSignal` rather than returning NaN.
"""

import functools
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


@dataclass(frozen=True)
class FeatureConfig:
    """Knobs shared by every oracle call in a corpus or benchmark run."""

    n_bins: int = DEFAULT_N_BINS
    n_mfcc: int = DEFAULT_N_MFCC
    f0_min: float = F0_MIN_HZ
    f0_threshold: float = F0_THRESHOLD


# Rows per pass in `compute_features`. The largest transient is mfcc's:
# about 0.35 MB of frame, spectrum and cepstrum arrays per row at the
# default geometry, so one pass holds about 11 MB whatever the corpus size.
_ROWS = 32


def _degenerate(bad: np.ndarray, reason: str) -> None:
    if bad.any():
        raise DegenerateSignal(reason, int(np.argmax(bad)))


def _entropy_rows(x: np.ndarray, n_bins: int) -> np.ndarray:
    """Entropy of each row's equal-width histogram over [min, max].

    The bin of each sample follows `np.histogram`'s uniform-bin path step
    by step: edges as `np.linspace` builds them, the scaled index, then
    the one-bin corrections against the edges, with the last bin closed.
    """
    entropy = np.zeros(x.shape[0])
    lo, hi = x.min(axis=1), x.max(axis=1)
    varied = lo < hi  # a constant row puts all mass in one bin: 0 bits
    x, lo, hi = x[varied], lo[varied, None], hi[varied, None]
    width = hi - lo
    step = width / n_bins
    k = np.arange(n_bins + 1.0)
    edges = np.where(step == 0.0, k / n_bins * width, k * step) + lo
    edges[:, -1] = hi[:, 0]
    bins = ((x - lo) / width * n_bins).astype(np.intp)
    bins[bins == n_bins] -= 1
    rows = np.arange(x.shape[0])[:, None]
    bins[x < edges[rows, bins]] -= 1
    bins[(x >= edges[rows, bins + 1]) & (bins != n_bins - 1)] += 1
    counts = np.bincount(
        (bins + n_bins * rows).ravel(), minlength=n_bins * x.shape[0]
    ).reshape(-1, n_bins)
    # sum each row's non-empty bins in bin order, as a 1-D sum of them
    # would: rows with the same number of non-empty bins share one sum
    filled = counts > 0
    order = np.argsort(~filled, axis=1, kind="stable")
    p = np.take_along_axis(counts, order, axis=1) / x.shape[1]
    n_filled = filled.sum(axis=1)
    h = np.empty(x.shape[0])
    for n in np.unique(n_filled):
        same = n_filled == n
        q = p[same, :n]
        h[same] = -(q * np.log2(q)).sum(axis=1)
    entropy[varied] = h
    return entropy


def _central_moments(x: np.ndarray, orders) -> list:
    centered = x - x.mean(axis=1, keepdims=True)
    return [(centered ** k).mean(axis=1) for k in orders]


def _kurtosis_rows(x: np.ndarray) -> np.ndarray:
    m2, m4 = _central_moments(x, (2, 4))
    _degenerate(m2 <= 0.0, "zero-variance signal has undefined kurtosis")
    return m4 / (m2 * m2) - 3.0


def _skewness_rows(x: np.ndarray) -> np.ndarray:
    m2, m3 = _central_moments(x, (2, 3))
    _degenerate(m2 <= 0.0, "zero-variance signal has undefined skewness")
    # Python's float power: numpy's array power can differ from it by an ulp
    return np.array([c / v ** 1.5 for c, v in zip(m3.tolist(), m2.tolist())])


def _f0_rows(x: np.ndarray, fs: float, f_min: float, threshold: float) -> np.ndarray:
    """First autocorrelation peak above `threshold` in Hz per row, 0.0
    where none clears it.

    The biased autocorrelation comes from one zero-padded rfft and one
    irfft of the batch. The power spectrum between them is taken per
    row: a complex product over the whole batch rounds some bins
    differently.
    """
    n = x.shape[1]
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(x - x.mean(axis=1, keepdims=True), nfft, axis=1)
    power = np.stack([s * np.conj(s) for s in spec])
    acf = np.fft.irfft(power, nfft, axis=1)[:, :n]
    _degenerate(acf[:, 0] <= 0.0, "zero-variance signal has no autocorrelation")
    r = acf / acf[:, :1]
    max_lag = min(int(np.floor(fs / f_min)), n - 2)
    if max_lag < 2:
        return np.zeros(x.shape[0])
    peak = r[:, 2 : max_lag + 1]
    is_peak = (peak > threshold) & (peak >= r[:, 1:max_lag]) & (peak > r[:, 3 : max_lag + 2])
    lag = is_peak.argmax(axis=1) + 2
    rows = np.arange(x.shape[0])
    before, at, after = r[rows, lag - 1], r[rows, lag], r[rows, lag + 1]
    denom = before - 2.0 * at + after
    flat = denom == 0.0
    shift = np.clip(0.5 * (before - after) / np.where(flat, 1.0, denom), -0.5, 0.5)
    shift[flat] = 0.0
    return np.where(is_peak.any(axis=1), fs / (lag + shift), 0.0)


def _mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz) / 700.0)


def _mel_inv(mel):
    return 700.0 * (10.0 ** (np.asarray(mel) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(n_filters: int, n_fft: int, sample_rate: float) -> np.ndarray:
    """Triangular mel filters over rfft bins, 0 to Nyquist.

    Filters are evaluated in continuous frequency (no bin snapping), so
    narrow filters at low FFT resolutions degrade gracefully to zero
    weight instead of dividing by zero. The bank is cached per argument
    triple and returned read-only, since every caller shares it.
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
    bank.setflags(write=False)
    return bank


def _mfcc_geometry(fs: float):
    """Frame length and hop in samples: 25 ms frames at a 10 ms hop."""
    frame_len = max(int(round(MFCC_FRAME_SECONDS * fs)), 2)
    hop = max(int(round(MFCC_HOP_SECONDS * fs)), 1)
    return frame_len, hop


def _mfcc_rows(x: np.ndarray, fs: float, n_coeffs: int) -> np.ndarray:
    """Frame-mean cepstra per row. The matmul and DCT run stacked over
    a 3-D (rows, frames, bins) array, which computes each row exactly
    as a 2-D call on that row alone would."""
    frame_len, hop = _mfcc_geometry(fs)
    n_frames = 1 + (x.shape[1] - frame_len) // hop
    idx = np.arange(frame_len)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = x[:, idx] * np.hamming(frame_len)
    power = np.abs(np.fft.rfft(frames, axis=-1)) ** 2 / frame_len
    log_e = power @ mel_filterbank(MFCC_N_FILTERS, frame_len, fs).T
    np.log(np.maximum(log_e, MFCC_LOG_FLOOR, out=log_e), out=log_e)
    coeffs = scipy.fft.dct(log_e, type=2, norm="ortho", axis=-1, overwrite_x=True)
    return coeffs[..., :n_coeffs].mean(axis=1)


def _regularity_rows(x: np.ndarray) -> np.ndarray:
    n = x.shape[1]
    q = np.sort(x * x, axis=1)[:, ::-1]
    total = q.sum(axis=1)
    _degenerate(total <= 0.0, "all-zero signal has undefined regularity")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    value = np.sqrt((ranks * ranks * q).sum(axis=1) / (n * n / 3.0 * total))
    return np.clip(value, 0.0, 1.0)


def _oracle(feature: str, length: int, fs: float, config: FeatureConfig):
    """The function of a (rows, length) chunk computing `feature`, after
    the checks that depend only on the geometry and the config."""
    if feature == "entropy":
        if config.n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        return lambda x: _entropy_rows(x, config.n_bins)
    if feature == "kurtosis":
        if length < 4:
            raise ValueError("kurtosis needs at least 4 samples")
        return _kurtosis_rows
    if feature == "skewness":
        if length < 3:
            raise ValueError("skewness needs at least 3 samples")
        return _skewness_rows
    if feature == "f0":
        if length < 2 * fs / config.f0_min:
            raise ValueError(
                f"need at least {2 * fs / config.f0_min:.0f} samples to detect"
                f" {config.f0_min} Hz"
            )
        return lambda x: _f0_rows(x, fs, config.f0_min, config.f0_threshold)
    if feature == "mfcc":
        if not 1 <= config.n_mfcc <= MFCC_N_FILTERS:
            raise ValueError(f"n_coeffs must lie in [1, {MFCC_N_FILTERS}]")
        frame_len, _ = _mfcc_geometry(fs)
        if length < frame_len:
            raise ValueError(f"signal shorter than one {frame_len}-sample frame")
        return lambda x: _mfcc_rows(x, fs, config.n_mfcc)
    if feature == "regularity":
        if length < 2:
            raise ValueError("regularity needs at least 2 samples")
        return _regularity_rows
    raise ValueError(f"unknown feature {feature!r}")


def compute_features(
    samples: np.ndarray,
    sample_rate: float,
    feature: str,
    config: FeatureConfig = FeatureConfig(),
) -> np.ndarray:
    """Raw oracle values of one named feature for a batch of signals.

    `samples` is (n_signals, length), all at `sample_rate`; the result is
    (n_signals, feature width) and row i is bit for bit the value of
    signal i alone. Rows are processed `_ROWS` at a time, so the
    transient memory does not grow with the batch. An aperiodic signal's
    fundamental frequency encodes as 0.0 Hz so that regression targets
    stay numeric. A degenerate row raises `DegenerateSignal` naming the
    first such row.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] == 0:
        raise ValueError("samples must be (n_signals, length) with length >= 1")
    if not (sample_rate > 0):
        raise ValueError("sample_rate must be positive")
    oracle = _oracle(feature, x.shape[1], float(sample_rate), config)
    out = np.empty((x.shape[0], feature_width(feature, config.n_mfcc)))
    for start in range(0, x.shape[0], _ROWS):
        rows = x[start : start + _ROWS]
        finite = np.isfinite(rows).all(axis=1)
        if not finite.all():
            raise ValueError(f"row {start + int(np.argmin(finite))}: samples must be finite")
        try:
            out[start : start + _ROWS] = oracle(rows).reshape(len(rows), -1)
        except DegenerateSignal as exc:
            raise DegenerateSignal(exc.reason, start + exc.row) from None
    return out


def compute_feature(
    signal: Signal, feature: str, config: FeatureConfig = FeatureConfig()
) -> np.ndarray:
    """Raw oracle value for one named feature, always as a 1-D vector.

    This is the one-row call of `compute_features`, so an aperiodic
    signal's fundamental frequency is 0.0 Hz here too.
    """
    return compute_features(signal.samples[None, :], signal.sample_rate, feature, config)[0]


def shannon_entropy(signal: Signal, n_bins: int = DEFAULT_N_BINS) -> float:
    """Shannon entropy (bits) of the equal-width amplitude histogram.

    The histogram spans [min, max] of the samples with `n_bins` bins; a
    constant signal puts all mass in one bin and scores 0. The result is
    bounded by log2(n_bins).
    """
    return float(compute_feature(signal, "entropy", FeatureConfig(n_bins=n_bins))[0])


def kurtosis(signal: Signal) -> float:
    """Fisher excess kurtosis m4/m2^2 - 3 with biased central moments."""
    return float(compute_feature(signal, "kurtosis")[0])


def skewness(signal: Signal) -> float:
    """Skewness m3/m2^1.5 with biased central moments."""
    return float(compute_feature(signal, "skewness")[0])


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
    config = FeatureConfig(f0_min=f_min, f0_threshold=threshold)
    f0 = float(compute_feature(signal, "f0", config)[0])
    return None if f0 == 0.0 else f0


def mfcc(signal: Signal, n_coeffs: int = DEFAULT_N_MFCC) -> np.ndarray:
    """Mel-frequency cepstral coefficients, mean-pooled across frames.

    Pipeline: 25 ms Hamming-windowed frames at a 10 ms hop, per-frame
    power spectrum, 26-filter mel filterbank, log with a 1e-10 floor,
    orthonormal DCT-II, first `n_coeffs` coefficients, mean over frames.
    The output length is exactly `n_coeffs` regardless of signal length.
    """
    return compute_feature(signal, "mfcc", FeatureConfig(n_mfcc=n_coeffs))


def regularity(signal: Signal) -> float:
    """Amplitude-persistence score in [0, 1].

    Squared amplitudes are sorted descending and weighted by the square of
    their rank; sustained activity keeps energy at high ranks and scores
    near 1, while isolated bursts concentrate it at low ranks and score
    near 0.
    """
    return float(compute_feature(signal, "regularity")[0])


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
