"""Closed-form statistical signal features.

These are the ground-truth computations the imitating networks are trained
to reproduce: Shannon entropy of the amplitude histogram, excess kurtosis,
skewness, fundamental frequency, mel-frequency cepstral coefficients, and
a burst-suppression regularity score. Each is a pure function of the
signal and doubles as the regression target generator and the
verification oracle for a trained network. Every setting is a module
constant, and `oracle_digest` hashes the ones each oracle reads: a `.fin`
header records that digest, so a network trained against other settings
is refused on load instead of silently mismatching its targets.

There is one implementation of each oracle: `compute_features` evaluates
it over a batch of equal-length rows, a fixed number of rows at a time,
and `compute_feature` is its one-row call. Every row's value is bit for
bit the value of that row alone: the few steps whose batched form rounds
differently (skewness's final power, f0's power spectrum) run per row.

Conventions: moments are biased (1/N) central moments, taken by repeated
squaring as `scipy.stats.moment` takes them (c * c once, then m3 from
(c * c) * c and m4 from (c * c) * (c * c)), so kurtosis and skewness equal
`scipy.stats.kurtosis(x, fisher=True, bias=True)` and
`scipy.stats.skew(x, bias=True)` bit for bit; mfcc is one DCT of the
frame-averaged log-mel energies per signal, over frames long enough
for every mel filter to weight some rfft bin; entropy is base-2 over an
equal-width amplitude histogram, binned exactly as `np.histogram` bins;
degenerate inputs raise `DegenerateSignal` rather than returning NaN.
"""

import functools
import hashlib
import json
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .errors import DegenerateSignal

# Canonical lowercase feature names, used in file formats and CLI flags.
FEATURE_NAMES = ("entropy", "kurtosis", "skewness", "f0", "mfcc", "regularity")

DEFAULT_N_BINS = 16
DEFAULT_N_MFCC = 13

# Fundamental-frequency detector: normalized-autocorrelation peaks must
# clear F0_THRESHOLD. The search floor is max(F0_MIN_HZ, 2 * fs / length),
# so at least two periods of the slowest searched frequency fit the signal.
F0_THRESHOLD = 0.3
F0_MIN_HZ = 1.0

# MFCC pipeline constants: Hamming frames of 25 ms at a 10 ms hop, but at
# least MFCC_MIN_FRAME samples at a hop of at least MFCC_MIN_HOP, so that
# each of the 26 triangular mel filters (0..Nyquist) weights some rfft bin
# at low rates too (an 8 kHz frame is 200 samples; 25 ms at 128 Hz is 3,
# and 32-sample frames still leave a filter empty at 1 kHz); log floor,
# DCT-II (orthonormal).
MFCC_FRAME_SECONDS = 0.025
MFCC_HOP_SECONDS = 0.010
MFCC_MIN_FRAME = 64
MFCC_MIN_HOP = 32
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


def feature_width(feature: str) -> int:
    """Output dimension of a feature: 1 for scalars, DEFAULT_N_MFCC for mfcc.
    The one check of a feature name: every other place asks for the width."""
    if feature not in FEATURE_NAMES:
        raise ValueError(f"unknown feature {feature!r}")
    return DEFAULT_N_MFCC if feature == "mfcc" else 1


# Rows per pass in `compute_features`. The largest transient is f0's: a
# zero-padded rfft at twice the length, its power spectrum and the
# autocorrelation, about 33 kB per row at the default 512 samples (mfcc's
# frames and spectra take 20 kB), so one pass holds about 1 MB whatever
# the corpus size.
_ROWS = 32


def _degenerate(bad: np.ndarray, reason: str) -> None:
    if bad.any():
        raise DegenerateSignal(reason, int(np.argmax(bad)))


def _entropy_rows(x: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row's equal-width histogram over [min, max],
    at most log2(DEFAULT_N_BINS).

    The bin of each sample follows `np.histogram`'s uniform-bin path step
    by step: edges as `np.linspace` builds them, the scaled index, then
    the one-bin corrections against the edges, with the last bin closed.
    """
    n_bins = DEFAULT_N_BINS
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


def _centered(x: np.ndarray):
    """Each row less its mean, c, and c * c, whose row means are m2."""
    c = x - x.mean(axis=1, keepdims=True)
    return c, c * c


def _kurtosis_rows(x: np.ndarray) -> np.ndarray:
    c, c2 = _centered(x)
    m2 = c2.mean(axis=1)
    _degenerate(m2 <= 0.0, "zero-variance signal has undefined kurtosis")
    m4 = np.multiply(c2, c2, out=c).mean(axis=1)
    return m4 / (m2 * m2) - 3.0


def _skewness_rows(x: np.ndarray) -> np.ndarray:
    c, c2 = _centered(x)
    m2 = c2.mean(axis=1)
    _degenerate(m2 <= 0.0, "zero-variance signal has undefined skewness")
    m3 = np.multiply(c2, c, out=c2).mean(axis=1)
    # Python's float power: numpy's array power can differ from it by an ulp
    return np.array([m / v ** 1.5 for m, v in zip(m3.tolist(), m2.tolist())])


def _f0_rows(x: np.ndarray, fs: float) -> np.ndarray:
    """Lowest periodic frequency of each row in Hz, 0.0 where aperiodic.

    The first lag that is a local maximum of the normalized
    autocorrelation above F0_THRESHOLD is the repetition period: single
    harmonics of a richer waveform score low there. The lag is refined by
    parabolic interpolation. Lags run up to fs / F0_MIN_HZ and at most
    half the signal, which is the derived floor max(F0_MIN_HZ, 2 fs / n).

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
    max_lag = min(int(np.floor(fs / F0_MIN_HZ)), n // 2)
    if max_lag < 2:
        return np.zeros(x.shape[0])
    peak = r[:, 2 : max_lag + 1]
    is_peak = (
        (peak > F0_THRESHOLD) & (peak >= r[:, 1:max_lag]) & (peak > r[:, 3 : max_lag + 2])
    )
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

    Filters are evaluated in continuous frequency (no bin snapping). A
    filter that covers no bin would log the floor in every frame, so a
    geometry that leaves any filter with zero weight is a `ValueError`.
    The bank is cached per argument triple and returned read-only, since
    every caller shares it.
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
    empty = np.flatnonzero(~bank.any(axis=1))
    if empty.size:
        raise ValueError(f"mel filterbank (n_filters, n_fft, sample_rate) ="
                         f" ({n_filters}, {n_fft}, {sample_rate}) gives filters"
                         f" {empty.tolist()} zero weight")
    bank.setflags(write=False)
    return bank


def _mfcc_geometry(fs: float):
    """Frame length and hop in samples: 25 ms frames at a 10 ms hop, at
    least MFCC_MIN_FRAME samples at a hop of at least MFCC_MIN_HOP."""
    frame_len = max(int(round(MFCC_FRAME_SECONDS * fs)), MFCC_MIN_FRAME)
    hop = max(int(round(MFCC_HOP_SECONDS * fs)), MFCC_MIN_HOP)
    return frame_len, hop


def _mfcc_rows(x: np.ndarray, fs: float) -> np.ndarray:
    """The first DEFAULT_N_MFCC cepstral coefficients per row: one
    orthonormal DCT-II of the row's log-mel energies averaged over frames.

    The DCT is linear, so this is the mean of the per-frame cepstra up to
    rounding (within 1e-12 of a row's largest coefficient at the tested
    geometries), at one DCT per row instead of one per frame. The matmul
    runs stacked over a 3-D (rows, frames, bins) array, which computes
    each row exactly as a 2-D call on that row alone would.

    At the default 128 Hz, frames take the 64-sample floor at a 32-sample
    hop, so a 512-sample signal has 15 frames. Each frame's rfft has 33
    bins 2 Hz apart, and every one of the 26 mel filters weights some of
    them.
    """
    frame_len, hop = _mfcc_geometry(fs)
    n_frames = 1 + (x.shape[1] - frame_len) // hop
    idx = np.arange(frame_len)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = x[:, idx] * np.hamming(frame_len)
    power = np.abs(np.fft.rfft(frames, axis=-1)) ** 2 / frame_len
    log_e = power @ mel_filterbank(MFCC_N_FILTERS, frame_len, fs).T
    np.log(np.maximum(log_e, MFCC_LOG_FLOOR, out=log_e), out=log_e)
    coeffs = scipy.fft.dct(log_e.mean(axis=1), type=2, norm="ortho", axis=-1)
    return coeffs[:, :DEFAULT_N_MFCC]


def _regularity_rows(x: np.ndarray) -> np.ndarray:
    """Amplitude-persistence score in [0, 1] per row: squared amplitudes
    sorted descending, weighted by the square of their rank. Sustained
    activity scores near 1, isolated bursts near 0."""
    n = x.shape[1]
    q = np.sort(x * x, axis=1)[:, ::-1]
    total = q.sum(axis=1)
    _degenerate(total <= 0.0, "all-zero signal has undefined regularity")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    value = np.sqrt((ranks * ranks * q).sum(axis=1) / (n * n / 3.0 * total))
    return np.clip(value, 0.0, 1.0)


def _oracle(feature: str, length: int, fs: float):
    """The function of a (rows, length) chunk computing `feature`, one of
    FEATURE_NAMES, after the checks that depend only on the geometry."""
    if feature == "entropy":
        return _entropy_rows
    if feature == "kurtosis":
        if length < 4:
            raise ValueError("kurtosis needs at least 4 samples")
        return _kurtosis_rows
    if feature == "skewness":
        if length < 3:
            raise ValueError("skewness needs at least 3 samples")
        return _skewness_rows
    if feature == "f0":
        return lambda x: _f0_rows(x, fs)
    if feature == "mfcc":
        frame_len, _ = _mfcc_geometry(fs)
        if length < frame_len:
            raise ValueError(f"signal shorter than one {frame_len}-sample frame")
        return lambda x: _mfcc_rows(x, fs)
    if length < 2:  # regularity, the last name
        raise ValueError("regularity needs at least 2 samples")
    return _regularity_rows


# The module constants each oracle reads, itself or through the helpers
# it calls: `oracle_digest` hashes their values, so a constant an oracle
# comes to read belongs here too (a test compares the table with the code).
_ORACLE_CONSTANTS = {
    "entropy": ("DEFAULT_N_BINS",),
    "kurtosis": (),
    "skewness": (),
    "f0": ("F0_MIN_HZ", "F0_THRESHOLD"),
    "mfcc": ("DEFAULT_N_MFCC", "MFCC_FRAME_SECONDS", "MFCC_HOP_SECONDS", "MFCC_LOG_FLOOR",
             "MFCC_MIN_FRAME", "MFCC_MIN_HOP", "MFCC_N_FILTERS"),
    "regularity": (),
}


def oracle_digest(feature: str) -> str:
    """SHA-256 of the feature name and of the value of each constant its
    oracle reads: the `oracle_digest` a `.fin` header records."""
    feature_width(feature)
    doc = {"feature": feature,
           "constants": {name: globals()[name] for name in _ORACLE_CONSTANTS[feature]}}
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("ascii")).hexdigest()


def compute_features(samples: np.ndarray, sample_rate: float, feature: str) -> np.ndarray:
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
    out = np.empty((x.shape[0], feature_width(feature)))
    oracle = _oracle(feature, x.shape[1], float(sample_rate))
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


def compute_feature(signal: Signal, feature: str) -> np.ndarray:
    """Raw oracle value for one named feature, always as a 1-D vector.

    This is the one-row call of `compute_features`, so an aperiodic
    signal's fundamental frequency is 0.0 Hz here too.
    """
    return compute_features(signal.samples[None, :], signal.sample_rate, feature)[0]


def normalize_feature(values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Affinely map raw feature values into [0, 1], clipping out-of-range ones.

    `values` holds one feature vector or a batch of them in its last axis;
    `lo` and `hi` give the range of each component and must satisfy
    hi > lo elementwise with a finite width hi - lo.
    """
    if lo.shape != values.shape[-1:] or hi.shape != values.shape[-1:]:
        raise ValueError("normalization range shape mismatch")
    with np.errstate(over="ignore"):  # an overflowing width is refused below
        width = hi - lo
    if not np.all((hi > lo) & np.isfinite(width)):
        raise ValueError("normalization range requires finite hi > lo elementwise")
    return np.clip((values - lo) / width, 0.0, 1.0)
