"""Synthetic signal corpus and time-frequency conversion.

Pretraining data is generated, never collected: each signal is a pure
function of (seed, index) drawn from a mixture of generator families
(white noise, random sine mixtures, autoregressive processes, burst
envelopes) chosen to spread every imitated feature across its range, then
standardized to zero mean and unit variance. Networks never see the raw
waveform; they see the flattened magnitude of a complex Morlet wavelet
transform, mean-pooled to a fixed scales-by-frames grid.
"""

import csv
import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.signal

from .errors import DegenerateSignal
from .features import Signal
from .rng import rng_for

GENERATOR_FAMILIES = ("white_noise", "sine_mixture", "ar_process", "burst")

DEFAULT_LENGTH = 512
DEFAULT_SAMPLE_RATE = 128.0

# Morlet carrier frequency (rad) and default scalogram geometry. 32 scales
# by 32 frames flattens to the default 1024-unit network input.
MORLET_OMEGA0 = 6.0
DEFAULT_N_SCALES = 32
DEFAULT_N_FRAMES = 32
CWT_F_MIN = 1.0


def _default_weights():
    return {name: 0.25 for name in GENERATOR_FAMILIES}


@dataclass(frozen=True)
class GenSpec:
    """Recipe for a reproducible synthetic corpus."""

    length: int = DEFAULT_LENGTH
    sample_rate: float = DEFAULT_SAMPLE_RATE
    family_weights: dict = field(default_factory=_default_weights)
    seed: int = 0

    def __post_init__(self):
        if self.length < 64:
            raise ValueError("length must be >= 64")
        if not (self.sample_rate > 0):
            raise ValueError("sample_rate must be positive")
        unknown = set(self.family_weights) - set(GENERATOR_FAMILIES)
        if unknown:
            raise ValueError(f"unknown generator families: {sorted(unknown)}")
        weights = {
            name: float(self.family_weights.get(name, 0.0))
            for name in GENERATOR_FAMILIES
        }
        if any(w < 0 for w in weights.values()):
            raise ValueError("family weights must be non-negative")
        if abs(sum(weights.values()) - 1.0) > 1e-9:
            raise ValueError("family weights must sum to 1")
        object.__setattr__(self, "family_weights", weights)

    def canonical(self) -> dict:
        """JSON-ready dict with a stable key order, used for digests."""
        return {
            "family_weights": {k: self.family_weights[k] for k in GENERATOR_FAMILIES},
            "length": int(self.length),
            "sample_rate": float(self.sample_rate),
            "seed": int(self.seed),
        }


@dataclass(frozen=True)
class TFMap:
    """Magnitude scalogram: rows are scales (descending Hz), columns time."""

    magnitudes: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        mags = np.asarray(self.magnitudes, dtype=np.float64)
        scales = np.asarray(self.scales, dtype=np.float64)
        if mags.ndim != 2 or mags.shape[0] != scales.size:
            raise ValueError("magnitudes must be n_scales x n_frames")
        if not np.all(np.isfinite(mags)) or mags.min() < 0:
            raise ValueError("magnitudes must be finite and non-negative")
        if not np.all(np.diff(scales) < 0):
            raise ValueError("scales must be strictly descending")
        object.__setattr__(self, "magnitudes", mags)
        object.__setattr__(self, "scales", scales)

    @property
    def n_scales(self) -> int:
        return self.magnitudes.shape[0]

    @property
    def n_frames(self) -> int:
        return self.magnitudes.shape[1]


def standardize(signal: Signal) -> Signal:
    """Affine map to zero mean, unit population variance."""
    x = signal.samples
    mean = x.mean()
    std = x.std()
    if std == 0.0:
        raise DegenerateSignal("cannot standardize a constant signal")
    return Signal((x - mean) / std, signal.sample_rate)


def _white_noise(rng, n, fs):
    return rng.standard_normal(n)


def _sine_mixture(rng, n, fs):
    # Component frequencies stay inside the scalogram band [1, fs/4] so the
    # network input actually carries them.
    k = int(rng.integers(1, 6))
    freqs = rng.uniform(CWT_F_MIN, 0.95 * fs / 4.0, size=k)
    amps = rng.uniform(0.3, 1.0, size=k)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=k)
    t = np.arange(n) / fs
    return (amps[:, None] * np.sin(2 * np.pi * freqs[:, None] * t + phases[:, None])).sum(axis=0)


def _ar_process(rng, n, fs):
    """Stable AR(1-3) driven by white noise, poles kept inside |z| < 0.98."""
    order = int(rng.integers(1, 4))
    if order == 1:
        poles = [rng.uniform(-0.95, 0.95)]
    elif order == 2:
        radius = rng.uniform(0.5, 0.98)
        angle = rng.uniform(0.05 * np.pi, 0.95 * np.pi)
        poles = [radius * np.exp(1j * angle), radius * np.exp(-1j * angle)]
    else:
        radius = rng.uniform(0.5, 0.98)
        angle = rng.uniform(0.05 * np.pi, 0.95 * np.pi)
        poles = [
            radius * np.exp(1j * angle),
            radius * np.exp(-1j * angle),
            rng.uniform(-0.9, 0.9),
        ]
    denominator = np.real(np.poly(poles))  # 1 + a1 z^-1 + ... (monic, stable)
    noise = rng.standard_normal(n + 64)
    x = scipy.signal.lfilter([1.0], denominator, noise)
    return x[64:]  # drop warm-up


def _burst(rng, n, fs):
    """Quiet background with 1-4 loud segments of noise or tone."""
    x = 0.05 * rng.standard_normal(n)
    for _ in range(int(rng.integers(1, 5))):
        width = int(rng.uniform(0.05, 0.3) * n)
        start = int(rng.integers(0, max(n - width, 1)))
        amp = rng.uniform(0.5, 2.0)
        if rng.random() < 0.5:
            segment = amp * rng.standard_normal(width)
        else:
            freq = rng.uniform(CWT_F_MIN, 0.95 * fs / 4.0)
            phase = rng.uniform(0.0, 2.0 * np.pi)
            t = (start + np.arange(width)) / fs
            segment = amp * np.sin(2 * np.pi * freq * t + phase)
        x[start : start + width] += segment
    return x


_FAMILY_FUNCS = {
    "white_noise": _white_noise,
    "sine_mixture": _sine_mixture,
    "ar_process": _ar_process,
    "burst": _burst,
}


def generate(spec: GenSpec, index: int) -> Signal:
    """Deterministically generate the index-th signal of a corpus.

    The family is chosen by a uniform draw against the cumulative family
    weights; all randomness comes from a PCG64 stream keyed on
    (spec.seed, index), so any subset of a corpus can be produced
    independently and bit-identically.
    """
    rng = rng_for(spec.seed, "signal", index)
    u = rng.random()
    cumulative = 0.0
    family = GENERATOR_FAMILIES[-1]
    for name in GENERATOR_FAMILIES:
        cumulative += spec.family_weights[name]
        if u < cumulative:
            family = name
            break
    raw = _FAMILY_FUNCS[family](rng, spec.length, spec.sample_rate)
    return standardize(Signal(raw, spec.sample_rate))


def morlet_center_frequencies(
    sample_rate: float, n_scales: int = DEFAULT_N_SCALES, f_min: float = CWT_F_MIN
) -> np.ndarray:
    """Log-spaced analysis frequencies from f_min up to a quarter of fs,
    descending (low scale index = high frequency)."""
    f_max = sample_rate / 4.0
    if f_max <= f_min:
        raise ValueError("sample rate too low for the configured f_min")
    return np.geomspace(f_max, f_min, n_scales)


# Signals per FFT pass in `scalograms`. One pass holds the windowed
# spectra in a reused chunk x n_scales x nfft complex buffer (4 MB at the
# default geometry) plus the inverse FFT's output of the same size, so the
# transient memory is about 8 MB whatever the corpus size.
_CHUNK = 8


@functools.lru_cache(maxsize=8)
def _morlet_bank(length, sample_rate, n_scales, n_frames, omega0, f_min):
    """Center frequencies, Morlet window bank and nfft for one scalogram
    geometry. The bank is stored complex, as the spectra it multiplies,
    so no pass casts it again; both arrays are read-only because every
    call with that geometry shares them."""
    freqs = morlet_center_frequencies(sample_rate, n_scales, f_min)
    nfft = 1 << int(np.ceil(np.log2(2 * length)))
    omega = 2.0 * np.pi * np.fft.fftfreq(nfft)  # rad/sample
    scales = omega0 / (2.0 * np.pi * freqs / sample_rate)
    windows = np.where(
        omega[None, :] > 0,
        2.0 * np.exp(-0.5 * (scales[:, None] * omega[None, :] - omega0) ** 2),
        0.0,
    ).astype(np.complex128)
    freqs.setflags(write=False)
    windows.setflags(write=False)
    return freqs, windows, nfft


def scalograms(
    samples: np.ndarray,
    sample_rate: float,
    n_scales: int = DEFAULT_N_SCALES,
    n_frames: int = DEFAULT_N_FRAMES,
    omega0: float = MORLET_OMEGA0,
    f_min: float = CWT_F_MIN,
):
    """Complex Morlet scalograms of a batch of equal-length signals.

    `samples` is (n_signals, length), all at `sample_rate`. Returns
    (magnitudes, freqs): magnitudes is (n_signals, n_scales, n_frames)
    and row i equals `wavelet_transform` of signal i bit for bit; freqs
    are the descending center frequencies (read-only, shared by every
    call with the same geometry). The window bank is built once per
    geometry, and the FFTs run over the batch axis a few signals at a
    time, multiplying into one reused buffer. Pooling is two
    reshape-means: the first `length % n_frames` frames of one sample
    more, then the rest.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("samples must be (n_signals, length)")
    n = x.shape[1]
    if n < n_frames:
        raise ValueError("signal shorter than the requested frame count")
    freqs, windows, nfft = _morlet_bank(
        n, float(sample_rate), n_scales, n_frames, float(omega0), float(f_min)
    )
    size, n_long = divmod(n, n_frames)
    split = n_long * (size + 1)
    pooled = np.empty((x.shape[0], n_scales, n_frames))
    windowed = np.empty((min(_CHUNK, x.shape[0]), n_scales, nfft), dtype=np.complex128)
    for start in range(0, x.shape[0], _CHUNK):
        rows = x[start : start + _CHUNK]
        m = rows.shape[0]
        spectra = np.fft.fft(rows, nfft, axis=-1)
        np.multiply(spectra[:, None, :], windows, out=windowed[:m])
        magnitudes = np.abs(np.fft.ifft(windowed[:m], axis=-1)[..., :n])
        out = pooled[start : start + m]
        out[..., :n_long] = magnitudes[..., :split].reshape(
            m, n_scales, n_long, size + 1).mean(axis=-1)
        out[..., n_long:] = magnitudes[..., split:].reshape(
            m, n_scales, n_frames - n_long, size).mean(axis=-1)
    if not np.all(np.isfinite(pooled) & (pooled >= 0)):
        raise ValueError("magnitudes must be finite and non-negative")
    return pooled, freqs


def wavelet_transform(
    signal: Signal,
    n_scales: int = DEFAULT_N_SCALES,
    n_frames: int = DEFAULT_N_FRAMES,
    omega0: float = MORLET_OMEGA0,
    f_min: float = CWT_F_MIN,
) -> TFMap:
    """Complex Morlet scalogram, magnitude only, pooled to a fixed grid.

    The transform is evaluated in the frequency domain: for each center
    frequency f the analytic Morlet window exp(-(s*w - omega0)^2 / 2)
    (s = omega0 / (2*pi*f), w in rad/sample) multiplies the signal
    spectrum, scaled so a unit-amplitude sinusoid at f responds with
    magnitude 1. The signal is zero-padded to the next power of two at
    least twice its length to suppress circular wrap-around, and the
    magnitude time axis is mean-pooled into exactly `n_frames` contiguous
    chunks (the first `length % n_frames` one sample longer). This is a
    one-row call of `scalograms`.
    """
    magnitudes, freqs = scalograms(
        signal.samples[None, :], signal.sample_rate, n_scales, n_frames, omega0, f_min
    )
    return TFMap(magnitudes[0], freqs)


def flatten_tf(tf: TFMap) -> np.ndarray:
    """Row-major flattening of the scalogram into a network input vector."""
    return tf.magnitudes.ravel().copy()


def export_corpus_csv(spec: GenSpec, n_signals: int, path) -> None:
    """Debug dump: one signal per row, columns index then samples."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index"] + [f"s{i}" for i in range(spec.length)])
        for i in range(n_signals):
            sig = generate(spec, i)
            writer.writerow([i] + [f"{v:.17g}" for v in sig.samples])


def gen_spec_digest(spec: GenSpec) -> str:
    """Hex digest identifying a pretraining corpus recipe."""
    import hashlib
    import json

    payload = json.dumps(spec.canonical(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
