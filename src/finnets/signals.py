"""Synthetic signal corpus and time-frequency conversion.

Pretraining data is generated, never collected: each signal is a pure
function of (seed, index) drawn from a mixture of generator families
(white noise, random sine mixtures, autoregressive processes, burst
envelopes) chosen to spread every imitated feature across its range, then
standardized to zero mean and unit variance. Networks never see the raw
waveform; they see the flattened magnitude of a complex Morlet wavelet
transform, mean-pooled to a fixed scales-by-frames grid. Both stages are
batched, `generate_rows` and `scalograms`; `generate` and
`wavelet_transform` are their one-row calls.
"""

import concurrent.futures
import functools
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.signal

from .errors import DegenerateSignal
from .features import Signal
from .rng import rng_for

GENERATOR_FAMILIES = ("white_noise", "sine_mixture", "ar_process", "burst")

DEFAULT_LENGTH = 512
DEFAULT_SAMPLE_RATE = 128.0

# Morlet carrier frequency (rad) and the scalogram geometry, fixed because
# a `.fin` file does not record them. 32 scales by 32 frames flattens to
# the default 1024-unit network input.
MORLET_OMEGA0 = 6.0
DEFAULT_N_SCALES = 32
DEFAULT_N_FRAMES = 32
CWT_F_MIN = 1.0

# Generated tones lie in [CWT_F_MIN, _TONE_FRACTION * fs / 4], just inside
# the scalogram band, so a sample rate below 4 * CWT_F_MIN / _TONE_FRACTION
# (about 4.21 Hz) leaves no band to draw from.
_TONE_FRACTION = 0.95


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
        if not (_tone_top(self.sample_rate) >= CWT_F_MIN):  # 0, < 0 and NaN too
            raise ValueError(
                f"sample_rate must be at least "
                f"{4.0 * CWT_F_MIN / _TONE_FRACTION:.2f} Hz: below that the tone "
                f"band from {CWT_F_MIN:g} Hz to {_TONE_FRACTION:g} * fs / 4 is empty")
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


def _tone_top(fs):
    """Highest frequency a generated tone may have at sample rate fs."""
    return _TONE_FRACTION * fs / 4.0


def _white_noise(rng, n, fs):
    return rng.standard_normal(n)


def _sine_mixture(rng, n, fs):
    # Component frequencies stay inside the scalogram band [1, fs/4] so the
    # network input actually carries them.
    k = int(rng.integers(1, 6))
    freqs = rng.uniform(CWT_F_MIN, _tone_top(fs), size=k)
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
            freq = rng.uniform(CWT_F_MIN, _tone_top(fs))
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


_STANDARDIZE_ROWS = 256  # rows per pass, so the std's temporaries are one pass in size


def generate_rows(spec: GenSpec, indices) -> np.ndarray:
    """Corpus signals `indices` as a (len(indices), spec.length) array.

    Row k draws its family against the cumulative family weights from a
    PCG64 stream keyed on (spec.seed, indices[k]), so any subset of a
    corpus, in any order, is bit-identical, and is then standardized to
    zero mean and unit population variance. A non-finite row raises
    `ValueError` and a constant one `DegenerateSignal`, each naming k.
    """
    rows = np.empty((len(indices), spec.length))
    for k, index in enumerate(indices):
        rng = rng_for(spec.seed, "signal", index)
        u = rng.random()
        cumulative = 0.0
        family = GENERATOR_FAMILIES[-1]
        for name in GENERATOR_FAMILIES:
            cumulative += spec.family_weights[name]
            if u < cumulative:
                family = name
                break
        rows[k] = _FAMILY_FUNCS[family](rng, spec.length, spec.sample_rate)
    for start in range(0, len(rows), _STANDARDIZE_ROWS):
        block = rows[start:start + _STANDARDIZE_ROWS]
        finite = np.isfinite(block).all(axis=1)
        if not finite.all():
            raise ValueError(f"row {start + int(np.argmin(finite))}: samples must be finite")
        std = block.std(axis=1, keepdims=True)
        if not std.all():
            raise DegenerateSignal("cannot standardize a constant signal",
                                   start + int(np.argmin(std)))
        block -= block.mean(axis=1, keepdims=True)
        block /= std
    return rows


def generate(spec: GenSpec, index: int) -> Signal:
    """The index-th signal of a corpus: the one-row call of `generate_rows`."""
    return Signal(generate_rows(spec, [index])[0], spec.sample_rate)


def morlet_center_frequencies(sample_rate: float) -> np.ndarray:
    """DEFAULT_N_SCALES log-spaced analysis frequencies from CWT_F_MIN up
    to a quarter of fs, descending (low scale index = high frequency)."""
    f_max = sample_rate / 4.0
    if f_max <= CWT_F_MIN:
        raise ValueError(f"sample rate too low: fs/4 must exceed {CWT_F_MIN} Hz")
    return np.geomspace(f_max, CWT_F_MIN, DEFAULT_N_SCALES)


# Signals per FFT pass in `scalograms`, shared by its threads: each of
# T threads runs passes of max(1, _CHUNK // T) signals through its own
# spectra, windowed-spectra and magnitude buffers. The calling thread
# allocates them all, so the peak memory does not depend on how the
# threads interleave. At 512 samples the buffers take 650 KB per signal
# of a pass (the windowed spectra 512 KB): about 5 MB in all, whatever
# the corpus size, up to eight CPUs.
_CHUNK = 8


def _usable_cpus():
    """Ids of the CPUs this process may run on: its affinity mask where
    the platform has one, else every CPU of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _pinned_block(cpu, job):
    """`_scalogram_block(*job)` in a worker thread pinned to `cpu`.

    Pinning only places the thread. Unpinned, on a 2-vCPU Xeon, Linux
    often started both workers on their parent's CPU and left the other
    idle through the first few 800-signal calls of a process (0.36-0.44 s
    each, against 0.23 s once the workers were spread)."""
    if hasattr(os, "sched_setaffinity"):
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:  # the mask changed since it was read: run unpinned
            pass
    _scalogram_block(*job)


@functools.lru_cache(maxsize=8)
def _morlet_bank(length, sample_rate):
    """Morlet window bank and nfft for one signal length and sample rate.
    The bank is stored complex, as the spectra it multiplies, so no pass
    casts it again; it is read-only because every call with that geometry
    shares it."""
    omega0 = MORLET_OMEGA0
    freqs = morlet_center_frequencies(sample_rate)
    nfft = 1 << int(np.ceil(np.log2(2 * length)))
    omega = 2.0 * np.pi * np.fft.fftfreq(nfft)  # rad/sample
    scales = omega0 / (2.0 * np.pi * freqs / sample_rate)
    windows = np.where(
        omega[None, :] > 0,
        2.0 * np.exp(-0.5 * (scales[:, None] * omega[None, :] - omega0) ** 2),
        0.0,
    ).astype(np.complex128)
    windows.setflags(write=False)
    return windows, nfft


def scalograms(samples: np.ndarray, sample_rate: float) -> np.ndarray:
    """Complex Morlet scalograms of a batch of equal-length signals.

    `samples` is (n_signals, length), all at `sample_rate`. Returns the
    (n_signals, DEFAULT_N_SCALES, DEFAULT_N_FRAMES) magnitudes: entry i
    equals `wavelet_transform` of signal i bit for bit, and its rows are
    the scales of `morlet_center_frequencies(sample_rate)`. The window
    bank is built once per geometry. The batch splits into one contiguous
    block per usable CPU (`os.sched_getaffinity`), each run in its own
    thread pinned to its CPU, a few signals per FFT pass (numpy releases
    the GIL in every FFT and elementwise call); one CPU or one pass runs
    inline. Every row goes through the same arithmetic whatever the
    block, so the result does not depend on the CPU count.
    """
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError("samples must be (n_signals, length)")
    n_signals, n = x.shape
    if n < DEFAULT_N_FRAMES:
        raise ValueError(f"signal shorter than the {DEFAULT_N_FRAMES}-frame grid")
    windows, nfft = _morlet_bank(n, float(sample_rate))
    pooled = np.empty((n_signals, DEFAULT_N_SCALES, DEFAULT_N_FRAMES))
    cpus = _usable_cpus()
    step = max(1, _CHUNK // len(cpus))
    passes = -(-n_signals // step)
    threads = max(1, min(len(cpus), passes))
    # block k runs passes [passes * k // threads, passes * (k + 1) // threads)
    bounds = [min(step * (passes * k // threads), n_signals) for k in range(threads + 1)]
    jobs = [
        (x[a:b], pooled[a:b], windows, _pass_buffers(min(step, b - a), n, nfft))
        for a, b in zip(bounds, bounds[1:]) if b > a
    ]
    if len(jobs) == 1:
        _scalogram_block(*jobs[0])
    elif jobs:
        with concurrent.futures.ThreadPoolExecutor(len(jobs)) as pool:
            list(pool.map(_pinned_block, cpus, jobs))
    # min and max propagate NaN and allocate nothing batch-sized
    if pooled.size and not (pooled.min() >= 0 and pooled.max() < np.inf):
        raise ValueError("magnitudes must be finite and non-negative")
    return pooled


def _pass_buffers(step, length, nfft):
    """Spectra, windowed-spectra and magnitude buffers for passes of up
    to `step` signals of `length` samples."""
    return (
        np.empty((step, nfft), dtype=np.complex128),
        np.empty((step, DEFAULT_N_SCALES, nfft), dtype=np.complex128),
        np.empty((step, DEFAULT_N_SCALES, length)),
    )


def _scalogram_block(x, pooled, windows, buffers):
    """Scalograms of the rows of `x` into `pooled`, one pass of
    len(buffers[0]) signals at a time: FFT, window multiply, in-place
    inverse FFT and magnitude into the given buffers, then pooling by two
    reshape-means (the first `length % DEFAULT_N_FRAMES` frames one
    sample longer)."""
    spectra, windowed, magnitudes = buffers
    step, nfft = spectra.shape
    n_scales, n_frames = DEFAULT_N_SCALES, DEFAULT_N_FRAMES
    n = x.shape[1]
    size, n_long = divmod(n, n_frames)
    split = n_long * (size + 1)
    for start in range(0, x.shape[0], step):
        rows = x[start : start + step]
        m = rows.shape[0]
        np.fft.fft(rows, nfft, axis=-1, out=spectra[:m])
        np.multiply(spectra[:m, None, :], windows, out=windowed[:m])
        np.fft.ifft(windowed[:m], axis=-1, out=windowed[:m])
        mags = np.abs(windowed[:m, :, :n], out=magnitudes[:m])
        out = pooled[start : start + m]
        out[..., :n_long] = mags[..., :split].reshape(
            m, n_scales, n_long, size + 1).mean(axis=-1)
        out[..., n_long:] = mags[..., split:].reshape(
            m, n_scales, n_frames - n_long, size).mean(axis=-1)


def wavelet_transform(signal: Signal) -> np.ndarray:
    """Complex Morlet scalogram, magnitude only, pooled to a fixed grid:
    (DEFAULT_N_SCALES, DEFAULT_N_FRAMES), rows in descending frequency.

    The transform is evaluated in the frequency domain: for each center
    frequency f the analytic Morlet window exp(-(s*w - omega0)^2 / 2)
    (omega0 = MORLET_OMEGA0, s = omega0 / (2*pi*f), w in rad/sample)
    multiplies the signal spectrum, scaled so a unit-amplitude sinusoid at f responds with
    magnitude 1. The signal is zero-padded to the next power of two at
    least twice its length to suppress circular wrap-around, and the
    magnitude time axis is mean-pooled into exactly DEFAULT_N_FRAMES
    contiguous chunks (the first `length % DEFAULT_N_FRAMES` one sample
    longer). This is a one-row call of `scalograms`.
    """
    return scalograms(signal.samples[None, :], signal.sample_rate)[0]


def gen_spec_digest(spec: GenSpec) -> str:
    """Hex digest identifying a pretraining corpus recipe."""
    import hashlib
    import json

    payload = json.dumps(spec.canonical(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()
