"""Reference computations the benchmark checks the program's outputs against.

They are written from the documented definitions, not from the program's
code, and favour plainness over speed: they only run on a small sample.
"""

import numpy as np
import scipy.stats


def moments(x: np.ndarray) -> dict:
    """Excess kurtosis and skewness with biased (1/N) moments."""
    return {
        "kurtosis": float(scipy.stats.kurtosis(x, fisher=True, bias=True)),
        "skewness": float(scipy.stats.skew(x, bias=True)),
    }


class NaiveScalogram:
    """Per-signal Morlet scalogram from the `wavelet_transform` docstring.

    For each centre frequency f, log-spaced from fs/4 down to f_min, the
    analytic window 2*exp(-(s*w - omega0)^2 / 2), with s = omega0 /
    (2*pi*f/fs) and w in rad/sample, multiplies the spectrum of the signal
    zero-padded to the next power of two at least twice its length. The
    window is zero for w <= 0. The magnitude of the first n samples of the
    inverse transform is averaged over `n_frames` contiguous chunks whose
    sizes differ by at most one, the longer chunks first. Both transforms
    are explicit DFT matrices, so no FFT code is shared with the program.
    """

    def __init__(self, n_scales=32, n_frames=32, omega0=6.0, f_min=1.0):
        self.n_scales = n_scales
        self.n_frames = n_frames
        self.omega0 = omega0
        self.f_min = f_min
        self._dft = {}

    def _matrices(self, nfft: int, n: int):
        if (nfft, n) not in self._dft:
            k = np.arange(nfft)
            angle = 2.0 * np.pi * (np.outer(k, k) % nfft) / nfft
            forward = np.exp(-1j * angle)
            inverse_head = np.exp(1j * angle[:n]) / nfft
            self._dft[(nfft, n)] = (forward, inverse_head)
        return self._dft[(nfft, n)]

    def __call__(self, x: np.ndarray, fs: float) -> np.ndarray:
        n = x.size
        nfft = 1
        while nfft < 2 * n:
            nfft *= 2
        forward, inverse_head = self._matrices(nfft, n)
        padded = np.zeros(nfft)
        padded[:n] = x
        spectrum = forward @ padded
        k = np.arange(nfft)
        omega = 2.0 * np.pi * np.where(k < (nfft + 1) // 2, k, k - nfft) / nfft
        freqs = np.geomspace(fs / 4.0, self.f_min, self.n_scales)
        base, extra = divmod(n, self.n_frames)
        sizes = [base + 1] * extra + [base] * (self.n_frames - extra)
        out = np.empty((self.n_scales, self.n_frames))
        for row, f in enumerate(freqs):
            s = self.omega0 / (2.0 * np.pi * f / fs)
            window = np.where(
                omega > 0, 2.0 * np.exp(-0.5 * (s * omega - self.omega0) ** 2), 0.0
            )
            magnitude = np.abs(inverse_head @ (spectrum * window))
            start = 0
            for col, size in enumerate(sizes):
                out[row, col] = magnitude[start : start + size].mean()
                start += size
        return out
