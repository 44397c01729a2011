"""Batched front end and oracles: exact per row, flat in memory.

`features.compute_features` must give every row bit for bit the value the
per-signal oracle code below gives. That code is the oracles as they
were before batching, with the moments taken by repeated squaring (as
`scipy.stats` takes them) and one DCT of each signal's mean log-mel
energies. The corpora are large enough that each known rounding trap of
a batched form shows on some row:

- an array `m2 ** 1.5` can differ by an ulp from Python's float power
  (skewness);
- a complex product `spec * conj(spec)` over a whole batch rounds some
  bins differently from the same product over one row (f0);
- a 2-D matmul over all frames of a batch differs from the per-row
  products at wide frames, where a stacked 3-D matmul does not (mfcc,
  at 8 kHz).

The memory tests keep chunking from quietly turning into a temporary
that grows with the batch.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.fft
import scipy.stats

from finnets import features as fe
from finnets import signals as sg
from finnets.errors import DegenerateSignal
from finnets.rng import rng_for

# ---------------------------------------------------------------------------
# per-signal reference: the oracle code as it was before batching
# ---------------------------------------------------------------------------


def ref_entropy(x):
    if x.min() == x.max():
        return 0.0
    counts, _ = np.histogram(x, bins=fe.DEFAULT_N_BINS)
    p = counts[counts > 0] / x.size
    return float(-(p * np.log2(p)).sum())


def ref_moments(x):
    """m2, m3 and m4 by repeated squaring, in `scipy.stats.moment`'s order."""
    c = x - x.mean()
    c2 = c * c
    return float(np.mean(c2)), float(np.mean(c2 * c)), float(np.mean(c2 * c2))


def ref_kurtosis(x):
    m2, _, m4 = ref_moments(x)
    return m4 / (m2 * m2) - 3.0


def ref_skewness(x):
    m2, m3, _ = ref_moments(x)
    return m3 / m2 ** 1.5


def ref_f0(x, fs):
    xm = x - x.mean()
    n = x.size
    f_min = max(fe.F0_MIN_HZ, 2 * fs / n)  # two periods of the floor fit
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    spec = np.fft.rfft(xm, nfft)
    acf = np.fft.irfft(spec * np.conj(spec), nfft)[:n]
    r = acf / acf[0]
    max_lag = min(int(np.floor(fs / f_min)), n - 2)
    for lag in range(2, max_lag + 1):
        if r[lag] > fe.F0_THRESHOLD and r[lag] >= r[lag - 1] and r[lag] > r[lag + 1]:
            denom = r[lag - 1] - 2.0 * r[lag] + r[lag + 1]
            shift = 0.0 if denom == 0.0 else 0.5 * (r[lag - 1] - r[lag + 1]) / denom
            shift = float(np.clip(shift, -0.5, 0.5))
            return float(fs / (lag + shift))
    return 0.0


def ref_log_mel(x, fs):
    """(frames, filters) log-mel energies of one signal."""
    frame_len = max(int(round(fe.MFCC_FRAME_SECONDS * fs)), fe.MFCC_MIN_FRAME)
    hop = max(int(round(fe.MFCC_HOP_SECONDS * fs)), fe.MFCC_MIN_HOP)
    n_frames = 1 + (x.size - frame_len) // hop
    idx = np.arange(frame_len)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = x[idx] * np.hamming(frame_len)
    power = np.abs(np.fft.rfft(frames, axis=1)) ** 2 / frame_len
    energies = power @ fe.mel_filterbank(fe.MFCC_N_FILTERS, frame_len, fs).T
    return np.log(np.maximum(energies, fe.MFCC_LOG_FLOOR))


def ref_mfcc(x, fs):
    mean_log_e = ref_log_mel(x, fs).mean(axis=0)
    return scipy.fft.dct(mean_log_e, type=2, norm="ortho")[:fe.DEFAULT_N_MFCC]


def per_frame_mfcc(x, fs):
    """The mean of the per-frame cepstra: one DCT per frame."""
    coeffs = scipy.fft.dct(ref_log_mel(x, fs), type=2, norm="ortho", axis=1)
    return coeffs[:, :fe.DEFAULT_N_MFCC].mean(axis=0)


def ref_regularity(x):
    q = np.sort(x * x)[::-1]
    total = q.sum()
    n = x.size
    ranks = np.arange(1, n + 1, dtype=np.float64)
    value = np.sqrt((ranks * ranks * q).sum() / (n * n / 3.0 * total))
    return float(np.clip(value, 0.0, 1.0))


def reference(x, fs, feature):
    if feature == "entropy":
        return [ref_entropy(x)]
    if feature == "kurtosis":
        return [ref_kurtosis(x)]
    if feature == "skewness":
        return [ref_skewness(x)]
    if feature == "f0":
        return [ref_f0(x, fs)]
    if feature == "mfcc":
        return ref_mfcc(x, fs)
    return [ref_regularity(x)]


# ---------------------------------------------------------------------------
# exactness
# ---------------------------------------------------------------------------

N_ROWS = 2 * fe._ROWS + 11  # three passes, the last one partial


def edge_row(length, n_bins=fe.DEFAULT_N_BINS):
    """Samples lying exactly on the histogram's bin edges, the maximum
    among them (closed last bin), edge k taken k + 1 times so a sample
    assigned to a neighbouring bin changes the entropy; the rest of the
    row sits strictly inside the bins. In this range the scaled index of
    four interior edges truncates one bin low, so `np.histogram`'s
    correction against the edges decides their bin."""
    edges = np.linspace(-2.57, 2.85, n_bins + 1)
    on_edges = np.repeat(edges, np.arange(1, n_bins + 2))
    inside = edges[:-1] + 0.37 * np.diff(edges)
    rest = np.resize(inside, length - on_edges.size)
    return rng_for(3, "edge-row").permutation(np.concatenate([on_edges, rest]))


def corpus_batch(length, fs):
    spec = sg.GenSpec(length=length, sample_rate=fs, seed=11)
    x = np.stack([sg.generate(spec, i).samples for i in range(N_ROWS)])
    x[5] = edge_row(length)
    x[fe._ROWS + 3] = rng_for(4, "white").standard_normal(length)  # aperiodic
    return x


GEOMETRIES = [(512, 128.0), (300, 100.0), (1000, 250.0), (2000, 8000.0)]
GEOMETRY_IDS = ["512@128", "300@100", "1000@250", "2000@8000"]


# f0's derived search floor, max(1 Hz, 2 fs / length), is 1 Hz at the first
# three geometries and 8 Hz at the audio rate
@pytest.mark.parametrize("feature", fe.FEATURE_NAMES)
@pytest.mark.parametrize("length, fs", GEOMETRIES, ids=GEOMETRY_IDS)
def test_every_row_equals_the_per_signal_oracle(feature, length, fs):
    x = corpus_batch(length, fs)
    got = fe.compute_features(x, fs, feature)
    assert got.shape == (N_ROWS, fe.feature_width(feature))
    for i, row in enumerate(x):
        want = np.asarray(reference(row, fs, feature))
        assert np.array_equal(got[i], want), (i, got[i], want)


@pytest.mark.parametrize("length, fs", GEOMETRIES, ids=GEOMETRY_IDS)
def test_moments_are_scipys(length, fs):
    x = corpus_batch(length, fs)
    kurtosis = fe.compute_features(x, fs, "kurtosis")[:, 0]
    skewness = fe.compute_features(x, fs, "skewness")[:, 0]
    for i, row in enumerate(x):
        assert kurtosis[i] == scipy.stats.kurtosis(row, fisher=True, bias=True), i
        assert skewness[i] == scipy.stats.skew(row, bias=True), i


@pytest.mark.parametrize("length, fs", GEOMETRIES, ids=GEOMETRY_IDS)
def test_mfcc_is_the_mean_of_the_per_frame_cepstra(length, fs):
    # the DCT is linear: one DCT of the mean log energies equals the mean
    # of the per-frame DCTs up to rounding
    x = corpus_batch(length, fs)
    got = fe.compute_features(x, fs, "mfcc")
    for i, row in enumerate(x):
        want = per_frame_mfcc(row, fs)
        assert np.abs(got[i] - want).max() <= 1e-12 * np.abs(want).max(), i


def test_one_row_calls_are_the_batch_rows():
    x = corpus_batch(512, 128.0)
    for feature in fe.FEATURE_NAMES:
        batch = fe.compute_features(x, 128.0, feature)
        for i in (0, 5, N_ROWS - 1):
            one = fe.compute_feature(fe.Signal(x[i], 128.0), feature)
            assert np.array_equal(one, batch[i])


def test_edge_rows_inside_a_batch():
    x = corpus_batch(512, 128.0)
    x[7] = 2.5  # constant
    entropy = fe.compute_features(x, 128.0, "entropy")[:, 0]
    assert entropy[7] == 0.0
    _, edges = np.histogram(x[5], bins=fe.DEFAULT_N_BINS)
    assert np.isin(edges, x[5]).all() and x[5].max() == edges[-1]
    assert entropy[5] == ref_entropy(x[5])
    assert fe.compute_features(x[[1, fe._ROWS + 3]], 128.0, "f0")[1, 0] == 0.0


@pytest.mark.parametrize(
    "feature, bad",
    [("kurtosis", 1.0), ("skewness", -2.0), ("f0", 0.5), ("regularity", 0.0)],
)
def test_degenerate_row_is_named(feature, bad):
    x = corpus_batch(512, 128.0)
    row = fe._ROWS + 6  # in the second pass
    x[row] = bad
    x[row + 4] = bad  # only the first is reported
    with pytest.raises(DegenerateSignal) as err:
        fe.compute_features(x, 128.0, feature)
    assert err.value.row == row
    assert str(err.value).startswith(f"row {row}: ")


def test_batch_validation():
    x = corpus_batch(300, 100.0)
    assert fe.compute_features(x[:0], 100.0, "mfcc").shape == (0, fe.DEFAULT_N_MFCC)
    x[40, 3] = np.nan
    with pytest.raises(ValueError, match="row 40"):
        fe.compute_features(x, 100.0, "entropy")
    with pytest.raises(ValueError):
        fe.compute_features(x[0], 100.0, "entropy")  # not 2-D
    with pytest.raises(ValueError):
        fe.compute_features(x[:2], 100.0, "loudness")


# ---------------------------------------------------------------------------
# bounded memory
# ---------------------------------------------------------------------------


def traced_peak(fn, *args) -> int:
    """Peak traced bytes while `fn(*args)` runs, its result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


SLACK = 1 << 20


def test_scalogram_memory_does_not_grow_with_the_batch():
    x = rng_for(5, "memory").standard_normal((1024, 512))
    small = traced_peak(sg.scalograms, x[:64], 128.0)
    large = traced_peak(sg.scalograms, x, 128.0)
    output_growth = (1024 - 64) * sg.DEFAULT_N_SCALES * sg.DEFAULT_N_FRAMES * 8
    assert large - small <= output_growth + SLACK, (small, large)


def test_mfcc_memory_does_not_grow_with_the_batch():
    x = rng_for(6, "memory").standard_normal((1024, 512))
    small = traced_peak(fe.compute_features, x[:64], 128.0, "mfcc")
    large = traced_peak(fe.compute_features, x, 128.0, "mfcc")
    output_growth = (1024 - 64) * fe.DEFAULT_N_MFCC * 8
    assert large - small <= output_growth + SLACK, (small, large)


def test_generation_memory_does_not_grow_with_the_batch():
    # one standardization block against eight: only the output may grow
    spec = sg.GenSpec(seed=7)
    small = traced_peak(sg.generate_rows, spec, range(256))
    large = traced_peak(sg.generate_rows, spec, range(2048))
    output_growth = (2048 - 256) * spec.length * 8
    assert large - small <= output_growth + SLACK, (small, large)
