"""Feature oracles against independent brute-force references.

Every closed-form feature is recomputed here by a second, deliberately
naive route (explicit loops, scipy.stats, a hand-built cosine matrix) and
compared at tight tolerances over a seeded corpus of generated signals.
"""

import inspect
import types
import warnings

import numpy as np
import pytest
import scipy.stats

from finnets import features as fe
from finnets import signals as sg
from finnets.errors import DegenerateSignal
from finnets.rng import rng_for

FS = 128.0


def make_signal(samples, fs=FS):
    return fe.Signal(np.asarray(samples, dtype=np.float64), fs)


def corpus(n=100, seed=9000):
    spec = sg.GenSpec(seed=seed)
    return [sg.generate(spec, i) for i in range(n)]


# ---------------------------------------------------------------------------
# reference implementations (independent coding)
# ---------------------------------------------------------------------------

def ref_entropy(x, n_bins=16):
    lo, hi = x.min(), x.max()
    if lo == hi:
        return 0.0
    edges = np.linspace(lo, hi, n_bins + 1)
    counts = np.zeros(n_bins)
    for v in x:
        j = int(np.searchsorted(edges, v, side="right")) - 1
        counts[min(max(j, 0), n_bins - 1)] += 1
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / x.size
            h -= p * np.log2(p)
    return h


def ref_f0(x, fs, f_min=1.0, threshold=0.3):
    xm = x - x.mean()
    n = x.size
    r = np.zeros(n)
    for tau in range(n):
        r[tau] = float(np.dot(xm[: n - tau], xm[tau:]))
    r /= r[0]
    max_lag = min(int(np.floor(fs / f_min)), n - 2)
    for lag in range(2, max_lag + 1):
        if r[lag] > threshold and r[lag] >= r[lag - 1] and r[lag] > r[lag + 1]:
            denom = r[lag - 1] - 2.0 * r[lag] + r[lag + 1]
            shift = 0.0 if denom == 0.0 else 0.5 * (r[lag - 1] - r[lag + 1]) / denom
            shift = min(max(shift, -0.5), 0.5)
            return fs / (lag + shift)
    return None


def ref_mel_bank(n_filters, frame_len, fs):
    def to_mel(hz):
        return 2595.0 * np.log10(1.0 + hz / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    freqs = np.arange(frame_len // 2 + 1) * fs / frame_len
    anchors = from_mel(np.linspace(0.0, to_mel(fs / 2.0), n_filters + 2))
    bank = np.zeros((n_filters, freqs.size))
    for j in range(n_filters):
        lo, mid, hi = anchors[j], anchors[j + 1], anchors[j + 2]
        for i, f in enumerate(freqs):
            if lo <= f <= mid and mid > lo:
                bank[j, i] = (f - lo) / (mid - lo)
            elif mid < f <= hi and hi > mid:
                bank[j, i] = (hi - f) / (hi - mid)
    return bank


def ref_mfcc(x, fs, n_coeffs=13):
    # 25 ms frames at a 10 ms hop, but at least 64 samples at a 32-sample hop
    frame_len = max(int(round(0.025 * fs)), 64)
    hop = max(int(round(0.010 * fs)), 32)
    window = np.hamming(frame_len)
    bank = ref_mel_bank(26, frame_len, fs)
    n_mels = bank.shape[0]
    # orthonormal DCT-II as an explicit cosine matrix
    k = np.arange(n_mels)[:, None]
    n = np.arange(n_mels)[None, :]
    dct = np.sqrt(2.0 / n_mels) * np.cos(np.pi * (2 * n + 1) * k / (2 * n_mels))
    dct[0] /= np.sqrt(2.0)
    rows = []
    start = 0
    while start + frame_len <= x.size:
        frame = x[start : start + frame_len] * window
        power = np.abs(np.fft.rfft(frame)) ** 2 / frame_len
        energies = bank @ power
        log_e = np.log(np.maximum(energies, 1e-10))
        rows.append((dct @ log_e)[:n_coeffs])
        start += hop
    return np.mean(rows, axis=0)


def ref_regularity(x):
    q = sorted((v * v for v in x), reverse=True)
    total = sum(q)
    acc = sum((i + 1) ** 2 * qi for i, qi in enumerate(q))
    n = len(x)
    val = (acc / (n * n / 3.0 * total)) ** 0.5
    return min(max(val, 0.0), 1.0)


# ---------------------------------------------------------------------------
# oracle equivalence on generated corpora
# ---------------------------------------------------------------------------

def test_entropy_matches_reference_on_corpus():
    for s in corpus():
        got = fe.compute_feature(s, "entropy")[0]
        assert abs(got - ref_entropy(s.samples)) < 1e-9


def test_moments_match_scipy_on_corpus():
    for s in corpus():
        want_k = scipy.stats.kurtosis(s.samples, fisher=True, bias=True)
        want_s = scipy.stats.skew(s.samples, bias=True)
        assert abs(fe.compute_feature(s, "kurtosis")[0] - want_k) < 1e-9
        assert abs(fe.compute_feature(s, "skewness")[0] - want_s) < 1e-9


def test_f0_matches_reference_on_corpus():
    periodic = 0
    for s in corpus():
        got = fe.compute_feature(s, "f0")[0]
        want = ref_f0(s.samples, s.sample_rate)
        if want is None:
            assert got == 0.0
        else:
            periodic += 1
            assert abs(got - want) < 0.5
    assert periodic > 10  # the corpus must actually exercise the detector


def test_mfcc_matches_reference_on_corpus():
    # audio-like rate: the 25 ms frame spans enough samples to be meaningful
    rng = rng_for(77, "mfcc-corpus")
    for _ in range(100):
        x = rng.standard_normal(2000) + 0.5 * np.sin(
            2 * np.pi * rng.uniform(100, 3000) * np.arange(2000) / 8000.0
        )
        got = fe.compute_feature(make_signal(x, 8000.0), "mfcc")
        want = ref_mfcc(x, 8000.0)
        np.testing.assert_allclose(got, want, atol=1e-6)


def test_mfcc_matches_reference_at_corpus_rate():
    for s in corpus(30):
        np.testing.assert_allclose(
            fe.compute_feature(s, "mfcc"), ref_mfcc(s.samples, s.sample_rate), atol=1e-6
        )


def test_regularity_matches_reference_on_corpus():
    for s in corpus():
        got = fe.compute_feature(s, "regularity")[0]
        assert abs(got - ref_regularity(s.samples)) < 1e-9


# ---------------------------------------------------------------------------
# closed-form spot values and properties
# ---------------------------------------------------------------------------

def test_entropy_uniform_bins_is_log2():
    s = make_signal(np.repeat(np.arange(16.0), 4))
    assert fe.compute_feature(s, "entropy")[0] == pytest.approx(4.0, abs=1e-12)


def test_entropy_constant_is_zero():
    assert fe.compute_feature(make_signal(np.ones(64)), "entropy")[0] == 0.0


def test_entropy_bounds_and_permutation_invariance():
    rng = rng_for(5, "entropy")
    x = rng.standard_normal(512)
    h = fe.compute_feature(make_signal(x), "entropy")[0]
    assert 0.0 <= h <= 4.0
    reversed_h = fe.compute_feature(make_signal(x[::-1]), "entropy")[0]
    assert reversed_h == pytest.approx(h, abs=1e-12)


def test_kurtosis_alternating_is_minus_two():
    s = make_signal(np.tile([1.0, -1.0], 32))
    assert fe.compute_feature(s, "kurtosis")[0] == pytest.approx(-2.0, abs=1e-12)


def test_kurtosis_scale_invariant():
    rng = rng_for(6, "kurt")
    x = rng.standard_normal(256)
    a = fe.compute_feature(make_signal(x), "kurtosis")[0]
    b = fe.compute_feature(make_signal(7.5 * x), "kurtosis")[0]
    assert a == pytest.approx(b, abs=1e-9)


def test_skewness_spike_pattern_value():
    # {0,0,0,1} repeated: mean 1/4, m2 = 3/16, m3 = 3/32, skew = 2/sqrt(3)
    s = make_signal(np.tile([0.0, 0.0, 0.0, 1.0], 16))
    got = fe.compute_feature(s, "skewness")[0]
    assert got == pytest.approx(2.0 / np.sqrt(3.0), abs=1e-12)


def test_skewness_antisymmetric():
    rng = rng_for(7, "skew")
    x = rng.standard_normal(256) ** 3
    assert fe.compute_feature(make_signal(-x), "skewness")[0] == pytest.approx(
        -fe.compute_feature(make_signal(x), "skewness")[0], abs=1e-12
    )


def test_moments_reject_constant_signal():
    with pytest.raises(DegenerateSignal):
        fe.compute_feature(make_signal(np.full(64, 3.0)), "kurtosis")
    with pytest.raises(DegenerateSignal):
        fe.compute_feature(make_signal(np.full(64, 3.0)), "skewness")


def test_f0_pure_tones_across_band():
    t = np.arange(512) / FS
    for freq in (2.0, 5.3, 10.0, 17.7, 30.0):
        got = fe.compute_feature(make_signal(np.sin(2 * np.pi * freq * t)), "f0")[0]
        assert abs(got - freq) < 0.5


def test_f0_harmonic_stack_returns_fundamental():
    t = np.arange(512) / FS
    x = (
        np.sin(2 * np.pi * 10.0 * t)
        + 0.6 * np.sin(2 * np.pi * 20.0 * t)
        + 0.3 * np.sin(2 * np.pi * 30.0 * t)
    )
    got = fe.compute_feature(make_signal(x), "f0")[0]
    assert abs(got - 10.0) < 0.5


def test_f0_white_noise_is_aperiodic():
    for seed in range(5):
        x = rng_for(seed, "f0-noise").standard_normal(512)
        assert fe.compute_feature(make_signal(x), "f0")[0] == 0.0


def test_f0_requires_two_periods():
    # the search floor is max(F0_MIN_HZ, 2 fs / n): 100 samples at 128 Hz
    # hold two periods down to 2.56 Hz, so a 10 Hz tone is found there
    t = np.arange(100) / FS
    got = fe.compute_feature(make_signal(np.sin(2 * np.pi * 10 * t)), "f0")[0]
    assert got == pytest.approx(10.03, abs=0.01)
    # control: 512 samples would allow 0.5 Hz, but the floor stays at
    # F0_MIN_HZ, so a 0.7 Hz tone that a 0.5 Hz floor finds reads aperiodic
    t = np.arange(512) / FS
    slow = np.sin(2 * np.pi * 0.7 * t)
    assert fe.compute_feature(make_signal(slow), "f0")[0] == 0.0
    assert ref_f0(slow, FS, f_min=0.5) == pytest.approx(0.71, abs=0.01)


def test_f0_threshold_gates_detection():
    # an 8 Hz tone's autocorrelation peak clears F0_THRESHOLD under mild
    # noise; under heavy noise it does not, though a 0.05 threshold would
    # still find a period there
    noise = rng_for(8, "f0-thresh").standard_normal(512)
    tone = np.sin(2 * np.pi * 8.0 * np.arange(512) / FS)
    clear = fe.compute_feature(make_signal(tone + 0.5 * noise), "f0")[0]
    assert abs(clear - 8.0) < 0.5
    buried = tone + 2.5 * noise
    assert fe.compute_feature(make_signal(buried), "f0")[0] == 0.0
    assert ref_f0(buried, FS, threshold=0.05) is not None


def test_mfcc_length_and_finiteness():
    for s in corpus(10):
        c = fe.compute_feature(s, "mfcc")
        assert c.shape == (13,)
        assert np.all(np.isfinite(c))


def test_mfcc_amplitude_scaling_only_shifts_c0():
    rng = rng_for(9, "mfcc-scale")
    x = rng.standard_normal(4000)
    a = fe.compute_feature(make_signal(x, 8000.0), "mfcc")
    b = fe.compute_feature(make_signal(10.0 * x, 8000.0), "mfcc")
    assert abs(b[0] - a[0]) > 1e-3
    np.testing.assert_allclose(a[1:], b[1:], atol=1e-9)


def test_regularity_constant_is_one():
    assert fe.compute_feature(make_signal(np.ones(512)), "regularity")[0] == 1.0


def test_regularity_burst_below_sustained():
    t = np.arange(512) / FS
    sustained = np.sin(2 * np.pi * 10 * t)
    burst = np.zeros(512)
    burst[250:260] = 1.0
    burst_score = fe.compute_feature(make_signal(burst), "regularity")[0]
    assert burst_score < fe.compute_feature(make_signal(sustained), "regularity")[0]


def test_regularity_rejects_all_zero():
    with pytest.raises(DegenerateSignal):
        fe.compute_feature(make_signal(np.zeros(16)), "regularity")


# ---------------------------------------------------------------------------
# vector plumbing
# ---------------------------------------------------------------------------

def test_normalize_clips_out_of_range():
    normed = fe.normalize_feature(np.array([-10.0, 10.0]), np.zeros(2), np.ones(2))
    np.testing.assert_array_equal(normed, [0.0, 1.0])


def test_normalize_scales_each_row_of_a_batch():
    values = np.array([[1.5, -0.5], [0.0, 1.0]])
    lo, hi = np.array([0.0, -1.0]), np.array([2.0, 1.0])
    normed = fe.normalize_feature(values, lo, hi)
    np.testing.assert_allclose(normed, [[0.75, 0.25], [0.0, 1.0]], atol=1e-15)


def test_normalize_rejects_bad_ranges():
    with pytest.raises(ValueError):
        fe.normalize_feature(np.ones(2), np.zeros(1), np.ones(1))  # width
    with pytest.raises(ValueError):
        fe.normalize_feature(np.ones(1), np.ones(1), np.ones(1))  # hi == lo
    with pytest.raises(ValueError):
        fe.normalize_feature(np.ones(1), np.array([5.0]), np.array([1.0]))
    # either bound alone of the wrong shape; a (1,) bound would broadcast
    # over the 13 mfcc components
    for lo, hi in ((np.zeros(1), np.ones(13)), (np.zeros(13), np.ones(1))):
        with pytest.raises(ValueError, match="normalization range shape mismatch"):
            fe.normalize_feature(np.full(13, 0.5), lo, hi)
    assert fe.normalize_feature(np.full(13, 0.5), np.zeros(13), np.ones(13)).shape == (13,)
    # an infinite bound or width would map every value to 0 or NaN; an
    # overflowing width is refused without a warning
    bad = ((0.0, np.inf), (-np.inf, np.inf), (-np.inf, 0.0), (0.0, np.nan), (-1e308, 1e308))
    for lo, hi in bad:
        with warnings.catch_warnings(), pytest.raises(ValueError, match="finite hi > lo"):
            warnings.simplefilter("error")
            fe.normalize_feature(np.ones(1), np.array([lo]), np.array([hi]))


def test_mfcc_at_the_corpus_rate_carries_13_numbers():
    frame_len, _ = fe._mfcc_geometry(FS)
    assert fe.mel_filterbank(fe.MFCC_N_FILTERS, frame_len, FS).any(axis=1).all()
    x = sg.generate_rows(sg.GenSpec(seed=26), range(2000))
    coeffs = fe.compute_features(x, FS, "mfcc")
    assert np.linalg.matrix_rank(coeffs - coeffs.mean(axis=0)) == fe.DEFAULT_N_MFCC


# at 3350 Hz both lengths round up, (83.75, 33.5) -> (84, 34), where
# truncation would give (83, 33)
SWEEP_HZ = (4.21, 64.0, 100.0, 128.0, 250.0, 500.0, 1000.0, 2000.0, 3350.0, 8000.0,
            16000.0)


@pytest.mark.parametrize("fs", SWEEP_HZ)
def test_documented_mfcc_geometry_weights_every_mel_filter(fs):
    frame_len, hop = fe._mfcc_geometry(fs)
    assert (frame_len, hop) == (max(round(0.025 * fs), 64), max(round(0.010 * fs), 32))
    if fs == 3350.0:
        assert (frame_len, hop) == (84, 34)
    assert fe.mel_filterbank(fe.MFCC_N_FILTERS, frame_len, fs).any(axis=1).all()
    # negative control: 25 ms frames without the floor leave filters empty
    # up to 1 kHz, and the bank refuses them
    bare = max(round(0.025 * fs), 2)
    if fs <= 1000.0:
        with pytest.raises(ValueError, match=rf"\({fe.MFCC_N_FILTERS}, {bare}, {fs}\)"):
            fe.mel_filterbank(fe.MFCC_N_FILTERS, bare, fs)
    else:
        assert fe.mel_filterbank(fe.MFCC_N_FILTERS, bare, fs).any(axis=1).all()


def test_mfcc_needs_one_64_sample_frame():
    fe.compute_features(np.ones((2, 64)), FS, "entropy")
    assert fe.compute_features(rng_for(4, "short").standard_normal((2, 64)), FS,
                               "mfcc").shape == (2, fe.DEFAULT_N_MFCC)
    with pytest.raises(ValueError, match="shorter than one 64-sample frame"):
        fe.compute_features(rng_for(4, "short").standard_normal((2, 63)), FS, "mfcc")


def constants_read(fn, seen=None):
    """Names of the features module's upper-case constants that `fn`
    reads, itself or through the module's functions it calls."""
    seen = set() if seen is None else seen
    names = set()
    codes = [inspect.unwrap(fn).__code__]
    while codes:
        code = codes.pop()
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
        for name in code.co_names:
            if name not in vars(fe):  # an attribute such as `.T`, or a builtin
                continue
            value = vars(fe)[name]
            if name.isupper() and not callable(value):
                names.add(name)
            elif (isinstance(value, types.FunctionType) or hasattr(value, "__wrapped__")) \
                    and inspect.unwrap(value).__module__ == fe.__name__ and name not in seen:
                seen.add(name)
                names |= constants_read(value, seen)
    return names


def test_oracle_digest_covers_every_constant_the_oracle_reads():
    for feature in fe.FEATURE_NAMES:
        rows = getattr(fe, f"_{feature}_rows")
        read = constants_read(rows)
        if feature == "mfcc":  # the width and the length check sit in `_oracle`
            read |= {"DEFAULT_N_MFCC"} | constants_read(fe._mfcc_geometry)
        assert set(fe._ORACLE_CONSTANTS[feature]) == read, feature
    assert constants_read(fe._mfcc_rows) >= {"MFCC_MIN_FRAME", "MFCC_N_FILTERS"}


def test_oracle_digest_follows_its_constants(monkeypatch):
    before = {f: fe.oracle_digest(f) for f in fe.FEATURE_NAMES}
    assert len(set(before.values())) == len(fe.FEATURE_NAMES)
    assert {f: fe.oracle_digest(f) for f in fe.FEATURE_NAMES} == before
    monkeypatch.setattr(fe, "MFCC_MIN_FRAME", 2)
    after = {f: fe.oracle_digest(f) for f in fe.FEATURE_NAMES}
    assert [f for f in fe.FEATURE_NAMES if after[f] != before[f]] == ["mfcc"]
    with pytest.raises(ValueError, match="unknown feature"):
        fe.oracle_digest("loudness")


def test_mel_filterbank_is_shared_and_read_only():
    bank = fe.mel_filterbank(fe.MFCC_N_FILTERS, 64, 128.0)
    assert fe.mel_filterbank(fe.MFCC_N_FILTERS, 64, 128.0) is bank
    with pytest.raises(ValueError):
        bank[0, 0] = 1.0


def test_compute_feature_encodes_aperiodic_as_zero():
    x = rng_for(1, "aperiodic").standard_normal(512)
    out = fe.compute_feature(make_signal(x), "f0")
    assert out.shape == (1,) and out[0] == 0.0


def test_compute_feature_widths_match_declaration():
    s = corpus(1)[0]
    for name in fe.FEATURE_NAMES:
        out = fe.compute_feature(s, name)
        assert out.shape == (fe.feature_width(name),)


def test_signal_validation():
    with pytest.raises(ValueError):
        fe.Signal(np.ones((2, 2)), FS)  # not 1-D
    with pytest.raises(ValueError, match="non-empty 1-D"):
        fe.Signal(np.array([]), FS)
    with pytest.raises(ValueError):
        fe.Signal(np.array([1.0, np.nan]), FS)
    for fs in (0.0, np.inf):
        with pytest.raises(ValueError, match="sample_rate must be positive and finite"):
            fe.Signal(np.ones(4), fs)


def test_one_name_rule_refuses_an_unknown_feature_everywhere():
    # feature_width states the rule; the others ask it before any work
    x = np.linspace(-1.0, 1.0, 64)[None, :]
    calls = (
        lambda: fe.feature_width("loudness"),
        lambda: fe.oracle_digest("loudness"),
        lambda: fe.compute_features(x, FS, "loudness"),
        lambda: fe.compute_feature(make_signal(x[0]), "loudness"),
    )
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == "unknown feature 'loudness'"
    # controls: every name of FEATURE_NAMES passes all four
    for name in fe.FEATURE_NAMES:
        assert fe.feature_width(name) == fe.compute_features(x, FS, name).shape[1]
        assert len(fe.oracle_digest(name)) == 64


def test_moment_and_regularity_length_floors():
    # one sample short of each floor is refused by name; the floor itself runs
    for feature, floor in (("kurtosis", 4), ("skewness", 3), ("regularity", 2)):
        short = np.arange(floor - 1, dtype=np.float64)[None, :] + 1.0
        with pytest.raises(ValueError, match=f"{feature} needs at least {floor} samples"):
            fe.compute_features(short, FS, feature)
        value = fe.compute_features(np.arange(floor, dtype=np.float64)[None, :] + 1.0,
                                    FS, feature)
        assert value.shape == (1, 1) and np.isfinite(value).all()


@pytest.mark.parametrize("fs", [0.0, -1.0, np.nan, np.inf])
def test_compute_features_refuses_a_sample_rate_that_is_not_positive(fs):
    x = corpus(2)[0].samples[None, :]
    # without the check, f0 at -1 Hz reads 0.0 Hz, "aperiodic", without an error
    for feature in ("f0", "entropy"):
        with pytest.raises(ValueError, match="sample_rate must be positive"):
            fe.compute_features(x, fs, feature)
    assert fe.compute_features(x, FS, "f0").shape == (1, 1)  # control
