"""Synthetic corpus generation and the wavelet front end."""

import os
import sys
import threading

import numpy as np
import pytest

from finnets import signals as sg
from finnets.errors import DegenerateSignal
from finnets.features import Signal, compute_feature
from finnets.rng import rng_for


def test_generate_is_pure_in_seed_and_index():
    spec = sg.GenSpec(seed=11)
    a = sg.generate(spec, 5)
    b = sg.generate(spec, 5)
    np.testing.assert_array_equal(a.samples, b.samples)
    assert not np.array_equal(a.samples, sg.generate(spec, 6).samples)
    other = sg.GenSpec(seed=12)
    assert not np.array_equal(a.samples, sg.generate(other, 5).samples)


def test_generate_is_order_independent():
    spec = sg.GenSpec(seed=3)
    alone = sg.generate(spec, 7)
    after_others = [sg.generate(spec, i) for i in range(10)][7]
    np.testing.assert_array_equal(alone.samples, after_others.samples)


def test_generated_signals_are_standardized():
    spec = sg.GenSpec(seed=4)
    for i in range(20):
        x = sg.generate(spec, i).samples
        assert abs(x.mean()) < 1e-9
        assert abs(x.std() - 1.0) < 1e-9
        assert x.size == spec.length


def reference_signal(spec, index):
    """(family, samples) of one corpus signal by the per-signal path that
    `generate_rows` replaced: family draw, a checked `Signal`, then
    (x - mean) / std."""
    rng = rng_for(spec.seed, "signal", index)
    u = rng.random()
    cumulative = 0.0
    family = sg.GENERATOR_FAMILIES[-1]
    for name in sg.GENERATOR_FAMILIES:
        cumulative += spec.family_weights[name]
        if u < cumulative:
            family = name
            break
    raw = sg._FAMILY_FUNCS[family](rng, spec.length, spec.sample_rate)
    x = Signal(raw, spec.sample_rate).samples
    return family, (x - x.mean()) / x.std()


def test_generate_rows_matches_the_per_signal_reference():
    # gaps, a reversed run and a repeat
    indices = [5, 0, 999, 3, 3, 42] + list(range(60, 40, -1))
    for length, fs in ((64, 128.0), (300, 50.0)):
        for seed in (0, 1, 7):
            spec = sg.GenSpec(length=length, sample_rate=fs, seed=seed)
            families, want = zip(*(reference_signal(spec, i) for i in indices))
            assert set(families) == set(sg.GENERATOR_FAMILIES)
            rows = sg.generate_rows(spec, indices)
            assert rows.shape == (len(indices), length) and rows.dtype == np.float64
            assert rows.tobytes() == np.stack(want).tobytes()
            for i in (0, 42):
                assert sg.generate(spec, i).samples.tobytes() == \
                    sg.generate_rows(spec, [i])[0].tobytes()


def patched_third_row(monkeypatch, value):
    """Make every generated signal white noise except the third, which is
    all `value`."""
    calls = []

    def third_is_constant(rng, n, fs):
        calls.append(n)
        return np.full(n, value) if len(calls) == 3 else rng.standard_normal(n)

    monkeypatch.setitem(sg._FAMILY_FUNCS, "white_noise", third_is_constant)
    return sg.GenSpec(length=64, family_weights={"white_noise": 1.0})


def test_generate_rows_names_a_constant_row(monkeypatch):
    spec = patched_third_row(monkeypatch, 2.0)
    with pytest.raises(DegenerateSignal, match="row 2: cannot standardize") as info:
        sg.generate_rows(spec, [10, 11, 12, 13])
    assert info.value.row == 2
    monkeypatch.undo()  # control: the same rows unpatched
    assert np.all(np.isfinite(sg.generate_rows(spec, [10, 11, 12, 13])))


def test_generate_rows_names_a_non_finite_row(monkeypatch):
    spec = patched_third_row(monkeypatch, np.nan)
    with pytest.raises(ValueError, match="row 2: samples must be finite") as info:
        sg.generate_rows(spec, [10, 11, 12, 13])
    assert not isinstance(info.value, DegenerateSignal)


@pytest.mark.parametrize("block", [1, 2, 3])
def test_standardization_blocks_keep_rows_and_row_names(monkeypatch, block):
    spec = sg.GenSpec(length=64, seed=3)
    want = sg.generate_rows(spec, range(7)).tobytes()
    monkeypatch.setattr(sg, "_STANDARDIZE_ROWS", block)
    assert sg.generate_rows(spec, range(7)).tobytes() == want
    for value, error in ((2.0, DegenerateSignal), (np.inf, ValueError)):
        with pytest.raises(error, match="row 2: "):
            sg.generate_rows(patched_third_row(monkeypatch, value), [10, 11, 12, 13])


def test_gen_spec_validation():
    with pytest.raises(ValueError):
        sg.GenSpec(length=32)
    with pytest.raises(ValueError):
        sg.GenSpec(sample_rate=0.0)
    with pytest.raises(ValueError):
        sg.GenSpec(family_weights={"white_noise": 1.0, "laser": 0.0})
    with pytest.raises(ValueError):
        sg.GenSpec(family_weights={"white_noise": 0.7, "burst": 0.7})
    with pytest.raises(ValueError):
        sg.GenSpec(family_weights={"white_noise": 1.5, "burst": -0.5})


def test_gen_spec_sample_rate_floor():
    # tones are drawn from [CWT_F_MIN, 0.95 * fs / 4], empty below ~4.21 Hz
    tones = {"sine_mixture": 0.5, "burst": 0.5}
    spec = sg.GenSpec(length=64, sample_rate=4.2106, family_weights=tones)
    assert all(np.all(np.isfinite(sg.generate(spec, i).samples)) for i in range(40))
    for fs in (4.2105, 3.0):
        with pytest.raises(ValueError, match=r"at least 4\.21 Hz"):
            sg.GenSpec(length=64, sample_rate=fs, family_weights=tones)


@pytest.mark.parametrize("fs", [0.0, -128.0, np.nan, np.inf])
def test_gen_spec_tone_band_rule_refuses_every_rate_that_is_not_positive(fs):
    # the tone-band rule is the only sample-rate rule
    with pytest.raises(ValueError, match=r"sample_rate must be at least 4\.21 Hz"):
        sg.GenSpec(sample_rate=fs)


def test_single_family_weights_steer_generation():
    # pure white noise: excess kurtosis of each signal hovers near 0
    spec = sg.GenSpec(seed=8, family_weights={"white_noise": 1.0})
    values = [compute_feature(sg.generate(spec, i), "kurtosis")[0] for i in range(30)]
    assert abs(float(np.mean(values))) < 0.3


def test_center_frequencies_geometric_and_descending():
    freqs = sg.morlet_center_frequencies(128.0)
    assert freqs.shape == (32,)
    assert freqs[0] == pytest.approx(32.0)
    assert freqs[-1] == pytest.approx(1.0)
    ratios = freqs[1:] / freqs[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
    with pytest.raises(ValueError):
        sg.morlet_center_frequencies(3.0)  # fs/4 below CWT_F_MIN


def test_scalogram_shape_and_scales():
    spec = sg.GenSpec(seed=2)
    mags = sg.wavelet_transform(sg.generate(spec, 0))
    assert mags.shape == (sg.DEFAULT_N_SCALES, sg.DEFAULT_N_FRAMES) == (32, 32)
    # one row per center frequency, the scales in descending Hz
    assert mags.shape[0] == sg.morlet_center_frequencies(spec.sample_rate).size
    assert np.all(np.isfinite(mags)) and mags.min() >= 0


def test_pure_tone_localizes_to_matching_scale():
    fs = 128.0
    freqs = sg.morlet_center_frequencies(fs)  # the scalogram's rows
    t = np.arange(512) / fs
    for freq in (4.0, 10.0, 25.0):
        tone = Signal(np.sin(2 * np.pi * freq * t), fs)
        row_energy = sg.wavelet_transform(tone).sum(axis=1)
        best = freqs[int(np.argmax(row_energy))]
        nearest = freqs[int(np.argmin(np.abs(freqs - freq)))]
        assert best == pytest.approx(nearest)


def test_unit_amplitude_tone_has_unit_response():
    fs = 128.0
    t = np.arange(512) / fs
    tone = Signal(np.sin(2 * np.pi * 10.0 * t), fs)
    row = int(np.argmin(np.abs(sg.morlet_center_frequencies(fs) - 10.0)))
    mid = sg.wavelet_transform(tone)[row, 12:19]  # 16-sample frames over samples 192:304
    assert np.all(np.abs(mid - 1.0) < 0.05)


def test_short_signal_rejected_by_transform():
    with pytest.raises(ValueError):
        sg.wavelet_transform(Signal(np.ones(16) + np.arange(16), 128.0))


def test_scalograms_name_their_shape_rules():
    x = np.sin(np.arange(64.0))
    with pytest.raises(ValueError, match=r"samples must be \(n_signals, length\)"):
        sg.scalograms(x, 128.0)
    with pytest.raises(ValueError, match="signal shorter than the 32-frame grid"):
        sg.scalograms(x[None, :31], 128.0)
    # controls: one row of 32 samples, the grid itself, runs, and so does
    # a batch of no rows
    mags = sg.scalograms(x[None, :32], 128.0)
    assert mags.shape == (1, sg.DEFAULT_N_SCALES, sg.DEFAULT_N_FRAMES)
    assert sg.scalograms(np.zeros((0, 512)), 128.0).shape == (0, 32, 32)


def _reference_transform(x, fs):
    """Per-signal loop transform, written as in the `wavelet_transform`
    docstring, that the batched path must match bit for bit."""
    n = x.size
    freqs = sg.morlet_center_frequencies(fs)
    nfft = 1 << int(np.ceil(np.log2(2 * n)))
    omega = 2.0 * np.pi * np.fft.fftfreq(nfft)
    scales = sg.MORLET_OMEGA0 / (2.0 * np.pi * freqs / fs)
    windows = np.where(
        omega[None, :] > 0,
        2.0 * np.exp(-0.5 * (scales[:, None] * omega[None, :] - sg.MORLET_OMEGA0) ** 2),
        0.0,
    )
    mags = np.abs(np.fft.ifft(np.fft.fft(x, nfft)[None, :] * windows, axis=1)[:, :n])
    chunks = np.array_split(mags, sg.DEFAULT_N_FRAMES, axis=1)
    return np.stack([c.mean(axis=1) for c in chunks], axis=1)


@pytest.mark.parametrize(
    "length, fs", [(512, 128.0), (300, 100.0)], ids=["default", "uneven-frames"]
)
def test_scalograms_match_per_signal_transform(length, fs):
    spec = sg.GenSpec(length=length, sample_rate=fs, seed=9)
    signals = [sg.generate(spec, i) for i in range(19)]  # more than two FFT chunks
    mags = sg.scalograms(np.stack([s.samples for s in signals]), fs)
    assert mags.shape == (19, sg.DEFAULT_N_SCALES, sg.DEFAULT_N_FRAMES)
    for i, signal in enumerate(signals):
        assert np.array_equal(mags[i], sg.wavelet_transform(signal))
        assert np.array_equal(mags[i], _reference_transform(signal.samples, fs))


@pytest.fixture(scope="module")
def batch_and_reference():
    x = rng_for(21, "cpu-count").standard_normal((800, 300))
    return x, np.stack([_reference_transform(row, 100.0) for row in x])


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_scalograms_do_not_depend_on_cpu_count(cpus, batch_and_reference, monkeypatch):
    # sizes on both sides of one pass (step signals per thread) and of
    # the block boundaries; uneven frames, so both pooling means run.
    # Up to 8 threads, more than the cores of most test hosts, switching
    # as often as the interpreter allows: a pass buffer shared between
    # threads would corrupt rows.
    monkeypatch.setattr(sg, "_usable_cpus", lambda: list(range(cpus)))
    x, reference = batch_and_reference
    step = max(1, sg._CHUNK // cpus)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for size in sorted({1, step - 1, step, step + 1, 2 * step + 3, 800} - {0}):
            mags = sg.scalograms(x[:size], 100.0)
            assert np.array_equal(mags, reference[:size]), size
    finally:
        sys.setswitchinterval(interval)


def _block_threads(monkeypatch, n_signals):
    """(thread ident, CPU affinity) of each block of one scalograms call."""
    threads = []
    run_block = sg._scalogram_block

    def recording(*args):
        threads.append((threading.get_ident(), sorted(os.sched_getaffinity(0))))
        run_block(*args)

    monkeypatch.setattr(sg, "_scalogram_block", recording)
    x = rng_for(22, "threads").standard_normal((n_signals, 512))
    sg.scalograms(x, 128.0)
    return threads


@pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs at least 2 usable CPUs")
def test_a_large_batch_runs_one_pinned_block_per_cpu(monkeypatch):
    cpus = sorted(os.sched_getaffinity(0))[:800]  # 800 signals fill at most 800 blocks
    threads = _block_threads(monkeypatch, 800)
    idents = {ident for ident, _ in threads}
    assert len(idents) == len(cpus)
    assert threading.get_ident() not in idents
    assert sorted(mask for _, mask in threads) == [[cpu] for cpu in cpus]
    # control: one CPU runs the whole batch as one block, inline, unpinned
    monkeypatch.setattr(sg, "_usable_cpus", lambda: cpus[:1])
    assert _block_threads(monkeypatch, 800) == [(threading.get_ident(), cpus)]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_scalograms_reject_non_finite_rows(bad):
    spec = sg.GenSpec(seed=4)
    samples = np.stack([sg.generate(spec, i).samples for i in range(3)])
    mags = sg.scalograms(samples, spec.sample_rate)
    assert np.all(np.isfinite(mags))
    samples[1, 100] = bad
    with pytest.raises(ValueError, match="magnitudes must be finite"):
        sg.scalograms(samples, spec.sample_rate)


def test_digest_is_stable_and_key_order_free():
    a = sg.GenSpec(seed=5, family_weights={"burst": 0.5, "white_noise": 0.5})
    b = sg.GenSpec(seed=5, family_weights={"white_noise": 0.5, "burst": 0.5})
    da, db = sg.gen_spec_digest(a), sg.gen_spec_digest(b)
    assert da == db
    assert len(da) == 64 and set(da) <= set("0123456789abcdef")
    assert sg.gen_spec_digest(sg.GenSpec(seed=6)) != da
