"""Synthetic corpus generation and the wavelet front end."""

import csv

import numpy as np
import pytest

from finnets import signals as sg
from finnets.errors import DegenerateSignal
from finnets.features import Signal


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


def test_standardize_rejects_constant():
    with pytest.raises(DegenerateSignal):
        sg.standardize(Signal(np.full(64, 2.0), 128.0))


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


def test_single_family_weights_steer_generation():
    # pure white noise: excess kurtosis of each signal hovers near 0
    spec = sg.GenSpec(seed=8, family_weights={"white_noise": 1.0})
    from finnets.features import kurtosis

    values = [kurtosis(sg.generate(spec, i)) for i in range(30)]
    assert abs(float(np.mean(values))) < 0.3


def test_center_frequencies_geometric_and_descending():
    freqs = sg.morlet_center_frequencies(128.0, 32)
    assert freqs.shape == (32,)
    assert freqs[0] == pytest.approx(32.0)
    assert freqs[-1] == pytest.approx(1.0)
    ratios = freqs[1:] / freqs[:-1]
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)
    with pytest.raises(ValueError):
        sg.morlet_center_frequencies(3.0, 8)  # fs/4 below f_min


def test_scalogram_shape_and_scales():
    spec = sg.GenSpec(seed=2)
    tf = sg.wavelet_transform(sg.generate(spec, 0))
    assert tf.magnitudes.shape == (32, 32)
    assert tf.scales.shape == (32,)
    assert np.all(np.diff(tf.scales) < 0)
    assert tf.n_scales == 32 and tf.n_frames == 32


def test_pure_tone_localizes_to_matching_scale():
    fs = 128.0
    t = np.arange(512) / fs
    for freq in (4.0, 10.0, 25.0):
        tone = Signal(np.sin(2 * np.pi * freq * t), fs)
        tf = sg.wavelet_transform(tone)
        row_energy = tf.magnitudes.sum(axis=1)
        best = tf.scales[int(np.argmax(row_energy))]
        nearest = tf.scales[int(np.argmin(np.abs(tf.scales - freq)))]
        assert best == pytest.approx(nearest)


def test_unit_amplitude_tone_has_unit_response():
    fs = 128.0
    t = np.arange(512) / fs
    tone = Signal(np.sin(2 * np.pi * 10.0 * t), fs)
    # n_frames = signal length keeps single-sample columns (no pooling)
    tf = sg.wavelet_transform(tone, n_frames=512)
    row = int(np.argmin(np.abs(tf.scales - 10.0)))
    mid = tf.magnitudes[row, 200:300]
    assert np.all(np.abs(mid - 1.0) < 0.05)


def test_tf_map_validation():
    good_scales = np.array([8.0, 4.0, 2.0])
    with pytest.raises(ValueError):
        sg.TFMap(np.ones((2, 5)), good_scales)  # row count mismatch
    with pytest.raises(ValueError):
        sg.TFMap(np.ones((3, 5)), good_scales[::-1])  # ascending scales
    with pytest.raises(ValueError):
        sg.TFMap(-np.ones((3, 5)), good_scales)
    with pytest.raises(ValueError):
        sg.TFMap(np.full((3, 5), np.nan), good_scales)


def test_short_signal_rejected_by_transform():
    with pytest.raises(ValueError):
        sg.wavelet_transform(Signal(np.ones(16) + np.arange(16), 128.0), n_frames=32)


def _reference_transform(x, fs, n_frames):
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
    return np.stack([c.mean(axis=1) for c in np.array_split(mags, n_frames, axis=1)], axis=1)


@pytest.mark.parametrize(
    "length, fs, n_frames",
    [(512, 128.0, 32), (300, 100.0, 32), (512, 128.0, 512)],
    ids=["default", "uneven-frames", "unpooled"],
)
def test_scalograms_match_per_signal_transform(length, fs, n_frames):
    spec = sg.GenSpec(length=length, sample_rate=fs, seed=9)
    signals = [sg.generate(spec, i) for i in range(19)]  # more than two FFT chunks
    mags, freqs = sg.scalograms(np.stack([s.samples for s in signals]), fs, n_frames=n_frames)
    assert mags.shape == (19, sg.DEFAULT_N_SCALES, n_frames)
    for i, signal in enumerate(signals):
        tf = sg.wavelet_transform(signal, n_frames=n_frames)
        assert np.array_equal(mags[i], tf.magnitudes)
        assert np.array_equal(mags[i], _reference_transform(signal.samples, fs, n_frames))
    assert np.array_equal(freqs, tf.scales)


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_scalograms_reject_non_finite_rows(bad):
    spec = sg.GenSpec(seed=4)
    samples = np.stack([sg.generate(spec, i).samples for i in range(3)])
    mags, _ = sg.scalograms(samples, spec.sample_rate)
    assert np.all(np.isfinite(mags))
    samples[1, 100] = bad
    with pytest.raises(ValueError):
        sg.scalograms(samples, spec.sample_rate)


def test_flatten_is_row_major_copy():
    spec = sg.GenSpec(seed=1)
    tf = sg.wavelet_transform(sg.generate(spec, 3))
    flat = sg.flatten_tf(tf)
    assert flat.shape == (1024,)
    assert flat[1] == tf.magnitudes[0, 1]
    assert flat[32] == tf.magnitudes[1, 0]
    flat[0] = -1.0
    assert tf.magnitudes[0, 0] != -1.0


def test_corpus_csv_round_trip(tmp_path):
    spec = sg.GenSpec(seed=21)
    path = tmp_path / "corpus.csv"
    sg.export_corpus_csv(spec, 5, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index"] + [f"s{i}" for i in range(512)]
    assert len(rows) == 6
    for i, row in enumerate(rows[1:]):
        assert row[0] == str(i)
        got = np.array([float(v) for v in row[1:]])
        np.testing.assert_array_equal(got, sg.generate(spec, i).samples)


def test_digest_is_stable_and_key_order_free():
    a = sg.GenSpec(seed=5, family_weights={"burst": 0.5, "white_noise": 0.5})
    b = sg.GenSpec(seed=5, family_weights={"white_noise": 0.5, "burst": 0.5})
    da, db = sg.gen_spec_digest(a), sg.gen_spec_digest(b)
    assert da == db
    assert len(da) == 64 and set(da) <= set("0123456789abcdef")
    assert sg.gen_spec_digest(sg.GenSpec(seed=6)) != da
