"""End-to-end acceptance gate.

Ten criteria, one test each, run against full-size feature networks
pretrained inside the session fixtures (the 20k-signal pretrains and
criterion 7 dominate the runtime; the module took about 7 min on two
Xeon cores with Python 3.11, numpy 2.4 and OpenBLAS 0.3.31).
Every test prints a `[criterion N] PASS/FAIL` line with the measured
numbers; run with `-s` (or read failure output) to see them.
"""

import time

import numpy as np
import pytest
import scipy.stats

import test_features as refs
from finnets import bench, engine, features as fe, nets, signals as sg, stats
from finnets.rng import derive_seed, rng_for

GEN = sg.GenSpec(seed=42)
PRETRAIN_CFG = nets.TrainConfig(
    learning_rate=0.01, momentum=0.9, batch_size=64,
    max_epochs=60, patience=8, seed=7,
)
# fine-tuning config for the transfer experiments; batch 16 keeps enough
# update steps per epoch at the scarce fractions
TRANSFER_CFG = nets.TrainConfig(
    learning_rate=0.01, momentum=0.9, batch_size=16,
    max_epochs=40, patience=6, seed=0,
)
MATCHED = nets.Topology(
    (1024, 512, 256, 64, 2), ("relu", "relu", "relu", "softmax")
)


def _verdict(criterion: int, ok: bool, detail: str) -> None:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="session")
def corpus_20k():
    t0 = time.perf_counter()
    inputs = engine.corpus_inputs(GEN, 20000)
    return inputs, time.perf_counter() - t0


def _pretrain(feature, corpus, n_signals):
    inputs, corpus_secs = corpus
    targets = engine.corpus_targets(feature, GEN, n_signals)
    t0 = time.perf_counter()
    art = engine.pretrain_fin(
        feature, GEN, cfg=PRETRAIN_CFG, n_signals=n_signals,
        corpus=(inputs[:n_signals], targets),
    )
    # charge each network the full shared-scalogram build, conservatively
    return art, (time.perf_counter() - t0) + corpus_secs


@pytest.fixture(scope="session")
def entropy_fin(corpus_20k):
    return _pretrain("entropy", corpus_20k, 20000)


@pytest.fixture(scope="session")
def regularity_fin(corpus_20k):
    return _pretrain("regularity", corpus_20k, 20000)


@pytest.fixture(scope="session")
def kurtosis_fin(corpus_20k):
    return _pretrain("kurtosis", corpus_20k, 8000)


@pytest.fixture(scope="session")
def f0_fin(corpus_20k):
    return _pretrain("f0", corpus_20k, 8000)


@pytest.fixture(scope="session")
def burst_task():
    # bursts spread entropy over ~3 bits within one family, so the label
    # rule cuts inside the family instead of between families
    gen = sg.GenSpec(
        family_weights={"burst": 1.0},
        seed=derive_seed(100, "task-gen", "entropy"),
    )
    return bench.make_feature_threshold_task(
        "entropy", n_items=2400, rho=0.05, seed=100, gen=gen
    )


@pytest.fixture(scope="session")
def transfer_report(burst_task, entropy_fin):
    art, _ = entropy_fin
    plan = bench.SplitPlan(
        mode="repeated_random", fractions=(0.2, 0.4), repeats=10, seed=4242
    )
    models = [
        bench.TransferFinModel("fin", art),
        bench.RandomDenseModel("baseline", MATCHED),
    ]
    t0 = time.perf_counter()
    report = bench.run_benchmark(burst_task, plan, models, TRANSFER_CFG)
    return report, time.perf_counter() - t0


def _runs_by(report, tag):
    return {
        (r.split_index, r.fraction): r
        for r in report.runs
        if r.model_tag == tag
    }


def test_criterion_01_feature_fidelity(entropy_fin, regularity_fin):
    """Pretrained entropy and regularity nets reconstruct their targets."""
    details = []
    ok = True
    for art, secs in (entropy_fin, regularity_fin):
        test_signals = [sg.generate(GEN, i) for i in range(20000, 23000)]
        rep = engine.reconstruction_report(art, test_signals)
        in_range = int(rep.histogram_counts.sum()) == rep.n_signals
        ok = ok and rep.mean_abs_error <= 0.05 and in_range and secs <= 900
        details.append(
            f"{art.feature}: mae={rep.mean_abs_error:.4f} (<=0.05) "
            f"n={rep.n_signals} errors_in_[0,1]={in_range} {secs:.0f}s (<=900)"
        )
    _verdict(1, ok, "; ".join(details))


def test_criterion_02_gradient_correctness():
    """Analytic gradients match central differences; a corrupt one fails."""
    t0 = time.perf_counter()
    worst = nets.gradcheck_suite(n_nets=20, seed=2024)
    rng = rng_for(9, "corrupt")
    net = nets.init_random(nets.Topology((6, 5, 3), ("relu", "linear")), 5)
    x = rng.standard_normal((4, 6))
    y = rng.standard_normal((4, 3))
    model = nets.DenseModel(net)
    control = nets.finite_difference_check(model, x, y, corrupt=True)
    secs = time.perf_counter() - t0
    ok = worst <= 1e-4 and control > 1e-4 and secs <= 60
    _verdict(
        2,
        ok,
        f"worst_rel_err={worst:.2e} (<=1e-4) "
        f"corrupt_control={control:.2e} (>1e-4) {secs:.1f}s (<=60)",
    )


FE_BOUNDS = {
    "entropy": 1e-9,
    "kurtosis": 1e-9,
    "skewness": 1e-9,
    "regularity": 1e-9,
    "f0": 0.5,
    "mfcc": 1e-6,
}


def test_criterion_03_oracle_equivalence():
    """Six features match independent brute-force references on 100 signals."""
    t0 = time.perf_counter()
    gen = sg.GenSpec(seed=1337)
    worst = {name: 0.0 for name in FE_BOUNDS}
    f0_disagreements = 0
    for i in range(100):
        s = sg.generate(gen, i)
        x = s.samples
        worst["entropy"] = max(
            worst["entropy"],
            abs(fe.compute_feature(s, "entropy")[0] - refs.ref_entropy(x)),
        )
        worst["kurtosis"] = max(
            worst["kurtosis"],
            abs(fe.compute_feature(s, "kurtosis")[0]
                - scipy.stats.kurtosis(x, fisher=True, bias=True)),
        )
        worst["skewness"] = max(
            worst["skewness"],
            abs(fe.compute_feature(s, "skewness")[0] - scipy.stats.skew(x, bias=True)),
        )
        worst["regularity"] = max(
            worst["regularity"],
            abs(fe.compute_feature(s, "regularity")[0] - refs.ref_regularity(x)),
        )
        got_f0 = fe.compute_feature(s, "f0")[0]  # 0.0 when aperiodic
        want_f0 = refs.ref_f0(x, s.sample_rate)
        if (got_f0 == 0.0) != (want_f0 is None):
            f0_disagreements += 1
        elif want_f0 is not None:
            worst["f0"] = max(worst["f0"], abs(got_f0 - want_f0))
        worst["mfcc"] = max(
            worst["mfcc"],
            float(np.max(np.abs(
                fe.compute_feature(s, "mfcc") - refs.ref_mfcc(x, s.sample_rate)
            ))),
        )
    secs = time.perf_counter() - t0
    ok = (
        all(worst[name] <= bound for name, bound in FE_BOUNDS.items())
        and f0_disagreements == 0
        and secs <= 60
    )
    detail = " ".join(
        f"{name}={worst[name]:.2e}(<={bound:g})" for name, bound in FE_BOUNDS.items()
    )
    _verdict(3, ok, f"{detail} f0_detector_disagreements={f0_disagreements} "
                    f"{secs:.1f}s (<=60)")


def test_criterion_04_transfer_benefit_under_scarcity(transfer_report):
    """Feature-pretrained classifier beats the matched random baseline."""
    report, secs = transfer_report
    fin = _runs_by(report, "fin")
    base = _runs_by(report, "baseline")
    keys = sorted(fin)
    assert keys == sorted(base) and len(keys) == 20
    diffs = [fin[k].accuracy - base[k].accuracy for k in keys]
    wins, n_nonzero, p = stats.sign_test_one_sided(diffs)
    mean_lines = []
    means_ok = True
    for frac in (0.2, 0.4):
        mf = np.mean([fin[(k, frac)].accuracy for k in range(10)])
        mb = np.mean([base[(k, frac)].accuracy for k in range(10)])
        means_ok = means_ok and mf > mb
        mean_lines.append(f"f={frac}: fin={mf:.4f} base={mb:.4f}")
    ok = means_ok and p < 0.05 and secs <= 1800
    _verdict(
        4,
        ok,
        f"{'; '.join(mean_lines)}; sign test {wins}/{n_nonzero} p={p:.4f} "
        f"(<0.05) {secs:.0f}s (<=1800)",
    )


def test_criterion_05_early_epoch_advantage(transfer_report):
    """First-epoch validation loss favors the pretrained start."""
    report, _ = transfer_report
    fin = _runs_by(report, "fin")
    base = _runs_by(report, "baseline")
    counts = {}
    for frac in (0.2, 0.4):
        counts[frac] = sum(
            fin[(k, frac)].history.val_losses[0]
            < base[(k, frac)].history.val_losses[0]
            for k in range(10)
        )
    ok = all(c >= 8 for c in counts.values())
    _verdict(
        5,
        ok,
        " ".join(f"f={f}: fin first-epoch wins {c}/10 (>=8)"
                 for f, c in counts.items()),
    )


def test_criterion_06_variance_reduction(burst_task, entropy_fin):
    """Across 30 scarce splits the pretrained model's accuracy spreads less
    than the architecture-search winner's; the variance test itself detects
    a constructed 4x variance ratio."""
    art, _ = entropy_fin
    search_cfg = nets.TrainConfig(
        learning_rate=0.01, momentum=0.9, batch_size=64,
        max_epochs=25, patience=5, seed=0,
    )
    winner, _records = bench.baseline_search(
        burst_task, search_cfg, seed=777, n_candidates=20
    )
    plan = bench.SplitPlan(
        mode="repeated_random", fractions=(0.1,), repeats=30, seed=4242
    )
    models = [
        bench.TransferFinModel("fin", art),
        bench.RandomDenseModel("searched", winner),
    ]
    report = bench.run_benchmark(burst_task, plan, models, TRANSFER_CFG)
    fin_acc = np.array([r.accuracy for r in report.runs if r.model_tag == "fin"])
    win_acc = np.array(
        [r.accuracy for r in report.runs if r.model_tag == "searched"]
    )
    fin_std = fin_acc.std(ddof=1)
    win_std = win_acc.std(ddof=1)

    rng_narrow = rng_for(13, "levene-narrow")
    rng_wide = rng_for(13, "levene-wide")
    sample_a = 0.7 + rng_narrow.normal(0.0, 0.02, 30)
    sample_b = 0.7 + rng_wide.normal(0.0, 0.04, 30)
    w_stat, p = stats.levene_test([sample_a, sample_b])

    ok = fin_std <= win_std and p < 0.05
    _verdict(
        6,
        ok,
        f"30 splits at 10% data: fin std={fin_std:.4f} <= "
        f"searched{winner.layer_sizes} std={win_std:.4f}: {fin_std <= win_std}; "
        f"levene on 4x-variance fixture W={w_stat:.2f} p={p:.2e} (<0.05)",
    )


def test_criterion_07_ensemble_benefit(entropy_fin, kurtosis_fin,
                                       regularity_fin, f0_fin):
    """Three relevant feature nets together beat each one alone; an
    irrelevant feature net trails the ensemble."""
    art_ent, _ = entropy_fin
    art_kur, _ = kurtosis_fin
    art_reg, _ = regularity_fin
    art_f0, _ = f0_fin
    data = bench.make_multi_feature_task(
        ["entropy", "kurtosis", "regularity"],
        n_channels=4, n_items=800, rho=0.05, seed=200,
    )
    models = [
        bench.EnsembleFinModel("ensemble3", [art_ent, art_kur, art_reg]),
        bench.EnsembleFinModel("single-entropy", [art_ent]),
        bench.EnsembleFinModel("single-kurtosis", [art_kur]),
        bench.EnsembleFinModel("single-regularity", [art_reg]),
        bench.EnsembleFinModel("single-f0", [art_f0]),
    ]
    cfg = nets.TrainConfig(
        learning_rate=0.01, momentum=0.9, batch_size=64,
        max_epochs=30, patience=5, seed=0,
    )
    plan = bench.SplitPlan(mode="repeated_random", repeats=20, seed=700)
    report = bench.run_benchmark(data, plan, models, cfg)
    acc = {
        tag: np.array([r.accuracy for r in report.runs if r.model_tag == tag])
        for tag in ("ensemble3", "single-entropy", "single-kurtosis",
                    "single-regularity", "single-f0")
    }
    singles = ("single-entropy", "single-kurtosis", "single-regularity")
    raw_ps = [
        stats.welch_t_one_tailed(acc["ensemble3"], acc[tag], "greater")[1]
        for tag in singles
    ]
    corrected = stats.bonferroni(raw_ps)
    means_ok = all(
        acc["ensemble3"].mean() >= acc[tag].mean() for tag in singles
    )
    f0_below = acc["single-f0"].mean() < acc["ensemble3"].mean()
    ok = means_ok and all(p < 0.05 for p in corrected) and f0_below
    detail = (
        f"ensemble={acc['ensemble3'].mean():.4f} "
        + " ".join(f"{t.split('-')[1]}={acc[t].mean():.4f}" for t in singles)
        + f" corrected_p={['%.1e' % p for p in corrected]} (<0.05) "
        f"f0={acc['single-f0'].mean():.4f} strictly_below={f0_below}"
    )
    _verdict(7, ok, detail)


def test_criterion_08_transfer_mechanics(tmp_path):
    """Head swap and ensemble assembly keep retained weights bit-exact;
    artifact files round-trip byte-identically; head input width follows
    channels x total branch width."""
    all_ok = True
    checked = []
    for i in range(10):
        rng = rng_for(800, "mech", i)
        in_dim = int(rng.integers(6, 48))
        n_arts = int(rng.integers(1, 4))
        arts = []
        for j in range(n_arts):
            n_hidden = int(rng.integers(1, 3))
            widths = tuple(int(rng.integers(4, 33)) for _ in range(n_hidden))
            out_dim = int(rng.integers(1, 17))
            topo = nets.Topology(
                (in_dim, *widths, out_dim),
                tuple(["relu"] * n_hidden) + ("linear",),
            )
            net = nets.init_random(topo, int(rng.integers(0, 2**31)))
            feature = fe.FEATURE_NAMES[int(rng.integers(0, len(fe.FEATURE_NAMES)))]
            arts.append(engine.FinArtifact(
                feature=feature,
                net=net,
                norm_lo=np.zeros(out_dim),
                norm_hi=np.ones(out_dim),
                gen_spec_digest="0" * 64,
                history_summary={"best_val_loss": 0.01, "epochs": 1},
            ))
        n_channels = int(rng.integers(1, 5))
        n_classes = int(rng.integers(2, 6))

        head_net = engine.attach_head(arts[0], n_classes, seed=i)
        retained = all(
            np.array_equal(head_net.weights[j], arts[0].net.weights[j])
            and np.array_equal(head_net.biases[j], arts[0].net.biases[j])
            for j in range(len(arts[0].net.weights) - 1)
        )

        ens = engine.build_ensemble(arts, n_channels, n_classes, seed=i)
        branches_exact = all(
            all(
                np.array_equal(bw, aw)
                for bw, aw in zip(branch.weights, art.net.weights)
            )
            and all(
                np.array_equal(bb, ab)
                for bb, ab in zip(branch.biases, art.net.biases)
            )
            for branch, art in zip(ens.branches, arts)
        )
        want_width = n_channels * sum(
            a.net.topology.output_dim for a in arts
        )
        head_dim_ok = ens.head_w.shape == (n_classes, want_width)

        p1 = tmp_path / f"art_{i}_a.fin"
        p2 = tmp_path / f"art_{i}_b.fin"
        engine.save_fin(arts[0], p1)
        engine.save_fin(engine.load_fin(p1), p2)
        roundtrip = p1.read_bytes() == p2.read_bytes()

        all_ok = all_ok and retained and branches_exact and head_dim_ok and roundtrip
        checked.append((retained, branches_exact, head_dim_ok, roundtrip))
    _verdict(
        8,
        all_ok,
        f"10 random configs: retained-weights {sum(c[0] for c in checked)}/10, "
        f"ensemble-branches {sum(c[1] for c in checked)}/10, "
        f"head-dim {sum(c[2] for c in checked)}/10, "
        f"byte-roundtrip {sum(c[3] for c in checked)}/10",
    )


def test_criterion_09_protocol_hygiene(entropy_fin):
    """Poisoning a test partition with NaN changes nothing about training;
    results bit-reproduce regardless of worker count."""
    art, _ = entropy_fin
    data = bench.make_feature_threshold_task(
        "entropy", n_items=120, rho=0.05, seed=31
    )
    cfg = nets.TrainConfig(
        learning_rate=0.01, momentum=0.9, batch_size=16,
        max_epochs=6, patience=6, seed=0,
    )
    models = [
        bench.TransferFinModel("fin", art),
        bench.RandomDenseModel(
            "base", nets.Topology((1024, 32, 2), ("relu", "softmax"))
        ),
        bench.KnnModel("knn", k=5),
    ]
    plan = bench.SplitPlan(mode="repeated_random", repeats=1, seed=14)
    clean = bench.run_benchmark(data, plan, models, cfg)
    _, _, test_idx = bench.split_repeated(data, plan, 0)
    poisoned = bench.LabeledDataset(
        data.inputs.copy(), data.labels, 2, meta=dict(data.meta)
    )
    poisoned.inputs[test_idx] = np.nan
    dirty = bench.run_benchmark(poisoned, plan, models, cfg)
    training_untouched = True
    for a, b in zip(clean.runs, dirty.runs):
        if a.history is None:
            training_untouched = training_untouched and b.history is None
            continue
        training_untouched = (
            training_untouched
            and np.array_equal(a.history.train_losses, b.history.train_losses)
            and np.array_equal(a.history.val_losses, b.history.val_losses)
            and np.all(np.isfinite(b.history.train_losses))
            and np.all(np.isfinite(b.history.val_losses))
        )

    plan3 = bench.SplitPlan(mode="repeated_random", repeats=3, seed=77)
    first = bench.run_benchmark(data, plan3, models, cfg)
    second = bench.run_benchmark(data, plan3, models, cfg)
    reproducible = all(
        a.accuracy == b.accuracy
        and (a.history is None) == (b.history is None)
        and (
            a.history is None
            or (
                np.array_equal(a.history.train_losses, b.history.train_losses)
                and np.array_equal(a.history.val_losses, b.history.val_losses)
            )
        )
        for a, b in zip(first.runs, second.runs)
    )
    ok = training_untouched and reproducible
    _verdict(
        9,
        ok,
        f"nan-poisoned test partition leaves training bit-identical: "
        f"{training_untouched}; two serial runs bit-identical: {reproducible}",
    )


def test_criterion_10_relative_speed(transfer_report):
    """Fine-tuning the pretrained net costs about the same per epoch as
    training the same topology from scratch (serial execution)."""
    report, _ = transfer_report
    per_epoch = {"fin": [], "baseline": []}
    for r in report.runs:
        per_epoch[r.model_tag].append(
            r.train_seconds / len(r.history.train_losses)
        )
    fin_med = float(np.median(per_epoch["fin"]))
    base_med = float(np.median(per_epoch["baseline"]))
    ratio = fin_med / base_med
    ok = ratio <= 2.0
    _verdict(
        10,
        ok,
        f"median per-epoch seconds: fin={fin_med:.4f} baseline={base_med:.4f} "
        f"ratio={ratio:.2f} (<=2.0, serial workers=1)",
    )
