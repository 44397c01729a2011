"""Benchmark harness: tasks, splits, comparators, and protocol runner.

Reproduces the experimental protocols at desk scale: synthetic labeled
tasks built from oracle features, repeated random 85/15 splits,
leave-subjects-out partitioning, data-fraction sweeps, a random-topology
baseline search, kNN and linear max-margin comparators, and a seeded
end-to-end runner that visits every protocol cell in one serial loop
and whose results depend only on (seed, run coordinates).

Both synthetic tasks label by one noisy median threshold; the net models
and the search candidates share one fine-tune and one argmax classifier.

Protocol hygiene is structural: a model's `fit` never receives test
indices; test items reach a fitted predictor only at final evaluation.
"""

import csv
import functools
import itertools
import time
import warnings
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import engine as en
from . import features as fe
from . import nets
from . import signals as sg
from . import stats as st
from .errors import (
    CorpusDegenerateError,
    DegenerateGroups,
    DivergedError,
    IngestError,
    ShapeError,
    SplitError,
)
from .nets import Topology, TrainConfig
from .rng import derive_seed, rng_for

SPLIT_MODES = ("repeated_random", "leave_subjects_out")
# shares of a repeated random split: test of all items, validation of the rest
TEST_FRACTION = 0.15
VAL_FRACTION = 0.15
SEARCH_WIDTHS = (32, 64, 128, 256, 512)
SEARCH_DEPTHS = (2, 10)  # inclusive range of affine layer counts
SEARCH_SPLITS = 3  # repeated random splits each search candidate trains on
# full-batch hinge-loss subgradient descent of the linear-margin comparator
MARGIN_EPOCHS = 200
MARGIN_LR = 0.05
MARGIN_REG = 1e-4
ALPHA = 0.05  # family-wise significance level of the model comparisons


# ---------------------------------------------------------------------------
# Datasets
# ---------------------------------------------------------------------------

@dataclass
class LabeledDataset:
    """Classification items: per-channel flattened scalograms plus labels.

    Inputs must be finite (`ValueError` otherwise) and hold at least one
    channel of at least one value (`ShapeError` otherwise).

    `oracle_scores`/`oracle_threshold` carry the latent rule behind
    synthetic tasks so the harness can self-test its evaluation path; they
    are absent for ingested data.
    """

    inputs: np.ndarray  # (n_items, n_channels, tf_dim)
    labels: np.ndarray  # (n_items,)
    n_classes: int
    subject_ids: np.ndarray = None
    oracle_scores: np.ndarray = None
    oracle_threshold: float = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 3 or 0 in self.inputs.shape[1:]:
            raise ShapeError("inputs must be (n_items, n_channels >= 1, tf_dim >= 1)")
        if not np.all(np.isfinite(self.inputs)):
            raise ValueError("inputs must be finite")
        n = self.inputs.shape[0]
        if self.labels.shape != (n,):
            raise ShapeError("labels must align with items")
        if self.n_classes < 2:
            raise ValueError("need at least two classes")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ValueError("labels must lie in [0, n_classes)")
        counts = np.bincount(self.labels, minlength=self.n_classes)
        if np.any(counts < 2):
            raise ValueError("every class needs at least two items")
        if self.subject_ids is not None:
            self.subject_ids = np.asarray(self.subject_ids, dtype=np.int64)
            if self.subject_ids.shape != (n,):
                raise ShapeError("subject_ids must align with items")

    @property
    def n_items(self) -> int:
        return self.inputs.shape[0]

    @property
    def n_channels(self) -> int:
        return self.inputs.shape[1]

    @property
    def tf_dim(self) -> int:
        return self.inputs.shape[2]


def _threshold_task(inputs, scores, rho, seed, n_subjects, meta) -> LabeledDataset:
    """Binary task labelling each item by its score above the median of
    `scores`, each label flipped with probability `rho`; item i belongs to
    subject i % n_subjects (no subjects when None). `meta` gains the noise
    and the seed."""
    thresh = float(np.median(scores))
    labels = (scores > thresh).astype(np.int64)
    if rho > 0:
        flip = rng_for(seed, "label-noise").random(scores.size) < rho
        labels = np.where(flip, 1 - labels, labels)
    subjects = None if n_subjects is None else np.arange(scores.size) % n_subjects
    return LabeledDataset(
        inputs, labels, 2, subject_ids=subjects, oracle_scores=scores,
        oracle_threshold=thresh, meta={**meta, "rho": rho, "seed": seed},
    )


def _task_corpus(features, n_items, n_channels, rho, seed, n_subjects, gen):
    """(inputs, {feature: per-item value}) of a task's item grid, after
    rejecting an unknown feature, a size or a label noise no builder can
    honour, before any signal is generated (`n_subjects` None: no ids).

    Both come from the corpus front end of `gen` (by default seeded from
    the task seed and the features): signal i * n_channels + c feeds
    channel c of item i, and an item's value is its signals'
    `corpus_targets` averaged over feature components, then channels.
    """
    for name in features:
        fe.feature_width(name)
    for name, value in (("n_items", n_items), ("n_channels", n_channels),
                        ("n_subjects", n_subjects)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    if not (0.0 <= rho < 0.5):
        raise ValueError("label noise must lie in [0, 0.5)")
    if gen is None:
        gen = sg.GenSpec(seed=derive_seed(seed, "task-gen", *features))
    n = n_items * n_channels
    inputs = en.corpus_inputs(gen, n).reshape(n_items, n_channels, -1)
    return inputs, {
        name: en.corpus_targets(name, gen, n).mean(axis=1).reshape(n_items, -1).mean(axis=1)
        for name in features
    }


def make_feature_threshold_task(
    feature: str,
    n_channels: int = 1,
    n_items: int = 2000,
    rho: float = 0.05,
    seed: int = 0,
    n_subjects: int = None,
    gen: sg.GenSpec = None,
) -> LabeledDataset:
    """Binary task: channel-mean oracle feature above the corpus median.

    Labels are flipped independently with probability `rho`. The latent
    scores and threshold ride along for harness self-tests.
    """
    inputs, scores = _task_corpus([feature], n_items, n_channels, rho, seed, n_subjects, gen)
    return _threshold_task(inputs, scores[feature], rho, seed, n_subjects,
                           {"task": f"feature_threshold:{feature}"})


def make_multi_feature_task(
    features,
    n_channels: int = 4,
    n_items: int = 1000,
    rho: float = 0.05,
    seed: int = 0,
    n_subjects: int = None,
    gen: sg.GenSpec = None,
) -> LabeledDataset:
    """Binary task labeled by a fixed random signed combination of features.

    Each feature's channel-mean value is z-scored over the corpus, then
    combined with a weight of random sign and magnitude in [0.5, 1]; the
    label thresholds the combined score at its median, with noise `rho`.
    """
    features = list(features)
    if len(features) < 2:
        raise ValueError("need at least two features for a combination rule")
    inputs, values = _task_corpus(features, n_items, n_channels, rho, seed, n_subjects, gen)
    rng = rng_for(seed, "rule")
    weights = {}
    combined = np.zeros(n_items)
    for name in features:
        raw = values[name]
        std = raw.std()
        if std < 1e-12:
            raise CorpusDegenerateError(f"feature {name} is constant on this corpus")
        w = float(rng.uniform(0.5, 1.0) * (1.0 if rng.random() < 0.5 else -1.0))
        weights[name] = w
        combined += w * (raw - raw.mean()) / std
    return _threshold_task(inputs, combined, rho, seed, n_subjects, {
        "task": "multi_feature:" + ",".join(features), "weights": weights,
    })


# ---------------------------------------------------------------------------
# Dataset CSV interchange
# ---------------------------------------------------------------------------

# `export_dataset_csv` writes each value as the bytes of `"%.17g" % v`,
# made for a block of rows at a time by the numpy kernel below: exact
# decimal digits from a double-double product, then the `%g` layout by
# byte masks. Values it cannot certify go through `%` one at a time.
_G17_CHUNK = 8192  # values per block: bounds the kernel's memory, and 4-32 rows of
# 1,024 values ran alike where one 240-row block took twice as long
_G17_RANGE = (1e-250, 1e250)  # |v| whose scaled product neither overflows nor underflows
_G17_TIE = 1e-6  # a fraction this near 1/2 may be a tie: the product's error is ~1e-14
_G17_SPLIT = 134217729.0  # 2**27 + 1, Dekker's split of a double into two halves
_G17_KMAX = 260  # decimal exponents the tables cover, past _G17_RANGE and its off-by-ones
# A value's field: sign, "0.000" (fixed notation below 1), 17 digits each
# followed by a "." slot ("e" after the last), exponent sign and three
# digits (one aligned uint32), separator, and padding to 48 bytes.
_G17_DIGIT = slice(6, 39, 2)
_G17_EXP = 39
_G17_SEP = 44
_G17_WIDTH = 48


@functools.cache
def _g17_powers():
    """10**(16 - k) by decimal exponent k (index k + _G17_KMAX) as a
    double-double (hi, lo), hi also split in two for Dekker's product.
    Built exactly on first use; read-only."""
    exact = [Fraction(10) ** (16 - k) for k in range(-_G17_KMAX, _G17_KMAX + 1)]
    hi = np.array([float(x) for x in exact])
    lo = np.array([float(x - Fraction(h)) for x, h in zip(exact, hi.tolist())])
    c = _G17_SPLIT * hi
    hi_h = c - (c - hi)
    powers = (hi, hi_h, hi - hi_h, lo)
    for t in powers:
        t.setflags(write=False)
    return powers


@functools.cache
def _g17_layout():
    """Read-only tables of the `%g` layout: by decimal exponent k (index
    k + _G17_KMAX), the layout class (0-20 fixed notation for k = -4..16,
    21 or 22 exponent notation with two or three exponent digits) and the
    exponent bytes; the field template; and the byte mask that keeps a
    field's output, by (class, significant digits, sign)."""
    ks = range(-_G17_KMAX, _G17_KMAX + 1)
    layout = np.array([k + 4 if -4 <= k < 17 else 21 + (abs(k) >= 100) for k in ks])
    exponent = np.frombuffer(b"".join(b"%+04d" % k for k in ks), np.uint32)
    template = np.frombuffer(b"-0.000" + b"0." * 16 + b"0e+000,\0\0\0", np.uint8)
    digit = np.arange(_G17_WIDTH)[_G17_DIGIT]
    keep = np.zeros((23, 17, 2, _G17_WIDTH), dtype=bool)
    for cls in range(23):
        for nsig in range(1, 18):
            row = keep[cls, nsig - 1, 0]
            if cls < 4:  # 0.000ddd: "0.", then -k - 1 zeros
                row[1:6 - cls] = True
                row[digit[:nsig]] = True
            elif cls < 21:  # ddd.ddd: k + 1 integer digits, then a "." if more follow
                whole = cls - 3
                row[digit[:max(whole, nsig)]] = True
                row[digit[whole - 1] + 1] = nsig > whole
            else:  # d.ddde+dd
                row[digit[:nsig]] = True
                row[digit[0] + 1] = nsig > 1
                row[_G17_EXP:_G17_EXP + 5] = True
                row[_G17_EXP + 2] = cls == 22
            row[_G17_SEP] = True
    keep[:, :, 1] = keep[:, :, 0]
    keep[:, :, 1, 0] = True  # the "-" of a negative value
    keep = np.where(keep, 0xFF, 0).astype(np.uint8).reshape(-1, _G17_WIDTH)
    tables = (layout, exponent, template, keep)
    for t in tables:
        t.setflags(write=False)
    return tables


def _g17_scaled(a, k, hi, hi_h, hi_l, lo):
    """`a * 10**(16 - k)` as an unevaluated sum p + e (tables indexed by
    k): Dekker's exact product of `a` and the power's high part, plus `a`
    times its low part. The sum is within about 1e-14 of the true value."""
    i = k + _G17_KMAX
    b, b_h, b_l = np.take(hi, i), np.take(hi_h, i), np.take(hi_l, i)
    c = _G17_SPLIT * a
    a_h = c - (c - a)
    a_l = a - a_h
    p = a * b
    return p, ((a_h * b_h - p) + a_h * b_l + a_l * b_h) + a_l * b_l + a * np.take(lo, i)


def _g17_decimal(v):
    """(D, k, certified) for float64 `v`: |v| rounded half-even to 17
    significant digits is D * 10**(k - 16) with 10**16 <= D < 10**17, or
    D = k = 0 for a zero. `certified` is False where D may be wrong: |v|
    outside _G17_RANGE, or a fraction too near a rounding tie."""
    power = _g17_powers()
    a = np.abs(v)
    certified = (a >= _G17_RANGE[0]) & (a <= _G17_RANGE[1])
    a = np.where(certified, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.int64)
    p, e = _g17_scaled(a, k, *power)
    # log10 can miss by one near a power of ten: test the unrounded sum,
    # since it may round to 10**16 from below (1e-7 does)
    low, high = (p - 1e16) + e < 0, (p - 1e17) + e >= 0
    miss = np.flatnonzero(low | high)
    if miss.size:
        k[miss] += high[miss].astype(np.int64) - low[miss]
        p[miss], e[miss] = _g17_scaled(a[miss], k[miss], *power)
    # p >= 2**53 is a whole number, so rounding e rounds the sum
    whole = np.rint(e)
    certified &= np.abs(np.abs(e - whole) - 0.5) >= _G17_TIE
    d = p.astype(np.int64) + whole.astype(np.int64)
    carry = d == 10**17
    d[carry] = 10**16
    k += carry
    certified &= (d >= 10**16) & (d < 10**17)
    zero = v == 0
    d[zero] = k[zero] = 0
    return d, k, certified | zero


def _g17_digits(d):
    """The 17 decimal digits of each D in `d` (below 10**17), most
    significant first, as a (17, n) uint8 array. Each half of D below
    10**9 is exact in float64, and trunc((h + 0.5) * 10**-j) is
    floor(h / 10**j) despite the rounded power of ten."""
    halves = np.empty((2, 1, d.size))
    halves[0, 0] = d // 10**9
    halves[1, 0] = d - halves[0, 0].astype(np.int64) * 10**9
    prefix = np.empty((2, 10, d.size), dtype=np.int32)
    np.multiply(halves + 0.5, 10.0 ** np.arange(-9, 1)[:, None], out=prefix, casting="unsafe")
    digits = np.empty((2, 9, d.size), dtype=np.uint8)
    np.subtract(prefix[:, 1:], 10 * prefix[:, :-1], out=digits, casting="unsafe")
    return digits.reshape(18, -1)[1:]  # the high half has 8 digits


def _g17_rows(block) -> bytes:
    """CSV text of the float64 rows `block` (m, d): each value the bytes
    of `"%.17g" % v`, joined by "," and each row ended by a newline."""
    layout, exponent, template, keep = _g17_layout()
    m, dim = block.shape
    v = np.ascontiguousarray(block).ravel()
    if not v.size:
        return b"\n" * m
    d, k, certified = _g17_decimal(v)
    digits = _g17_digits(d)
    nsig = np.maximum(((digits != 0) * np.arange(1, 18, dtype=np.uint8)[:, None]).max(axis=0), 1)
    field = np.empty((m, dim, _G17_WIDTH), dtype=np.uint8)
    field[...] = template
    field[:, -1, _G17_SEP] = ord("\n")
    field = field.reshape(v.size, _G17_WIDTH)
    field[:, _G17_DIGIT] = (digits + ord("0")).T
    i = k + _G17_KMAX
    field.view(np.uint32)[:, (_G17_EXP + 1) // 4] = np.take(exponent, i)
    mask = np.take(keep, (np.take(layout, i) * 17 + nsig - 1) * 2 + np.signbit(v), axis=0)
    for j in np.flatnonzero(~certified).tolist():
        text = b"%.17g" % v[j]
        field[j, :len(text)] = np.frombuffer(text, np.uint8)
        mask[j, :_G17_SEP] = 0
        mask[j, :len(text)] = 0xFF
    field &= mask
    return field.tobytes().translate(None, b"\0")


def export_dataset_csv(data: LabeledDataset, path) -> None:
    """One row per (item, channel); channels of an item are adjacent.

    Each value is written as the exact bytes of `"%.17g" % v`, so ingest
    reads back the same double; no field ever needs quoting. A numpy
    kernel formats blocks of about _G17_CHUNK values: the 17 digits come
    from a double-double product with an exact power-of-ten table and the
    `%g` layout from byte masks, and a value it cannot certify (|v|
    outside 1e-250..1e250, or too near a rounding tie) goes through `%`.
    A non-finite value raises `ValueError` before any file is opened, and a
    failed export leaves any earlier file at `path` intact (`engine._replacing`).
    """
    if not np.isfinite(data.inputs).all():
        bad = np.argwhere(~np.isfinite(data.inputs))[0]
        raise ValueError(f"item {bad[0]} channel {bad[1]} holds a non-finite value")
    header = ["item_id", "subject_id", "label", "channel"]
    header += [f"v{j}" for j in range(data.tf_dim)]
    labels = data.labels.tolist()
    subjects = [""] * data.n_items if data.subject_ids is None else data.subject_ids.tolist()
    per_chunk = max(1, _G17_CHUNK // (data.n_channels * data.tf_dim))
    with en._replacing(path) as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, data.n_items, per_chunk):
            block = data.inputs[start:start + per_chunk]
            rows = block.reshape(len(block) * data.n_channels, data.tf_dim)
            lines = _g17_rows(rows).split(b"\n")
            heads = (f"{i},{subjects[i]},{labels[i]},{c},".encode()
                     for i in range(start, start + len(block))
                     for c in range(data.n_channels))
            fh.write(b"".join(h + line + b"\n" for h, line in zip(heads, lines)))


def _csv_number(text: str, kind=float):
    """`kind(text)` under numpy's number rule, for every CSV field read
    here: whitespace around it is dropped, but an underscore or a
    non-ASCII character, which `int` and `float` may take, is a `ValueError`."""
    text = text.strip()
    if "_" in text or not text.isascii():
        raise ValueError(f"{text!r} holds an underscore or a non-ASCII character")
    return kind(text)


def _check_records(records, n_fields=None):
    """Per-record checks in file order over (row, fields, values finite);
    a `csv.reader` row comes with `finite` None and is measured and parsed
    here. Returns [item_id, subject, label, first row, channels] per item."""
    items, seen = [], set()
    for row_no, row, finite in records:
        if finite is None and len(row) != n_fields:
            raise IngestError(row_no, f"expected {n_fields} fields, got {len(row)}")
        item_id, subject, label_s, channel_s = row[:4]
        try:
            label, channel = _csv_number(label_s, int), _csv_number(channel_s, int)
            if finite is None:
                finite = np.isfinite([_csv_number(v) for v in row[4:]]).all()
        except ValueError as exc:
            raise IngestError(row_no, f"bad numeric field: {exc}") from None
        if not finite:
            raise IngestError(row_no, "values must be finite")
        if label < 0:
            raise IngestError(row_no, "labels must be non-negative")
        if not items or items[-1][0] != item_id:
            if item_id in seen:
                raise IngestError(row_no, f"channels of item {item_id} are not adjacent")
            seen.add(item_id)
            items.append([item_id, subject, label, row_no, 0])
        current = items[-1]
        if subject != current[1]:
            raise IngestError(row_no, f"item {item_id} changes subject_id")
        if label != current[2]:
            raise IngestError(row_no, f"item {item_id} changes label")
        if channel != current[4]:
            raise IngestError(row_no, f"expected channel {current[4]}, got {channel}")
        current[4] += 1
    return items


def ingest_dataset_csv(path) -> LabeledDataset:
    """Parse the dataset interchange schema: `csv.reader` reads the header
    and one `np.loadtxt` call with CSV quoting the body. Violations, a
    non-finite value among them, raise `IngestError` carrying the 1-based
    record number (header = row 1), or an item's first row; where numpy
    rejects a record or skips a blank line, a `csv.reader` pass names it."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(1, "empty file") from None
        if header[:4] != ["item_id", "subject_id", "label", "channel"]:
            raise IngestError(1, "header must start item_id,subject_id,label,channel")
        tf_dim = len(header) - 4
        if tf_dim < 1 or header[4:] != [f"v{j}" for j in range(tf_dim)]:
            raise IngestError(1, "value columns must be v0..v{d-1}")
        blank, error = [], None

        def lines():
            for line in fh:
                if line in ("\n", "\r\n", "\r"):  # numpy skips it
                    blank.append(line)
                yield line

        try:
            with warnings.catch_warnings():  # an empty body is named below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                table = np.loadtxt(
                    lines(), dtype=[("meta", object, (4,)), ("values", np.float64, (tf_dim,))],
                    delimiter=",", quotechar='"', comments=None, ndmin=1)
        except ValueError as exc:
            error = exc
    if error or blank:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            records = enumerate(csv.reader(fh), start=1)
            next(records)
            _check_records(((n, row, None) for n, row in records), 4 + tf_dim)
        if error:
            raise error
    finite = np.isfinite(table["values"]).all(axis=1).tolist()
    items = _check_records(zip(range(2, len(table) + 2), table["meta"].tolist(), finite))
    if not items:
        raise IngestError(2, "no data rows")
    n_channels, subjects_empty = items[0][4], items[0][1] == ""
    subjects = []
    for item_id, subject, _, first, count in items:
        if count != n_channels:
            raise IngestError(first, f"item {item_id} has {count} channels, expected {n_channels}")
        if (subject == "") != subjects_empty:
            raise IngestError(first, f"item {item_id} mixes empty and non-empty subject_id")
        if not subjects_empty:
            try:
                subjects.append(_csv_number(subject, int))
            except ValueError:
                raise IngestError(first, f"item {item_id} has non-integer subject_id") from None
    labels = np.array([item[2] for item in items], dtype=np.int64)
    inputs = np.ascontiguousarray(table["values"]).reshape(len(items), n_channels, tf_dim)
    return LabeledDataset(inputs, labels, int(labels.max()) + 1, meta={"task": f"csv:{path}"},
                          subject_ids=None if subjects_empty else np.array(subjects))


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SplitPlan:
    """How a benchmark splits its items. `fractions`, strictly ascending
    in (0, 1], subsample the training split; empty means all of it."""

    mode: str = "repeated_random"
    repeats: int = 10
    fractions: tuple = ()
    seed: int = 0

    def __post_init__(self):
        if self.mode not in SPLIT_MODES:
            raise ValueError(f"unknown split mode {self.mode!r}")
        if self.repeats < 1:
            raise ValueError("repeats must be positive")
        fr = tuple(float(f) for f in self.fractions)
        if any(not (0.0 < f <= 1.0) for f in fr):
            raise ValueError("fractions must lie in (0, 1]")
        if any(b <= a for a, b in zip(fr, fr[1:])):
            # a repeated fraction would re-run its splits as extra samples
            raise ValueError("fractions must be strictly ascending")
        object.__setattr__(self, "fractions", fr)


def split_repeated(data: LabeledDataset, plan: SplitPlan, k: int):
    """Seeded draw k of the test-then-validation split.

    Test takes round(TEST_FRACTION*N) items; validation takes
    round(VAL_FRACTION*remainder); training keeps the rest. Indices are
    sorted; the draw depends only on (plan.seed, k). The draw is not
    stratified: a part left with no item of some class is a `SplitError`
    naming the part, the draw, its size and the class.
    """
    if not (0 <= k < plan.repeats):
        raise ValueError("repetition index out of range")
    n = data.n_items
    perm = rng_for(plan.seed, "split", k).permutation(n)
    n_test = int(round(TEST_FRACTION * n))
    n_val = int(round(VAL_FRACTION * (n - n_test)))
    if n_val < 1:  # n >= 4 gives n_test >= 1; n_val >= 1 leaves training >= 3
        raise SplitError("dataset too small to split")
    test = np.sort(perm[:n_test])
    val = np.sort(perm[n_test : n_test + n_val])
    train = np.sort(perm[n_test + n_val :])
    for name, part in (("train", train), ("val", val), ("test", test)):
        missing = np.setdiff1d(np.arange(data.n_classes), data.labels[part])
        if missing.size:
            raise SplitError(f"{name} part of split {k} ({len(part)} items)"
                             f" holds no item of class {missing[0]}")
    return train, val, test


def split_leave_subjects_out(data: LabeledDataset, val_subject: int, test_subject: int):
    """Hold out one whole subject for validation and another for testing."""
    if data.subject_ids is None:
        raise SplitError("dataset has no subject ids")
    if val_subject == test_subject:
        raise SplitError("validation and test subjects must differ")
    known = set(int(s) for s in np.unique(data.subject_ids))
    for s in (val_subject, test_subject):
        if int(s) not in known:
            raise SplitError(f"unknown subject {s}")
    val = np.flatnonzero(data.subject_ids == val_subject)
    test = np.flatnonzero(data.subject_ids == test_subject)
    train = np.flatnonzero(
        (data.subject_ids != val_subject) & (data.subject_ids != test_subject)
    )
    if len(train) == 0:
        raise SplitError("no training items left after holding out two subjects")
    return train, val, test


def stratified_subsample(labels, train_idx, fraction, seed_parts):
    """Per-class seeded subsample of round(fraction*class size) items.

    Deterministic in `seed_parts`; a class that would round to zero items
    raises `SplitError`. fraction == 1.0 returns the full (sorted) set.
    """
    if not (0.0 < fraction <= 1.0):
        raise ValueError("fraction must lie in (0, 1]")
    rng = rng_for(*seed_parts)
    picked = []
    for cls in np.unique(labels[train_idx]):
        pool = train_idx[labels[train_idx] == cls]
        take = int(round(fraction * len(pool)))
        if take < 1:
            raise SplitError(f"fraction {fraction} empties class {cls}")
        sel = rng.choice(len(pool), size=take, replace=False)
        picked.append(pool[sel])
    return np.sort(np.concatenate(picked))


# ---------------------------------------------------------------------------
# Classical comparators
# ---------------------------------------------------------------------------

def knn_classify(train_x, train_y, test_x, k: int):
    """k-nearest-neighbour labels under Euclidean distance.

    Majority vote over the k nearest training points; a tied vote goes to
    the nearest neighbour whose label belongs to the tied set.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.int64)
    test_x = np.atleast_2d(np.asarray(test_x, dtype=np.float64))
    if not (1 <= k <= len(train_x)):
        raise ValueError("k must lie in [1, |train|]")
    # squared distances via the expansion; stable argsort fixes tie order
    d2 = (
        (test_x * test_x).sum(axis=1)[:, None]
        + (train_x * train_x).sum(axis=1)[None, :]
        - 2.0 * test_x @ train_x.T
    )
    nearest = train_y[np.argsort(d2, axis=1, kind="stable")[:, :k]]  # (test, k)
    votes = (nearest[:, :, None] == np.arange(train_y.max() + 1)).sum(axis=1)
    tied = votes == votes.max(axis=1, keepdims=True)  # (test, classes)
    first = np.argmax(np.take_along_axis(tied, nearest, axis=1), axis=1)
    return nearest[np.arange(len(nearest)), first]


def _linear_margin_train(train_x, train_y):
    """One-vs-rest hinge-loss weights `(w[classes, d], b[classes])`.

    `MARGIN_EPOCHS` full-batch subgradient steps of `MARGIN_LR` with an L2
    penalty of `MARGIN_REG` on the weights (bias unpenalized);
    deterministic with no randomness at all.
    """
    train_x = np.asarray(train_x, dtype=np.float64)
    train_y = np.asarray(train_y, dtype=np.int64)
    n, d = train_x.shape
    classes = int(train_y.max()) + 1
    w = np.zeros((classes, d))
    b = np.zeros(classes)
    signs = np.where(train_y[None, :] == np.arange(classes)[:, None], 1.0, -1.0)
    for _ in range(MARGIN_EPOCHS):
        margins = signs * (train_x @ w.T + b).T  # (classes, n)
        viol = margins < 1.0
        coeff = np.where(viol, signs, 0.0)
        w -= MARGIN_LR * (MARGIN_REG * w - (coeff @ train_x) / n)
        b -= MARGIN_LR * (-coeff.sum(axis=1) / n)
    return w, b


def _linear_margin_predict(w, b, test_x):
    scores = np.atleast_2d(np.asarray(test_x, dtype=np.float64)) @ w.T + b
    return np.argmax(scores, axis=1).astype(np.int64)


def linear_margin_classify(train_x, train_y, test_x):
    """One-vs-rest linear classifier trained on the hinge loss."""
    w, b = _linear_margin_train(train_x, train_y)
    return _linear_margin_predict(w, b, test_x)


# ---------------------------------------------------------------------------
# Benchmark models
# ---------------------------------------------------------------------------

def _flat_inputs(data: LabeledDataset):
    return data.inputs.reshape(data.n_items, -1)


def _single_channel_inputs(data: LabeledDataset):
    if data.n_channels != 1:
        raise ShapeError("dense transfer models need single-channel data")
    return data.inputs[:, 0, :]


def _fine_tune(net, x, labels, train_idx, val_idx, train_seed, cfg):
    """Fine-tune on the training rows of `x`, stopping on the validation
    rows, with `cfg` reseeded to `train_seed`."""
    return en.fine_tune(
        net, (x[train_idx], labels[train_idx]), (x[val_idx], labels[val_idx]),
        replace(cfg, seed=train_seed),
    )


def _classify(net, x):
    """Labels of a fine-tuned dense or ensemble classifier: argmax of its
    class probabilities over rows of `x`."""
    probs = net.forward(x) if isinstance(net, en.EnsembleNet) else nets.forward(net, x)
    return np.argmax(probs, axis=1).astype(np.int64)


class _FineTunedModel:
    """A classifier from `_build(data, run_seed)`, fine-tuned on the rows
    `_inputs(data)` (read first) under derive_seed(run_seed, "train")."""

    _inputs = staticmethod(_single_channel_inputs)

    def fit(self, data, train_idx, val_idx, run_seed, cfg):
        x = self._inputs(data)
        trained, history = _fine_tune(
            self._build(data, run_seed), x, data.labels, train_idx, val_idx,
            derive_seed(run_seed, "train"), cfg,
        )

        def predict(d, idx):
            return _classify(trained, self._inputs(d)[idx])

        return predict, history


class TransferFinModel(_FineTunedModel):
    """Pretrained feature regressor with a fresh softmax head, fine-tuned;
    the head is seeded derive_seed(run_seed, "fin-head")."""

    def __init__(self, tag: str, artifact: en.FinArtifact):
        self.tag = tag
        self.artifact = artifact

    def _build(self, data, run_seed):
        return en.attach_head(self.artifact, data.n_classes, derive_seed(run_seed, "fin-head"))


class RandomDenseModel(_FineTunedModel):
    """Same training path as the transfer model, from random initialization
    seeded derive_seed(run_seed, "baseline-init")."""

    def __init__(self, tag: str, topology: Topology):
        if topology.activations[-1] != "softmax":
            raise ValueError("classifier topology must end in softmax")
        self.tag = tag
        self.topology = topology

    def _build(self, data, run_seed):
        if self.topology.output_dim != data.n_classes:
            raise ShapeError("topology output dim must match n_classes")
        return nets.init_random(self.topology, derive_seed(run_seed, "baseline-init"))


class EnsembleFinModel(_FineTunedModel):
    """One or more feature branches applied per channel, jointly fine-tuned;
    the head is seeded derive_seed(run_seed, "ensemble-head")."""

    def __init__(self, tag: str, artifacts):
        if not artifacts:
            raise ValueError("need at least one artifact")
        self.tag = tag
        self.artifacts = list(artifacts)

    @staticmethod
    def _inputs(data):
        return data.inputs

    def _build(self, data, run_seed):
        return en.build_ensemble(
            self.artifacts, data.n_channels, data.n_classes,
            derive_seed(run_seed, "ensemble-head"),
        )


class KnnModel:
    """Memorize the training items; vote at prediction time."""

    def __init__(self, tag: str = "knn", k: int = 5):
        self.tag = tag
        self.k = k

    def fit(self, data, train_idx, val_idx, run_seed, cfg):
        x = _flat_inputs(data)
        train_x = x[train_idx].copy()
        train_y = data.labels[train_idx].copy()
        k = min(self.k, len(train_idx))

        def predict(d, idx):
            return knn_classify(train_x, train_y, _flat_inputs(d)[idx], k)

        return predict, None


class LinearMarginModel:
    """Hinge-loss linear one-vs-rest comparator."""

    def __init__(self, tag: str = "linear-margin"):
        self.tag = tag

    def fit(self, data, train_idx, val_idx, run_seed, cfg):
        w, b = _linear_margin_train(_flat_inputs(data)[train_idx], data.labels[train_idx])

        def predict(d, idx):
            return _linear_margin_predict(w, b, _flat_inputs(d)[idx])

        return predict, None


# ---------------------------------------------------------------------------
# Baseline topology search
# ---------------------------------------------------------------------------

def sample_search_candidates(tf_dim: int, n_classes: int, n_candidates: int, seed: int):
    """Seeded random classifier topologies in the explored design space."""
    rng = rng_for(seed, "search-candidates")
    lo, hi = SEARCH_DEPTHS
    out = []
    for _ in range(n_candidates):
        depth = int(rng.integers(lo, hi + 1))  # affine layer count
        hidden = [int(rng.choice(SEARCH_WIDTHS)) for _ in range(depth - 1)]
        act = str(rng.choice(["relu", "tanh"]))
        sizes = (tf_dim, *hidden, n_classes)
        acts = (act,) * (depth - 1) + ("softmax",)
        out.append(Topology(sizes, acts))
    return out


def baseline_search(
    data: LabeledDataset,
    cfg: TrainConfig,
    seed: int,
    candidates=None,
    n_candidates: int = 20,
):
    """Pick the topology with the best mean validation accuracy.

    Each candidate trains from scratch on `SEARCH_SPLITS` dedicated
    splits; test partitions are never touched. A diverging candidate
    scores 0 on that split. Ties break toward fewer parameters, then the
    lower candidate index. Returns (winner topology, per-candidate-split
    records).
    """
    if candidates is None:
        candidates = sample_search_candidates(
            data.tf_dim, data.n_classes, n_candidates, seed
        )
    if not candidates:
        raise ValueError("candidate list is empty")
    plan = SplitPlan(
        mode="repeated_random",
        repeats=SEARCH_SPLITS,
        seed=derive_seed(seed, "search-splits"),
    )
    x = _single_channel_inputs(data)
    records = []
    means = []
    for ci, topo in enumerate(candidates):
        accs = []
        for j in range(SEARCH_SPLITS):
            train_idx, val_idx, _ = split_repeated(data, plan, j)
            t0 = time.perf_counter()
            diverged = False
            try:
                net = nets.init_random(topo, derive_seed(seed, "search-init", ci, j))
                trained, _ = _fine_tune(
                    net, x, data.labels, train_idx, val_idx,
                    derive_seed(seed, "search-train", ci, j), cfg,
                )
                acc = float(np.mean(_classify(trained, x[val_idx]) == data.labels[val_idx]))
            except DivergedError:
                diverged = True
                acc = 0.0
            accs.append(acc)
            records.append({
                "candidate": ci,
                "split_index": j,
                "layer_sizes": "x".join(str(s) for s in topo.layer_sizes),
                "activation": topo.activations[0],
                "params": nets.count_params(topo),
                "val_accuracy": acc,
                "train_seconds": time.perf_counter() - t0,
                "diverged": diverged,
            })
        means.append(float(np.mean(accs)))
    order = sorted(
        range(len(candidates)),
        key=lambda i: (-means[i], nets.count_params(candidates[i]), i),
    )
    return candidates[order[0]], records


# ---------------------------------------------------------------------------
# Protocol runner
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    run_index: int
    model_tag: str
    split_index: int
    fraction: float
    accuracy: float
    train_seconds: float
    n_train: int
    history: nets.TrainHistory = None


@dataclass
class EvalReport:
    """Benchmark runs and their protocol description. The report tables
    (`aggregates`, `fraction_aggregates`) and the model comparisons
    (`stats`) are computed from `runs` on every read."""

    runs: list
    meta: dict = field(default_factory=dict)

    @property
    def aggregates(self) -> dict:
        """Per-model means and sample stds of accuracy and training seconds."""
        return {
            tag: {
                "n_runs": len(group),
                **_summary([r.accuracy for r in group], "accuracy"),
                **_summary([r.train_seconds for r in group], "train_seconds"),
            }
            for tag, group in _groups(self.runs, lambda r: r.model_tag).items()
        }

    @property
    def fraction_aggregates(self) -> list:
        """Per (fraction, model) accuracy summaries, fraction-major, models in
        order of first appearance."""
        rank = {tag: i for i, tag in enumerate(_groups(self.runs, lambda r: r.model_tag))}
        groups = _groups(self.runs, lambda r: (r.fraction, r.model_tag))
        return [
            {
                "fraction": fraction,
                "model_tag": tag,
                "n_runs": len(groups[fraction, tag]),
                **_summary([r.accuracy for r in groups[fraction, tag]], "accuracy"),
            }
            for fraction, tag in sorted(groups, key=lambda k: (k[0], rank[k[1]]))
        ]

    @property
    def stats(self) -> list:
        """Test rows comparing every pair of models' accuracy samples.

        Models are taken in the order they first appear in `runs`; for each
        pair (a, b), a one-tailed Welch test of a > b and then a Levene test.
        All raw p-values are Bonferroni-corrected together as one family at
        `ALPHA`. A test that `stats` finds degenerate keeps its row with no
        p-value and the verdict `degenerate`, outside the family: Welch
        when both models' accuracies are constant, Levene when neither
        model's absolute deviations vary, as with two runs each. Empty
        unless there are at least two models and each has at least two runs.
        """
        samples = {
            tag: np.array([r.accuracy for r in group])
            for tag, group in _groups(self.runs, lambda r: r.model_tag).items()
        }
        if len(samples) < 2 or any(len(acc) < 2 for acc in samples.values()):
            return []
        rows = []
        for tag_a, tag_b in itertools.combinations(samples, 2):
            a, b = samples[tag_a], samples[tag_b]
            for name, test, args in (
                ("welch_one_tailed_greater", st.welch_t_one_tailed, (a, b, "greater")),
                ("levene", st.levene_test, ([a, b],)),
            ):
                try:
                    stat, p = (float(v) for v in test(*args))
                except DegenerateGroups:
                    stat = p = None
                rows.append({
                    "test_name": name, "groups": f"{tag_a} vs {tag_b}",
                    "statistic": stat, "p_value": p,
                    "corrected_p": None, "verdict": "degenerate",
                })
        testable = [row for row in rows if row["p_value"] is not None]
        corrected = st.bonferroni([row["p_value"] for row in testable])
        for row, cp in zip(testable, corrected):
            row["corrected_p"] = float(cp)
            row["verdict"] = "significant" if cp < ALPHA else "not_significant"
        return rows


def _fraction_key(fraction: float) -> int:
    return int(round(fraction * 1000))


def _groups(runs, key) -> dict:
    """Runs by `key(run)`, keys in order of first appearance."""
    groups = {}
    for r in runs:
        groups.setdefault(key(r), []).append(r)
    return groups


def _summary(values, name) -> dict:
    """Mean and sample std (0.0 for one value) of a sequence of numbers."""
    x = np.array(values)
    return {
        f"mean_{name}": float(x.mean()),
        f"std_{name}": float(x.std(ddof=1)) if x.size > 1 else 0.0,
    }


def _enumerate_splits(data: LabeledDataset, plan: SplitPlan):
    if plan.mode == "repeated_random":
        return [(k, split_repeated(data, plan, k)) for k in range(plan.repeats)]
    if data.subject_ids is None:
        raise SplitError("leave_subjects_out needs subject ids")
    subjects = [int(s) for s in np.unique(data.subject_ids)]
    if len(subjects) < 3:
        raise SplitError(
            "leave_subjects_out needs at least three subjects (validation, test"
            f" and training), got {len(subjects)}"
        )
    pairs = [(v, t) for v in subjects for t in subjects if v != t]
    return [
        (i, split_leave_subjects_out(data, v, t)) for i, (v, t) in enumerate(pairs)
    ]


def run_benchmark(
    data: LabeledDataset,
    plan: SplitPlan,
    models,
    cfg: TrainConfig,
) -> EvalReport:
    """Fit, time and test every (split, fraction, model) cell of the
    protocol, one after another in that nesting order.

    Each run's randomness derives only from (plan.seed, split index,
    fraction, model role). Timing fields are wall-clock and never
    reproducible; compare reports with timing zeroed.
    """
    tags = [m.tag for m in models]
    if not tags:
        raise ValueError("need at least one model")
    if len(set(tags)) != len(tags):
        raise ValueError("model tags must be unique")
    fractions = plan.fractions or (1.0,)
    runs = []
    for k, (train_idx, val_idx, test_idx) in _enumerate_splits(data, plan):
        for fraction in fractions:
            if fraction < 1.0:
                sub_train = stratified_subsample(
                    data.labels,
                    train_idx,
                    fraction,
                    (plan.seed, "subsample", k, _fraction_key(fraction)),
                )
            else:
                sub_train = train_idx
            run_seed = derive_seed(plan.seed, "run", k, _fraction_key(fraction))
            for model in models:
                t0 = time.perf_counter()
                predictor, history = model.fit(data, sub_train, val_idx, run_seed, cfg)
                seconds = time.perf_counter() - t0
                preds = predictor(data, test_idx)
                accuracy = float(np.mean(preds == data.labels[test_idx]))
                runs.append(RunRecord(
                    len(runs), model.tag, k, fraction, accuracy, seconds,
                    len(sub_train), history,
                ))
    return EvalReport(
        runs=runs,
        meta={
            "seed": plan.seed,
            "mode": plan.mode,
            "repeats": plan.repeats,
            "fractions": list(fractions),
            "n_items": data.n_items,
            "n_channels": data.n_channels,
            "n_classes": data.n_classes,
            "task": data.meta.get("task", "unknown"),
            "model_tags": tags,
        },
    )
