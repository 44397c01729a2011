"""Feature-imitating networks: pretrain, transfer, ensemble, benchmark.

Small dense networks are trained to reproduce closed-form signal features
(entropy, moments, fundamental frequency, cepstra, regularity) from
wavelet scalograms of synthetic signals, then reused as initialization
for downstream classifiers, either singly (swap in a softmax head) or as
per-channel ensembles. The benchmark harness measures whether that reuse
helps under data scarcity, reduces variance across splits, and speeds up
early training.
"""

from .engine import (
    EnsembleNet,
    FinArtifact,
    ReconstructionReport,
    attach_head,
    build_ensemble,
    default_fin_topology,
    fine_tune,
    load_fin,
    pretrain_fin,
    reconstruction_report,
    save_fin,
)
from .errors import (
    CorpusDegenerateError,
    CorruptArtifact,
    DegenerateGroups,
    DegenerateSignal,
    DivergedError,
    FeatureError,
    IngestError,
    ShapeError,
    SplitError,
    UnsupportedVersion,
)
from .features import (
    FEATURE_NAMES,
    Signal,
    compute_feature,
    feature_width,
)
from .nets import (
    DenseNet,
    Topology,
    TrainConfig,
    TrainHistory,
    count_params,
    forward,
    gradcheck_suite,
    init_random,
)
from .signals import (
    GenSpec,
    gen_spec_digest,
    generate,
    scalograms,
    wavelet_transform,
)

__version__ = "0.1.0"
