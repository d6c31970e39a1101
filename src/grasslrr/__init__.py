"""Subspace clustering by low-rank self-representation of Grassmann points."""

from .admm import (
    AdmmConfig,
    AdmmReport,
    admm_solve,
    dense_reference,
    svt,
)
from .closed_form import (
    ClosedFormReport,
    LowRankCoefficients,
    build_delta,
    glrr_f_solve,
)
from .clustering import (
    ClusterLabels,
    NcutConfig,
    affinity_from_Z,
    cluster_pipeline,
    cluster_sweep,
    kmeans,
    ncut,
)
from .dataio import (
    Manifest,
    SynthSpec,
    build_point,
    load_manifest,
    read_labels,
    read_matrix,
    save_results,
    synth_union,
    write_labels,
    write_matrix,
)
from .errors import (
    GrassLrrError,
    InfeasibleSpecError,
    InvalidConfigError,
    InvalidInputError,
    NumericalDivergenceError,
    OracleTooLargeError,
    RankDeficientError,
)
from .evaluation import accuracy, hungarian
from .kernels import (
    KernelMatrix,
    KernelSpec,
    gram,
    kernel_sqrt,
)
from .manifold import (
    GrassmannPoint,
    orthonormalize,
    project_embed,
    sym_eig,
)
from .rng import SplitMix64

__version__ = "0.1.0"
