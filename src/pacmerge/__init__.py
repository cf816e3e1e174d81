"""pacmerge: PAC-Bayes generalisation certificates for merged models.

The library learns low-dimensional merge coefficients over a pool of source
models and certifies the merged model with a PAC-Bayes-kl (Seeger) bound.
``harness`` holds the shipped scenarios; ``cli`` is the ``pacmerge`` command.
"""

from .bounds import (
    CertificateRecord,
    bernoulli_kl,
    budget,
    gaussian_kl,
    gaussian_log_ratio,
    invert_kl,
    make_record,
    seeger_certificate,
)
from .certify import (
    CertifyConfig,
    certify,
    certify_gaussian,
    certify_point,
    optimize,
)
from .cma import CmaConfig, CmaEs, default_popsize, minimize
from .errors import (
    ConfigError,
    DomainError,
    FormatError,
    OptError,
    StructureError,
    TrainingDiverged,
)
from .merging import (
    MergeScheme,
    default_phi,
    merged_values,
    ties_preprocess,
)
from .params import ModelPool
from .posterior import RiskEstimator
from .toyzoo import (
    LabeledSet,
    MlpSpec,
    TrainConfig,
    error_counts,
    gen_tasks,
    init_params,
    sample_set,
    train_stack,
)

__version__ = "0.3.0"
