"""pacmerge: PAC-Bayes generalisation certificates for merged models.

The library learns low-dimensional merge coefficients over a pool of source
models and certifies the merged model with a PAC-Bayes-kl (Seeger) bound.
``harness`` holds the shipped scenarios; ``cli`` is the ``pacmerge`` command.
"""

from .bounds import (
    BoundBudget,
    BoundReport,
    CertificateRecord,
    bernoulli_kl,
    gaussian_kl,
    invert_kl,
    make_record,
    seeger_certificate,
)
from .certify import (
    CertifyConfig,
    DdpConfig,
    certify,
    certify_ddp,
    certify_discrete,
    default_prior,
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
    TiesPreprocessed,
    default_phi,
    make_scheme,
    merged_values,
    realize,
    ties_preprocess,
)
from .params import (
    ModelPool,
    ParamVector,
    axpy,
    pool_load,
    pool_save,
)
from .posterior import GaussianSpec, mc_risk, mc_risks
from .toyzoo import (
    LabeledSet,
    MlpSpec,
    SyntheticTask,
    TrainConfig,
    error_counts,
    forward,
    gen_tasks,
    init_params,
    loss_and_grad,
    sample_set,
    train,
    train_stack,
    zero_one_risk,
)

__version__ = "0.1.0"
