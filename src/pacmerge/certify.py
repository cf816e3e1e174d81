"""Learning the posterior mean and emitting certificates.

Two objectives are supported for fitting merge coefficients on the support
set: the randomized classifier's Monte-Carlo 0-1 train risk alone
(``train_risk``), or the certificate's own closed form (``pac_bayes_upper``),
which trades train error against the KL to the prior; the search reads the
certificate's support, prior and ``CertifyConfig``.  Both are minimized with
the same derivative-free search, seeded at the uniform-merge coefficients
(the prior mean), with common random numbers across candidate evaluations
so the objective is a pure function.  The search scores each generation of
candidates in one ``mc_risks`` call: one merge and one scoring pass per
generation, not per candidate.  The discrete grid is likewise merged and
scored in one call.

The data-dependent-prior protocol splits the support, fits a prior mean on
the first half with the plain objective, then bound-optimizes on the second
half; the certificate is computed on the second half only, preserving
prior/data independence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import BoundBudget, CertificateRecord, closed_form, gaussian_kl, make_record
from .cma import CmaConfig, minimize
from .errors import DomainError, StructureError
from .merging import MergeScheme, default_phi, make_scheme, merged_values
from .posterior import GaussianSpec, mc_risk, mc_risks
from .seeding import derive_seed, rng_for
from .toyzoo import LabeledSet, MlpSpec, error_counts

OBJECTIVE_KINDS = ("train_risk", "pac_bayes_upper")


@dataclass(frozen=True)
class DdpConfig:
    split_fraction: float = 0.5
    prior_objective: str = "train_risk"
    split_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.split_fraction < 1.0:
            raise DomainError(f"split fraction {self.split_fraction} outside (0, 1)")
        if self.prior_objective not in OBJECTIVE_KINDS:
            raise DomainError(f"unknown prior objective {self.prior_objective!r}")


@dataclass(frozen=True)
class CertifyConfig:
    """Shared knobs for all certification entry points."""

    posterior_variance: float = 0.05
    prior_variance: float = 0.05
    mc_samples: int = 10
    delta: float = 0.05
    cma: CmaConfig = field(default_factory=CmaConfig)
    eval_seed: int = 1

    def __post_init__(self):
        for variance in (self.posterior_variance, self.prior_variance):
            if not (variance > 0 and math.isfinite(variance)):
                raise DomainError(f"variances must be positive and finite, got {variance}")
        if self.mc_samples < 1:
            raise DomainError("mc_samples must be >= 1")
        if not 0.0 < self.delta < 1.0:
            raise DomainError(f"delta {self.delta} outside (0, 1)")


@dataclass
class TracePoint:
    eval_index: int
    objective: float
    kl_qp: float


def default_prior(scheme: MergeScheme, variance: float) -> GaussianSpec:
    """A Gaussian at the uniform-merge coefficients: the prior unless one is given."""
    return GaussianSpec(default_phi(scheme), variance)


def optimize(
    scheme: MergeScheme,
    objective_kind: str,
    support: LabeledSet,
    model_spec: MlpSpec,
    config: CertifyConfig,
    prior: GaussianSpec | None = None,
) -> tuple[np.ndarray, list[TracePoint]]:
    """Search for the posterior mean; returns (best phi, evaluation trace).

    ``pac_bayes_upper`` minimizes ``bounds.closed_form`` on the budget
    ``BoundBudget(KL, support.n, config.delta)`` that the certificate reports;
    ``prior`` defaults to ``default_prior(scheme, config.prior_variance)``.

    Each CMA-ES generation is scored in one ``mc_risks`` call, so one merge
    and one scoring pass per generation.  Deterministic in ``config.cma.seed``;
    the trace records every evaluation in index order, and the returned point
    never scores worse than the trace minimum.
    """
    if objective_kind not in OBJECTIVE_KINDS:
        raise DomainError(f"unknown objective kind {objective_kind!r}")
    if support.n == 0:
        raise DomainError("support must be non-empty")
    if prior is None:
        prior = default_prior(scheme, config.prior_variance)
    if prior.dim != scheme.d_phi:
        raise StructureError(f"prior dimension {prior.dim} != scheme d_phi {scheme.d_phi}")
    mc_seed = derive_seed(config.cma.seed, "mc-common")
    variance = config.posterior_variance
    trace: list[TracePoint] = []

    def batch_objective(phis):
        # Common random numbers across calls make the objective a pure function.
        risks = mc_risks(
            phis, variance, scheme, model_spec, support, config.mc_samples, mc_seed
        )
        for phi, risk in zip(phis, risks.tolist()):
            kl, value = 0.0, risk
            if objective_kind == "pac_bayes_upper":
                kl = gaussian_kl(GaussianSpec(phi, variance), prior)
                value = closed_form(risk, BoundBudget(kl, support.n, config.delta).value)
            trace.append(TracePoint(eval_index=len(trace), objective=value, kl_qp=kl))
        return [point.objective for point in trace[-len(phis):]]

    result = minimize(batch_objective, default_phi(scheme), config.cma)
    return result.x_best, trace


def _posterior_errors(q, scheme, model_spec, support, query, config):
    # Train risk is re-computed with the exact stream the search minimized, so
    # the certificate states the quantity that was optimized; the query-set
    # estimate uses an independent stream.
    train = mc_risk(
        q, scheme, model_spec, support, config.mc_samples,
        derive_seed(config.cma.seed, "mc-common"),
    )
    test = None
    if query is not None:
        test = mc_risk(
            q, scheme, model_spec, query, config.mc_samples,
            derive_seed(config.eval_seed, "test-eval"),
        )
    return train, test


def certify(
    scheme: MergeScheme,
    objective_kind: str,
    support: LabeledSet,
    query: LabeledSet | None,
    model_spec: MlpSpec,
    config: CertifyConfig,
    task_id: str = "",
    prior: GaussianSpec | None = None,
    objective_label: str | None = None,
) -> CertificateRecord:
    """Fit the posterior mean on the support and certify the result.

    The prior defaults to ``default_prior``.  Search and record share config,
    prior and support, so a ``pac_bayes_upper`` record's ``upper_bound`` is
    the least objective value of its search.  Any learned coefficients are
    re-interpreted as the mean of a Gaussian posterior with the configured
    variance, so even a plain train-risk fit gets a certificate.
    """
    n = support.n
    if n < 2:
        raise DomainError(f"need support size >= 2, got {n}")
    if prior is None:
        prior = default_prior(scheme, config.prior_variance)
    mu_q, trace = optimize(scheme, objective_kind, support, model_spec, config, prior)
    q = GaussianSpec(mu_q, config.posterior_variance)
    train, test = _posterior_errors(q, scheme, model_spec, support, query, config)
    return make_record(
        task_id, scheme.kind, objective_label or objective_kind, train,
        gaussian_kl(q, prior), n, config.delta, test_error=test,
        provenance={
            "cma_seed": config.cma.seed,
            "eval_seed": config.eval_seed,
            "evals": len(trace),
            "posterior_variance": config.posterior_variance,
            "prior_variance": config.prior_variance,
            "mc_samples": config.mc_samples,
        },
    )


def split_support(support: LabeledSet, ddp: DdpConfig) -> tuple[LabeledSet, LabeledSet]:
    """Disjoint (prior-fit, certify) halves of the support, seeded shuffle."""
    if support.n < 4:
        raise DomainError("DDP needs support size >= 4 so both halves have >= 2")
    order = rng_for(ddp.split_seed, "ddp-split").permutation(support.n)
    cut = int(round(ddp.split_fraction * support.n))
    cut = min(max(cut, 2), support.n - 2)
    return support.subset(np.sort(order[:cut])), support.subset(np.sort(order[cut:]))


def certify_ddp(
    scheme: MergeScheme,
    support: LabeledSet,
    ddp: DdpConfig,
    model_spec: MlpSpec,
    config: CertifyConfig,
    query: LabeledSet | None = None,
    task_id: str = "",
) -> CertificateRecord:
    """Two-stage certification with a data-dependent prior mean.

    Half A fits the prior mean with the configured prior objective; half B
    both fits the posterior under the bound objective and computes the
    certificate, with n = |B|.
    """
    half_a, half_b = split_support(support, ddp)
    prior_config = replace(
        config, cma=replace(config.cma, seed=derive_seed(config.cma.seed, "ddp-prior"))
    )
    mu_p, _ = optimize(scheme, ddp.prior_objective, half_a, model_spec, prior_config)
    prior = GaussianSpec(mu_p, config.prior_variance)
    record = certify(
        scheme,
        "pac_bayes_upper",
        half_b,
        query,
        model_spec,
        config,
        task_id=task_id,
        prior=prior,
        objective_label="ddp",
    )
    record.provenance.update(
        {
            "ddp_split_fraction": ddp.split_fraction,
            "ddp_split_seed": ddp.split_seed,
            "ddp_prior_objective": ddp.prior_objective,
            "ddp_prior_n": half_a.n,
        }
    )
    return record


def certify_discrete(
    pool,
    grid_size: int,
    support: LabeledSet,
    model_spec: MlpSpec,
    config: CertifyConfig,
    query: LabeledSet | None = None,
    task_id: str = "",
) -> CertificateRecord:
    """Finite-class certificate over a uniform coefficient grid in [0, 1].

    The classifier is deterministic: the posterior is a point mass on the
    grid value with the lowest train error (ties toward the smaller value),
    against a uniform prior over the grid, so KL = ln(grid_size) exactly.
    """
    if grid_size < 2:
        raise DomainError(f"grid_size must be >= 2, got {grid_size}")
    n = support.n
    if n < 2:
        raise DomainError(f"need support size >= 2, got {n}")
    scheme = make_scheme("task_arith", pool)
    grid = np.linspace(0.0, 1.0, grid_size)
    merged = merged_values(scheme, grid[:, None])
    risks = error_counts(model_spec, merged, support) / n
    best = int(np.argmin(risks))  # argmin takes the first (smallest) value on ties
    test = None
    if query is not None:
        test = float(error_counts(model_spec, merged[best : best + 1], query)[0] / query.n)
    return make_record(
        task_id, "task_arith", "discrete", float(risks[best]), math.log(grid_size), n,
        config.delta, test_error=test,
        provenance={"grid_size": grid_size, "phi_star": float(grid[best])},
    )
