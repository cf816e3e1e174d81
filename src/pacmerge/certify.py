"""Learning the posterior mean and emitting certificates.

Two objectives are supported for fitting merge coefficients on the support
set: the randomized classifier's Monte-Carlo 0-1 train risk alone
(``train_risk``), or the Pinsker closed form of the certificate on that
estimate (``pac_bayes_upper``), which trades train error against the KL to
the prior; the search reads the certificate's support, prior mean and
``CertifyConfig``.  Both are minimized with the same derivative-free search,
seeded at the uniform-merge coefficients (the default prior mean), with
common random numbers across candidate evaluations so the objective is a
pure function.  A search builds one ``posterior.RiskEstimator`` and scores
each generation in one call of its ``risks`` and one ``gaussian_kl`` call:
one merge and one scoring pass per generation, not per candidate.  On a large
support each posterior draw scores its own slice of it, and where it is
cheaper a generation forms its draws' first layer from the scheme's basis
responses (see ``posterior``), since no certificate reads the search's
estimate.

Every record comes from one of two functions, one per posterior family.
``certify_gaussian`` builds every Gaussian-posterior record: those of
``certify`` (a search, then its mean) and the validity trials' grid fits.
It certifies one posterior draw by its exact errors (a disintegrated
bound), so no Monte-Carlo estimate, the search's included, enters a record.
``certify_point`` builds every point-mass record: a deterministic merge, the
best of G fixed rows of coefficients, with KL = ln G: a finite grid, or one
row fitted on other data (half-validation), whose KL = 0 makes it a
test-set bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bounds import (CertificateRecord, budget, closed_form, gaussian_kl, gaussian_log_ratio,
                     make_record)
from .cma import CmaConfig, CmaResult, minimize
from .errors import DomainError, StructureError
from .merging import MergeScheme, default_phi, merged_values
from .posterior import MC_SAMPLES, RiskEstimator, slice_count
from .seeding import derive_seed, rng_for
from .toyzoo import LabeledSet, MlpSpec, error_counts

OBJECTIVE_KINDS = ("train_risk", "pac_bayes_upper")


@dataclass(frozen=True)
class CertifyConfig:
    """Shared knobs for all certification entry points; every search
    estimates its risks from ``posterior.MC_SAMPLES`` draws."""

    posterior_variance: float = 0.05
    prior_variance: float = 0.05
    delta: float = 0.05
    cma: CmaConfig = field(default_factory=CmaConfig)
    eval_seed: int = 1

    def __post_init__(self):
        for variance in (self.posterior_variance, self.prior_variance):
            if not (variance > 0 and math.isfinite(variance)):
                raise DomainError(f"variances must be positive and finite, got {variance}")
        if not 0.0 < self.delta < 1.0:
            raise DomainError(f"delta {self.delta} outside (0, 1)")


def optimize(
    scheme: MergeScheme,
    objective_kind: str,
    support: LabeledSet,
    model_spec: MlpSpec,
    config: CertifyConfig,
    prior_mean: np.ndarray | None = None,
) -> CmaResult:
    """Search for the posterior mean; returns the search's ``CmaResult``.

    ``pac_bayes_upper`` minimizes ``bounds.closed_form`` on the budget
    ``budget(KL, support.n, config.delta)`` that the certificate reports;
    ``prior_mean`` (d_phi,) defaults to ``default_phi(scheme)``.

    The search builds one ``RiskEstimator`` on the support, and each
    CMA-ES generation is scored in one ``risks`` call and one ``gaussian_kl``
    call, so one merge and one scoring pass per generation, and its bounds
    in one array call of ``budget`` and of ``closed_form``, whose elements
    have the bits of their scalar calls.  The estimator takes k =
    ``MC_SAMPLES`` draws and scores draw j on slice j mod s of the support,
    s = ``slice_count(support.n, k)``, so a candidate costs about max(n,
    k·400) row evaluations (``posterior._SLICE_ROWS`` = 400), not k·n; the
    budget still uses the full n, and the certificate scores its own draw on
    all n rows.  Where it costs fewer multiply-adds, as for the generations
    on 100 rows, the estimator forms the draws' first layer in coefficient
    space and merges only their later layers; its estimate can then differ
    from the merged rows' where a margin lies within float32 rounding of
    zero, and still no record reads it.
    Deterministic in ``config.cma.seed``; ``f_best`` is the objective at
    ``x_best`` and ``evals`` counts every evaluation, the start point included.
    The search stops at ``config.cma.max_evals`` or, with ``stop ==
    "stalled"``, once ``cma.stall_window(d_phi)``
    generations in a row find no value below its best (see ``cma.minimize``).
    """
    if objective_kind not in OBJECTIVE_KINDS:
        raise DomainError(f"unknown objective kind {objective_kind!r}")
    if support.n == 0:
        raise DomainError("support must be non-empty")
    if prior_mean is None:
        prior_mean = default_phi(scheme)
    if np.shape(prior_mean) != (scheme.d_phi,):
        raise StructureError(f"prior mean shape {np.shape(prior_mean)} != ({scheme.d_phi},)")
    variance = config.posterior_variance
    # Common random numbers across calls make the objective a pure function.
    estimate = RiskEstimator(scheme, model_spec, support, variance, MC_SAMPLES,
                             derive_seed(config.cma.seed, "mc-common"))

    def batch_objective(phis):
        risks = estimate.risks(phis)
        if objective_kind == "train_risk":
            return risks
        kls = gaussian_kl(phis, prior_mean, variance, config.prior_variance)
        return closed_form(risks, budget(kls, support.n, config.delta))

    return minimize(batch_objective, default_phi(scheme), config.cma)


def certify_gaussian(
    scheme: MergeScheme,
    mu: np.ndarray,
    support: LabeledSet,
    query: LabeledSet | None,
    model_spec: MlpSpec,
    config: CertifyConfig,
    draw_seed: int,
    task_id: str,
    objective: str,
    provenance: dict,
    prior_mean: np.ndarray | None = None,
) -> CertificateRecord:
    """Certify the merge at one draw h = mu + sigma_Q eps of the posterior
    Q = N(``mu``, posterior variance I) over the coefficients (d_phi,),
    against the prior P = N(``prior_mean``, prior variance I), ``prior_mean``
    defaulting to ``default_phi(scheme)``.

    eps is draw 0 of the noise stream ``draw_seed``, which the caller fixes
    before the support is seen.  The train and test errors are h's exact
    0-1 errors on the support and on the query, if given (one merged row),
    and the KL is ``max(ln dQ/dP(h), 0)``, which the ``bounds`` budget
    covers for one draw.  Provenance gains ``mu``, ``draw`` (h),
    ``draw_seed``, ``ln_ratio`` (ln dQ/dP(h)) and ``gibbs_kl`` (KL(Q || P)).
    """
    n = support.n
    if n < 2:
        raise DomainError(f"need support size >= 2, got {n}")
    if prior_mean is None:
        prior_mean = default_phi(scheme)
    mu = np.asarray(mu, dtype=np.float64)
    variance, prior_variance = config.posterior_variance, config.prior_variance
    gibbs_kl = float(gaussian_kl(mu[None], prior_mean, variance, prior_variance)[0])
    h = mu + math.sqrt(variance) * rng_for(draw_seed, "gauss", 0).standard_normal(mu.size)
    ln_ratio = gaussian_log_ratio(h, mu, prior_mean, variance, prior_variance)
    row = merged_values(scheme, h[None])
    train = float(error_counts(model_spec, row, support)[0] / n)
    test = None if query is None else float(error_counts(model_spec, row, query)[0] / query.n)
    return make_record(
        task_id, scheme.kind, objective, train, max(ln_ratio, 0.0), n, config.delta,
        test_error=test,
        provenance={**provenance, "mu": mu.tolist(), "draw": h.tolist(), "draw_seed": draw_seed,
                    "ln_ratio": ln_ratio, "gibbs_kl": gibbs_kl},
    )


def certify(
    scheme: MergeScheme,
    objective_kind: str,
    support: LabeledSet,
    query: LabeledSet | None,
    model_spec: MlpSpec,
    config: CertifyConfig,
    task_id: str = "",
    prior_mean: np.ndarray | None = None,
    objective_label: str | None = None,
) -> CertificateRecord:
    """Fit the posterior mean on the support and certify one draw around it.

    ``prior_mean`` defaults to ``default_phi(scheme)``.  The learned
    coefficients are the mean of a Gaussian posterior with the configured
    variance, so even a plain train-risk fit gets a certificate;
    ``certify_gaussian`` certifies its draw on the stream
    ``(config.eval_seed, "certify-draw")``, which no search reads.
    Provenance records the search: its seeds, ``evals``, ``best_eval`` (the
    evaluation that found the mean), ``search_objective`` (the least
    objective value, ``f_best``), ``search_stop`` and ``search_sigma`` (why
    it stopped and its final step size) and ``search_slices`` (the slices
    its Monte-Carlo estimate scored, ``posterior.slice_count``).
    """
    result = optimize(scheme, objective_kind, support, model_spec, config, prior_mean)
    return certify_gaussian(
        scheme, result.x_best, support, query, model_spec, config,
        derive_seed(config.eval_seed, "certify-draw"), task_id, objective_label or objective_kind,
        provenance={
            "cma_seed": config.cma.seed,
            "eval_seed": config.eval_seed,
            "evals": result.evals,
            "best_eval": result.best_eval,
            "search_objective": result.f_best,
            "search_stop": result.stop,
            "search_sigma": result.sigma,
            "posterior_variance": config.posterior_variance,
            "prior_variance": config.prior_variance,
            "mc_samples": MC_SAMPLES,
            "search_slices": slice_count(support.n, MC_SAMPLES),
        },
        prior_mean=prior_mean,
    )


def certify_point(
    scheme: MergeScheme,
    phis: np.ndarray,
    support: LabeledSet,
    query: LabeledSet | None,
    model_spec: MlpSpec,
    delta: float,
    task_id: str,
    objective: str,
    provenance: dict,
) -> CertificateRecord:
    """Certify the merge at the best of the G rows of ``phis`` (G, d_phi),
    which are fixed before ``support`` is seen.

    The G rows are merged and scored in one ``error_counts`` call.  The
    posterior is a point mass on the first row of least support error and
    the prior is uniform over the rows, so KL = ln G.  The certified row is
    scored on ``query`` and recorded in provenance as ``phi_star``.
    """
    if len(phis) == 0:
        raise StructureError("certify_point needs at least one row of coefficients")
    n = support.n
    if n < 2:
        raise DomainError(f"need support size >= 2, got {n}")
    merged = merged_values(scheme, phis)
    risks = error_counts(model_spec, merged, support) / n
    best = int(np.argmin(risks))  # argmin takes the first row on ties
    test = None
    if query is not None:
        test = float(error_counts(model_spec, merged[best : best + 1], query)[0] / query.n)
    return make_record(
        task_id, scheme.kind, objective, float(risks[best]), math.log(len(phis)), n, delta,
        test_error=test, provenance={**provenance, "phi_star": phis[best].tolist()},
    )
