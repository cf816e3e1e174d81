"""Certificate mathematics.

Two PAC-Bayes results are computed from the same budget
``B = (KL(Q||P) + ln(n/delta)) / (n - 1)``:

* the closed-form bound ``train + sqrt(B/2)`` of ``closed_form`` (a Pinsker
  relaxation, reported uncapped, so values above 1 are visible, and the
  quantity the ``pac_bayes_upper`` search minimizes), and
* the tighter certificate obtained by numerically inverting the Bernoulli KL:
  the root ``C >= train`` of ``kl(train || C) = B``, taken as the upper end
  of a bisection, so never below the root.

A certificate is *vacuous* when even the closed form reaches 1: the inversion
then sits within rounding distance of 1 and guarantees nothing.  The reported
``pb_bound`` is capped at 1 with the flag carried separately.

Every certificate record is built here by ``make_record``, from this one
computation: a test-set bound is the case KL = 0 on held-out data, and a
finite grid with a uniform prior has KL = ln(grid size).  The closed-form KL
between isotropic Gaussian posteriors lives here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, StructureError
from .posterior import GaussianSpec

_Q_MAX = 1.0 - 1e-12  # top of the search bracket; beyond this we report 1


def _xlogy(x: float, y: float) -> float:
    return 0.0 if x == 0.0 else x * math.log(y)


def bernoulli_kl(p: float, q: float) -> float:
    """kl(p || q) between Bernoulli(p) and Bernoulli(q), natural log.

    Defined for p in [0,1] and q in (0,1); the endpoint q in {0,1} is only
    admitted when p equals it (where the divergence is 0 by the 0*ln(0)
    convention).
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p={p} outside [0, 1]")
    if q <= 0.0 or q >= 1.0:
        if q == p:
            return 0.0
        raise DomainError(f"q={q} incompatible with p={p}")
    return _xlogy(p, p / q) + _xlogy(1.0 - p, (1.0 - p) / (1.0 - q))


def invert_kl(p: float, budget: float) -> float:
    """The upper end of a bisection for the C >= p with kl(p || C) = budget.

    Bisects [p, 1 - 1e-12] until no float lies strictly between the two ends
    and returns the upper end, so ``bernoulli_kl(p, C) >= budget`` holds for
    the returned C as float64 evaluates it: C is never below the root.
    Returns ``p`` for a zero budget, and exactly 1.0 when the budget exceeds
    kl(p || 1 - 1e-12), i.e. when no sub-1 certificate exists.
    """
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p={p} outside [0, 1]")
    if budget < 0.0:
        raise DomainError(f"budget {budget} must be >= 0")
    if budget == 0.0 or p >= _Q_MAX:
        return min(p, 1.0) if budget == 0.0 else 1.0
    if bernoulli_kl(p, _Q_MAX) <= budget:
        return 1.0
    # Invariant: kl(p || lo) < budget <= kl(p || hi).  The float midpoint of
    # two floats lies strictly between them unless they are adjacent.
    lo, hi = p, _Q_MAX
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if bernoulli_kl(p, mid) < budget:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return hi


@dataclass(frozen=True)
class BoundBudget:
    """The scalar (KL + ln(n/delta)) / (n-1) feeding both certificates."""

    kl_qp: float
    n: int
    delta: float

    def __post_init__(self):
        if self.kl_qp < 0:
            raise DomainError(f"KL must be >= 0, got {self.kl_qp}")
        if self.n < 2:
            raise DomainError(f"need n >= 2, got {self.n}")
        if not 0.0 < self.delta < 1.0:
            raise DomainError(f"delta {self.delta} outside (0, 1)")

    @property
    def value(self) -> float:
        return (self.kl_qp + math.log(self.n / self.delta)) / (self.n - 1)


@dataclass(frozen=True)
class BoundReport:
    """Both certificates for one (train error, KL, n, delta) quadruple."""

    train_error: float
    kl_qp: float
    n: int
    delta: float
    pb_bound: float
    upper_bound: float
    vacuous: bool


def closed_form(train_error: float, budget: float) -> float:
    """``train + sqrt(B/2)``, uncapped: reported by ``seeger_certificate`` and
    minimized by the ``pac_bayes_upper`` search."""
    return train_error + math.sqrt(budget / 2.0)


def seeger_certificate(train_error: float, kl_qp: float, n: int, delta: float) -> BoundReport:
    """Certify via KL inversion; also reports the closed form and vacuity."""
    budget = BoundBudget(kl_qp, n, delta)
    raw = invert_kl(train_error, budget.value)
    upper = closed_form(train_error, budget.value)
    vacuous = upper >= 1.0 or raw >= 1.0
    return BoundReport(
        train_error=train_error,
        kl_qp=kl_qp,
        n=n,
        delta=delta,
        pb_bound=min(raw, 1.0),
        upper_bound=upper,
        vacuous=vacuous,
    )


def gaussian_kl(q: GaussianSpec, p: GaussianSpec) -> float:
    """KL between isotropic Gaussians: (d/2)(r - 1 - ln r) + ||mu_q-mu_p||^2/(2 s_p)."""
    if q.dim != p.dim:
        raise StructureError(f"dimension mismatch: {q.dim} vs {p.dim}")
    ratio = q.variance / p.variance
    d = q.dim
    mean_term = float(np.sum((q.mean - p.mean) ** 2)) / (2.0 * p.variance)
    return 0.5 * d * (ratio - 1.0 - math.log(ratio)) + mean_term


@dataclass
class CertificateRecord:
    """Everything reported about one certified run."""

    task_id: str
    scheme: str
    objective: str
    n: int
    delta: float
    train_error: float
    kl_qp: float
    pb_bound: float
    upper_bound: float
    vacuous: bool
    test_error: float | None = None
    provenance: dict = field(default_factory=dict)

    @property
    def certified_gap(self) -> float:
        return self.pb_bound - self.train_error

    def validate(self) -> None:
        """Re-derive both certificates from the stored inputs and compare.

        A stored ``pb_bound`` below the recomputed one would certify less risk
        than the budget allows, so it fails by any amount; above it, 1e-9 is
        tolerated.
        """
        report = seeger_certificate(self.train_error, self.kl_qp, self.n, self.delta)
        if not report.pb_bound <= self.pb_bound <= report.pb_bound + 1e-9:
            raise AssertionError(
                f"stored pb_bound {self.pb_bound} is below recomputed {report.pb_bound} "
                f"or more than 1e-9 above it"
            )
        if abs(report.upper_bound - self.upper_bound) > 1e-9:
            raise AssertionError(
                f"stored upper_bound {self.upper_bound} != recomputed {report.upper_bound}"
            )
        if report.vacuous != self.vacuous:
            raise AssertionError("stored vacuity flag disagrees with recomputation")

    def to_dict(self) -> dict:
        return {
            "task_id": self.task_id,
            "scheme": self.scheme,
            "objective": self.objective,
            "n": self.n,
            "delta": self.delta,
            "train_error": self.train_error,
            "kl_qp": self.kl_qp,
            "pb_bound": self.pb_bound,
            "upper_bound": self.upper_bound,
            "vacuous": self.vacuous,
            "test_error": self.test_error,
            "certified_gap": self.certified_gap,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CertificateRecord":
        data = dict(data)
        data.pop("certified_gap", None)
        return cls(**data)


def make_record(task_id: str, scheme: str, objective: str, train_error: float,
                kl_qp: float, n: int, delta: float, test_error: float | None = None,
                provenance: dict | None = None) -> CertificateRecord:
    """A certificate record whose bounds come from ``seeger_certificate``."""
    report = seeger_certificate(train_error, kl_qp, n, delta)
    return CertificateRecord(
        task_id=task_id,
        scheme=scheme,
        objective=objective,
        n=n,
        delta=delta,
        train_error=train_error,
        kl_qp=kl_qp,
        pb_bound=report.pb_bound,
        upper_bound=report.upper_bound,
        vacuous=report.vacuous,
        test_error=test_error,
        provenance={} if provenance is None else provenance,
    )
