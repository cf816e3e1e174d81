"""Certificate mathematics.

Two PAC-Bayes results are computed from the same scalar
``budget(kl_qp, n, delta) = (KL(Q||P) + ln(n/delta)) / (n - 1)``:

* the closed-form bound ``train + sqrt(B/2)`` of ``closed_form`` (a Pinsker
  relaxation, reported uncapped, so values above 1 are visible, and the
  quantity the ``pac_bayes_upper`` search minimizes), and
* the tighter certificate obtained by numerically inverting the Bernoulli KL:
  the root ``C >= train`` of ``kl(train || C) = B``, taken as the upper end
  of a bisection, so never below the root.

The same budget certifies one draw h of a Gaussian posterior Q when KL is
``max(ln dQ/dP(h), 0)``: for n >= 2 it is at least the disintegrated
PAC-Bayes-kl budget ``(ln dQ/dP(h) + ln(xi(n)/delta)) / n`` (Rivasplata et
al. 2020, Thm 1), since ``xi(n) <= n + 1`` (Maurer 2004) and
``n ln(n/delta) - (n-1) ln((n+1)/delta) > 0``.

``seeger_certificate`` returns both as a ``BoundReport(pb_bound,
upper_bound, vacuous)``.  A certificate is *vacuous* when even the closed
form reaches 1: the inversion then sits within rounding distance of 1 and
guarantees nothing.  The reported ``pb_bound`` is capped at 1 with the flag
carried separately.

Every certificate record is built here by ``make_record``, from this one
computation: a test-set bound is the case KL = 0 on held-out data, and a
finite grid with a uniform prior has KL = ln(grid size).  The closed-form KL
between isotropic Gaussians, given by mean arrays, lives here too.

A stored record's schema is its dataclass fields: ``to_dict`` writes each
field under its name, and ``from_fields`` loads a JSON mapping only if it has
exactly those keys (derived keys such as ``certified_gap`` are dropped) and
each value has the JSON type of the field's annotation (see ``_JSON_TYPES``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from .errors import DomainError, FormatError, StructureError

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
    if not budget >= 0.0:
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


def budget(kl_qp, n: int, delta: float):
    """The (KL + ln(n/delta)) / (n-1) feeding both certificates: a float for
    a float KL, and for an array of KLs the array of budgets, each with the
    bits of its own scalar call."""
    kls = np.asarray(kl_qp)
    if not (kls >= 0).all():  # written so that NaN is rejected
        raise DomainError(f"KL must be >= 0, got {kls[~(kls >= 0)][0]}")
    if n < 2:
        raise DomainError(f"need n >= 2, got {n}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta {delta} outside (0, 1)")
    return (kl_qp + math.log(n / delta)) / (n - 1)


class BoundReport(NamedTuple):
    """Both certificates for one (train error, KL, n, delta) quadruple."""

    pb_bound: float
    upper_bound: float
    vacuous: bool


def closed_form(train_error, budget):
    """``train + sqrt(B/2)``, uncapped and element-wise: reported by
    ``seeger_certificate`` and minimized, a generation of arrays at a time,
    by the ``pac_bayes_upper`` search."""
    return train_error + np.sqrt(budget / 2.0)


def seeger_certificate(train_error: float, kl_qp: float, n: int, delta: float) -> BoundReport:
    """Certify via KL inversion; also reports the closed form and vacuity."""
    b = budget(kl_qp, n, delta)
    raw = invert_kl(train_error, b)
    upper = float(closed_form(train_error, b))
    return BoundReport(min(raw, 1.0), upper, upper >= 1.0 or raw >= 1.0)


def gaussian_kl(means, prior_mean, variance: float, prior_variance: float) -> np.ndarray:
    """The (m,) KLs between isotropic Gaussians N(means[i], variance I) and
    N(prior_mean, prior_variance I): (d/2)(r - 1 - ln r) + ||means[i] -
    prior_mean||^2 / (2 prior_variance), with r = variance / prior_variance; an
    r that under- or overflows the float range raises ``DomainError``."""
    # in C order a row is summed as a lone (d,) array is, so its KL does not
    # depend on its batch or on the layout of ``means``
    means = np.ascontiguousarray(means, dtype=np.float64)
    prior_mean = np.asarray(prior_mean, dtype=np.float64)
    if means.ndim != 2 or prior_mean.shape != means.shape[1:]:
        raise StructureError(f"means {means.shape} and prior mean {prior_mean.shape} "
                             "are not (m, d) and (d,)")
    if not (np.isfinite(means).all() and np.isfinite(prior_mean).all()):
        raise DomainError("Gaussian mean must be finite")
    for v in (variance, prior_variance):
        if not (v > 0 and math.isfinite(v)):
            raise DomainError(f"variance must be positive and finite, got {v}")
    ratio = variance / prior_variance
    if not 0 < ratio < math.inf:
        raise DomainError(f"variance ratio {variance} / {prior_variance} is not in (0, inf)")
    mean_term = np.add.reduce((means - prior_mean) ** 2, axis=1) / (2.0 * prior_variance)
    return 0.5 * means.shape[1] * (ratio - 1.0 - math.log(ratio)) + mean_term


def gaussian_log_ratio(h, mean, prior_mean, variance: float, prior_variance: float) -> float:
    """ln dQ/dP(h) at one point ``h`` (d,), for Q = N(``mean``, variance I)
    and P = N(``prior_mean``, prior_variance I): (d/2) ln(prior_variance /
    variance) + ||h - prior_mean||^2 / (2 prior_variance) - ||h - mean||^2 /
    (2 variance).  It may be negative, a term beyond the float range makes
    it inf, and its mean over h ~ Q is ``gaussian_kl``."""
    h = np.asarray(h, dtype=np.float64)
    with np.errstate(over="ignore"):
        return float(-0.5 * h.size * math.log(variance / prior_variance)
                     + np.add.reduce((h - prior_mean) ** 2) / (2.0 * prior_variance)
                     - np.add.reduce((h - mean) ** 2) / (2.0 * variance))


# A field annotation -> the exact types of the JSON values it accepts: an
# ``int`` field refuses ``true``, a ``float`` field takes an integer literal.
_JSON_TYPES = {
    "str": (str,),
    "int": (int,),
    "float": (int, float),
    "float | None": (int, float, type(None)),
    "bool": (bool,),
    "dict": (dict,),
    "list": (list,),
}


def from_fields(cls, data, derived: tuple[str, ...] = ()):
    """A ``cls`` record from a JSON mapping that has exactly its fields, plus
    the ``derived`` keys, which are dropped; a missing or unknown key, or a
    value whose type is not that of its field's annotation, raises
    ``FormatError``."""
    if not isinstance(data, dict):
        raise FormatError(f"{cls.__name__} must be a mapping, got {data!r}")
    names = [f.name for f in fields(cls)]
    missing = sorted(set(names) - set(data))
    unknown = sorted(set(data) - set(names) - set(derived))
    if missing or unknown:
        raise FormatError(f"{cls.__name__} fields: missing {missing}, unknown {unknown}")
    for f in fields(cls):
        value = data[f.name]
        if type(value) not in _JSON_TYPES[f.type]:
            raise FormatError(f"{f.name} must be {f.type}, got {value!r}")
    return cls(**{name: data[name] for name in names})


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
        tolerated.  An infinite KL stores an infinite ``upper_bound``, which
        matches its recomputation by equality; a NaN anywhere fails.
        """
        report = seeger_certificate(self.train_error, self.kl_qp, self.n, self.delta)
        if not report.pb_bound <= self.pb_bound <= report.pb_bound + 1e-9:
            raise AssertionError(
                f"stored pb_bound {self.pb_bound} is below recomputed {report.pb_bound} "
                f"or more than 1e-9 above it"
            )
        upper = report.upper_bound
        if not (upper == self.upper_bound or abs(upper - self.upper_bound) <= 1e-9):
            raise AssertionError(
                f"stored upper_bound {self.upper_bound} != recomputed {report.upper_bound}"
            )
        if report.vacuous != self.vacuous:
            raise AssertionError("stored vacuity flag disagrees with recomputation")

    def to_dict(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        data["certified_gap"] = self.certified_gap
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CertificateRecord":
        return from_fields(cls, data, derived=("certified_gap",))


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
