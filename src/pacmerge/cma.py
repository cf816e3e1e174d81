"""Covariance matrix adaptation evolution strategy (minimization).

A compact (mu/lambda) CMA-ES with rank-one and rank-mu covariance updates and
cumulative step-size adaptation, specialized for the low-dimensional, noisy,
piecewise-constant objectives that coefficient fitting produces.  Written
in-repo rather than imported so the seeding contract, the deterministic
index-order reduction of each generation, and the inclusion of the start
point in the evaluation history are all explicit and testable.

The λ candidates of a generation are sampled before any is ranked, so the
objective scores a whole generation per call: a batched objective pays its
per-call cost once per generation instead of once per candidate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OptError, StructureError
from .seeding import rng_for


def default_popsize(dim: int) -> int:
    """4 + floor(3 ln d), never below 4."""
    return max(4, 4 + int(math.floor(3.0 * math.log(max(dim, 1)))))


@dataclass(frozen=True)
class CmaConfig:
    popsize: int | None = None   # None -> default_popsize(d)
    sigma0: float = 1.0
    max_evals: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.popsize is not None and self.popsize < 4:
            raise DomainError(f"population must be >= 4, got {self.popsize}")
        if not self.sigma0 > 0:
            raise DomainError(f"sigma0 must be positive, got {self.sigma0}")
        if self.max_evals < 1:
            raise DomainError("max_evals must be >= 1")


class CmaEs:
    """Ask/tell interface; one instance per search."""

    def __init__(self, x0: np.ndarray, sigma0: float, popsize: int, seed: int):
        self.dim = d = int(np.asarray(x0).size)
        self.mean = np.asarray(x0, dtype=np.float64).reshape(-1).copy()
        self.sigma = float(sigma0)
        self.lam = int(popsize)
        self.rng = rng_for(seed, "cma")

        mu = self.lam // 2
        raw = np.log((self.lam + 1) / 2.0) - np.log(np.arange(1, mu + 1))
        self.weights = raw / raw.sum()
        self.mu = mu
        self.mu_eff = 1.0 / float(np.sum(self.weights**2))

        self.c_sigma = (self.mu_eff + 2.0) / (d + self.mu_eff + 5.0)
        self.d_sigma = (
            1.0
            + 2.0 * max(0.0, math.sqrt((self.mu_eff - 1.0) / (d + 1.0)) - 1.0)
            + self.c_sigma
        )
        self.c_c = (4.0 + self.mu_eff / d) / (d + 4.0 + 2.0 * self.mu_eff / d)
        self.c_1 = 2.0 / ((d + 1.3) ** 2 + self.mu_eff)
        self.c_mu = min(
            1.0 - self.c_1,
            2.0 * (self.mu_eff - 2.0 + 1.0 / self.mu_eff) / ((d + 2.0) ** 2 + self.mu_eff),
        )
        self.chi_n = math.sqrt(d) * (1.0 - 1.0 / (4.0 * d) + 1.0 / (21.0 * d * d))

        self.p_sigma = np.zeros(d)
        self.p_c = np.zeros(d)
        self.cov = np.eye(d)
        self.gen = 0
        self._decompose()

    def _decompose(self):
        self.cov = (self.cov + self.cov.T) / 2.0
        eigvals, eigvecs = np.linalg.eigh(self.cov)
        eigvals = np.maximum(eigvals, 1e-20)
        self.eig_b = eigvecs
        self.eig_d = np.sqrt(eigvals)

    def ask(self) -> np.ndarray:
        """One generation of candidates, shape (lam, dim)."""
        z = self.rng.standard_normal((self.lam, self.dim))
        y = (self.eig_b * self.eig_d) @ z.T  # (d, lam)
        self._last_y = y.T
        return self.mean + self.sigma * self._last_y

    def tell(self, xs: np.ndarray, fs: np.ndarray):
        """Update state from the generation's candidates and their values."""
        order = np.argsort(fs, kind="stable")[: self.mu]
        y_sel = (np.asarray(xs)[order] - self.mean) / self.sigma
        y_w = self.weights @ y_sel
        self.mean = self.mean + self.sigma * y_w

        inv_sqrt = self.eig_b @ np.diag(1.0 / self.eig_d) @ self.eig_b.T
        self.p_sigma = (1.0 - self.c_sigma) * self.p_sigma + math.sqrt(
            self.c_sigma * (2.0 - self.c_sigma) * self.mu_eff
        ) * (inv_sqrt @ y_w)
        self.gen += 1
        norm = float(np.linalg.norm(self.p_sigma))
        h_sigma = norm / math.sqrt(
            1.0 - (1.0 - self.c_sigma) ** (2.0 * self.gen)
        ) / self.chi_n < 1.4 + 2.0 / (self.dim + 1.0)

        self.p_c = (1.0 - self.c_c) * self.p_c
        if h_sigma:
            self.p_c = self.p_c + math.sqrt(
                self.c_c * (2.0 - self.c_c) * self.mu_eff
            ) * y_w

        rank_mu = (y_sel.T * self.weights) @ y_sel
        correction = (1.0 - float(h_sigma)) * self.c_c * (2.0 - self.c_c)
        self.cov = (
            (1.0 - self.c_1 - self.c_mu) * self.cov
            + self.c_1 * (np.outer(self.p_c, self.p_c) + correction * self.cov)
            + self.c_mu * rank_mu
        )
        self.sigma = self.sigma * math.exp(
            (self.c_sigma / self.d_sigma) * (norm / self.chi_n - 1.0)
        )
        self._decompose()


@dataclass
class CmaResult:
    x_best: np.ndarray
    f_best: float
    evals: int


def minimize(objective, x0: np.ndarray, config: CmaConfig, callback=None) -> CmaResult:
    """Best-ever minimization of ``objective`` within ``config.max_evals`` evaluations.

    ``objective`` maps an (m, d) array of candidates to their m values, and
    is called once for the start point and once per generation, on the
    candidates the budget leaves.  The start point is evaluation 0 and
    competes for best-ever, so the search can never lose to its own
    initialization.  Candidates within a generation are numbered, observed
    and reduced in index order.  ``callback(eval_index, x, f)`` observes
    every evaluation.  A non-finite value raises OptError naming its
    evaluation; an exhausted budget is not an error.
    """
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    popsize = config.popsize or default_popsize(x0.size)

    def evaluate(first: int, xs: np.ndarray) -> np.ndarray:
        fs = np.asarray(objective(xs), dtype=np.float64).reshape(-1)
        if fs.size != len(xs):
            raise StructureError(f"objective returned {fs.size} values for {len(xs)} candidates")
        for i, value in enumerate(fs.tolist()):
            if not math.isfinite(value):
                raise OptError(f"objective returned {value} at evaluation {first + i}")
            if callback is not None:
                callback(first + i, xs[i], value)
        return fs

    best_x = x0.copy()
    best_f = float(evaluate(0, x0[None])[0])
    evals = 1

    es = CmaEs(x0, config.sigma0, popsize, config.seed)
    while evals < config.max_evals:
        xs = es.ask()
        take = min(len(xs), config.max_evals - evals)
        fs = evaluate(evals, xs[:take])
        evals += take
        if take < len(xs):
            # Partial final generation: rank what we have, skip the update if
            # fewer candidates than parents survive the truncation.
            if take >= es.mu:
                es.tell(xs[:take], fs)
        else:
            es.tell(xs, fs)
        gen_best = int(np.argmin(fs))
        if fs[gen_best] < best_f:
            best_f = float(fs[gen_best])
            best_x = xs[gen_best].copy()
    return CmaResult(x_best=best_x, f_best=best_f, evals=evals)
