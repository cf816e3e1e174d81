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

A search ends at its evaluation budget or once ``stall_window(d, λ)``
generations in a row bring no new best-ever value: Hansen's history length
(arXiv:1604.00772, App. B), fixed by d and λ alone.
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


def stall_window(dim: int, popsize: int) -> int:
    """W = 10 + ceil(30 d / lambda): the generations without a new best-ever
    value after which ``minimize`` stops."""
    return 10 + -(-30 * dim // popsize)


@dataclass(frozen=True)
class CmaConfig:
    """Search settings; the initial step size is always 1 and the population
    ``default_popsize(d)``."""

    max_evals: int = 2000
    seed: int = 0

    def __post_init__(self):
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
        # generation-invariant factors of ``tell``
        self._sigma_path_scale = math.sqrt(self.c_sigma * (2.0 - self.c_sigma) * self.mu_eff)
        self._c_path_scale = math.sqrt(self.c_c * (2.0 - self.c_c) * self.mu_eff)
        self._rank_one_correction = self.c_c * (2.0 - self.c_c)
        self._h_sigma_limit = 1.4 + 2.0 / (d + 1.0)
        self._cov_decay = 1.0 - self.c_1 - self.c_mu
        self._sigma_rate = self.c_sigma / self.d_sigma

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
        return self.mean + self.sigma * y.T

    def tell(self, xs: np.ndarray, fs: np.ndarray):
        """Update state from the generation's candidates and their values."""
        order = np.argsort(fs, kind="stable")[: self.mu]
        y_sel = (np.asarray(xs)[order] - self.mean) / self.sigma
        y_w = self.weights @ y_sel
        self.mean = self.mean + self.sigma * y_w

        inv_sqrt = (self.eig_b * (1.0 / self.eig_d)) @ self.eig_b.T
        self.p_sigma = (1.0 - self.c_sigma) * self.p_sigma + self._sigma_path_scale * (
            inv_sqrt @ y_w)
        self.gen += 1
        norm = math.sqrt(self.p_sigma.dot(self.p_sigma))
        h_sigma = norm / math.sqrt(
            1.0 - (1.0 - self.c_sigma) ** (2.0 * self.gen)
        ) / self.chi_n < self._h_sigma_limit

        self.p_c = (1.0 - self.c_c) * self.p_c
        if h_sigma:
            self.p_c = self.p_c + self._c_path_scale * y_w

        rank_mu = (y_sel.T * self.weights) @ y_sel
        # (1 - h_sigma) is 0 or 1, so this product is exact in any order
        correction = (1.0 - float(h_sigma)) * self._rank_one_correction
        self.cov = (
            self._cov_decay * self.cov
            + self.c_1 * (self.p_c[:, None] * self.p_c + correction * self.cov)
            + self.c_mu * rank_mu
        )
        self.sigma = self.sigma * math.exp(self._sigma_rate * (norm / self.chi_n - 1.0))
        self._decompose()


@dataclass
class CmaResult:
    """The best point, its value, the evaluations spent, the evaluation
    index of the best point (0 for the start point), why the search stopped
    (``"budget"`` or ``"stalled"``) and its final step size."""

    x_best: np.ndarray
    f_best: float
    evals: int
    best_eval: int
    stop: str
    sigma: float


def minimize(objective, x0: np.ndarray, config: CmaConfig, callback=None) -> CmaResult:
    """Best-ever minimization of ``objective`` until stalled or at ``max_evals``.

    ``objective`` maps an (m, d) array of candidates to their m values, and
    is called once for the start point and once per generation, on the
    candidates the budget leaves.  The start point is evaluation 0 and
    competes for best-ever, so the search can never lose to its own
    initialization; ``best_eval`` is the first evaluation that reached
    ``f_best``.  Candidates within a generation are numbered, observed
    and reduced in index order.  ``callback(eval_index, x, f)`` observes
    every evaluation.  The step size starts at 1, and each generation has
    λ = ``default_popsize(d)`` candidates.  The search stops with ``stop ==
    "stalled"`` after the generation that makes ``stall_window(d, λ)``
    generations in a row without a value below the best-ever one, else with
    ``stop == "budget"`` after the generation that spends
    ``config.max_evals``, whole or cut short.  The last generation is
    evaluated but not told: no later generation would read the update.  A
    non-finite value raises OptError naming its evaluation; neither stop is
    an error.
    """
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    popsize = default_popsize(x0.size)

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

    best_x, best_eval = x0.copy(), 0
    best_f = float(evaluate(0, x0[None])[0])
    evals = 1

    es = CmaEs(x0, 1.0, popsize, config.seed)
    window, stall, stop = stall_window(x0.size, popsize), 0, "budget"
    while evals < config.max_evals:
        xs = es.ask()[: config.max_evals - evals]
        fs = evaluate(evals, xs)
        gen_best = int(np.argmin(fs))
        stall += 1
        if fs[gen_best] < best_f:
            best_f, best_x, best_eval = float(fs[gen_best]), xs[gen_best].copy(), evals + gen_best
            stall = 0
        evals += len(xs)
        if stall == window:
            stop = "stalled"
            break
        if evals < config.max_evals:
            es.tell(xs, fs)
    return CmaResult(x_best=best_x, f_best=best_f, evals=evals, best_eval=best_eval,
                     stop=stop, sigma=es.sigma)
