import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pacmerge import (
    BoundBudget,
    CertificateRecord,
    DomainError,
    GaussianSpec,
    StructureError,
    bernoulli_kl,
    gaussian_kl,
    invert_kl,
    make_record,
    seeger_certificate,
)


def upper(train, kl, n, delta):
    return seeger_certificate(train, kl, n, delta).upper_bound


def held_out_pb(val_error, n_val, delta):
    """Held-out certificate: the PAC-Bayes-kl bound with KL = 0."""
    return seeger_certificate(val_error, 0.0, n_val, delta).pb_bound


def bisect_invert(p, budget, tol=1e-12):
    """Independent oracle: plain bisection on the same bracket."""
    if budget <= 0:
        return p
    hi = 1.0 - 1e-12
    if p >= hi or bernoulli_kl(p, hi) <= budget:
        return 1.0
    lo = p
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if bernoulli_kl(p, mid) > budget:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


class TestBernoulliKl:
    def test_zero_iff_equal(self):
        assert bernoulli_kl(0.3, 0.3) == 0.0
        assert bernoulli_kl(0.3, 0.31) > 0.0

    def test_p_zero_closed_form(self):
        assert math.isclose(bernoulli_kl(0.0, 0.5), math.log(2), rel_tol=1e-12)

    def test_direct_evaluation(self):
        # hand value: 0.508 ln(0.508/0.704) + 0.492 ln(0.492/0.296)
        assert abs(bernoulli_kl(0.508, 0.704) - 0.0842358) < 1e-6

    def test_increasing_in_q_above_p(self):
        values = [bernoulli_kl(0.2, q) for q in np.linspace(0.25, 0.95, 20)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bernoulli_kl(0.5, 0.0)
        with pytest.raises(DomainError):
            bernoulli_kl(0.5, 1.0)
        with pytest.raises(DomainError):
            bernoulli_kl(-0.1, 0.5)
        assert bernoulli_kl(0.0, 0.0) == 0.0
        assert bernoulli_kl(1.0, 1.0) == 0.0


class TestInvertKl:
    def test_zero_budget_returns_p(self):
        assert invert_kl(0.3, 0.0) == 0.3

    def test_p_zero_closed_form(self):
        # kl(0||C) = -ln(1-C), so C = 1 - e^{-B}
        assert abs(invert_kl(0.0, 0.076777) - 0.073904) < 1e-6

    def test_published_cross_check(self):
        # budget recovered from a published (train, closed-form bound) pair at
        # n=100, delta=0.05: 2 * (0.714 - 0.508)^2
        assert abs(invert_kl(0.508, 0.08487) - 0.704) < 0.005

    def test_matches_bisection_oracle(self):
        for p in np.linspace(0.0, 1.0, 21):
            for budget in np.linspace(0.0, 5.0, 11):
                mine = invert_kl(float(p), float(budget))
                oracle = bisect_invert(float(p), float(budget))
                assert abs(mine - oracle) < 1e-6, (p, budget)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 5.0))
    @example(0.0, 5e-324)
    def test_round_trip(self, p, budget):
        # away from the saturated sliver next to 1, where a one-ulp move in C
        # shifts the divergence by more than the asserted tolerance
        c = invert_kl(p, budget)
        if p < c < 1.0 - 1e-6:
            assert abs(bernoulli_kl(p, c) - budget) < 1e-8

    def test_vacuous_returns_exact_one(self):
        assert invert_kl(0.9, 50.0) == 1.0

    def test_subnormal_budget_at_zero_train(self):
        # the Pinsker start p + sqrt(B/2) rounds to p here; no slope is taken there
        c = invert_kl(0.0, 5e-324)
        assert 0.0 <= c < 1e-9  # the root is ~5e-324; the contract is 1e-9 absolute
        assert abs(bernoulli_kl(0.0, c) - 5e-324) < 1e-8


class TestConventionalBound:
    def test_published_values(self):
        assert abs(upper(0.508, 0.801, 100, 0.05) - 0.714) < 0.002
        assert abs(upper(0.178, 6.42, 100, 0.05) - 0.444) < 0.003

    def test_not_capped(self):
        assert upper(0.5, 500.0, 100, 0.05) > 2.0

    def test_large_n_limit(self):
        n = 10**8
        value = upper(0.3, 0.0, n, 0.05)
        assert abs(value - 0.3) < 1e-3


class TestSeegerCertificate:
    def test_published_values(self):
        rep = seeger_certificate(0.508, 0.801, 100, 0.05)
        assert abs(rep.pb_bound - 0.704) < 0.005
        assert not rep.vacuous
        rep = seeger_certificate(0.178, 6.42, 100, 0.05)
        assert abs(rep.pb_bound - 0.428) < 0.005

    def test_huge_kl_vacuous(self):
        rep = seeger_certificate(0.3, 500.0, 100, 0.05)
        assert rep.vacuous
        assert round(rep.pb_bound, 3) == 1.0
        assert rep.upper_bound > 1.0

    def test_dominance(self):
        # tighter certificate never exceeds the closed form when non-vacuous
        for train in np.linspace(0.0, 0.9, 10):
            for kl in (0.0, 0.5, 2.0, 8.0):
                rep = seeger_certificate(float(train), kl, 100, 0.05)
                if rep.pb_bound < 1.0:
                    assert rep.pb_bound <= rep.upper_bound + 1e-9

    def test_monotone_in_kl(self):
        bounds = [seeger_certificate(0.2, kl, 100, 0.05).pb_bound for kl in np.linspace(0, 20, 15)]
        assert all(b >= a - 1e-12 for a, b in zip(bounds, bounds[1:]))

    def test_monotone_in_delta_inverse(self):
        bounds = [seeger_certificate(0.2, 1.0, 100, d).pb_bound for d in (0.2, 0.1, 0.05, 0.01)]
        assert all(b >= a - 1e-12 for a, b in zip(bounds, bounds[1:]))

    def test_monotone_decreasing_in_n(self):
        bounds = [seeger_certificate(0.2, 1.0, n, 0.05).pb_bound for n in (50, 100, 400, 1600)]
        assert all(b <= a + 1e-12 for a, b in zip(bounds, bounds[1:]))


class TestBoundBudget:
    def test_value(self):
        budget = BoundBudget(0.801, 100, 0.05)
        assert abs(budget.value - (0.801 + math.log(2000)) / 99) < 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            BoundBudget(-0.1, 100, 0.05)
        with pytest.raises(DomainError):
            BoundBudget(0.0, 1, 0.05)
        with pytest.raises(DomainError):
            BoundBudget(0.0, 100, 1.0)

    def test_floor(self):
        budget = BoundBudget(0.0, 100, 0.05)
        assert budget.value == math.log(100 / 0.05) / 99 > 0


class TestGaussianKl:
    def test_identical_is_zero(self):
        spec = GaussianSpec(np.array([0.1, 0.2]), 0.05)
        assert gaussian_kl(spec, spec) == 0.0

    def test_hand_mean_shift(self):
        q = GaussianSpec(np.full(7, 0.2), 0.05)
        p = GaussianSpec(np.full(7, 1 / 7), 0.05)
        expected = 7 * (0.2 - 1 / 7) ** 2 / (2 * 0.05)
        assert abs(gaussian_kl(q, p) - expected) < 1e-6

    def test_hand_variance_ratio(self):
        q = GaussianSpec(np.array([0.3]), 0.05)
        p = GaussianSpec(np.array([0.3]), 0.1)
        expected = 0.5 * (0.5 - 1.0 - math.log(0.5))
        assert abs(gaussian_kl(q, p) - expected) < 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(StructureError):
            gaussian_kl(GaussianSpec(np.zeros(2), 0.05), GaussianSpec(np.zeros(3), 0.05))

    def test_quadrature_oracle_1d(self):
        # independent oracle: numerically integrate q(x) ln(q(x)/p(x))
        from scipy.integrate import quad

        rng = np.random.default_rng(0)
        for _ in range(50):
            mu_q, mu_p = rng.normal(0, 2, size=2)
            var_q, var_p = rng.uniform(0.02, 2.0, size=2)
            q = GaussianSpec(np.array([mu_q]), var_q)
            p = GaussianSpec(np.array([mu_p]), var_p)

            def integrand(x):
                log_q = -0.5 * ((x - mu_q) ** 2 / var_q) - 0.5 * math.log(2 * math.pi * var_q)
                log_p = -0.5 * ((x - mu_p) ** 2 / var_p) - 0.5 * math.log(2 * math.pi * var_p)
                return math.exp(log_q) * (log_q - log_p)

            width = 12 * math.sqrt(max(var_q, var_p))
            lo = min(mu_q, mu_p) - width
            hi = max(mu_q, mu_p) + width
            numeric, _ = quad(integrand, lo, hi, limit=200)
            assert abs(gaussian_kl(q, p) - numeric) < 1e-6


class TestTestSetBound:
    def test_zero_val_closed_form(self):
        expected = 1 - math.exp(-math.log(2000) / 99)
        assert abs(held_out_pb(0.0, 100, 0.05) - expected) < 1e-9

    def test_large_n_limit(self):
        assert abs(held_out_pb(0.5, 10**8, 0.05) - 0.5) < 1e-3

    def test_bisection_oracle_value(self):
        # budget ln(1000)/49 = 0.140975; oracle-computed certificate
        budget = math.log(50 / 0.05) / 49
        expected = bisect_invert(0.2, budget)
        assert abs(expected - 0.45335) < 5e-4
        assert abs(held_out_pb(0.2, 50, 0.05) - expected) < 1e-8

    def test_equals_seeger_with_zero_kl(self):
        # a half-validation record is make_record with KL = 0
        record = make_record("t", "task_wise", "half_val", 0.3, 0.0, 80, 0.05)
        report = seeger_certificate(0.3, 0.0, 80, 0.05)
        assert (record.pb_bound, record.upper_bound, record.vacuous) == (
            report.pb_bound, report.upper_bound, report.vacuous)
        record.validate()

    def test_validation(self):
        with pytest.raises(DomainError):
            held_out_pb(0.2, 1, 0.05)


class TestCertificateRecord:
    def make(self) -> CertificateRecord:
        rep = seeger_certificate(0.3, 1.5, 100, 0.05)
        return CertificateRecord(
            task_id="t0",
            scheme="task_arith",
            objective="train_risk",
            n=100,
            delta=0.05,
            train_error=0.3,
            kl_qp=1.5,
            pb_bound=rep.pb_bound,
            upper_bound=rep.upper_bound,
            vacuous=rep.vacuous,
            test_error=0.31,
        )

    def test_certified_gap(self):
        record = self.make()
        assert record.certified_gap == record.pb_bound - record.train_error
        assert record.certified_gap >= 0

    def test_validate_round_trip(self):
        record = self.make()
        record.validate()
        clone = CertificateRecord.from_dict(record.to_dict())
        assert clone.to_dict() == record.to_dict()

    def test_validate_detects_tampering(self):
        record = self.make()
        record.pb_bound += 0.01
        with pytest.raises(AssertionError):
            record.validate()
