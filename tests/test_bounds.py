import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pacmerge import (
    CertificateRecord,
    DomainError,
    FormatError,
    StructureError,
    bernoulli_kl,
    budget,
    gaussian_kl,
    gaussian_log_ratio,
    invert_kl,
    make_record,
    seeger_certificate,
)
from pacmerge.bounds import closed_form


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

    @pytest.mark.parametrize("budget", [-1e-300, math.nan])
    def test_negative_or_nan_budget_rejected(self, budget):
        with pytest.raises(DomainError, match="must be >= 0"):
            invert_kl(0.1, budget)

    def test_infinite_budget_returns_one(self):
        assert invert_kl(0.1, math.inf) == 1.0

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

    @settings(max_examples=500, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 5.0))
    @example(0.58, 0.31639165562437743)
    @example(0.615, 0.18212383471305596)
    @example(0.625, 5.186055163415281)
    def test_never_below_the_root(self, p, budget):
        # a certificate below the root would claim more than the bound allows
        c = invert_kl(p, budget)
        if c < 1.0:
            assert bernoulli_kl(p, c) >= budget

    def test_vacuous_returns_exact_one(self):
        assert invert_kl(0.9, 50.0) == 1.0

    def test_subnormal_budget_at_zero_train(self):
        # float64 evaluates kl(0 || C) = -ln(1 - C) as 0 until 1 - C rounds
        # below 1, so the smallest C it certifies is about 2^-54
        c = invert_kl(0.0, 5e-324)
        assert 0.0 < c < 1e-9
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
        assert abs(budget(0.801, 100, 0.05) - (0.801 + math.log(2000)) / 99) < 1e-12

    def test_validation(self):
        with pytest.raises(DomainError):
            budget(-0.1, 100, 0.05)
        with pytest.raises(DomainError):
            budget(0.0, 1, 0.05)
        with pytest.raises(DomainError):
            budget(0.0, 100, 1.0)

    def test_nan_kl_rejected(self):
        with pytest.raises(DomainError, match="KL must be >= 0"):
            budget(math.nan, 100, 0.05)
        with pytest.raises(DomainError, match="KL must be >= 0"):
            make_record("t", "s", "o", 0.1, math.nan, 10, 0.05)

    def test_infinite_kl_is_vacuous(self):
        record = make_record("t", "s", "o", 0.1, math.inf, 10, 0.05)
        assert (record.pb_bound, record.upper_bound, record.vacuous) == (1.0, math.inf, True)
        record.validate()
        CertificateRecord.from_dict(record.to_dict()).validate()

    def test_floor(self):
        assert budget(0.0, 100, 0.05) == math.log(100 / 0.05) / 99 > 0


def xi(n):
    """Maurer's xi(n) = E e^{n kl(R_hat || R)} at its worst R: the sum over k of
    C(n, k) (k/n)^k (1 - k/n)^(n - k), each term formed in logs (0 ln 0 = 0)."""
    def log_term(k):
        log_choose = math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
        p = k / n
        return (log_choose + (k * math.log(p) if k else 0.0)
                + ((n - k) * math.log1p(-p) if k < n else 0.0))

    return math.fsum(math.exp(log_term(k)) for k in range(n + 1))


class TestSingleDrawBudget:
    """The budget a single-draw record spends covers the disintegrated
    PAC-Bayes-kl budget (ln dQ/dP(h) + ln(xi(n)/delta)) / n at KL =
    max(ln dQ/dP(h), 0), because xi(n) <= n + 1."""

    @settings(max_examples=500, deadline=None)
    @given(st.floats(0.0, 1e4), st.integers(2, 10**7),
           st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    @example(0.0, 2, 0.999999)
    @example(0.0, 10**7, 0.05)
    @example(1e4, 10**7, 1e-300)
    def test_budget_covers_the_disintegrated_budget(self, kl, n, delta):
        # the logs are split so the reference itself cannot overflow
        assert budget(kl, n, delta) >= (kl + math.log(n + 1) - math.log(delta)) / n

    def test_xi_at_most_n_plus_one(self):
        for n in range(2, 301):
            assert 1.0 < xi(n) <= n + 1
        assert xi(2) == pytest.approx(2.5)  # k = 0 and 2 give 1 each, k = 1 gives 2 / 4


def reference_log_ratio(h, mean, prior_mean, variance, prior_variance):
    """ln dQ/dP(h) in plain float64 Python, from the two Gaussian densities."""
    def log_density(m, v):
        return -0.5 * len(h) * math.log(2 * math.pi * v) - math.fsum(
            (a - b) ** 2 for a, b in zip(h, m)) / (2 * v)

    return log_density(mean, variance) - log_density(prior_mean, prior_variance)


class TestGaussianLogRatio:
    @pytest.mark.parametrize("d,variance,prior_variance", [(1, 0.05, 0.05), (5, 0.02, 0.08),
                                                           (20, 0.05, 0.03)])
    def test_equals_the_density_ratio(self, d, variance, prior_variance):
        rng = np.random.default_rng(d)
        mean, prior_mean = rng.normal(size=d), rng.normal(size=d)
        for h in mean + math.sqrt(variance) * rng.standard_normal((20, d)):
            value = gaussian_log_ratio(h, mean, prior_mean, variance, prior_variance)
            expected = reference_log_ratio(h.tolist(), mean.tolist(), prior_mean.tolist(),
                                           variance, prior_variance)
            assert value == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("d,variance,prior_variance,shift", [(1, 0.05, 0.05, 0.05),
                                                                 (5, 0.02, 0.08, 0.1),
                                                                 (20, 0.05, 0.05, 0.3)])
    def test_mean_over_draws_is_the_kl(self, d, variance, prior_variance, shift):
        # E_{h ~ Q} ln dQ/dP(h) = KL(Q || P): the mean of 4,000 draws lies
        # within 4 standard errors of it
        rng = np.random.default_rng(100 + d)
        prior_mean = np.full(d, 0.5)
        mean = prior_mean + shift * rng.standard_normal(d)
        draws = mean + math.sqrt(variance) * rng.standard_normal((4000, d))
        values = np.array([gaussian_log_ratio(h, mean, prior_mean, variance, prior_variance)
                           for h in draws])
        kl = gaussian_kl(mean[None], prior_mean, variance, prior_variance)[0]
        assert abs(values.mean() - kl) <= 4 * values.std(ddof=1) / math.sqrt(len(values))
        assert (values < 0).any()  # a single draw's ratio can fall below 0

    def test_beyond_the_float_range_is_inf(self):
        h = np.array([1e5, -1e5])
        assert gaussian_log_ratio(h, h, np.zeros(2), 1e9, 1e-299) == math.inf


class TestArrayBudget:
    """A generation's bounds, one array call of ``budget`` and of
    ``closed_form``, equal their scalar calls element for element."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1e4)), min_size=1, max_size=12),
           st.integers(2, 10**6), st.floats(1e-12, 1.0, exclude_max=True, exclude_min=True))
    def test_equals_scalar_calls(self, pairs, n, delta):
        risks, kls = (np.array(column) for column in zip(*pairs))
        values = closed_form(risks, budget(kls, n, delta))
        assert values.dtype == np.float64 and values.shape == risks.shape
        for value, risk, kl in zip(values.tolist(), risks.tolist(), kls.tolist()):
            assert value == closed_form(risk, budget(kl, n, delta))
            assert value == risk + math.sqrt((kl + math.log(n / delta)) / (n - 1) / 2.0)

    @pytest.mark.parametrize("bad", [-0.1, math.nan, -math.inf])
    def test_one_invalid_kl_rejects_the_generation(self, bad):
        kls = np.array([0.3, 1.0, bad, 2.0])
        with pytest.raises(DomainError, match=f"KL must be >= 0, got {bad}$"):
            budget(kls, 100, 0.05)
        with pytest.raises(DomainError, match=f"KL must be >= 0, got {bad}$"):
            budget(bad, 100, 0.05)


class TestGaussianKl:
    def test_identical_is_zero(self):
        mean = np.array([0.1, 0.2])
        assert gaussian_kl(mean[None], mean, 0.05, 0.05).tolist() == [0.0]

    def test_hand_mean_shift(self):
        expected = 7 * (0.2 - 1 / 7) ** 2 / (2 * 0.05)
        kl = gaussian_kl(np.full((1, 7), 0.2), np.full(7, 1 / 7), 0.05, 0.05)
        assert kl.shape == (1,) and abs(kl[0] - expected) < 1e-6

    def test_hand_variance_ratio(self):
        expected = 0.5 * (0.5 - 1.0 - math.log(0.5))
        assert abs(gaussian_kl(np.array([[0.3]]), np.array([0.3]), 0.05, 0.1)[0] - expected) < 1e-9

    @pytest.mark.parametrize("d", [1, 5, 20])
    def test_rows_equal_one_row_calls(self, d):
        rng = np.random.default_rng(d)
        means, prior_mean = rng.normal(0, 2, size=(13, d)), rng.normal(0, 1, size=d)
        singles = [gaussian_kl(means[i : i + 1], prior_mean, 0.05, 0.2)[0] for i in range(13)]
        # a search may hand over its candidates in Fortran order
        for layout in (means, np.asfortranarray(means)):
            assert gaussian_kl(layout, prior_mean, 0.05, 0.2).tolist() == singles

    def test_dimension_mismatch(self):
        for means, prior_mean in [(np.zeros((1, 2)), np.zeros(3)),
                                  (np.zeros(2), np.zeros(2)),
                                  (np.zeros((1, 2)), np.zeros((1, 2)))]:
            with pytest.raises(StructureError):
                gaussian_kl(means, prior_mean, 0.05, 0.05)

    @pytest.mark.parametrize("means, variance, prior_variance", [
        (np.zeros((1, 2)), 0.0, 0.05),
        (np.zeros((1, 2)), 0.05, 0.0),
        (np.array([[0.0, np.nan]]), 0.05, 0.05),
        (np.zeros((1, 2)), np.inf, 0.05),
        (np.zeros((1, 2)), 0.05, np.inf),
        # ratios that overflow to inf and underflow to 0
        (np.zeros((1, 2)), 0.05, 5e-324),
        (np.zeros((1, 2)), 5e-324, 1e9),
    ])
    def test_domain(self, means, variance, prior_variance):
        with pytest.raises(DomainError):
            gaussian_kl(means, np.zeros(2), variance, prior_variance)
        with pytest.raises(DomainError):
            gaussian_kl(np.zeros((1, 2)), means[0], variance, prior_variance)

    def test_quadrature_oracle_1d(self):
        # independent oracle: numerically integrate q(x) ln(q(x)/p(x))
        from scipy.integrate import quad

        rng = np.random.default_rng(0)
        for _ in range(50):
            mu_q, mu_p = rng.normal(0, 2, size=2)
            var_q, var_p = rng.uniform(0.02, 2.0, size=2)

            def integrand(x):
                log_q = -0.5 * ((x - mu_q) ** 2 / var_q) - 0.5 * math.log(2 * math.pi * var_q)
                log_p = -0.5 * ((x - mu_p) ** 2 / var_p) - 0.5 * math.log(2 * math.pi * var_p)
                return math.exp(log_q) * (log_q - log_p)

            width = 12 * math.sqrt(max(var_q, var_p))
            lo = min(mu_q, mu_p) - width
            hi = max(mu_q, mu_p) + width
            numeric, _ = quad(integrand, lo, hi, limit=200)
            kl = gaussian_kl(np.array([[mu_q]]), np.array([mu_p]), var_q, var_p)[0]
            assert abs(kl - numeric) < 1e-6


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

    def test_validate_rejects_pb_bound_below_by_any_amount(self):
        record = make_record("t", "s", "o", 0.3, 2.0, 100, 0.05)
        record.pb_bound -= 5e-10
        with pytest.raises(AssertionError, match="pb_bound"):
            record.validate()

    def test_validate_tolerates_pb_bound_just_above(self):
        record = make_record("t", "s", "o", 0.3, 2.0, 100, 0.05)
        record.pb_bound += 5e-10
        record.validate()

    def test_validate_rejects_a_nan_kl(self):
        record = make_record("t", "s", "o", 0.1, 0.5, 10, 0.05)
        record.kl_qp = math.nan
        with pytest.raises(DomainError, match="KL must be >= 0"):
            record.validate()

    @pytest.mark.parametrize("upper_bound", [math.nan, math.inf])
    def test_validate_rejects_a_wrong_non_finite_upper_bound(self, upper_bound):
        record = make_record("t", "s", "o", 0.1, 0.5, 10, 0.05)
        record.upper_bound = upper_bound
        with pytest.raises(AssertionError, match="upper_bound"):
            record.validate()

    def test_validate_rejects_a_finite_upper_bound_for_an_infinite_kl(self):
        record = make_record("t", "s", "o", 0.1, math.inf, 10, 0.05)
        record.upper_bound = 1e300
        with pytest.raises(AssertionError, match="upper_bound"):
            record.validate()

    @pytest.mark.parametrize("edit", [
        {"task_id": 7}, {"scheme": None}, {"objective": ["o"]}, {"test_error": "0.1"},
        {"test_error": False}, {"n": 40.5}, {"n": True}, {"vacuous": 0}, {"provenance": [1]},
        {"train_error": True}, {"delta": "0.05"}])
    def test_from_dict_rejects_malformed_fields(self, edit):
        data = dict(self.make().to_dict(), **edit)
        with pytest.raises(FormatError, match=f"^{next(iter(edit))} must be"):
            CertificateRecord.from_dict(data)

    @pytest.mark.parametrize("name", ["test_error", "provenance"])
    def test_from_dict_requires_the_fields_that_have_defaults(self, name):
        data = self.make().to_dict()
        del data[name]
        with pytest.raises(FormatError, match=rf"missing \['{name}'\]"):
            CertificateRecord.from_dict(data)

    @pytest.mark.parametrize("test_error", [None, 0, 0.25])
    def test_from_dict_accepts_null_or_real_test_error(self, test_error):
        data = dict(self.make().to_dict(), test_error=test_error)
        assert CertificateRecord.from_dict(data).test_error == test_error
