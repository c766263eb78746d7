import numpy as np
import pytest
from fractions import Fraction

from smalltime import asymptotics, minimizer, models
from smalltime.errors import InvalidArgumentError
from smalltime.fgauss import FbmSpec
from smalltime.indexsets import Exponent, enumerate_exponents, format_exponent


def values(hurst, which, cutoff):
    return [e.value_float for e in enumerate_exponents(hurst, which, cutoff)]


def test_lambda1_listings():
    assert values("2/5", "L1", 4) == pytest.approx([0, 1, 2, 2.5, 3, 3.5, 4])
    got = enumerate_exponents("3/10", "L1", 4.5)
    assert [str(e) for e in got] == ["0", "1", "2", "3", "10/3", "4", "13/3"]


def test_all_sets_natural_numbers_at_special_hursts():
    for hurst in ("1/2", "1/3"):
        for which in ("L1", "L2", "L2p", "L3", "L3p", "L4"):
            got = enumerate_exponents(hurst, which, 10)
            assert [e.value for e in got] == [Fraction(k) for k in range(11)], (hurst, which)


def test_lambda3_closed_under_addition():
    l3 = enumerate_exponents("2/5", "L3", 5)
    keys = {e.key() for e in l3}
    for x in l3:
        for y in l3:
            s = x + y
            if s.value_float <= 5 + 1e-9:
                assert s.key() in keys


def test_lambda4_contains_both_summands():
    for which in ("L3", "L3p"):
        sub = {e.key() for e in enumerate_exponents("2/5", which, 4)}
        l4 = {e.key() for e in enumerate_exponents("2/5", "L4", 4)}
        assert sub <= l4


def test_exponent_exact_equality_and_format():
    h = Fraction(1, 2)
    assert Exponent(2, 0, h) == Exponent(0, 1, h)
    assert format_exponent(Exponent(0, 1, Fraction(2, 5))) == "2.5"
    assert format_exponent(Exponent(0, 1, Fraction(3, 10))) == "10/3"


def test_plain_estimator_gaussian_fixture():
    # n=d=1, sigma = 1, H = 1/2, t = 1: exact standard normal density at 1
    m = models.bridge1d(a=0.0, a_prime=1.0, hurst=0.5)
    spec = FbmSpec(0.5, 1, 64)
    est = asymptotics.estimate_density(m, 1.0, "plain", 40_000, spec, seed=3)
    target = np.exp(-0.5) / np.sqrt(2 * np.pi)
    assert abs(est.estimate - target) <= 3 * est.se + 0.01 * target


def test_shifted_estimator_lognormal_oracle():
    m = models.lognormal(sigma=0.5, a=1.0, a_prime=1.5, hurst=0.4)
    spec = FbmSpec(0.4, 1, 128)
    res = minimizer.minimize_energy(m.vf, m.a, m.a_prime, spec, n_starts=1, seed=0,
                                    compute_hessian=False)
    est = asymptotics.estimate_density(m, 0.5, "shifted", 30_000, spec, seed=5,
                                       minimizer_result=res)
    oracle = m.exact_density(0.5)
    assert abs(est.estimate - oracle) <= 0.05 * oracle


def test_plain_vs_shifted_agreement():
    m = models.lognormal(sigma=0.5, a=1.0, a_prime=1.5, hurst=0.5)
    spec = FbmSpec(0.5, 1, 64)
    res = minimizer.minimize_energy(m.vf, m.a, m.a_prime, spec, n_starts=1, seed=1,
                                    compute_hessian=False)
    t = 1.0
    plain = asymptotics.estimate_density(m, t, "plain", 30_000, spec, seed=6)
    shifted = asymptotics.estimate_density(m, t, "shifted", 30_000, spec, seed=7,
                                           minimizer_result=res)
    if plain.extras["effective_hits"] >= 100:
        joint = np.hypot(plain.se, shifted.se)
        assert abs(plain.estimate - shifted.estimate) <= 3 * joint + 1e-12


def test_shifted_truncation_share_small():
    m = models.lognormal(sigma=0.5, a=1.0, a_prime=1.5, hurst=0.4)
    spec = FbmSpec(0.4, 1, 64)
    res = minimizer.minimize_energy(m.vf, m.a, m.a_prime, spec, n_starts=1, seed=2,
                                    compute_hessian=False)
    t = 0.3 ** (1.0 / 0.4)  # eps = 0.3
    est = asymptotics.estimate_density(m, t, "shifted", 20_000, spec, seed=8,
                                       minimizer_result=res, trunc_radius=2.0)
    assert est.extras["outside_weight_share"] <= 0.01


def test_fit_asymptotics_lognormal_exact_inputs():
    # feed exact oracle values: the fit must recover rate, prefactor, alpha0
    m = models.lognormal(sigma=0.5, a=1.0, a_prime=1.5, hurst=0.4)
    H = 0.4
    ts = [0.4, 0.2, 0.1]

    class _E:
        def __init__(self, t, p):
            self.t, self.estimate = t, p

    ests = [_E(t, m.exact_density(t)) for t in ts]
    rate = m.exact_rate()
    rep = asymptotics.fit_asymptotics(ests, rate, 1, H, drift=False)
    assert rep["rate_hat"] == pytest.approx(rate, rel=1e-6)
    assert rep["prefactor_exp_hat"] == pytest.approx(-H, abs=1e-6)
    alpha0_exact = 1.0 / (1.5 * 0.5 * np.sqrt(2 * np.pi))
    assert rep["alpha0_hat"] == pytest.approx(alpha0_exact, rel=1e-6)
    assert rep["fit_residual_rel"] <= 0.01


def test_fit_asymptotics_rejects_bad_inputs():
    class _E:
        def __init__(self, t, p):
            self.t, self.estimate = t, p

    with pytest.raises(InvalidArgumentError):
        asymptotics.fit_asymptotics([_E(0.4, 1.0), _E(0.2, 1.0)], 1.0, 1, 0.5)
    with pytest.raises(InvalidArgumentError):
        asymptotics.fit_asymptotics([_E(0.4, 1.0), _E(0.2, -1.0), _E(0.1, 1.0)],
                                    1.0, 1, 0.5)


def test_estimate_needs_one_sample_per_batch():
    m = models.lognormal(sigma=0.5, a=1.0, a_prime=1.5, hurst=0.4)
    spec = FbmSpec(0.4, 1, 32)
    with pytest.raises(InvalidArgumentError):
        asymptotics.estimate_density(m, 0.5, "plain", 19, spec, seed=1)
    est = asymptotics.estimate_density(m, 0.5, "plain", 20, spec, seed=1)
    assert np.isfinite(est.se)


def test_leading_coefficient_bridge_gaussian():
    # sigma = 1: phi^2 = 0, Q = 1, alpha0 = (2 pi)^{-1/2}
    m = models.bridge1d(a=0.0, a_prime=1.0, hurst=0.5)
    spec = FbmSpec(0.5, 1, 64)
    res = minimizer.minimize_energy(m.vf, m.a, m.a_prime, spec, n_starts=1, seed=3,
                                    compute_hessian=False)
    rep = asymptotics.leading_coefficient(m.vf, res, spec, 50_000, seed=9)
    assert rep["alpha0"] == pytest.approx((2 * np.pi) ** -0.5, rel=0.05)
    assert not rep["heavy_tail_warning"]


def test_leading_coefficient_sanity_branch():
    m = models.heisenberg()
    spec = FbmSpec(0.5, 2, 64)
    res = minimizer.minimize_energy(m.vf, m.a, m.a_prime, spec, n_starts=1, seed=4,
                                    compute_hessian=False)
    rep = asymptotics.leading_coefficient(m.vf, res, spec, 200_000, seed=10, sanity=True)
    assert rep["alpha0"] == pytest.approx(rep["gaussian_mass_target"], rel=0.05)


def test_plain_estimator_starvation():
    from smalltime.errors import StarvationError
    m = models.bridge1d(a=0.0, a_prime=80.0, hurst=0.5)
    spec = FbmSpec(0.5, 1, 32)
    with pytest.raises(StarvationError):
        asymptotics.estimate_density(m, 0.01, "plain", 2000, spec, seed=1,
                                     bandwidth=0.05)


def test_plain_vs_shifted_agreement_gaussian_fixture():
    m = models.bridge1d(a=0.0, a_prime=1.0, hurst=0.5)
    spec = FbmSpec(0.5, 1, 64)
    res = minimizer.minimize_energy(m.vf, m.a, m.a_prime, spec, n_starts=1, seed=21,
                                    compute_hessian=False)
    plain = asymptotics.estimate_density(m, 1.0, "plain", 30_000, spec, seed=22)
    shifted = asymptotics.estimate_density(m, 1.0, "shifted", 30_000, spec, seed=23,
                                           minimizer_result=res)
    assert plain.extras["effective_hits"] >= 100
    joint = np.hypot(plain.se, shifted.se)
    assert abs(plain.estimate - shifted.estimate) <= 3 * joint
