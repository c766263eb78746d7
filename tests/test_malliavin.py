import numpy as np
import pytest

from smalltime import fgauss, malliavin, models, rde, roughlift as rl
from smalltime.fgauss import CMElement, FbmSpec, IncrementGram
from smalltime.malliavin import CovMatrix


def rotated_heisenberg(xi=1.0, eta=0.5):
    r = np.hypot(xi, eta)
    return models.heisenberg(a_prime=(r, 0.0, 0.0)), r


def test_cov_matrix_validation():
    with pytest.raises(Exception):
        CovMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    c = CovMatrix(np.eye(2))
    assert c.is_psd()


def test_q_constant_rows_is_r11():
    spec = FbmSpec(0.4, 1, 64)
    A = np.ones((65, 1, 1))
    q = malliavin.malliavin_Q(A, spec)
    assert q.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_q_heisenberg_structure_at_minimizer():
    # rotated target (xi, 0, 0): gamma_bar = (xi, 0) R(1, .)
    m, r = rotated_heisenberg()
    for H in (0.4, 0.5):
        spec = FbmSpec(H, 2, 256)
        gamma = CMElement(spec, np.array([1.0]), np.array([[r], [0.0]]))
        sk = rde.solve_skeleton(m.vf, m.a, gamma)
        A = rde.skeleton_gradient(m.vf, sk)
        q = malliavin.malliavin_Q(A, spec).matrix
        assert abs(q[0, 0] - 1.0) < 1e-3
        assert abs(q[1, 1] - 1.0) < 1e-3
        assert abs(q[0, 1]) < 1e-3
        assert abs(q[0, 2]) < 1e-3
        assert malliavin.malliavin_Q(A, spec).is_psd()


def test_q_matches_phi1_covariance_mc():
    m, r = rotated_heisenberg()
    spec = FbmSpec(0.4, 2, 128)
    gamma = CMElement(spec, np.array([1.0]), np.array([[r], [0.0]]))
    sk = rde.solve_skeleton(m.vf, m.a, gamma)
    A = rde.skeleton_gradient(m.vf, sk)
    q = malliavin.malliavin_Q(A, spec).matrix

    n_samp = 100_000
    w = fgauss.sample_fbm(spec, n_samp, seed=5)
    phi1 = rde.pair_gradient_with_path(A, np.diff(w.values, axis=1))
    emp = np.einsum("bk,bl->kl", phi1, phi1) / n_samp
    se = np.sqrt((np.outer(np.diag(q), np.diag(q)) + q ** 2) / n_samp)
    assert np.all(np.abs(emp - q) <= 4 * se)


def test_reduced_cov_trivial():
    m = models.bridge1d()
    spec = FbmSpec(0.5, 1, 32)
    sk = rde.solve_skeleton(m.vf, m.a, fgauss.cm_element_zero(spec))
    c = malliavin.reduced_cov_C(sk, m.vf.sigma)
    assert c.matrix[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_reduced_cov_quadratic_form_identity():
    m = models.heisenberg()
    spec = FbmSpec(0.4, 2, 64)
    w = rl.lift_grid_path(fgauss.sample_fbm(spec, 1, 6).path(0), 3)
    res = rde.solve_scaled_shifted(m.vf, m.a, w, fgauss.cm_element_zero(spec), 0.5, 0.4)
    c = malliavin.reduced_cov_C(res, m.vf.sigma, epsilon=0.5)
    rng = np.random.default_rng(1)
    for _ in range(5):
        v = rng.normal(size=3)
        lhs = float(v @ c.matrix @ v)
        rhs = malliavin.reduced_quadratic_form(res, m.vf.sigma, v, epsilon=0.5)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs))


def test_min_eig_inequality_diagnostic():
    # lambda_min(Q) vs lambda_min(C) * lambda_min(J1 J1'): fitted c stays positive
    m = models.heisenberg()
    spec = FbmSpec(0.4, 2, 64)
    gram = IncrementGram(spec)
    eps = 0.5
    w = fgauss.sample_fbm(spec, 64, seed=7)
    ratios = []
    for i in range(64):
        lift = rl.lift_grid_path(w.path(i), 3)
        res = rde.solve_scaled_shifted(m.vf, m.a, lift, fgauss.cm_element_zero(spec),
                                       eps, 0.4)
        rows = malliavin.stochastic_gradient_rows(res, m.vf.sigma, epsilon=eps)
        q = malliavin.malliavin_Q(rows, gram, provenance="stochastic")
        c = malliavin.reduced_cov_C(res, m.vf.sigma, epsilon=eps)
        j1 = res.J[-1]
        bound = c.min_eigenvalue * float(np.min(np.linalg.eigvalsh(j1 @ j1.T)))
        ratios.append(q.min_eigenvalue / bound)
    ratios = np.array(ratios)
    assert np.all(ratios > 0)


def test_q_scaling_bit_exact():
    m = models.heisenberg()
    spec = FbmSpec(0.4, 2, 32)
    gram = IncrementGram(spec)
    w = rl.lift_grid_path(fgauss.sample_fbm(spec, 1, 8).path(0), 3)
    eps = 0.25
    res = rde.solve_scaled_shifted(m.vf, m.a, w, fgauss.cm_element_zero(spec), eps, 0.4)
    rows_unit = malliavin.stochastic_gradient_rows(res, m.vf.sigma, epsilon=1.0)
    rows_eps = malliavin.stochastic_gradient_rows(res, m.vf.sigma, epsilon=eps)
    q_unit = malliavin.malliavin_Q_batch(rows_unit[None], gram)[0]
    q_eps = malliavin.malliavin_Q_batch(rows_eps[None], gram)[0]
    assert np.array_equal(q_eps, eps ** 2 * q_unit)


def test_q_batch_matches_per_path_q():
    spec = FbmSpec(0.4, 2, 64)
    gram = IncrementGram(spec)
    rows = np.random.default_rng(4).normal(size=(5, 65, 3, 2))
    q = malliavin.malliavin_Q_batch(rows, gram)
    for b in range(5):
        ref = malliavin.malliavin_Q(rows[b], gram).matrix
        assert np.max(np.abs(q[b] - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_hormander_ranks():
    m = models.heisenberg()
    ranks, total = malliavin.hormander_rank(m.vf, np.zeros(3), max_depth=1)
    assert ranks[0] == 2 and ranks[1] == 3 and total == 3

    ell = models.elliptic_identity(3)
    ranks, total = malliavin.hormander_rank(ell.vf, np.zeros(3), max_depth=0)
    assert ranks[0] == 3 and total == 3

    zero = rde.polynomial_fields(np.zeros((2, 2)))
    vfz = rde.VectorFieldSystem(2, 2, zero.sigma)
    ranks, total = malliavin.hormander_rank(vfz, np.zeros(2), max_depth=2)
    assert total == 0


def test_eigen_tail_deterministic_identity():
    samples = [CovMatrix(np.eye(2)) for _ in range(600)]
    rep = malliavin.eigen_tail([samples, samples], [0.5, 0.25])
    for block in rep["per_eps"]:
        assert block["inv_mean"] == pytest.approx(1.0)
        assert block["quantiles"]["q50"] == pytest.approx(1.0)
    assert rep["mu_hat"] == pytest.approx(0.0, abs=1e-12)


def test_eigen_tail_lognormal_concentration():
    # C^eps concentrates near its deterministic eps -> 0 limit
    m = models.lognormal(sigma=0.5)
    spec = FbmSpec(0.4, 1, 64)
    zero = fgauss.cm_element_zero(spec)
    medians = {}
    for eps in (2.0 ** -4, 2.0 ** -6):
        w = fgauss.sample_fbm(spec, 600, seed=int(1 / eps))
        res = rde.solve_scaled_shifted_batch(m.vf, m.a, w.values, zero, eps, 0.4,
                                             with_flows=True, store_path=True)
        cs = malliavin.reduced_cov_C(res, m.vf.sigma, epsilon=1.0)
        lam = np.linalg.eigvalsh(cs)[:, 0]
        medians[eps] = np.median(lam)
    drift = abs(medians[2.0 ** -6] - medians[2.0 ** -4]) / medians[2.0 ** -4]
    assert drift < 0.10


def test_eigen_tail_requires_samples():
    with pytest.raises(Exception):
        malliavin.eigen_tail([[CovMatrix(np.eye(2))] * 10], [0.5])


def test_hormander_depth_capability():
    m = models.heisenberg()
    with pytest.raises(Exception):
        malliavin.hormander_rank(m.vf, np.zeros(3), max_depth=4)


def test_normalized_qtilde_det_near_deterministic_limit():
    # det(eps^-2 Q~eps) at gamma_bar stays within [1/10, 10] of det Q(gamma_bar)
    m, r = rotated_heisenberg()
    H = 0.4
    spec = FbmSpec(H, 2, 64)
    gamma = CMElement(spec, np.array([1.0]), np.array([[r], [0.0]]))
    sk = rde.solve_skeleton(m.vf, m.a, gamma)
    A = rde.skeleton_gradient(m.vf, sk)
    det_q = np.linalg.det(malliavin.malliavin_Q(A, spec).matrix)

    eps = 2.0 ** -4
    gram = IncrementGram(spec)
    w = fgauss.sample_fbm(spec, 128, seed=31)
    res = rde.solve_scaled_shifted_batch(m.vf, m.a, w.values, gamma, eps, H,
                                         with_flows=True, store_path=True)
    rows = malliavin.stochastic_gradient_rows(res, m.vf.sigma, epsilon=1.0)
    dets = np.linalg.det(malliavin.malliavin_Q_batch(rows, gram))
    med = float(np.median(dets))
    assert det_q / 10 <= med <= det_q * 10
