import numpy as np
import pytest

from smalltime import fgauss, minimizer, models, rde, roughlift as rl
from smalltime.errors import BlowUpError
from smalltime.fgauss import CMElement, FbmSpec
from smalltime.paths import GridPath, uniform_grid, zero_path


def fbm_path(H, M, seed, d=1):
    return fgauss.sample_fbm(FbmSpec(H, d, M), 1, seed).path(0)


def test_vf_analytic_derivatives_match_fd():
    rng = np.random.default_rng(0)
    lin = rng.normal(size=(3, 3, 2))
    quad = rng.normal(size=(3, 3, 3, 2)) * 0.3
    vf = rde.polynomial_fields(rng.normal(size=(3, 2)), lin, quad)
    y = rng.normal(size=(5, 3))
    step = 1e-5
    fd = np.stack([
        (vf.sigma(y + step * e) - vf.sigma(y - step * e)) / (2 * step)
        for e in np.eye(3)
    ], axis=2)
    an = vf.sigma_deriv(y, 1)
    assert np.max(np.abs(an - fd)) <= 1e-6 * max(1.0, np.max(np.abs(an)))


def test_fd_fallback_matches_analytic():
    rng = np.random.default_rng(1)
    lin = rng.normal(size=(2, 2, 2))
    analytic = rde.polynomial_fields(rng.normal(size=(2, 2)), lin)
    bare = rde.VectorFieldSystem(2, 2, analytic.sigma)
    y = rng.normal(size=(4, 2))
    assert np.allclose(bare.sigma_deriv(y, 1), analytic.sigma_deriv(y, 1), atol=1e-7)
    assert np.allclose(bare.sigma_deriv(y, 2), analytic.sigma_deriv(y, 2), atol=1e-4)


def test_zero_driver_constant_solution():
    m = models.heisenberg()
    driver = rl.lift_grid_path(zero_path(16, 2), 2)
    res = rde.solve_rde(m.vf, m.a, driver)
    assert np.allclose(res.y.values, m.a)
    assert np.allclose(res.J, np.eye(3))
    assert np.allclose(res.K, np.eye(3))


def test_heisenberg_exact_solution():
    m = models.heisenberg()
    rng = np.random.default_rng(2)
    for trial in range(5):
        a = rng.normal(size=3)
        w = fbm_path(0.4, 64, 100 + trial, d=2)
        lift = rl.lift_grid_path(w, 2)
        res = rde.solve_rde(m.vf, a, lift)
        exact = m.exact_endpoint(lift, a)
        assert np.max(np.abs(res.y.values - exact)) < 1e-10


def test_heisenberg_exact_depth3():
    m = models.heisenberg()
    w = fbm_path(0.3, 64, 3, d=2)
    lift = rl.lift_grid_path(w, 3)
    res = rde.solve_rde(m.vf, m.a, lift)
    exact = m.exact_endpoint(lift)
    assert np.max(np.abs(res.y.values - exact)) < 1e-10


def test_lognormal_exponential_flow():
    m = models.lognormal(sigma=0.5)
    w = fbm_path(0.5, 1024, 11)
    lift = rl.lift_grid_path(w, 3)
    res = rde.solve_rde(m.vf, m.a, lift, with_flows=False, refine=4)
    exact = m.a[0] * np.exp(0.5 * w.values[:, 0])
    rel = np.max(np.abs(res.y.values[:, 0] - exact) / np.abs(exact))
    assert rel <= 1e-6


def test_jk_inverse_identity():
    m = models.heisenberg()
    w = fbm_path(0.4, 128, 5, d=2)
    res = rde.solve_rde(m.vf, m.a, rl.lift_grid_path(w, 2))
    prod = np.einsum("tij,tjk->tik", res.J, res.K)
    assert np.max(np.abs(prod - np.eye(3))) <= 1e-6


def test_mesh_refinement_monotone_error():
    m = models.lognormal(sigma=0.5)
    errs = []
    spec_fine = FbmSpec(0.5, 1, 1024)
    w_fine = fgauss.sample_fbm(spec_fine, 1, 42).path(0)
    for M in (128, 256, 512, 1024):
        stride = 1024 // M
        vals = w_fine.values[::stride]
        w = GridPath(uniform_grid(M), vals)
        res = rde.solve_rde(m.vf, m.a, rl.lift_grid_path(w, 2), with_flows=False)
        exact = m.a[0] * np.exp(0.5 * vals[:, 0])
        errs.append(np.max(np.abs(res.y.values[:, 0] - exact)))
    assert all(errs[i + 1] < errs[i] for i in range(3))


def test_step_jacobian_matches_fd():
    rng = np.random.default_rng(7)
    lin = rng.normal(size=(3, 3, 2)) * 0.5
    quad = rng.normal(size=(3, 3, 3, 2)) * 0.2
    vf = rde.polynomial_fields(rng.normal(size=(3, 2)), lin, quad)
    y0 = rng.normal(size=3) * 0.3
    delta = rng.normal(size=2) * 0.3
    for depth in (2, 3):
        inc, M = rde._segment_step(vf, y0, delta, depth, False, True)
        fd = np.empty((3, 3))
        h = 1e-6
        for b in range(3):
            e = np.zeros(3); e[b] = h
            up, _ = rde._segment_step(vf, y0 + e, delta, depth, False, False)
            dn, _ = rde._segment_step(vf, y0 - e, delta, depth, False, False)
            fd[:, b] = (up - dn) / (2 * h)
        assert np.max(np.abs(M - np.eye(3) - fd)) < 1e-7


def test_signature_step_matches_segment_step():
    rng = np.random.default_rng(8)
    lin = rng.normal(size=(2, 2, 2)) * 0.4
    vf = rde.polynomial_fields(rng.normal(size=(2, 2)), lin)
    y0 = rng.normal(size=2)
    delta = rng.normal(size=2) * 0.5
    from smalltime import tensor_sig as ts
    seg = ts.segment_signature(delta, 3)
    inc_a, Ma = rde._segment_step(vf, y0, delta, 3, False, True)
    inc_b, Mb = rde._signature_step(vf, y0, seg.level1, seg.level2, seg.level3, False, True)
    assert np.allclose(inc_a, inc_b, atol=1e-13)
    assert np.allclose(Ma, Mb, atol=1e-13)


def test_batched_solver_matches_public():
    m = models.heisenberg()
    spec = FbmSpec(0.4, 2, 32)
    w = fgauss.sample_fbm(spec, 6, seed=9)
    batch = rde.solve_increments(m.vf, m.a, np.diff(w.values, axis=1), depth=2)
    for i in range(6):
        single = rde.solve_rde(m.vf, m.a, rl.lift_grid_path(w.path(i), 2), with_flows=False)
        assert np.allclose(batch.y.values[i], single.y.values, atol=1e-12)


def test_blowup_guard():
    # dy = y^2-style quadratic growth against a huge forcing blows up
    quad = np.zeros((1, 1, 1, 1)); quad[0, 0, 0, 0] = 1.0
    vf = rde.polynomial_fields(np.zeros((1, 1)), None, quad)
    big = GridPath(uniform_grid(4), np.linspace(0, 400.0, 5)[:, None])
    with pytest.raises(BlowUpError):
        rde.solve_rde(vf, np.array([5.0]), rl.lift_grid_path(big, 2), with_flows=False)


def test_skeleton_zero_gamma_constant():
    m = models.heisenberg()
    spec = FbmSpec(0.4, 2, 32)
    res = rde.solve_skeleton(m.vf, m.a, fgauss.cm_element_zero(spec))
    assert np.allclose(res.y.values, m.a)


def test_skeleton_heisenberg_kernel_gamma():
    m = models.heisenberg()
    spec = FbmSpec(0.35, 2, 256)
    xi, eta = 1.0, 0.5
    gamma = CMElement(spec, np.array([1.0]), np.array([[xi], [eta]]))
    res = rde.solve_skeleton(m.vf, m.a, gamma)
    assert np.max(np.abs(res.endpoint - np.array([xi, eta, 0.0]))) < 1e-6


def test_skeleton_lognormal_exponential():
    m = models.lognormal(sigma=0.5)
    spec = FbmSpec(0.5, 1, 512)
    xi = 0.8
    gamma = CMElement(spec, np.array([1.0]), np.array([[xi]]))
    res = rde.solve_skeleton(m.vf, m.a, gamma)
    assert res.endpoint[0] == pytest.approx(m.a[0] * np.exp(0.5 * xi), rel=1e-6)


def test_scaled_shifted_limits():
    m = models.heisenberg()
    spec = FbmSpec(0.4, 2, 64)
    gamma = CMElement(spec, np.array([1.0]), np.array([[1.0], [0.5]]))
    w = rl.lift_grid_path(fgauss.sample_fbm(spec, 1, 31).path(0), 3)
    at_zero = rde.solve_scaled_shifted(m.vf, m.a, w, gamma, 0.0, 0.4)
    sk = rde.solve_skeleton(m.vf, m.a, gamma)
    assert np.max(np.abs(at_zero.y.values - sk.y.values)) < 1e-10
    one = rde.solve_scaled_shifted(m.vf, m.a, w, fgauss.cm_element_zero(spec), 1.0, 0.4)
    plain = rde.solve_rde(m.vf, m.a, w)
    assert np.max(np.abs(one.y.values - plain.y.values)) < 1e-10


def test_scaled_shifted_batch_matches_public():
    m = models.lognormal(sigma=0.5)
    spec = FbmSpec(0.4, 1, 32)
    gamma = CMElement(spec, np.array([1.0]), np.array([[0.7]]))
    w = fgauss.sample_fbm(spec, 4, seed=12)
    eps = 0.3
    batch = rde.solve_scaled_shifted_batch(m.vf, m.a, w.values, gamma, eps, 0.4,
                                           store_path=True)
    for i in range(4):
        lift = rl.lift_grid_path(w.path(i), 3)
        single = rde.solve_scaled_shifted(m.vf, m.a, lift, gamma, eps, 0.4,
                                          with_flows=False)
        assert np.allclose(batch.y.values[i], single.y.values, atol=1e-11)


def test_scaled_law_matches_time_change():
    # lognormal: E y^eps_1 = E y_{eps^{1/H}} (same law)
    m = models.lognormal(sigma=0.5)
    H = 0.5
    spec = FbmSpec(H, 1, 64)
    n = 10_000
    eps = 0.5
    w = fgauss.sample_fbm(spec, n, seed=77)
    zero = fgauss.cm_element_zero(spec)
    scaled = rde.solve_scaled_shifted_batch(m.vf, m.a, w.values, zero, eps, H,
                                            store_path=False)
    t_idx = 16  # eps^{1/H} = 0.25 on the M=64 grid
    w2 = fgauss.sample_fbm(spec, n, seed=78)
    unscaled = rde.solve_increments(m.vf, m.a, np.diff(w2.values, axis=1),
                                    store_path=True)
    lhs = scaled.endpoint[:, 0]
    rhs = unscaled.y.values[:, t_idx, 0]
    se = np.sqrt(np.var(lhs) / n + np.var(rhs) / n)
    assert abs(np.mean(lhs) - np.mean(rhs)) <= 4 * se


def test_skeleton_gradient_constant_sigma():
    m = models.bridge1d()
    spec = FbmSpec(0.4, 1, 32)
    gamma = CMElement(spec, np.array([1.0]), np.array([[0.4]]))
    sk = rde.solve_skeleton(m.vf, m.a, gamma)
    A = rde.skeleton_gradient(m.vf, sk)
    assert np.allclose(A, 1.0)


def test_skeleton_gradient_directional_derivative():
    m = models.heisenberg()
    spec = FbmSpec(0.5, 2, 256)
    gamma = CMElement(spec, np.array([1.0]), np.array([[1.0], [0.5]]))
    rng = np.random.default_rng(13)
    hvals = np.cumsum(rng.normal(size=(257, 2)) * 0.01, axis=0)
    hvals -= hvals[0]
    h = GridPath(spec.times, hvals)
    sk = rde.solve_skeleton(m.vf, m.a, gamma)
    A = rde.skeleton_gradient(m.vf, sk)
    pair = rde.pair_gradient_with_path(A, h.increments())
    g = gamma.render()
    errs = []
    for s in (1e-2, 1e-3):
        moved = rde.solve_skeleton(m.vf, m.a, GridPath(spec.times, g.values + s * hvals))
        errs.append(np.linalg.norm((moved.endpoint - sk.endpoint) / s - pair))
    assert errs[1] < errs[0] * 0.2  # o(s) ratio test


def test_expansion_phi0_matches_skeleton():
    m = models.heisenberg()
    spec = FbmSpec(0.4, 2, 64)
    gamma = CMElement(spec, np.array([1.0]), np.array([[1.0], [0.5]]))
    x = rl.lift_grid_path(fgauss.sample_fbm(spec, 1, 14).path(0), 3)
    terms = rde.expansion_terms(m.vf, m.a, gamma, x, 0.4)
    sk = rde.solve_skeleton(m.vf, m.a, gamma)
    assert np.max(np.abs(terms.phi(0) - sk.y.values)) < 1e-9


def test_expansion_phi1_frozen_coefficients():
    # gamma = 0, drift-free: phi^1_t = sigma(a) (x_t - x_0)
    m = models.heisenberg()
    spec = FbmSpec(0.4, 2, 64)
    x = rl.lift_grid_path(fgauss.sample_fbm(spec, 1, 15).path(0), 3)
    terms = rde.expansion_terms(m.vf, m.a, fgauss.cm_element_zero(spec), x, 0.4)
    phi1 = terms.phi(1)
    expect = np.einsum("ai,ti->ta", m.vf.sigma(m.a), x.prefix1)
    assert np.max(np.abs(phi1 - expect)) < 1e-12


def test_expansion_phi1_lognormal_oracle():
    # phi1 solves dphi1 - sigma' gamma' phi1 dgamma = sigma(phi0) dx:
    # refined variation-of-constants quadrature as oracle
    m = models.lognormal(sigma=0.5)
    s = 0.5
    M = 1024
    spec = FbmSpec(0.4, 1, M)
    gamma = CMElement(spec, np.array([1.0]), np.array([[0.8]]))
    x = rl.lift_grid_path(fgauss.sample_fbm(spec, 1, 16).path(0), 3)
    terms = rde.expansion_terms(m.vf, m.a, gamma, x, 0.4)
    phi1 = terms.phi(1)[:, 0]

    g = gamma.render().values[:, 0]
    # J_t = exp(s*gamma_t) for the skeleton flow; refined oracle at 10x
    t_fine = np.linspace(0, 1, 10 * M + 1)
    g_fine = np.interp(t_fine, spec.times, g)
    x_fine = np.interp(t_fine, spec.times, x.prefix1[:, 0])
    phi0_fine = m.a[0] * np.exp(s * g_fine)
    integrand = np.exp(-s * g_fine) * s * phi0_fine
    mid = 0.5 * (integrand[:-1] + integrand[1:])
    I_fine = np.concatenate([[0.0], np.cumsum(mid * np.diff(x_fine))])
    oracle = np.exp(s * g_fine) * I_fine
    err = np.abs(phi1[1:] - oracle[::10][1:])
    scale = np.max(np.abs(oracle)) or 1.0
    assert np.max(err) / scale <= 1e-4


def test_remainder_eps_zero():
    m = models.heisenberg()
    spec = FbmSpec(0.4, 2, 32)
    gamma = CMElement(spec, np.array([1.0]), np.array([[1.0], [0.5]]))
    x = rl.lift_grid_path(fgauss.sample_fbm(spec, 1, 17).path(0), 3)
    r = rde.remainder(m.vf, m.a, gamma, x, 0.0, 0, 0.4)
    assert np.max(np.abs(r.values)) < 1e-9


def test_remainder_decay_orders():
    # fixed seed; slopes of sup|r| vs eps for k = 0, 1
    for model, H, seed in [(models.lognormal(sigma=0.5), 0.4, 20),
                           (models.heisenberg(), 0.5, 21)]:
        spec = FbmSpec(H, model.d, 256)
        gamma = model.exact_gamma(spec)
        x = rl.lift_grid_path(fgauss.sample_fbm(spec, 1, seed).path(0), 3)
        terms = rde.expansion_terms(model.vf, model.a, gamma, x, H)
        epss = [2.0 ** -j for j in range(2, 7)]
        sups = {0: [], 1: []}
        for eps in epss:
            for k in (0, 1):
                r = rde.remainder(model.vf, model.a, gamma, x, eps, k, H, terms=terms)
                sups[k].append(np.max(np.linalg.norm(r.values, axis=-1)))
        for k, kappa_next in ((0, 1.0), (1, 2.0)):
            slope = np.polyfit(np.log(epss), np.log(sups[k]), 1)[0]
            assert slope >= kappa_next - 0.15, (model.name, k, slope)
        ratios = np.asarray(sups[0]) / np.asarray(epss)
        assert np.max(ratios) / np.min(ratios) <= 3.0


def test_expansion_polynomial_growth_under_dilation():
    # sup|phi^kappa| grows at most polynomially of degree kappa in the dilation
    m = models.heisenberg()
    spec = FbmSpec(0.5, 2, 64)
    gamma = CMElement(spec, np.array([1.0]), np.array([[1.0], [0.5]]))
    x = rl.lift_grid_path(fgauss.sample_fbm(spec, 1, 22).path(0), 3)
    scales = [0.5, 1.0, 2.0, 4.0]
    for kappa in (1.0, 2.0):
        sups = []
        for c in scales:
            terms = rde.expansion_terms(m.vf, m.a, gamma, rl.dilate(x, c), 0.5)
            sups.append(np.max(np.abs(terms.phi(kappa))))
        deg = np.polyfit(np.log(scales), np.log(sups), 1)[0]
        assert deg <= kappa + 0.2


def test_signature_step_jacobian_fd_nonlinear_with_area():
    # quadratic fields + a cell signature carrying genuine area exercise
    # every derivative-tensor contraction in the level-3 step Jacobian
    rng = np.random.default_rng(30)
    lin = rng.normal(size=(3, 3, 2)) * 0.4
    quad = rng.normal(size=(3, 3, 3, 2)) * 0.2
    vf = rde.polynomial_fields(rng.normal(size=(3, 2)), lin, quad)
    from smalltime import tensor_sig as ts
    sig = ts.chen_mul(ts.segment_signature(rng.normal(size=2) * 0.4, 3),
                      ts.segment_signature(rng.normal(size=2) * 0.4, 3))
    y0 = rng.normal(size=3) * 0.3
    inc, M = rde._signature_step(vf, y0, sig.level1, sig.level2, sig.level3,
                                 False, True)
    h = 1e-6
    fd = np.empty((3, 3))
    for b in range(3):
        e = np.zeros(3); e[b] = h
        up, _ = rde._signature_step(vf, y0 + e, sig.level1, sig.level2, sig.level3,
                                    False, False)
        dn, _ = rde._signature_step(vf, y0 - e, sig.level1, sig.level2, sig.level3,
                                    False, False)
        fd[:, b] = (up - dn) / (2 * h)
    assert np.max(np.abs(M - np.eye(3) - fd)) < 1e-7


HEIS_TARGETS = {0.5: (1.0, 0.5, 0.0), 0.4: (0.5, 0.5, 0.6)}


@pytest.fixture(scope="module")
def heis_minimizers():
    out = {}
    for H, target in HEIS_TARGETS.items():
        m = models.heisenberg(a_prime=target)
        spec = FbmSpec(H, 2, 64)
        out[H] = (m, spec, minimizer.minimize_energy(m.vf, m.a, m.a_prime, spec, n_starts=1,
                                                     seed=4, compute_hessian=False))
    return out


def _assert_endpoints_match_terms(vf, a, gamma, spec, seed):
    w = fgauss.sample_fbm(spec, 3, seed)
    ends = rde.expansion_endpoints_batch(vf, a, gamma, np.diff(w.values, axis=1), spec.hurst)
    for b in range(3):
        terms = rde.expansion_terms(vf, a, gamma, rl.lift_grid_path(w.path(b), 3),
                                    spec.hurst, kappa_max=2.0)
        for k in (1, 2):
            ref = terms.phi(k)[-1]
            assert np.max(np.abs(ends[k][b] - ref)) <= 1e-12 * np.max(np.abs(ref)), (b, k)


@pytest.mark.parametrize("H", sorted(HEIS_TARGETS))
def test_endpoint_forms_match_expansion_terms_heisenberg(heis_minimizers, H):
    m, spec, res = heis_minimizers[H]
    _assert_endpoints_match_terms(m.vf, m.a, res.gamma_bar, spec, seed=31)


@pytest.mark.parametrize("H", [0.5, 0.4])
def test_endpoint_forms_match_expansion_terms_quadratic_drift(H):
    # Heisenberg fields are linear; quadratic fields exercise the KD2 dg
    # term of S and, at H = 1/2, the drift constant c
    rng = np.random.default_rng(32)
    vf = rde.polynomial_fields(rng.normal(size=(2, 2)), rng.normal(size=(2, 2, 2)) * 0.4,
                               rng.normal(size=(2, 2, 2, 2)) * 0.3,
                               drift_const=rng.normal(size=2),
                               drift_lin=rng.normal(size=(2, 2)) * 0.5)
    spec = FbmSpec(H, 2, 64)
    gamma = CMElement(spec, np.array([0.6, 1.0]), np.array([[1.0, -0.4], [0.5, 0.8]]))
    _assert_endpoints_match_terms(vf, np.array([0.2, -0.1]), gamma, spec, seed=33)


@pytest.mark.parametrize("H", sorted(HEIS_TARGETS))
def test_endpoint_linear_map_reproduces_Q(heis_minimizers, H):
    # phi^1_1 = B x with x ~ N(0, Gram (x) I_d), so B (Gram (x) I_d) B^T = Q(gamma_bar)
    m, spec, res = heis_minimizers[H]
    Md = spec.M * spec.dim
    B = rde.expansion_endpoints_batch(m.vf, m.a, res.gamma_bar,
                                      np.eye(Md).reshape(Md, spec.M, spec.dim), H, upto=1)[1].T
    cov = np.kron(fgauss.IncrementGram(spec).matrix, np.eye(spec.dim))
    Q = res.Q_at_min.matrix
    assert np.max(np.abs(B @ cov @ B.T - Q)) <= 1e-12 * np.max(np.abs(Q))
