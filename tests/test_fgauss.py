import numpy as np
import pytest
from scipy.stats import ks_2samp

from smalltime import fgauss
from smalltime.errors import InvalidArgumentError
from smalltime.fgauss import CMElement, FbmSpec, IncrementGram, fbm_cov


def test_cov_basics():
    assert fbm_cov(1.0, 1.0, 0.4) == pytest.approx(1.0)
    for s in (0.2, 0.55, 1.0):
        assert fbm_cov(s, s, 0.37) == pytest.approx(s ** 0.74)
    # Brownian case reduces to min(s, t)
    for s, t in [(0.25, 0.75), (0.5, 0.5), (0.9, 0.1)]:
        assert fbm_cov(s, t, 0.5) == pytest.approx(min(s, t))


def test_spec_validation():
    with pytest.raises(InvalidArgumentError):
        FbmSpec(0.2, 1, 64)
    with pytest.raises(InvalidArgumentError):
        FbmSpec(0.6, 1, 64)
    spec = FbmSpec("2/5", 2, 32)
    assert spec.hurst == pytest.approx(0.4)


def test_increment_gram_psd_and_diagonal():
    for H in (0.3, 0.4, 0.5):
        spec = FbmSpec(H, 1, 64)
        gram = IncrementGram(spec)
        g = gram.matrix
        assert np.allclose(g, g.T)
        assert np.min(np.linalg.eigvalsh(g)) > -1e-12
        h = 1.0 / spec.M
        assert np.allclose(np.diag(g), h ** (2 * H), rtol=1e-10)
        L = gram.cholesky()
        assert np.max(np.abs(L @ L.T - g)) < 1e-10


def test_sampler_variance_and_independence():
    n = 100_000
    spec = FbmSpec(0.4, 1, 32)
    w = fgauss.sample_fbm(spec, n, seed=123)
    v = np.var(w.values[:, -1, 0])
    se = np.sqrt(2.0 / n)
    assert abs(v - 1.0) <= 4 * se

    spec_bm = FbmSpec(0.5, 1, 32)
    wb = fgauss.sample_fbm(spec_bm, n, seed=7)
    a = wb.values[:, 8, 0] - wb.values[:, 0, 0]
    b = wb.values[:, 24, 0] - wb.values[:, 16, 0]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) <= 4 / np.sqrt(n)


def test_sampler_self_similarity_ks():
    # law of w_{0.5} matches 0.5^H * law of w_1 (two independent sample sets)
    spec = FbmSpec(0.4, 1, 64)
    n = 20_000
    w1 = fgauss.sample_fbm(spec, n, seed=1)
    w2 = fgauss.sample_fbm(spec, n, seed=2)
    half_idx = 32
    stat = ks_2samp(w1.values[:, half_idx, 0], 0.5 ** spec.hurst * w2.values[:, -1, 0])
    assert stat.pvalue >= 0.01


def test_sampler_deterministic_and_chunk_invariant():
    for dim in (1, 2):
        spec = FbmSpec(0.35, dim, 16)
        a = fgauss.sample_fbm(spec, 50, seed=9)
        b = fgauss.sample_fbm(spec, 50, seed=9)
        assert np.array_equal(a.values, b.values)
        for chunk in (1, 7, 50):
            c = fgauss.sample_fbm(spec, 50, seed=9, chunk=chunk)
            assert np.array_equal(c.values, a.values), (dim, chunk)
        # path k does not depend on how many paths follow it
        assert np.array_equal(fgauss.sample_fbm(spec, 1, seed=9).values[0], a.values[0])


@pytest.mark.parametrize("M, dim", [(1024, 1), (128, 2)])
def test_gemm_noise_matches_einsum(M, dim):
    # the reference is the elementwise contraction the sampler used to run
    spec = FbmSpec(0.4, dim, M)
    n = 64
    z = np.random.Generator(np.random.Philox(3)).standard_normal((n, M, dim))
    ref = np.einsum("pq,bqi->bpi", IncrementGram(spec).cholesky(), z)
    (sl, inc), = fgauss.fbm_increments(spec, n, seed=3)
    assert sl == slice(0, n)
    assert np.max(np.abs(inc - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_cm_norm_kernel_elements():
    spec = FbmSpec(0.4, 1, 64)
    gamma = CMElement(spec, np.array([1.0]), np.array([[1.0]]))
    assert fgauss.cm_norm_sq(gamma) == pytest.approx(1.0, abs=1e-9)
    xi = -1.7
    assert fgauss.cm_norm_sq(gamma.scaled(xi)) == pytest.approx(xi ** 2, rel=1e-9)
    zero = fgauss.cm_element_zero(spec)
    assert fgauss.cm_norm_sq(zero) == 0.0


def test_htilde_inner_indicators():
    spec = FbmSpec(0.4, 1, 64)
    ones = np.ones((1, 64))
    assert fgauss.htilde_inner(spec, ones, ones) == pytest.approx(1.0, abs=1e-12)
    t = spec.times
    gram = IncrementGram(spec)
    for si, ti in [(16, 48), (32, 32), (8, 56)]:
        f = np.zeros((1, 64)); f[0, :si] = 1.0
        g = np.zeros((1, 64)); g[0, :ti] = 1.0
        assert fgauss.htilde_inner(gram, f, g) == pytest.approx(
            fbm_cov(t[si], t[ti], spec.hurst), abs=1e-12
        )


def test_htilde_brownian_is_l2():
    spec = FbmSpec(0.5, 2, 32)
    rng = np.random.default_rng(0)
    f = rng.normal(size=(2, 32))
    g = rng.normal(size=(2, 32))
    assert fgauss.htilde_inner(spec, f, g) == pytest.approx(np.sum(f * g) / 32, rel=1e-10)


def test_htilde_matches_cm_norm_under_correspondence():
    spec = FbmSpec(0.35, 1, 32)
    rng = np.random.default_rng(1)
    knot_idx = np.array([5, 12, 32])
    a = rng.normal(size=3)
    gamma = CMElement(spec, spec.times[knot_idx], a[None, :])
    f = np.zeros((1, 32))
    for k, coef in zip(knot_idx, a):
        f[0, :k] += coef
    assert fgauss.htilde_inner(spec, f, f) == pytest.approx(
        fgauss.cm_norm_sq(gamma), abs=1e-10
    )


def test_increment_density_representation_roundtrip():
    spec = FbmSpec(0.4, 2, 16)
    rng = np.random.default_rng(2)
    f = rng.normal(size=(2, 16))
    gamma = fgauss.cm_from_increment_density(spec, f)
    assert fgauss.cm_norm_sq(gamma) == pytest.approx(
        fgauss.htilde_inner(spec, f, f), rel=1e-8
    )
    # constant density 1 on one component is R(1, .)
    f1 = np.zeros((2, 16)); f1[0] = 1.0
    g1 = fgauss.cm_from_increment_density(spec, f1)
    t = spec.times
    assert np.allclose(g1.evaluate(t)[:, 0], fbm_cov(1.0, t, spec.hurst), atol=1e-12)
    assert np.allclose(g1.evaluate(t)[:, 1], 0.0)


def test_paley_wiener_exact_cases():
    spec = FbmSpec(0.4, 1, 32)
    w = fgauss.sample_fbm(spec, 10, seed=4)
    gamma = CMElement(spec, np.array([1.0]), np.array([[1.0]]))
    pw = fgauss.paley_wiener(gamma, w)
    assert np.allclose(pw, w.values[:, -1, 0])
    zero = fgauss.cm_element_zero(spec)
    assert np.allclose(fgauss.paley_wiener(zero, w), 0.0)


def test_paley_wiener_isometry_mc():
    spec = FbmSpec(0.35, 1, 32)
    rng = np.random.default_rng(3)
    idx = np.array([7, 19, 32])
    gamma = CMElement(spec, spec.times[idx], rng.normal(size=(1, 3)))
    n = 100_000
    w = fgauss.sample_fbm(spec, n, seed=11)
    pw = fgauss.paley_wiener(gamma, w)
    target = fgauss.cm_norm_sq(gamma)
    se = np.sqrt(2.0 / n) * target
    assert abs(np.mean(pw ** 2) - target) <= 4 * se
    assert abs(np.mean(pw)) <= 4 * np.sqrt(target / n)


def test_paley_wiener_knot_mismatch():
    spec = FbmSpec(0.4, 1, 32)
    w = fgauss.sample_fbm(spec, 2, seed=5)
    gamma = CMElement(spec, np.array([0.1234]), np.array([[1.0]]))
    with pytest.raises(InvalidArgumentError):
        fgauss.paley_wiener(gamma, w)


def test_empirical_increment_covariance_checkpoints():
    n = 100_000
    for H in (0.3, 0.5):
        spec = FbmSpec(H, 1, 64)
        gram = IncrementGram(spec).matrix
        w = fgauss.sample_fbm(spec, n, seed=21)
        inc = np.diff(w.values[:, :, 0], axis=1)
        idx = np.arange(0, 64, 8)
        emp = np.cov(inc[:, idx].T, bias=True)
        g = gram[np.ix_(idx, idx)]
        se = np.sqrt((np.outer(np.diag(g), np.diag(g)) + g ** 2) / n)
        assert np.all(np.abs(emp - g) <= 4 * se)


def test_volterra_checks():
    rep = fgauss.volterra_checks(0.4, 256)
    assert rep["reconstruction_residual"] <= 1e-8
    assert rep["unitarity_residual"] <= 1e-6
    assert rep["corner_value"] == pytest.approx(1.0, abs=1e-10)
    # Brownian case: L_ij = sqrt(ds) for j <= i
    rep_bm = fgauss.volterra_checks(0.5, 32)
    L = rep_bm["L"]
    ds = 1.0 / 32
    expect = np.tril(np.full((32, 32), np.sqrt(ds)))
    assert np.max(np.abs(L - expect)) <= 1e-10


def test_qvar_embedding_diagnostic_runs():
    spec = FbmSpec(0.4, 1, 32)
    c = fgauss.fit_qvar_embedding_constant(spec, n_elems=3, seed=0)
    assert np.isfinite(c) and c > 0
