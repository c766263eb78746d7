"""Fractional Brownian motion on a grid and its Cameron-Martin machinery.

The covariance is R(s,t) = (|s|^{2H} + |t|^{2H} - |t-s|^{2H}) / 2 with
Hurst parameter H in (1/4, 1/2].  Cameron-Martin elements are stored in
the reproducing-kernel basis {R(t_k, .)}: under it both endpoint
evaluation and the Paley-Wiener pairing with a sampled path are exact
linear formulas, since R(t_k, .) corresponds to the first-chaos variable
w_{t_k}.

Sampling draws grid increments through a dense Cholesky factor of the
increment Gram matrix, cached per (H, M).  :func:`fbm_increments` is the
one noise source: a counter-based stream per seed fills the normals
path-major, and each chunk is contracted with the factor in one GEMM, so
results never depend on how work is split into chunks or across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import InvalidArgumentError, NumericalDegeneracyError
from .paths import GridPath, uniform_grid


def fbm_cov(s, t, H):
    """fBm covariance R(s,t) = (|s|^{2H} + |t|^{2H} - |t-s|^{2H}) / 2."""
    s = np.asarray(s, float)
    t = np.asarray(t, float)
    two_h = 2.0 * float(H)
    return 0.5 * (np.abs(s) ** two_h + np.abs(t) ** two_h - np.abs(t - s) ** two_h)


def _as_float_hurst(hurst):
    return float(Fraction(hurst)) if isinstance(hurst, (str, Fraction)) else float(hurst)


@dataclass(frozen=True)
class FbmSpec:
    """Hurst parameter, driver dimension, and grid size."""

    hurst: float
    dim: int
    M: int

    def __post_init__(self):
        h = _as_float_hurst(self.hurst)
        if not 0.25 < h <= 0.5:
            raise InvalidArgumentError(f"hurst must be in (1/4, 1/2], got {h}")
        if self.M < 2:
            raise InvalidArgumentError("grid size M must be at least 2")
        object.__setattr__(self, "hurst", h)

    @property
    def times(self):
        return uniform_grid(self.M)

    def cov_matrix(self, times=None):
        """[R(t_i, t_j)] over the given times (grid times by default, t=0 dropped)."""
        t = self.times[1:] if times is None else np.asarray(times, float)
        return fbm_cov(t[:, None], t[None, :], self.hurst)


def _cholesky(g):
    """Lower Cholesky factor of a PSD matrix, retried once with a 1e-12 trace jitter."""
    try:
        return np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        jitter = 1e-12 * np.trace(g)
        try:
            return np.linalg.cholesky(g + jitter * np.eye(g.shape[0]))
        except np.linalg.LinAlgError as exc:
            raise NumericalDegeneracyError("Cholesky factorization failed after jitter") from exc


@lru_cache(maxsize=4)  # at M=4096 each entry holds 256 MB
def _gram_and_factor(hurst, M):
    """Increment Gram matrix G and L' for G = L L', both read-only.

    L' is C-contiguous: in that layout ``z @ L'`` rounds each row the same
    whatever the number of rows (two or more); in L's layout it does not.
    """
    t = uniform_grid(M)
    R = fbm_cov(t[:, None], t[None, :], hurst)
    g = R[1:, 1:] - R[1:, :-1] - R[:-1, 1:] + R[:-1, :-1]
    lt = np.ascontiguousarray(_cholesky(g).T)
    g.flags.writeable = lt.flags.writeable = False
    return g, lt


class IncrementGram:
    """Gram matrix of grid-cell increments Gamma_pq = E[dw_p dw_q], cached and read-only."""

    def __init__(self, spec):
        self.spec = spec
        self.matrix = _gram_and_factor(spec.hurst, spec.M)[0]

    def cholesky(self):
        return _gram_and_factor(self.spec.hurst, self.spec.M)[1].T


# Normals per chunk (paths * M * dim): bounds the noise memory at 64 MB per
# array whatever the grid, and keeps 32768-path chunks at M=128, d=2.
_CHUNK_NORMALS = 1 << 23


def _noise_chunk(rng, B, M, d, LT):
    """Increments L z, shape (B, M, d), of B paths of normals z drawn path-major.

    One GEMM; at most two chunk-sized arrays are alive at a time.
    """
    rows = rng.standard_normal((B, M, d)).transpose(0, 2, 1).reshape(B * d, M)
    # numpy sends a single row to gemv, which rounds differently from gemm
    inc = (np.concatenate([rows, rows]) @ LT)[:1] if B * d == 1 else rows @ LT
    del rows
    return np.ascontiguousarray(inc.reshape(B, d, M).transpose(0, 2, 1))


def fbm_increments(spec, n_paths, seed, chunk=None):
    """Iterator of (slice of paths, grid increments of shape (paths, M, dim)).

    A single Philox stream fills the standard normals path-major, so the
    increments depend only on (spec, seed) and the path index, never on the
    chunk size (at most ``chunk`` paths, by default a fixed number of normals).
    """
    if n_paths < 1:
        raise InvalidArgumentError("n_paths must be >= 1")
    M, d = spec.M, spec.dim
    LT = _gram_and_factor(spec.hurst, M)[1]
    rng = np.random.Generator(np.random.Philox(seed))
    step = max(1, _CHUNK_NORMALS // (M * d)) if chunk is None else int(chunk)
    bounds = [(lo, min(lo + step, n_paths)) for lo in range(0, n_paths, step)]
    return ((slice(lo, hi), _noise_chunk(rng, hi - lo, M, d, LT)) for lo, hi in bounds)


def sample_fbm(spec, n_paths, seed, chunk=None):
    """Draw i.i.d. fBm paths on the grid, components independent.

    Deterministic for fixed seed: path k is the same whatever ``n_paths``
    and ``chunk`` (see :func:`fbm_increments`).  Returns a batched GridPath
    of shape (n_paths, M+1, dim).
    """
    chunks = fbm_increments(spec, n_paths, seed, chunk)
    vals = np.zeros((n_paths, spec.M + 1, spec.dim))
    for sl, inc in chunks:
        np.cumsum(inc, axis=1, out=vals[sl, 1:, :])
    return GridPath(spec.times, vals)


@dataclass(frozen=True)
class CMElement:
    """Cameron-Martin element gamma^i(.) = sum_k coeffs[i, k] * R(knots[k], .)."""

    spec: FbmSpec
    knots: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.knots, float)
        c = np.asarray(self.coeffs, float)
        if c.shape != (self.spec.dim, k.shape[0]):
            raise InvalidArgumentError("coeffs must have shape (dim, n_knots)")
        if np.any(k <= 0) or np.any(k > 1):
            raise InvalidArgumentError("knots must lie in (0, 1]")
        object.__setattr__(self, "knots", k)
        object.__setattr__(self, "coeffs", c)

    def gram(self):
        g = fbm_cov(self.knots[:, None], self.knots[None, :], self.spec.hurst)
        return g + 1e-12 * max(np.trace(g), 1.0) * np.eye(g.shape[0])

    def evaluate(self, times):
        """gamma(t_j) = sum_k a_k R(t_k, t_j), exact in the kernel basis."""
        t = np.asarray(times, float)
        R = fbm_cov(self.knots[:, None], t[None, :], self.spec.hurst)
        return (self.coeffs @ R).T

    def render(self, times=None):
        t = self.spec.times if times is None else np.asarray(times, float)
        return GridPath(t, self.evaluate(t))

    def scaled(self, c):
        return CMElement(self.spec, self.knots, float(c) * self.coeffs)


def cm_element_zero(spec):
    return CMElement(spec, np.array([1.0]), np.zeros((spec.dim, 1)))


def cm_from_increment_density(spec, f):
    """CM element from H-tilde step coefficients f (dim, M): gamma = R(f).

    The isometry maps the cell indicator of [t_p, t_{p+1}] to
    R(t_{p+1}, .) - R(t_p, .); telescoping gives exact kernel-basis
    coefficients on the grid knots t_1..t_M.
    """
    f = np.asarray(f, float)
    if f.shape != (spec.dim, spec.M):
        raise InvalidArgumentError("f must have shape (dim, M)")
    # knot t_k carries f_{k-1} - f_k; the R(0,.) term vanishes identically
    coeffs = np.zeros((spec.dim, spec.M))
    coeffs[:, : spec.M - 1] = f[:, :-1] - f[:, 1:]
    coeffs[:, spec.M - 1] = f[:, -1]
    return CMElement(spec, spec.times[1:], coeffs)


def cm_norm_sq(gamma):
    """Squared Cameron-Martin norm via the knot Gram matrix."""
    g = gamma.gram()
    return float(sum(a @ g @ a for a in gamma.coeffs))


def htilde_inner(spec_or_gram, f, g):
    """Inner product of step functions on grid cells: sum_i f_i' Gamma g_i.

    f, g have shape (dim, M) (one value per cell and component).
    """
    gram = spec_or_gram if isinstance(spec_or_gram, IncrementGram) else IncrementGram(spec_or_gram)
    f = np.asarray(f, float)
    g = np.asarray(g, float)
    if f.shape != g.shape or f.shape[1] != gram.matrix.shape[0]:
        raise InvalidArgumentError("step functions must share shape (dim, M)")
    return float(np.einsum("ip,pq,iq->", f, gram.matrix, g))


def paley_wiener(gamma, w):
    """First-chaos pairing <gamma, w>: sum_i sum_k a^i_k w^i(t_k).

    Exact under the kernel-basis representation.  Accepts a batched path
    and then returns one value per path.
    """
    t = w.times
    idx = np.searchsorted(t, gamma.knots)
    if np.any(np.abs(t[np.clip(idx, 0, len(t) - 1)] - gamma.knots) > 1e-9):
        raise InvalidArgumentError("gamma knots must be grid points of w")
    vals = w.values[..., idx, :]
    return np.einsum("...ki,ik->...", vals, gamma.coeffs)


def fit_qvar_embedding_constant(spec, n_elems=8, q=None, seed=0):
    """Fitted constant in |gamma|_{q-var;[s,t]} <= c |gamma|_H (t-s)^{1/q-1/2}.

    The constant is not specified analytically, so the largest observed
    ratio over random kernel-basis elements and subintervals is reported.
    """
    from .roughlift import lift_grid_path
    from .metrics import pvar_norm

    qq = 1.0 / (spec.hurst + 0.5) if q is None else float(q)
    rng = np.random.default_rng(seed)
    t = spec.times
    worst = 0.0
    for _ in range(n_elems):
        idx = rng.choice(np.arange(1, spec.M + 1), size=3, replace=False)
        gamma = CMElement(spec, t[idx], rng.normal(size=(spec.dim, 3)))
        hnorm = np.sqrt(cm_norm_sq(gamma))
        lift = lift_grid_path(gamma.render(), 2)
        step = max(1, spec.M // 4)
        for j in range(0, spec.M, step):
            for k in range(j + step, spec.M + 1, step):
                pv = pvar_norm(lift, 1, qq, (t[j], t[k]))
                denom = hnorm * (t[k] - t[j]) ** (1.0 / qq - 0.5)
                if denom > 0:
                    worst = max(worst, pv / denom)
    return worst


def volterra_checks(H, M):
    """Factor the grid covariance as L L' and report kernel-style residuals.

    L is the discretized Volterra kernel K(t,s) sqrt(ds); reported are the
    reconstruction residual max|L L' - R| and the unitarity residual of the
    induced map from discrete L^2 into the Cameron-Martin space.
    """
    spec = FbmSpec(H, 1, M)
    R = spec.cov_matrix()
    L = _cholesky(R)
    recon = float(np.max(np.abs(L @ L.T - R)))
    # unitarity: for gamma = L sqrt(ds) f, |gamma|_H^2 == ds * |f|^2
    rng = np.random.default_rng(0)
    ds = 1.0 / M
    worst = 0.0
    for _ in range(8):
        f = rng.normal(size=M)
        gvals = L @ (np.sqrt(ds) * f)
        a = np.linalg.solve(R + 1e-14 * np.eye(M), gvals)
        hnorm_sq = float(gvals @ a)
        l2_sq = ds * float(f @ f)
        worst = max(worst, abs(hnorm_sq - l2_sq) / max(l2_sq, 1e-30))
    return {
        "H": spec.hurst,
        "M": M,
        "reconstruction_residual": recon,
        "unitarity_residual": worst,
        "corner_value": float((L @ L.T)[-1, -1]),
        "L": L,
    }
