"""Malliavin covariance matrices, reduced covariance, bracket ranks, and
eigenvalue-tail diagnostics.

All dual-norm pairings go through the step-function increment Gram, which
is exact for cell-constant integrands and avoids the singular second
derivative of the covariance kernel for H < 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rde
from .errors import CapabilityError, InvalidArgumentError
from .fgauss import IncrementGram, fbm_increments


@dataclass(frozen=True)
class CovMatrix:
    """Symmetric PSD matrix with a provenance tag."""

    matrix: np.ndarray
    provenance: str = "deterministic"

    def __post_init__(self):
        m = np.asarray(self.matrix, float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidArgumentError("covariance must be square")
        if np.max(np.abs(m - m.T)) > 1e-10:
            raise InvalidArgumentError("covariance must be symmetric to 1e-10")
        object.__setattr__(self, "matrix", m)

    @property
    def min_eigenvalue(self):
        return float(np.min(np.linalg.eigvalsh(self.matrix)))

    def is_psd(self, tol=1e-9):
        return self.min_eigenvalue >= -tol


def malliavin_Q(A, spec_or_gram, provenance="deterministic", render="avg"):
    """Q_kl = <A^k, A^l> in the dual Cameron-Martin norm via the increment Gram.

    A: (M+1, n, d) grid-point integrand rows (from skeleton_gradient or a
    scaled solve); rendered to cell constants first.  A may also be given
    already cell-rendered with shape (M, n, d).
    """
    gram = (spec_or_gram if isinstance(spec_or_gram, IncrementGram)
            else IncrementGram(spec_or_gram))
    A = np.asarray(A, float)
    Mcells = gram.matrix.shape[0]
    if A.shape[0] == Mcells + 1:
        A = rde.step_render(A, render)
    if A.shape[0] != Mcells:
        raise InvalidArgumentError("integrand grid does not match the Gram")
    q = np.einsum("pki,pq,qli->kl", A, gram.matrix, A)
    return CovMatrix(0.5 * (q + q.T), provenance)


def malliavin_Q_batch(A, gram, render="avg"):
    """Batched Q for stochastic rows A: (B, M+1, n, d) -> (B, n, n).

    One GEMM G @ A over all paths' (M, B*n*d) columns, then a per-path
    contraction over cells and driver components.
    """
    A = np.asarray(A, float)
    if A.shape[1] == gram.matrix.shape[0] + 1:
        A = 0.5 * (A[:, :-1] + A[:, 1:]) if render == "avg" else A[:, :-1]
    B, M, n, d = A.shape
    cols = A.transpose(1, 0, 2, 3).reshape(M, B * n * d)
    GA = (gram.matrix @ cols).reshape(M, B, n, d).transpose(1, 2, 0, 3).reshape(B, n, M * d)
    q = A.transpose(0, 2, 1, 3).reshape(B, n, M * d) @ GA.transpose(0, 2, 1)
    return 0.5 * (q + np.swapaxes(q, -1, -2))


def stochastic_gradient_rows(res, sigma_fn, epsilon=1.0):
    """Rows A(s) = J_1 K_s sigma^eps(y_s) of a (scaled) solve, batched.

    sigma_fn evaluates the unscaled sigma; the eps factor of
    sigma^eps = eps * sigma scales the rows (and Q by eps^2, bit-exactly).
    """
    if res.J is None or res.K is None:
        raise InvalidArgumentError("solve result must carry flows")
    J1 = res.J[..., -1, :, :]
    sig = sigma_fn(res.y.values)
    rows = np.einsum("...kl,...tlm,...tmi->...tki", J1, res.K, sig)
    return float(epsilon) * rows


def reduced_cov_C(res, sigma_fn, epsilon=1.0):
    """C = int_0^1 K_s sigma(y_s) {K_s sigma(y_s)}' ds by trapezoid quadrature."""
    if res.K is None:
        raise InvalidArgumentError("solve result must carry flows")
    ks = np.einsum("...tlm,...tmi->...tli", res.K, sigma_fn(res.y.values))
    integrand = np.einsum("...tki,...tli->...tkl", ks, ks)
    t = res.y.times
    w = np.diff(t)
    c = 0.5 * np.einsum("...tkl,t->...kl", integrand[..., :-1, :, :] + integrand[..., 1:, :, :], w)
    c = float(epsilon) ** 2 * c
    if c.ndim == 2:
        return CovMatrix(0.5 * (c + c.T), "reduced")
    return 0.5 * (c + np.swapaxes(c, -1, -2))


def reduced_quadratic_form(res, sigma_fn, v, epsilon=1.0):
    """<v, C v> via sum_i int <v, K_s V_i(y_s)>^2 ds (same trapezoid rule)."""
    ks = np.einsum("tlm,tmi->tli", res.K, sigma_fn(res.y.values))
    proj = np.einsum("l,tli->ti", np.asarray(v, float), ks)
    sq = np.sum(proj ** 2, axis=-1)
    w = np.diff(res.y.times)
    return float(epsilon) ** 2 * float(0.5 * np.sum((sq[:-1] + sq[1:]) * w))


def _bracket(V, U, dV, dU):
    """[V, U] = (grad U) V - (grad V) U as callables at a point."""

    def fn(y):
        return (np.einsum("...ab,...b->...a", dU(y), V(y))
                - np.einsum("...ab,...b->...a", dV(y), U(y)))

    return fn


def hormander_rank(vf, point, max_depth=3):
    """Ranks of the bracket-generated distributions V_0..V_m at a point.

    Level 0 is {V_1..V_d}; level m brackets every previous field with all
    of V_0..V_d.  Rank uses a singular-value cutoff of 1e-8 times the top
    singular value.  Returns (per-depth cumulative ranks, total rank).
    """
    if max_depth > 3 and vf.analytic_order < max_depth + 1:
        raise CapabilityError("bracket depth beyond 3 needs order-4 analytic derivatives")
    point = np.asarray(point, float)
    n, d = vf.n, vf.d

    def field_i(i):
        if i == 0:
            if not vf.drift_present:
                return None, None
            return (lambda y: vf.drift_deriv(y, 0)), (lambda y: vf.drift_deriv(y, 1))
        fn = lambda y, i=i: vf.sigma_deriv(y, 0)[..., :, i - 1]
        dfn = lambda y, i=i: vf.sigma_deriv(y, 1)[..., :, :, i - 1]
        return fn, dfn

    base = []
    for i in range(1, d + 1):
        fn, dfn = field_i(i)
        base.append((fn, dfn))
    current = list(base)
    vectors = [fn(point) for fn, _ in base]
    ranks = []

    def rank_of(vecs):
        mat = np.stack(vecs, axis=0)
        s = np.linalg.svd(mat, compute_uv=False)
        if s.size == 0 or s[0] == 0:
            return 0
        return int(np.sum(s >= 1e-8 * s[0]))

    ranks.append(rank_of(vectors))
    for _ in range(1, max_depth + 1):
        nxt = []
        for U, dU in current:
            for i in range(0, d + 1):
                V, dV = field_i(i)
                if V is None:
                    continue
                br = _bracket(V, U, dV, dU)
                nxt.append((br, rde._fd_derivative(br, (n,))))
        vectors.extend(fn(point) for fn, _ in nxt)
        ranks.append(rank_of(vectors))
        current = nxt
        if ranks[-1] == n:
            ranks.extend([n] * (max_depth - len(ranks) + 1))
            break
    return ranks[: max_depth + 1], ranks[-1]


def sample_scaled_Q(vf, a, spec, epsilon, H, n_samples, seed, chunk=512):
    """Sampled stochastic Malliavin matrices Q^eps of the scaled (unshifted) RDE.

    Rows are A^eps(s) = J^eps_1 K^eps_s sigma^eps(y^eps_s) with
    sigma^eps = eps * sigma; the pairing Gram is that of the driving fBm.
    Returns an (n_samples, n, n) array.
    """
    eps = float(epsilon)
    gram = IncrementGram(spec)
    out = np.empty((n_samples, vf.n, vf.n))
    hf = float(H)
    for sl, inc in fbm_increments(spec, n_samples, seed, chunk):
        inc = eps * inc
        if vf.drift_present:
            dt = np.diff(spec.times) * eps ** (1.0 / hf)
            dt = np.broadcast_to(dt[:, None], inc.shape[:-1] + (1,))
            inc = np.concatenate([inc, dt], axis=-1)
        res = rde.solve_increments(vf, a, inc, times=spec.times, depth=3,
                                   with_time=vf.drift_present, with_flows=True,
                                   store_path=True)
        rows = stochastic_gradient_rows(res, vf.sigma, epsilon=eps)
        out[sl] = malliavin_Q_batch(rows, gram)
    return out


def eigen_tail(samples_by_eps, epsilons):
    """Empirical small-eigenvalue diagnostics, reported rather than asserted.

    samples_by_eps: for each epsilon a list of CovMatrix (or arrays).
    Reports per-eps quantiles of lambda_min, the fitted slope of
    log P(lambda_min < xi) against log xi over the lower decile, and the
    global slope mu_hat of log E[lambda_min^{-1}] against log(1/eps).  A
    slope with too few points to fit (a lower decile with fewer than two
    distinct positive values, or a single epsilon) is reported as None.
    """
    if len(samples_by_eps) != len(epsilons):
        raise InvalidArgumentError("one sample set per epsilon required")
    per_eps = []
    inv_means = []
    for eps, samples in zip(epsilons, samples_by_eps):
        if len(samples) < 500:
            raise InvalidArgumentError("need at least 500 samples per epsilon")
        lam = np.array([
            s.min_eigenvalue if isinstance(s, CovMatrix)
            else float(np.min(np.linalg.eigvalsh(np.asarray(s, float))))
            for s in samples
        ])
        lam = np.maximum(lam, 0.0)
        qs = np.quantile(lam, [0.01, 0.1, 0.25, 0.5, 0.75, 0.9])
        decile = np.sort(lam)[: max(2, len(lam) // 10)]
        decile = decile[decile > 0]
        if decile.size >= 2 and np.ptp(np.log(decile)) > 1e-12:
            ranks = (np.arange(decile.size) + 1) / len(lam)
            tail_slope = float(np.polyfit(np.log(decile), np.log(ranks), 1)[0])
        else:
            tail_slope = None
        inv_mean = float(np.mean(1.0 / np.maximum(lam, 1e-300)))
        inv_means.append(inv_mean)
        per_eps.append({
            "eps": float(eps),
            "quantiles": {"q01": qs[0], "q10": qs[1], "q25": qs[2],
                          "q50": qs[3], "q75": qs[4], "q90": qs[5]},
            "tail_slope": tail_slope,
            "inv_mean": inv_mean,
            "n_samples": int(len(lam)),
        })
    logs = np.log(np.asarray(inv_means))
    li = np.log(1.0 / np.asarray(epsilons, float))
    mu_hat = float(np.polyfit(li, logs, 1)[0]) if len(epsilons) >= 2 else None
    return {"per_eps": per_eps, "mu_hat": mu_hat}
