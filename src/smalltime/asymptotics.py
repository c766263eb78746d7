"""Density estimation and small-time asymptotics fitting.

The time/scale dictionary is eps = t^H throughout.  The plain estimator
smooths the endpoint law of the scaled solve with a Gaussian product
kernel; the shifted estimator applies the Cameron-Martin change of
measure at a minimizer gamma_bar, which turns the rare event into an
O(1) one:

    p_t(a, a') = eps^{-n} exp(-|gbar|^2 / 2 eps^2)
                 E[ exp(-<gbar, w>/eps) kappa_b((y~_1 - a')/eps) ].

Standard errors come from 20 fixed batch means.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rde
from .errors import InvalidArgumentError, StarvationError
from .fgauss import cm_element_zero, fbm_increments, paley_wiener
from .indexsets import enumerate_exponents, hurst_float
from .paths import path_from_increments

N_BATCHES = 20


@dataclass
class DensityEstimate:
    """One density estimate p_t(a, a') with its batch-means standard error."""

    model_id: str
    t: float
    estimate: float
    se: float
    method: str
    n_samples: int
    bandwidth: np.ndarray
    seed: int
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "model": self.model_id, "t": self.t, "estimate": self.estimate,
            "se": self.se, "method": self.method, "n_samples": self.n_samples,
            "bandwidth": np.asarray(self.bandwidth).tolist(), "seed": self.seed,
            **{k: v for k, v in self.extras.items() if np.isscalar(v)},
        }


def _batch_ids(n):
    return (np.arange(n) * N_BATCHES) // n


def _check_samples(n):
    if n < N_BATCHES:
        raise InvalidArgumentError(
            f"need at least {N_BATCHES} samples for batch-means errors, got {n}")


def _batch_se(values):
    ids = _batch_ids(len(values))
    means = np.array([
        np.mean(values[ids == b]) for b in range(N_BATCHES)
    ])
    return float(np.std(means, ddof=1) / np.sqrt(N_BATCHES))


def _holder_homogeneous_level1(values, alpha):
    """Level-1 Hölder homogeneous norm over dyadic grid pairs (truncation guard)."""
    M = values.shape[-2] - 1
    t = np.linspace(0.0, 1.0, M + 1)
    out = np.zeros(values.shape[:-2])
    lag = 1
    while lag <= M:
        d = values[..., lag:, :] - values[..., :-lag, :]
        norm = np.linalg.norm(d, axis=-1) / (t[lag] ** alpha)
        out = np.maximum(out, np.max(norm, axis=-1))
        lag *= 2
    return out


def _bandwidth(std, n, dim, bandwidth):
    """Silverman's rule unless a bandwidth is given; floored at 1e-12."""
    b = std * n ** (-1.0 / (dim + 4)) if bandwidth is None else np.asarray(bandwidth, float)
    return np.maximum(np.broadcast_to(b, (dim,)), 1e-12)


def estimate_density(model, t, method, n_samples, spec, seed=0, bandwidth=None,
                     minimizer_result=None, trunc_radius=None):
    """Kernel density estimate of p_t(a, a') by plain or shifted Monte Carlo.

    ``spec`` fixes the Hurst parameter and solver grid; for the shifted
    method a MinimizerResult for (a, a') must be attached.
    """
    _check_samples(n_samples)
    hf = spec.hurst
    eps = float(t) ** hf
    if eps > 1.0 + 1e-12:
        raise InvalidArgumentError("need t^H <= 1")
    n = model.n
    vf = model.vf
    if method not in ("plain", "shifted"):
        raise InvalidArgumentError("method must be 'plain' or 'shifted'")
    if method == "shifted" and minimizer_result is None:
        raise InvalidArgumentError("shifted estimator needs a minimizer result")

    endpoints = np.empty((n_samples, n))
    pw = np.empty(n_samples) if method == "shifted" else None
    keep = np.ones(n_samples, dtype=bool)
    gamma = minimizer_result.gamma_bar if method == "shifted" else None
    shift = gamma if method == "shifted" else cm_element_zero(spec)
    for sl, inc in fbm_increments(spec, n_samples, seed):
        w = path_from_increments(inc, spec.times)
        del inc
        res = rde.solve_scaled_shifted_batch(vf, model.a, w.values, shift, eps, hf,
                                             store_path=False)
        endpoints[sl] = res.endpoint
        if method == "shifted":
            pw[sl] = paley_wiener(gamma, w)
        if trunc_radius is not None:
            keep[sl] = _holder_homogeneous_level1(eps * w.values, hf - 0.05) <= trunc_radius

    if method == "plain":
        dev = endpoints - model.a_prime
        std = np.std(dev, axis=0)
        b = _bandwidth(std, n_samples, n, bandwidth)
        logk = -0.5 * np.sum((dev / b) ** 2, axis=1) - np.sum(np.log(b)) \
            - 0.5 * n * np.log(2 * np.pi)
        weights = np.exp(logk)
        weights[~keep] = 0.0
        if np.all(weights < 1e-300):
            raise StarvationError(
                "no kernel mass at a'; use method='shifted' or a larger bandwidth")
        est = float(np.mean(weights))
        se = _batch_se(weights)
        extras = {"effective_hits": int(np.sum(logk > np.max(logk) - 8.0))}
        return DensityEstimate(model.name, float(t), est, se, "plain",
                               n_samples, b, seed, extras)

    energy2 = 2.0 * minimizer_result.energy  # |gamma_bar|^2
    z = (endpoints - model.a_prime) / eps
    std = np.std(z, axis=0)
    b = _bandwidth(std, n_samples, n, bandwidth)
    logw = (-pw / eps - 0.5 * np.sum((z / b) ** 2, axis=1)
            - np.sum(np.log(b)) - 0.5 * n * np.log(2 * np.pi))
    logw[~keep] = -np.inf
    log_prefactor = -n * np.log(eps) - energy2 / (2 * eps * eps)
    finite = logw[np.isfinite(logw)]
    if finite.size == 0:
        raise StarvationError("all shifted-estimator weights vanished")
    shiftv = np.max(finite)
    wshift = np.exp(logw - shiftv)
    est = float(np.exp(log_prefactor + shiftv) * np.mean(wshift))
    se = float(np.exp(log_prefactor + shiftv)) * _batch_se(wshift)
    extras = {
        "epsilon": eps,
        "truncated_fraction": float(np.mean(~keep)),
        "outside_weight_share": float(
            np.sum(wshift[~keep]) / max(np.sum(wshift), 1e-300)) if trunc_radius else 0.0,
    }
    return DensityEstimate(model.name, float(t), est, se, "shifted",
                           n_samples, b, seed, extras)


def fit_asymptotics(estimates, gamma_norm_sq, n, H, drift=False, hurst=None):
    """Fit decay rate, prefactor exponent, and the leading coefficient.

    rate_hat extrapolates -2 t^{2H} log p(t); prefactor_exp_hat is the
    log-log slope after removing the Gaussian factor; alpha0_hat is the
    intercept of the corrected density against t^{lambda_1 H}, where
    lambda_1 is 2 for drift-free systems and the first positive element
    of the Lambda_4 lattice otherwise.
    """
    if len(estimates) < 3:
        raise InvalidArgumentError("need at least 3 estimates")
    ts = np.array([e.t for e in estimates], float)
    ps = np.array([e.estimate for e in estimates], float)
    order = np.argsort(-ts)
    ts, ps = ts[order], ps[order]
    if np.any(ps <= 0):
        raise InvalidArgumentError("non-positive estimates in the fit window")
    hf = hurst_float(H if hurst is None else hurst)
    th = ts ** (2 * hf)
    u = -2.0 * th * np.log(ps)
    X = np.column_stack([np.ones_like(ts), th * np.log(ts), th])
    beta = np.linalg.lstsq(X, u, rcond=None)[0]
    rate_hat = float(beta[0])

    corrected_log = np.log(ps) + gamma_norm_sq / (2 * th)
    slope = np.linalg.lstsq(np.column_stack([np.ones_like(ts), np.log(ts)]),
                            corrected_log, rcond=None)[0]
    prefactor_exp_hat = float(slope[1])

    if drift:
        lam4 = enumerate_exponents(H if hurst is None else hurst, "L4", 8.0)
        lam1 = next(e.value_float for e in lam4 if e.value_float > 1e-12)
    else:
        lam1 = 2.0
    g = ps * np.exp(gamma_norm_sq / (2 * th)) * ts ** (n * hf)
    Xg = np.column_stack([np.ones_like(ts), ts ** (lam1 * hf)])
    coeffs, *_ = np.linalg.lstsq(Xg, g, rcond=None)
    alpha0_hat = float(coeffs[0])
    resid = g - Xg @ coeffs
    return {
        "rate_hat": rate_hat,
        "prefactor_exp_hat": prefactor_exp_hat,
        "alpha0_hat": alpha0_hat,
        "lambda1": float(lam1),
        "corrected_values": g.tolist(),
        "fit_residual_rel": float(np.max(np.abs(resid)) / max(np.max(np.abs(g)), 1e-300)),
        "t_grid": ts.tolist(),
    }


def leading_coefficient(vf, res, spec, n_samples, seed=0, bandwidth=None,
                        sanity=False, a=None):
    """Monte Carlo for alpha_0 = E[exp(<nu_bar, phi^2_1>) delta_0(phi^1_1)].

    With ``sanity=True`` the exponential factor is dropped and the
    estimator must reproduce the Gaussian total mass
    (2 pi)^{-n/2} det(Q(gamma_bar))^{-1/2}.  phi^1_1 is exactly N(0, Q) on
    the grid, so the kernel estimator's mean is the bandwidth-biased
    ``kernel_mass_target`` (2 pi)^{-n/2} det(Q + diag b^2)^{-1/2}.
    """
    _check_samples(n_samples)
    n = vf.n
    a = res.a if a is None else np.asarray(a, float)
    Q = res.Q_at_min.matrix
    detQ = float(np.linalg.det(Q))
    if detQ <= 0:
        raise InvalidArgumentError("Q(gamma_bar) must be nonsingular")
    if bandwidth is None:
        b = n_samples ** (-1.0 / (n + 4)) * detQ ** (1.0 / (2 * n))
        b = np.full(n, b)
    else:
        b = np.broadcast_to(np.asarray(bandwidth, float), (n,)).copy()

    sk = rde.solve_skeleton(vf, a, res.gamma_bar)
    vals = np.empty(n_samples)
    expw = np.empty(n_samples)
    for sl, inc in fbm_increments(spec, n_samples, seed):
        ends = rde.expansion_endpoints_batch(vf, a, res.gamma_bar, inc, spec.hurst,
                                             upto=1 if sanity else 2, skeleton=sk)
        phi1 = ends[1]
        logk = -0.5 * np.sum((phi1 / b) ** 2, axis=1) - np.sum(np.log(b)) \
            - 0.5 * n * np.log(2 * np.pi)
        if sanity:
            w = np.ones(len(phi1))
        else:
            w = np.exp(np.einsum("bk,k->b", ends[2], res.nu_bar))
        expw[sl] = w
        vals[sl] = w * np.exp(logk)
    est = float(np.mean(vals))
    se = _batch_se(vals)
    srt = np.sort(expw)[::-1]
    top_share = float(np.sum(srt[: max(1, n_samples // 100)]) / max(np.sum(srt), 1e-300))
    out = {
        "alpha0": est,
        "se": se,
        "bandwidth": b.tolist(),
        "n_samples": int(n_samples),
        "sanity_branch": bool(sanity),
        "heavy_tail_warning": bool(top_share > 0.5),
        "weight_top1pct_share": top_share,
    }
    if sanity:
        out["gaussian_mass_target"] = float((2 * np.pi) ** (-n / 2) / np.sqrt(detQ))
        out["kernel_mass_target"] = float(
            (2 * np.pi) ** (-n / 2) / np.sqrt(np.linalg.det(Q + np.diag(b ** 2))))
    return out
