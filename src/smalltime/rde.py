"""Step-N Euler solvers for RDEs with drift, flow derivatives, the skeleton
ODE, fractional Taylor-expansion terms, and remainders.

The per-cell update contracts vector-field words of length <= N with the
exact cell signatures of the driver,

    y+ = y + sum_w  W_w Id(y) * S^w,

and the Jacobi flow J is propagated by the exact derivative of that step
map, with K accumulating the per-step inverses, so J K = I holds to
rounding at every grid point.  Expansion terms phi^kappa follow the
variation-of-constants form phi_t = J_t int_0^t K_s dF_s, where dF
collects derivative contractions over ordered exponent compositions.
Stieltjes integrals use trapezoid cell sums, which are exact for the
in-cell-linear data this package produces.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import indexsets
from .errors import BlowUpError, CapabilityError, InvalidArgumentError
from .fgauss import CMElement
from .paths import GridPath, uniform_grid
from .roughlift import dilate, lift_grid_path, pair_with_time, young_translate


def _fd_derivative(fn, extra_shape, step=1e-5):
    """Central finite-difference derivative in the state argument.

    fn maps (..., n) -> (..., *extra_shape); the result appends the
    differentiation axis right after the leading output axis, matching the
    analytic tensor layout [a, b, ..., i] with b the new axis.
    """

    def deriv(y):
        y = np.asarray(y, float)
        n = y.shape[-1]
        cols = []
        for b in range(n):
            e = np.zeros(n)
            e[b] = step
            cols.append((fn(y + e) - fn(y - e)) / (2 * step))
        stacked = np.stack(cols, axis=y.ndim - 1 + 1)  # (..., a, b, rest)
        return stacked

    return deriv


class VectorFieldSystem:
    """Coefficient fields V_0..V_d with derivative tensors up to order 3.

    ``sigma(y)`` returns the n x d matrix [V_1, .., V_d](y); ``drift`` is
    V_0 or None.  Derivative tensors use the layout
    dsigma[..., a, b, i] = d_b V_i^a, d2sigma[..., a, b, c, i], and so on;
    missing analytic callbacks fall back to central differences with step
    1e-5 (nested differences for higher orders, capped at order 4).
    """

    def __init__(self, n, d, sigma, drift=None, dsigma=None, d2sigma=None,
                 d3sigma=None, ddrift=None, d2drift=None, d3drift=None,
                 fd_step=1e-5):
        self.n = n
        self.d = d
        self.sigma = sigma
        self.drift = drift
        self.drift_present = drift is not None
        self.fd_step = fd_step
        sig_chain = [sigma, dsigma, d2sigma, d3sigma]
        drf_chain = [drift, ddrift, d2drift, d3drift]
        self.analytic_order = 0
        for k in (1, 2, 3):
            if sig_chain[k] is not None and (not self.drift_present or drf_chain[k] is not None):
                self.analytic_order = k
            else:
                break
        for k in (1, 2, 3):
            if sig_chain[k] is None:
                sig_chain[k] = _fd_derivative(sig_chain[k - 1], (n, d), fd_step)
            if self.drift_present and drf_chain[k] is None:
                drf_chain[k] = _fd_derivative(drf_chain[k - 1], (n,), fd_step)
        self._dsigma = sig_chain[1:]
        self._ddrift = drf_chain[1:] if self.drift_present else [None, None, None]
        self._sigma4 = None

    def sigma_deriv(self, y, order):
        """d^order sigma at y; order 0 is sigma itself."""
        if order == 0:
            return self.sigma(y)
        if order <= 3:
            return self._dsigma[order - 1](y)
        if order == 4:
            if self._sigma4 is None:
                self._sigma4 = _fd_derivative(self._dsigma[2], (self.n,) * 3 + (self.d,),
                                              self.fd_step)
            return self._sigma4(y)
        raise CapabilityError(f"sigma derivatives above order 4 unavailable (order {order})")

    def drift_deriv(self, y, order):
        if not self.drift_present:
            raise InvalidArgumentError("no drift field present")
        if order == 0:
            return self.drift(y)
        if order <= 3:
            return self._ddrift[order - 1](y)
        raise CapabilityError(f"drift derivatives above order 3 unavailable (order {order})")

    def extended(self, y, order, with_time):
        """Extended field derivative tensors [sigma, V_0] of the given order."""
        s = self.sigma_deriv(y, order)
        if not with_time:
            return s
        if self.drift_present:
            b = self.drift_deriv(y, order)
        else:
            b = np.zeros(s.shape[:-1])
        return np.concatenate([s, b[..., None]], axis=-1)


def polynomial_fields(const, lin=None, quad=None, drift_const=None, drift_lin=None,
                      drift_quad=None):
    """Exact VectorFieldSystem for fields V_i(y) = c + A y + Q<y, y>.

    const: (n, d); lin: (n, n, d) with lin[a, b, i] = coefficient of y^b in
    V_i^a; quad: (n, n, n, d), symmetric in its two middle axes.
    """
    const = np.asarray(const, float)
    n, d = const.shape
    A = np.zeros((n, n, d)) if lin is None else np.asarray(lin, float)
    Q = None if quad is None else np.asarray(quad, float)
    if Q is not None:
        Q = 0.5 * (Q + np.swapaxes(Q, 1, 2))

    def sigma(y):
        out = const + np.einsum("abi,...b->...ai", A, y)
        if Q is not None:
            out = out + np.einsum("abci,...b,...c->...ai", Q, y, y)
        return out

    def dsigma(y):
        out = np.broadcast_to(A, y.shape[:-1] + A.shape).copy()
        if Q is not None:
            out += 2.0 * np.einsum("abci,...c->...abi", Q, y)
        return out

    def d2sigma(y):
        base = np.zeros((n, n, n, d)) if Q is None else 2.0 * Q
        return np.broadcast_to(base, y.shape[:-1] + base.shape)

    def d3sigma(y):
        return np.zeros(y.shape[:-1] + (n, n, n, n, d))

    drift = ddrift = d2drift = d3drift = None
    if drift_const is not None or drift_lin is not None or drift_quad is not None:
        c0 = np.zeros(n) if drift_const is None else np.asarray(drift_const, float)
        A0 = np.zeros((n, n)) if drift_lin is None else np.asarray(drift_lin, float)
        Q0 = None if drift_quad is None else np.asarray(drift_quad, float)
        if Q0 is not None:
            Q0 = 0.5 * (Q0 + np.swapaxes(Q0, 1, 2))

        def drift(y):
            out = c0 + np.einsum("ab,...b->...a", A0, y)
            if Q0 is not None:
                out = out + np.einsum("abc,...b,...c->...a", Q0, y, y)
            return out

        def ddrift(y):
            out = np.broadcast_to(A0, y.shape[:-1] + A0.shape).copy()
            if Q0 is not None:
                out += 2.0 * np.einsum("abc,...c->...ab", Q0, y)
            return out

        def d2drift(y):
            base = np.zeros((n, n, n)) if Q0 is None else 2.0 * Q0
            return np.broadcast_to(base, y.shape[:-1] + base.shape)

        def d3drift(y):
            return np.zeros(y.shape[:-1] + (n, n, n, n))

    return VectorFieldSystem(n, d, sigma, drift, dsigma, d2sigma, d3sigma,
                             ddrift, d2drift, d3drift)


@dataclass
class SolveResult:
    """Solution path with its Jacobi flow and inverse flow."""

    y: GridPath
    J: np.ndarray | None
    K: np.ndarray | None
    driver: object = None

    @property
    def endpoint(self):
        return self.y.values[..., -1, :]


_BLOWUP = 1e8


def _check_blowup(y, k):
    if not np.all(np.isfinite(y)) or np.max(np.abs(y)) > _BLOWUP:
        raise BlowUpError(f"state norm exceeded {_BLOWUP:.0e} at cell {k}", cell_index=k)


def _segment_step(vf, y, delta, depth, with_time, want_jac):
    """One step against the segment signature of increment delta.

    Returns (increment, step_jacobian or None).  delta: (..., D).
    """
    E = vf.extended(y, 0, with_time)
    dE = vf.extended(y, 1, with_time)
    u = np.einsum("...ai,...i->...a", E, delta)
    A = np.einsum("...abi,...i->...ab", dE, delta)
    Au = np.einsum("...ab,...b->...a", A, u)
    inc = u + 0.5 * Au
    B = C = None
    if depth >= 3 or want_jac:
        d2E = vf.extended(y, 2, with_time)
        B = np.einsum("...abci,...i->...abc", d2E, delta)
    if depth >= 3:
        Buu = np.einsum("...abc,...b,...c->...a", B, u, u)
        AAu = np.einsum("...ab,...b->...a", A, Au)
        inc = inc + (Buu + AAu) / 6.0
    if not want_jac:
        return inc, None
    n = vf.n
    eye = np.eye(n)
    M = eye + A + 0.5 * (np.einsum("...abc,...c->...ab", B, u)
                         + np.einsum("...ac,...cb->...ab", A, A))
    if depth >= 3:
        d3E = vf.extended(y, 3, with_time)
        C = np.einsum("...abcei,...i->...abce", d3E, delta)
        dBuu = (np.einsum("...apqb,...p,...q->...ab", C, u, u)
                + 2.0 * np.einsum("...apq,...pb,...q->...ab", B, A, u))
        dAAu = (np.einsum("...apb,...pq,...q->...ab", B, A, u)
                + np.einsum("...ap,...pqb,...q->...ab", A, B, u)
                + np.einsum("...ap,...pq,...qb->...ab", A, A, A))
        M = M + (dBuu + dAAu) / 6.0
    return inc, M


def _signature_step(vf, y, s1, s2, s3, with_time, want_jac):
    """One step against general cell signature levels (single path)."""
    E = vf.extended(y, 0, with_time)
    dE = vf.extended(y, 1, with_time)
    inc = np.einsum("ai,i->a", E, s1)
    G2 = np.einsum("abj,bi->aij", dE, E)
    inc += np.einsum("aij,ij->a", G2, s2)
    d2E = d3E = None
    if s3 is not None or want_jac:
        d2E = vf.extended(y, 2, with_time)
    if s3 is not None:
        T = (np.einsum("abck,cj,bi->aijk", d2E, E, E)
             + np.einsum("ack,cbj,bi->aijk", dE, dE, E))
        inc += np.einsum("aijk,ijk->a", T, s3)
    if not want_jac:
        return inc, None
    M = np.eye(vf.n) + np.einsum("abi,i->ab", dE, s1)
    dG2 = (np.einsum("acbj,ci->aijb", d2E, E)
           + np.einsum("acj,cbi->aijb", dE, dE))
    M += np.einsum("aijb,ij->ab", dG2, s2)
    if s3 is not None:
        d3E = vf.extended(y, 3, with_time)
        dT = (np.einsum("apqbk,qj,pi->aijkb", d3E, E, E)
              + np.einsum("apqk,qbj,pi->aijkb", d2E, dE, E)
              + np.einsum("apqk,qj,pbi->aijkb", d2E, E, dE)
              + np.einsum("apbk,pqj,qi->aijkb", d2E, dE, E)
              + np.einsum("apk,pqbj,qi->aijkb", dE, d2E, E)
              + np.einsum("apk,pqj,qbi->aijkb", dE, dE, dE))
        M += np.einsum("aijkb,ijk->ab", dT, s3)
    return inc, M


def solve_rde(vf, a, driver, with_flows=True, refine=1):
    """Solve dy = sum_i V_i(y) dx^i against a grid rough-path driver.

    The driver is either d-dimensional (diffusion only) or (d+1)-dimensional
    with the time coordinate last, in which case V_0 rides the time column.
    ``refine`` splits every cell geodesically before stepping (sharper
    quadrature on the same data); outputs stay on the data grid.
    """
    with_time = driver.dim == vf.d + 1
    if not with_time and driver.dim != vf.d:
        raise InvalidArgumentError(
            f"driver dim {driver.dim} incompatible with d={vf.d}")
    a = np.asarray(a, float)
    if a.shape != (vf.n,):
        raise InvalidArgumentError(f"initial state must have shape ({vf.n},)")
    from . import tensor_sig
    M = driver.n_cells
    n = vf.n
    r = int(refine)
    ys = np.empty((M + 1, n))
    ys[0] = a
    J = K = None
    if with_flows:
        J = np.empty((M + 1, n, n))
        K = np.empty((M + 1, n, n))
        J[0] = np.eye(n)
        K[0] = np.eye(n)
    for k in range(M):
        if r == 1:
            subs = [(driver.cell1[k], driver.cell2[k],
                     None if driver.cell3 is None else driver.cell3[k])]
        else:
            root = tensor_sig.sig_root(driver.cell_sig(k), r)
            subs = [(root.level1, root.level2, root.level3)] * r
        y = ys[k]
        Jk = J[k] if with_flows else None
        Kk = K[k] if with_flows else None
        for s1, s2, s3 in subs:
            inc, Mk = _signature_step(vf, y, s1, s2, s3, with_time, with_flows)
            y = y + inc
            if with_flows:
                Jk = Mk @ Jk
                Kk = Kk @ np.linalg.inv(Mk)
        ys[k + 1] = y
        _check_blowup(ys[k + 1], k)
        if with_flows:
            J[k + 1] = Jk
            K[k + 1] = Kk
    return SolveResult(GridPath(driver.times, ys), J, K, driver)


def solve_increments(vf, a, increments, times=None, depth=3, with_time=False,
                     with_flows=False, store_path=True, refine=1):
    """Batched solve against polyline drivers given by cell increments.

    increments: (..., M, D) with D = d (+1 with time last).  Exactly
    equivalent to :func:`solve_rde` on the lifted polylines, cell by cell.
    """
    inc = np.asarray(increments, float)
    r = int(refine)
    data_M = inc.shape[-2]
    if r > 1:
        inc = np.repeat(inc / r, r, axis=-2)
    batch = inc.shape[:-2]
    M = inc.shape[-2]
    n = vf.n
    y = np.broadcast_to(np.asarray(a, float), batch + (n,)).copy()
    ys = None
    if store_path:
        ys = np.empty(batch + (data_M + 1, n))
        ys[..., 0, :] = y
    J = K = Js = Ks = None
    if with_flows:
        J = np.broadcast_to(np.eye(n), batch + (n, n)).copy()
        K = J.copy()
        if store_path:
            Js = np.empty(batch + (data_M + 1, n, n))
            Ks = np.empty(batch + (data_M + 1, n, n))
            Js[..., 0, :, :] = J
            Ks[..., 0, :, :] = K
    for k in range(M):
        step, Mk = _segment_step(vf, y, inc[..., k, :], depth, with_time, with_flows)
        y = y + step
        _check_blowup(y, k)
        if with_flows:
            J = Mk @ J
            K = K @ np.linalg.inv(Mk)
        if store_path and (k + 1) % r == 0:
            ys[..., (k + 1) // r, :] = y
            if with_flows:
                Js[..., (k + 1) // r, :, :] = J
                Ks[..., (k + 1) // r, :, :] = K
    t = uniform_grid(data_M) if times is None else times
    if store_path:
        return SolveResult(GridPath(t, ys), Js, Ks, None)
    out = SolveResult(GridPath(np.array([0.0, 1.0]), np.stack(
        [np.broadcast_to(np.asarray(a, float), batch + (n,)), y], axis=-2)), None, None, None)
    out.J_end, out.K_end = J, K
    return out


def render_gamma(gamma, M=None, times=None):
    """Render a Cameron-Martin element (or pass through a GridPath)."""
    if isinstance(gamma, GridPath):
        return gamma
    if isinstance(gamma, CMElement):
        t = times if times is not None else (
            uniform_grid(M) if M is not None else gamma.spec.times)
        return gamma.render(t)
    raise InvalidArgumentError("gamma must be a CMElement or GridPath")


def solve_skeleton(vf, a, gamma, M=None):
    """Young ODE driven by gamma alone: no noise, no drift."""
    g = render_gamma(gamma, M)
    driver = lift_grid_path(g, 2)
    return solve_rde(vf, a, driver, with_flows=True)


def solve_scaled_shifted(vf, a, w, gamma, epsilon, H, refine=1, with_flows=True):
    """Solve the scaled-shifted RDE with driver (eps*w + gamma, eps^{1/H} t).

    w is a grid rough path; gamma is rendered on its grid and the Young
    translation is applied to the dilated driver.  eps = 0 reproduces the
    skeleton solve (time coefficient eps^{1/H} suppresses the drift).
    """
    eps = float(epsilon)
    if not 0.0 <= eps <= 1.0:
        raise InvalidArgumentError("epsilon must lie in [0, 1]")
    g = render_gamma(gamma, times=w.times)
    scaled = dilate(w, eps)
    if scaled.depth < 3:
        raise InvalidArgumentError("scaled-shifted solves need a depth-3 driver")
    shifted = young_translate(scaled, g, refine=refine)
    hf = indexsets.hurst_float(H)
    time_coeff = eps ** (1.0 / hf)
    if vf.drift_present:
        driver = pair_with_time(shifted, time_coeff)
    else:
        driver = shifted
    return solve_rde(vf, a, driver, with_flows=with_flows)


def solve_scaled_shifted_batch(vf, a, w_values, gamma, epsilon, H, with_flows=False,
                               store_path=False):
    """Batched scaled-shifted solve for polyline noise samples.

    w_values: (B, M+1, d) sampled paths.  For polylines the Young translation
    of the dilated lift is the lift of eps*w + gamma, so the driver reduces
    to plain increments.
    """
    eps = float(epsilon)
    g = render_gamma(gamma, M=w_values.shape[-2] - 1)
    z = eps * w_values + g.values
    inc = np.diff(z, axis=-2)
    hf = indexsets.hurst_float(H)
    if vf.drift_present:
        dt = np.diff(g.times) * eps ** (1.0 / hf)
        dt = np.broadcast_to(dt[:, None], inc.shape[:-1] + (1,))
        inc = np.concatenate([inc, dt], axis=-1)
    return solve_increments(vf, a, inc, times=g.times, depth=3,
                            with_time=vf.drift_present, with_flows=with_flows,
                            store_path=store_path)


def skeleton_gradient(vf, sk):
    """Integrand rows A(s) = J_1 K_s sigma(phi0_s) of the endpoint derivative.

    Returned at every grid point with shape (M+1, n, d); combine adjacent
    values with :func:`step_render` for Gram pairings.
    """
    if sk.J is None:
        raise InvalidArgumentError("skeleton solve must carry flows")
    J1 = sk.J[-1]
    sig = vf.sigma(sk.y.values)
    return np.einsum("kl,tlm,tmi->tki", J1, sk.K, sig)


def step_render(values, mode="avg"):
    """Cell-constant rendering of time-major grid values: trapezoid average or left endpoint."""
    if mode == "avg":
        return 0.5 * (values[:-1] + values[1:])
    if mode == "left":
        return values[:-1]
    raise InvalidArgumentError(f"unknown render mode {mode!r}")


def pair_gradient_with_path(A, path_increments):
    """Trapezoid Stieltjes pairing sum_i int A_i dh^i; exact for polyline h.

    A: (M+1, n, d) grid-point integrand, path_increments: (..., M, d).
    """
    Abar = 0.5 * (A[:-1] + A[1:])
    return np.einsum("tki,...ti->...k", Abar, path_increments)


@dataclass
class ExpansionTerms:
    """Taylor-expansion terms of the scaled-shifted solution around gamma."""

    gamma: object
    hurst: float
    exponents: list
    phis: dict
    skeleton: SolveResult = field(repr=False, default=None)

    def phi(self, value):
        for e in self.exponents:
            if abs(e.value_float - float(value)) <= 1e-9:
                return self.phis[e.key()]
        raise InvalidArgumentError(f"phi^{value} was not computed")

    def partial_sum(self, epsilon, upto_index):
        """phi^0 + sum_{j<=upto_index} eps^{kappa_j} phi^{kappa_j}."""
        total = self.phis[self.exponents[0].key()].copy()
        for e in self.exponents[1:upto_index + 1]:
            total += float(epsilon) ** e.value_float * self.phis[e.key()]
        return total


def _contract_tensor(T, vectors):
    """Contract d^k sigma/b tensors with k state vectors along the b-axes."""
    out = T
    for v in vectors:
        out = np.einsum("tab...,tb->ta...", out, v)
    return out


def expansion_terms(vf, a, gamma, x, H, kappa_max=None):
    """Expansion paths phi^kappa for kappa in Lambda_1 up to kappa_max.

    Forcing terms collect, per exponent kappa: derivative contractions of
    sigma against compositions summing to kappa-1 (dx terms) and kappa
    (dh terms, at least two factors), and of the drift against
    compositions summing to kappa - 1/H (dt terms); empty compositions
    contribute the bare sigma(phi0) dx and V_0(phi0) dt forcings.
    """
    h_exact = indexsets.parse_hurst(H)
    hf = indexsets.hurst_float(H)
    if kappa_max is None:
        kappa_max = min(4.0, 1.0 + 1.0 / hf)
    g = render_gamma(gamma, times=x.times)
    sk = solve_skeleton(vf, a, g)
    times = x.times
    M = x.n_cells
    n = vf.n

    exps = indexsets.enumerate_exponents(h_exact, "L1", float(kappa_max) + 1e-9)
    parts = [e for e in exps if e.value_float > 0]
    one = indexsets.Exponent(1, 0, h_exact)
    inv_h = indexsets.Exponent(0, 1, h_exact)

    phi0 = sk.y.values
    phis = {exps[0].key(): phi0}
    J, K = sk.J, sk.K
    dx = np.diff(x.prefix1, axis=0)
    dg = g.increments()
    dt = np.diff(times)

    # worst-case derivative order appearing in any composition
    def max_parts(target):
        return 0 if target is None else int(np.floor(target.value_float + 1e-9))

    sig_cache = {}
    drf_cache = {}

    def sig_d(order):
        if order not in sig_cache:
            if order > 4:
                raise CapabilityError(f"kappa requires sigma derivatives of order {order}")
            sig_cache[order] = vf.sigma_deriv(phi0, order)
        return sig_cache[order]

    def drf_d(order):
        if order not in drf_cache:
            if order > 4:
                raise CapabilityError(f"kappa requires drift derivatives of order {order}")
            drf_cache[order] = vf.drift_deriv(phi0, order)
        return drf_cache[order]

    factorial = [1.0, 1.0, 2.0, 6.0, 24.0]

    for e in exps[1:]:
        # dx forcing: compositions of kappa - 1 (k >= 0)
        Tx = np.zeros((M + 1, n, vf.d))
        tgt = e - one
        if tgt.value_float >= -1e-9:
            for comp in indexsets.ordered_compositions(tgt, parts):
                if any(c.key() not in phis for c in comp):
                    continue
                k = len(comp)
                contrib = _contract_tensor(sig_d(k), [phis[c.key()] for c in comp])
                Tx += contrib / factorial[k]
        # dh forcing: compositions of kappa with k >= 2
        Th = np.zeros((M + 1, n, vf.d))
        for comp in indexsets.ordered_compositions(e, parts):
            if len(comp) < 2 or any(c.key() not in phis for c in comp):
                continue
            k = len(comp)
            Th += _contract_tensor(sig_d(k), [phis[c.key()] for c in comp]) / factorial[k]
        # dt forcing: compositions of kappa - 1/H (k >= 0), drift only
        Tt = np.zeros((M + 1, n))
        if vf.drift_present:
            tgt_t = e - inv_h
            if tgt_t.value_float >= -1e-9:
                for comp in indexsets.ordered_compositions(tgt_t, parts):
                    if any(c.key() not in phis for c in comp):
                        continue
                    k = len(comp)
                    Tt += _contract_tensor(drf_d(k), [phis[c.key()] for c in comp]) / factorial[k]

        KTx = np.einsum("tkl,tli->tki", K, Tx)
        KTh = np.einsum("tkl,tli->tki", K, Th)
        KTt = np.einsum("tkl,tl->tk", K, Tt)
        integral = np.zeros((M + 1, n))
        incr = (
            np.einsum("tki,ti->tk", 0.5 * (KTx[:-1] + KTx[1:]), dx)
            + np.einsum("tki,ti->tk", 0.5 * (KTh[:-1] + KTh[1:]), dg)
            + 0.5 * (KTt[:-1] + KTt[1:]) * dt[:, None]
        )
        np.cumsum(incr, axis=0, out=integral[1:])
        phis[e.key()] = np.einsum("tkl,tl->tk", J, integral)

    return ExpansionTerms(g, hf, exps, phis, sk)


_ROW_BLOCK = 1024  # paths per block of the quadratic-form evaluation


def _endpoint_forms(vf, sk, g, hf, upto):
    """Endpoint forms in the flat increments x (length M*d) of one path.

    Returns (B, S, c) with phi^1_1 = B x and phi^2_1[k] = x^T S_k x + c_k;
    S and c are None for upto=1.  Phi[p] = J_p sum_{q<p} KSbar_q e_q maps x
    to phi^1 at grid point p, and B = Phi[M].  S collects the KD1 trapezoid
    term (Phi against dx_p) and the KD2 dg term, grouped by grid point as
    Phi_p^T W_p Phi_p with W_p = KD2_p (dg_p + dg_{p-1}) / 4; it is
    symmetrised before J_1 is folded in.  c is the drift constant.
    """
    J, K = sk.J, sk.K
    phi0 = sk.y.values
    n, d = vf.n, vf.d
    M = phi0.shape[0] - 1
    KS = K @ vf.sigma(phi0)
    KSflat = (0.5 * (KS[:-1] + KS[1:])).transpose(1, 0, 2).reshape(n, M * d)
    B = J[-1] @ KSflat
    if upto == 1:
        return B, None, None

    cell = np.repeat(np.arange(M), d)
    Phi = (J @ KSflat) * (cell < np.arange(M + 1)[:, None])[:, None, :]  # (M+1, n, Md)
    KD1 = (K @ vf.sigma_deriv(phi0, 1).reshape(M + 1, n, n * d)).reshape(M + 1, n, n, d)
    V = KD1.transpose(0, 1, 3, 2).reshape(M + 1, n * d, n) @ Phi  # rows (k, i)
    S = (0.5 * (V[:-1] + V[1:])).reshape(M, n, d, M * d).transpose(1, 0, 2, 3)
    S = S.reshape(n, M * d, M * d)

    dg = g.increments()
    dg_sum = np.zeros((M + 1, d))
    dg_sum[:-1] += dg
    dg_sum[1:] += dg
    D2 = vf.sigma_deriv(phi0, 2).reshape(M + 1, n ** 3, d) @ dg_sum[:, :, None]
    W = 0.25 * (K @ D2.reshape(M + 1, n, n * n))  # W[p, k, (b, c)]
    WPhi = (W.reshape(M + 1, n * n, n) @ Phi).reshape(M + 1, n, n, M * d)
    WPhi = WPhi.transpose(1, 0, 2, 3).reshape(n, (M + 1) * n, M * d)
    S += Phi.reshape((M + 1) * n, M * d).T @ WPhi
    S = 0.5 * (S + S.transpose(0, 2, 1))
    S = (J[-1] @ S.reshape(n, -1)).reshape(n, M * d, M * d)

    c = np.zeros(n)
    if vf.drift_present and abs(1.0 / hf - 2.0) <= 1e-9:
        Kb = (K @ vf.drift_deriv(phi0, 0)[..., None])[..., 0]
        c = J[-1] @ np.sum(0.5 * (Kb[:-1] + Kb[1:]) * np.diff(g.times)[:, None], axis=0)
    return B, S, c


def expansion_endpoints_batch(vf, a, gamma, w_increments, H, upto=2, skeleton=None):
    """Endpoint values phi^1_1 (and phi^2_1) for a batch of noise paths.

    phi^1_1 is linear and each component of phi^2_1 is a quadratic form
    plus a constant in the flat grid increments x of a path, so the
    variation-of-constants recursions collapse to forms built once per
    call from the skeleton (:func:`_endpoint_forms`): phi^1 = x B^T and
    phi^2_k = rowsum((x S_k) * x) + c_k, evaluated in blocks of 1024 paths
    so the (paths, M*d) temporaries stay small.  S takes n (M d)^2 8 bytes:
    1.5 MB for the Heisenberg system at M=128, but 400 MB at n=3, d=1,
    M=4096 (no CLI command calls this; ``leading_coefficient`` does).
    Only the integer exponents 1 and 2 are supported here (all the Monte
    Carlo estimators need); use :func:`expansion_terms` for full
    fractional sets.
    """
    if upto not in (1, 2):
        raise InvalidArgumentError("upto must be 1 or 2")
    hf = indexsets.hurst_float(H)
    w_inc = np.asarray(w_increments, float)
    n_paths, M = w_inc.shape[:2]
    g = render_gamma(gamma, M=M)
    sk = skeleton if skeleton is not None else solve_skeleton(vf, a, g)
    B, S, c = _endpoint_forms(vf, sk, g, hf, upto)
    x = w_inc.reshape(n_paths, -1)
    phi1 = x @ B.T
    if upto == 1:
        return {1: phi1}
    phi2 = np.empty_like(phi1)
    for lo in range(0, n_paths, _ROW_BLOCK):
        xb = x[lo:lo + _ROW_BLOCK]
        for k in range(vf.n):
            phi2[lo:lo + _ROW_BLOCK, k] = np.einsum("bj,bj->b", xb @ S[k], xb)
    return {1: phi1, 2: phi2 + c}


def remainder(vf, a, gamma, x, epsilon, k, H, terms=None):
    """r^{kappa_{k+1}}_eps = y~eps - (phi^0 + ... + eps^{kappa_k} phi^{kappa_k})."""
    if terms is None:
        terms = expansion_terms(vf, a, gamma, x, H)
    if k >= len(terms.exponents):
        raise InvalidArgumentError("k exceeds computed expansion terms")
    tilde = solve_scaled_shifted(vf, a, x, terms.gamma, epsilon, H, with_flows=False)
    partial = terms.partial_sum(epsilon, k)
    return GridPath(x.times, tilde.y.values - partial)
