"""Constrained Cameron-Martin energy minimization: min |gamma|^2/2 subject
to the skeleton endpoint hitting a'.

gamma is parametrized by its increment-density coordinates f (the step
function mapped through the covariance isometry), piecewise constant on
knot blocks of the solver grid; the kernel-basis coefficients of the
result follow by exact telescoping.  In these coordinates the energy Gram
is the (well-conditioned) increment Gram and the full-grid stationarity
condition reads f = A-rows' * nu, so a Newton polish on the first-order
system drives the Riesz/KKT residual to rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import malliavin
from .errors import InvalidArgumentError, NonConvergenceError, NumericalDegeneracyError
from .fgauss import CMElement, IncrementGram, cm_from_increment_density, paley_wiener, sample_fbm
from .rde import pair_gradient_with_path, skeleton_gradient, solve_skeleton, step_render


@dataclass
class MinimizerResult:
    gamma_bar: CMElement
    energy: float
    nu_bar: np.ndarray
    Q_at_min: malliavin.CovMatrix
    constraint_residual: float
    hessian_min_eig: float
    converged: bool
    unique_flag: bool = True
    riesz_residual: float = float("nan")
    energy_history: list = field(default_factory=list, repr=False)
    f_coords: np.ndarray = field(default=None, repr=False)
    spec: object = field(default=None, repr=False)
    a: np.ndarray = field(default=None, repr=False)
    a_prime: np.ndarray = field(default=None, repr=False)

    def to_dict(self):
        return {
            "energy": self.energy,
            "nu_bar": self.nu_bar.tolist(),
            "Q_at_min": self.Q_at_min.matrix.tolist(),
            "constraint_residual": self.constraint_residual,
            "hessian_min_eig": self.hessian_min_eig,
            "converged": bool(self.converged),
            "unique_flag": bool(self.unique_flag),
            "riesz_residual": self.riesz_residual,
            "gamma_knots": self.gamma_bar.knots.tolist(),
            "gamma_coeffs": self.gamma_bar.coeffs.tolist(),
        }


class _Problem:
    """Discretized constrained problem on block coordinates."""

    def __init__(self, vf, a, a_prime, spec, n_blocks):
        self.vf = vf
        self.a = np.asarray(a, float)
        self.a_prime = np.asarray(a_prime, float)
        self.spec = spec
        M = spec.M
        if M % n_blocks != 0:
            raise InvalidArgumentError("M_opt must divide the grid size")
        self.gram = IncrementGram(spec)
        self.S = np.zeros((M, n_blocks))
        w = M // n_blocks
        for j in range(n_blocks):
            self.S[j * w:(j + 1) * w, j] = 1.0
        self.G_blk = self.S.T @ self.gram.matrix @ self.S
        self.n_blocks = n_blocks
        self.d = vf.d
        self.n = vf.n

    def render(self, f_blk):
        """Grid path of gamma for block coordinates f_blk (d, K)."""
        f = f_blk @ self.S.T  # (d, M) cell densities
        gamma = cm_from_increment_density(self.spec, f)
        return gamma, f

    def energy(self, f_blk):
        return 0.5 * float(np.einsum("ij,jk,ik->", f_blk, self.G_blk, f_blk))

    def constraint(self, f_blk):
        gamma, _ = self.render(f_blk)
        sk = solve_skeleton(self.vf, self.a, gamma)
        c = sk.endpoint - self.a_prime
        A = skeleton_gradient(self.vf, sk)
        Abar = step_render(A)  # (M, n, d)
        # rows of dc/df: pair A against block basis increments (Gamma-columns
        # summed over blocks)
        pair = np.einsum("pki,pq->kiq", Abar, self.gram.matrix)
        Jc = np.einsum("kiq,qj->kij", pair, self.S).reshape(self.n, -1)
        return c, Jc, Abar, sk


def _al_minimize(problem, f0, max_outer, tol, inner_steps=3):
    """Augmented-Lagrangian outer loop with Gauss-Newton inner steps."""
    d, K = problem.d, problem.n_blocks
    G = np.kron(np.eye(d), problem.G_blk)
    z = f0.reshape(-1).copy()
    nu = np.zeros(problem.n)
    rho = 10.0
    history = []
    prev_cn = np.inf
    for outer in range(max_outer):
        for _ in range(inner_steps):
            f_blk = z.reshape(d, K)
            c, Jc_f, _, _ = problem.constraint(f_blk)
            # Jc_f columns are ordered (k; i, q(block)) with i major: reshape
            Jc = Jc_f  # (n, d*K) with component-major flattening
            grad = G @ z - Jc.T @ nu + rho * (Jc.T @ c)
            H = G + rho * (Jc.T @ Jc)
            try:
                delta = np.linalg.solve(H, -grad)
            except np.linalg.LinAlgError:
                delta = np.linalg.lstsq(H, -grad, rcond=None)[0]
            z = z + delta
            if np.linalg.norm(delta) <= 1e-14 * max(1.0, np.linalg.norm(z)):
                break
        f_blk = z.reshape(d, K)
        c, _, _, _ = problem.constraint(f_blk)
        cn = float(np.linalg.norm(c))
        # record the feasible shadow of the iterate: energy after retraction
        f_shadow = _retract(problem, f_blk, steps=2)
        c_shadow, _, _, _ = problem.constraint(f_shadow)
        history.append((problem.energy(f_shadow), float(np.linalg.norm(c_shadow))))
        nu = nu - rho * c
        if cn <= tol:
            break
        if cn > 0.25 * prev_cn:
            rho = min(rho * 10.0, 1e10)
        prev_cn = cn
    return z.reshape(d, K), nu, history


def _retract(problem, f, steps=3, tol=1e-13):
    """Gauss-Newton correction back onto the constraint manifold."""
    for _ in range(steps):
        c, Jc, _, _ = problem.constraint(f)
        if np.linalg.norm(c) <= tol:
            break
        step = np.linalg.lstsq(Jc, -c, rcond=None)[0]
        f = f + step.reshape(f.shape)
    return f


def _kkt_polish(problem_full, f_cells, nu, max_iter=25, tol=1e-11):
    """Feasible-path Newton iteration on the stationarity system f = A' nu.

    Each multiplier update is retracted back onto c(f) = 0, so recorded
    iterates are feasible and their energies decrease to the optimum.
    """
    f = _retract(problem_full, f_cells.copy())
    history = []
    prev = None
    for _ in range(max_iter):
        c, Jc, Abar, sk = problem_full.constraint(f)
        Q = np.einsum("pki,pq,qli->kl", Abar, problem_full.gram.matrix, Abar)
        rhs = np.einsum("kiq,iq->k",
                        np.einsum("pki,pq->kiq", Abar, problem_full.gram.matrix), f) - c
        try:
            nu = np.linalg.solve(Q, rhs)
        except np.linalg.LinAlgError:
            nu = np.linalg.lstsq(Q, rhs, rcond=None)[0]
        f = _retract(problem_full, np.einsum("pki,k->ip", Abar, nu))
        c_now, _, _, _ = problem_full.constraint(f)
        e_now = problem_full.energy(f)
        history.append((e_now, float(np.linalg.norm(c_now))))
        if prev is not None and abs(prev - e_now) <= 1e-15 * max(1.0, abs(e_now)):
            break
        prev = e_now
    c, Jc, Abar, sk = problem_full.constraint(f)
    Q = np.einsum("pki,pq,qli->kl", Abar, problem_full.gram.matrix, Abar)
    info = {"Abar": Abar, "Q": Q, "sk": sk, "c": c, "Jc": Jc}
    return f, nu, history, info


def minimize_energy(vf, a, a_prime, spec, M_opt=64, n_starts=5, seed=0,
                    max_outer=200, tol_constraint=1e-10, compute_hessian=True):
    """Solve min |gamma|^2_H / 2 over the bridge set { phi0_1(gamma) = a' }.

    Runs a multi-start augmented-Lagrangian phase on M_opt knot blocks,
    then a full-grid Newton-KKT polish; the multiplier of the polished
    stationary point satisfies gamma = sum_k nu_k Riesz(D phi0_1^k) to
    rounding.  The uniqueness flag goes false when two starts land in
    distinct basins of indistinguishable energy.
    """
    a = np.asarray(a, float)
    a_prime = np.asarray(a_prime, float)
    if np.allclose(a, a_prime):
        # gamma = 0 attains the energy with no multiplier: a degenerate problem,
        # not a malformed argument
        raise NumericalDegeneracyError("the bridge problem is degenerate at a == a_prime")
    problem = _Problem(vf, a, a_prime, spec, min(M_opt, spec.M))
    problem_full = (problem if problem.n_blocks == spec.M
                    else _Problem(vf, a, a_prime, spec, spec.M))
    rng = np.random.default_rng(seed)
    scale = float(np.linalg.norm(a_prime - a))
    candidates = []
    for start in range(n_starts):
        if start == 0:
            f0 = np.zeros((vf.d, problem.n_blocks))
        else:
            f0 = rng.normal(size=(vf.d, problem.n_blocks)) * scale
        try:
            f_blk, nu, hist = _al_minimize(problem, f0, max_outer, tol_constraint)
        except Exception:
            continue
        f_cells = f_blk @ problem.S.T
        f_fin, nu_fin, hist2, info = _kkt_polish(problem_full, f_cells, nu)
        energy = problem_full.energy(f_fin)
        cnorm = float(np.linalg.norm(info["c"]))
        candidates.append({
            "f": f_fin, "nu": nu_fin, "energy": energy, "cnorm": cnorm,
            "history": list(hist) + list(hist2),
            "info": info,
        })
    good = [c for c in candidates if c["cnorm"] <= 1e-8]
    if not good:
        best_res = min((c["cnorm"] for c in candidates), default=float("inf"))
        raise NonConvergenceError(
            f"no start reached feasibility (best residual {best_res:.2e})",
            residual=best_res)
    good.sort(key=lambda c: c["energy"])
    best = good[0]

    unique_flag = True
    for other in good[1:]:
        gamma_gap = float(np.max(np.abs(other["f"] - best["f"])))
        if abs(other["energy"] - best["energy"]) <= 1e-6 and gamma_gap > 1e-3:
            unique_flag = False

    gamma_bar = cm_from_increment_density(spec, best["f"])
    Abar = best["info"]["Abar"]
    Q = malliavin.CovMatrix(0.5 * (best["info"]["Q"] + best["info"]["Q"].T),
                            "deterministic")
    # Riesz/KKT residual in the H-metric: |gamma - sum nu_k g_k|_H
    diff = best["f"] - np.einsum("pki,k->ip", Abar, best["nu"])
    riesz = float(np.sqrt(max(0.0, np.einsum(
        "ip,pq,iq->", diff, problem_full.gram.matrix, diff))))

    res = MinimizerResult(
        gamma_bar=gamma_bar,
        energy=best["energy"],
        nu_bar=best["nu"],
        Q_at_min=Q,
        constraint_residual=best["cnorm"],
        hessian_min_eig=float("nan"),
        converged=True,
        unique_flag=unique_flag,
        riesz_residual=riesz,
        energy_history=best["history"],
        f_coords=best["f"],
        spec=spec,
        a=a,
        a_prime=a_prime,
    )
    if compute_hessian:
        res.hessian_min_eig = hessian_check(res, vf, n_dirs=3, seed=seed + 1)
    return res


def multiplier_identity_check(res, vf, n_samples=1000, seed=0):
    """Residuals of <gamma_bar, w> = <nu_bar, phi^1_1(w)> over sampled w."""
    if not res.converged:
        raise InvalidArgumentError("need a converged minimizer result")
    sk = solve_skeleton(vf, res.a, res.gamma_bar)
    A = skeleton_gradient(vf, sk)
    w = sample_fbm(res.spec, n_samples, seed)
    phi1 = pair_gradient_with_path(A, np.diff(w.values, axis=-2))
    lhs = paley_wiener(res.gamma_bar, w)
    resid = lhs - phi1 @ res.nu_bar
    gnorm = np.sqrt(2.0 * res.energy)
    return {
        "max_residual": float(np.max(np.abs(resid))),
        "rms_residual": float(np.sqrt(np.mean(resid ** 2))),
        "gamma_norm": float(gnorm),
        "n_samples": int(n_samples),
    }


def hessian_check(res, vf, n_dirs=8, seed=0, s0=1e-2):
    """Smallest constrained second difference of the energy at gamma_bar.

    Random unit directions in the numerical null space of the constraint
    Jacobian are retracted back to the bridge set by Gauss-Newton
    corrections; positive values support the positive-Hessian assumption.
    """
    if res.f_coords is None:
        raise InvalidArgumentError("result lacks optimizer coordinates")
    spec = res.spec
    problem = _Problem(vf, res.a, res.a_prime, spec, spec.M)
    f0 = res.f_coords
    c0, Jc, _, _ = problem.constraint(f0)
    U, S, Vt = np.linalg.svd(Jc, full_matrices=True)
    null = Vt[np.sum(S > 1e-10 * max(S[0], 1e-30)):]
    if null.shape[0] == 0:
        raise InvalidArgumentError("constraint Jacobian has no null space")
    rng = np.random.default_rng(seed)
    gram = problem.gram.matrix
    e0 = problem.energy(f0)

    def retract(f):
        for _ in range(3):
            c, Jc_l, _, _ = problem.constraint(f)
            if np.linalg.norm(c) <= 1e-12:
                break
            step = np.linalg.lstsq(Jc_l, -c, rcond=None)[0]
            f = f + step.reshape(f.shape)
        return f

    worst = np.inf
    for _ in range(n_dirs):
        coef = rng.normal(size=null.shape[0])
        h = (coef @ null).reshape(f0.shape)
        hn = np.sqrt(np.einsum("ip,pq,iq->", h, gram, h))
        if hn <= 0:
            continue
        h = h / hn
        ep = problem.energy(retract(f0 + s0 * h))
        em = problem.energy(retract(f0 - s0 * h))
        second = (ep + em - 2 * e0) / s0 ** 2
        worst = min(worst, second)
    return float(worst)
