"""The four benchmark workloads, each a fixed job built from a seed.

A job calls smalltime's public functions in the order the acceptance
criteria do, at the sizes in ``SIZES``, and records every operation
(one minimizer solve, one estimate, one pathwise computation) and every
correctness check in a :class:`Job`.  Timings of the minimizer and of the
Monte Carlo calls are taken at the benchmark's own call sites, so they need
no tracing.

Statistical tolerances come from the acceptance criteria and are scaled to
the benchmark's sample sizes by ``scaled_tol``: with a bandwidth of order
N^{-1/(n+4)} both the bias and the standard deviation of a kernel estimate
in n dimensions shrink like N^{-2/(n+4)}, so a relative tolerance fixed at
N0 samples becomes tol0 * (N0 / N)^{2/(n+4)} at N samples.  A check of an
estimate against its closed form adds ``SE_MARGIN`` standard errors of the
estimate, so that it fails on a biased estimator rather than on one unlucky
random stream: without them, over 32 streams, the fitted lognormal rate
missed its scaled bound once (0.366 against 0.359) and criterion 12's sanity
alpha0 came within 0.014 of its bound.
"""

from __future__ import annotations

import hashlib
import time
import traceback

import numpy as np

from smalltime import asymptotics, fgauss, malliavin, metrics, minimizer, models, rde
from smalltime import roughlift as rl
from smalltime.fgauss import FbmSpec

# Sizes are chosen so that one job takes 4-8 s on a 2-core machine and at least
# three jobs fit into one timed run; TINY runs every step within a few seconds
# for the harness self-check (pathwise keeps M=256: at M=128 its driver's
# level-3 Besov growth is 10.0%, where besov_norm raises DivergenceError).
SIZES = {
    "heis-alpha0": {"M": 128, "n_sanity": 16384, "n_full": 8192, "n_density": 8192},
    "lognormal-fine": {"M": 1024, "n_starts": 1, "n_density": 4096},
    "heis-kusuoka": {"M": 128, "n_q": 500},
    "pathwise": {"M_min": 128, "M_path": 256},
}
TINY = {
    "heis-alpha0": {"M": 16, "n_sanity": 512, "n_full": 256, "n_density": 256},
    "lognormal-fine": {"M": 32, "n_starts": 1, "n_density": 256},
    "heis-kusuoka": {"M": 16, "n_q": 500},
    "pathwise": {"M_min": 16, "M_path": 256},
}

CRITERION_9_SEED = 910
# An estimate is checked against its oracle within the criterion's scaled
# bound plus this many of its own batch-means standard errors.
SE_MARGIN = 3.0


def scaled_tol(tol0, n0, n, dim):
    """Relative tolerance tol0 fixed at n0 samples, carried to n samples."""
    return tol0 * max(1.0, n0 / n) ** (2.0 / (dim + 4))


def digest(*values):
    """Hash of the exact float64 bytes of the values, for bit-identity checks."""
    h = hashlib.sha256()
    for v in values:
        h.update(np.ascontiguousarray(np.asarray(v, dtype=np.float64)).tobytes())
    return h.hexdigest()


class Job:
    """Operations, checks and call-site timings of one run of a workload's job."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.checks = []  # (name, value, tolerance, ok)
        self.outputs = {}  # name -> digest of the numeric result
        self.minimize_s = 0.0
        self.mc_s = 0.0
        self.mc_paths = 0

    def op(self, name, fn, *needs, kind=None, paths=0):
        """Run one library operation; None when it raised or an input is missing."""
        self.attempted += 1
        if any(n is None for n in needs):
            self.failed += 1
            self.errors.append(f"{name}: skipped, an input operation failed")
            return None
        t0 = time.perf_counter()
        try:
            return fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{name}: {type(exc).__name__}: {exc}\n"
                               + traceback.format_exc(limit=3))
            return None
        finally:
            dt = time.perf_counter() - t0
            if kind == "minimize":
                self.minimize_s += dt
            elif kind == "mc":
                self.mc_s += dt
                self.mc_paths += paths

    def check(self, name, value, tol, ok):
        """Count one correctness check; a missing or non-finite value fails it."""
        self.attempted += 1
        if value is not None:
            value = float(value)
        ok = bool(ok) and value is not None and np.isfinite(value)
        if not ok:
            self.failed += 1
        self.checks.append((name, value, tol, ok))

    def output(self, name, *values):
        self.outputs[name] = digest(*values)


def _seeds(seed, k):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(k)]


def _minimize(job, name, model, spec, seed, n_starts, hessian=False):
    """minimize_energy with the starting-point seed of the criterion it comes from.

    The seed only places the random starts, but the iteration count follows
    the starts: with starts drawn from the benchmark seed, pathwise's
    minimize_s varied by 20% between seeds from work alone.
    """
    res = job.op(name, lambda: minimizer.minimize_energy(
        model.vf, model.a, model.a_prime, spec, M_opt=min(64, spec.M), n_starts=n_starts,
        seed=seed, compute_hessian=hessian), kind="minimize")
    if res is not None:
        job.output(name, res.energy, res.nu_bar, res.Q_at_min.matrix,
                   res.gamma_bar.coeffs, res.hessian_min_eig)
    return res


def _densities(job, model, spec, res, ts, n, seeds):
    ests = []
    for t, s in zip(ts, seeds):
        est = job.op(f"density_t{t}", lambda t=t, s=s: asymptotics.estimate_density(
            model, t, "shifted", n, spec, seed=s, minimizer_result=res),
            res, kind="mc", paths=n)
        if est is not None:
            job.output(f"density_t{t}", est.estimate, est.se)
        ests.append(est)
    return ests


def _rate_se(ests, hurst):
    """Standard error of fit_asymptotics' rate_hat, propagated from the estimates.

    rate_hat is a fixed linear map of the log-densities, whose standard
    errors are the estimates' relative standard errors.
    """
    ts = np.array([e.t for e in ests])
    rel_se = np.array([e.se / e.estimate for e in ests])
    th = ts ** (2 * hurst)
    X = np.column_stack([np.ones_like(ts), th * np.log(ts), th])
    grad = -2.0 * th * np.linalg.pinv(X)[0]
    return float(np.sqrt(np.sum((grad * rel_se) ** 2)))


def heis_alpha0(ctx, job, seed, size):
    """Criterion 12's pipeline: minimizer, alpha0 both branches, shifted densities, fit."""
    m, spec, H = ctx["model"], ctx["spec"], 0.5
    s = _seeds(seed, 5)
    res = _minimize(job, "minimize", m, spec, 1210, n_starts=2)
    n_s, n_f, n_d = size["n_sanity"], size["n_full"], size["n_density"]
    sanity = job.op("alpha0_sanity", lambda: asymptotics.leading_coefficient(
        m.vf, res, spec, n_s, seed=s[0], sanity=True), res, kind="mc", paths=n_s)
    full = job.op("alpha0_full", lambda: asymptotics.leading_coefficient(
        m.vf, res, spec, n_f, seed=s[1]), res, kind="mc", paths=n_f)
    ests = _densities(job, m, spec, res, (0.6, 0.45, 0.3), n_d, s[2:5])
    fit = job.op("fit", lambda: asymptotics.fit_asymptotics(
        ests, 2.0 * res.energy, 3, H, drift=False), res, *ests)

    rel = tol = None
    if sanity is not None:
        job.output("alpha0_sanity", sanity["alpha0"], sanity["se"])
        target = sanity["gaussian_mass_target"]
        rel = abs(sanity["alpha0"] - target) / target
        tol = scaled_tol(0.05, 1_000_000, n_s, 3) + SE_MARGIN * sanity["se"] / target
    job.check("alpha0_sanity_rel_err", rel, tol, rel is not None and rel <= tol)

    tol = max(scaled_tol(0.20, 400_000, n_f, 3), scaled_tol(0.20, 100_000, n_d, 3))
    gap = None
    if full is not None and fit is not None:
        job.output("alpha0_full", full["alpha0"], full["se"])
        job.output("fit", fit["rate_hat"], fit["alpha0_hat"], fit["prefactor_exp_hat"])
        gap = abs(full["alpha0"] - fit["alpha0_hat"]) / max(abs(fit["alpha0_hat"]), 1e-300)
    job.check("alpha0_mc_vs_fit_rel_gap", gap, tol, gap is not None and gap <= tol)


def lognormal_fine(ctx, job, seed, size):
    """Criterion 11 on a fine grid: minimizer, shifted densities, fit, against oracles."""
    m, spec, H = ctx["model"], ctx["spec"], 0.4
    s = _seeds(seed, 3)
    res = _minimize(job, "minimize", m, spec, 1110, n_starts=size["n_starts"])
    n = size["n_density"]
    ts = (0.4, 0.2, 0.1)
    ests = _densities(job, m, spec, res, ts, n, s)
    fit = job.op("fit", lambda: asymptotics.fit_asymptotics(
        ests, 2.0 * res.energy, 1, H, drift=False), res, *ests)

    for t, est in zip(ts, ests):
        rel = tol = None
        if est is not None:
            oracle = m.exact_density(t)
            rel = abs(est.estimate - oracle) / oracle
            tol = scaled_tol(0.05, 100_000, n, 1) + SE_MARGIN * est.se / oracle
        job.check(f"density_t{t}_rel_err", rel, tol, rel is not None and rel <= tol)

    rel = tol = None
    if fit is not None:
        job.output("fit", fit["rate_hat"], fit["alpha0_hat"], fit["prefactor_exp_hat"])
        rate = m.exact_rate()
        rel = abs(fit["rate_hat"] - rate) / rate
        tol = scaled_tol(0.10, 100_000, n, 1) + SE_MARGIN * _rate_se(ests, H) / rate
    job.check("rate_rel_err", rel, tol, rel is not None and rel <= tol)


def heis_kusuoka(ctx, job, seed, size):
    """Criterion 13's base half, plus the deterministic Q at the minimizer.

    The sampled Q^eps of the unshifted scaled solve give the eigenvalue-tail
    slope mu_hat; Q(gamma_bar) is the deterministic Malliavin covariance at the
    minimizer, whose non-degeneracy the expansion assumes.
    """
    m, spec, H = ctx["model"], ctx["spec"], 0.5
    epss = [2.0 ** -j for j in range(2, 6)]
    s = _seeds(seed, len(epss))
    n = size["n_q"]
    res = _minimize(job, "minimize", m, spec, 1210, n_starts=2)
    qs = []
    for eps, si in zip(epss, s):
        q = job.op(f"sample_Q_eps{eps}", lambda eps=eps, si=si: malliavin.sample_scaled_Q(
            m.vf, m.a, spec, eps, H, n, si), kind="mc", paths=n)
        if q is not None:
            job.output(f"sample_Q_eps{eps}", q)
        qs.append(q)
    tail = job.op("eigen_tail", lambda: malliavin.eigen_tail(qs, epss), *qs)

    mu = None
    if tail is not None:
        mu = tail["mu_hat"]
        job.output("eigen_tail", mu, [e["inv_mean"] for e in tail["per_eps"]])
    job.check("mu_hat_finite_nonneg", mu, 0.0, mu is not None and mu >= 0)

    worst_asym = worst_neg = None
    if all(q is not None for q in qs):
        allq = np.concatenate(qs)
        worst_asym = float(np.max(np.abs(allq - np.swapaxes(allq, -1, -2))))
        worst_neg = float(-np.min(np.linalg.eigvalsh(allq)))
    job.check("sampled_Q_symmetry_defect", worst_asym, 1e-10,
              worst_asym is not None and worst_asym <= 1e-10)
    job.check("sampled_Q_negative_eig", worst_neg, 1e-9,
              worst_neg is not None and worst_neg <= 1e-9)
    qmin = None if res is None else res.Q_at_min.min_eigenvalue
    job.check("Q_at_min_min_eig", qmin, 0.0, qmin is not None and qmin > 0)


def pathwise(ctx, job, seed, size):
    """Single-path work: criteria 6, 9, 4 and 2 and the metrics layer."""
    m = ctx["model"]
    s = _seeds(seed, 1)
    for H in (0.35, 0.5):
        spec = FbmSpec(H, 2, size["M_min"])
        res = _minimize(job, f"minimize_H{H}", m, spec, 606, n_starts=3, hessian=True)
        egap = None if res is None else abs(res.energy - 0.625)
        job.check(f"energy_gap_H{H}", egap, 1e-4, egap is not None and egap <= 1e-4)
        hmin = None if res is None else res.hessian_min_eig
        job.check(f"hessian_min_H{H}", hmin, 0.0, hmin is not None and hmin > 0)
    n_mult = 1000
    rep = job.op("multiplier_identity", lambda: minimizer.multiplier_identity_check(
        res, m.vf, n_samples=n_mult, seed=s[0]), res, kind="mc", paths=n_mult)
    rel = None if rep is None else rep["rms_residual"] / rep["gamma_norm"]
    job.check("multiplier_rms_rel", rel, 1e-3, rel is not None and rel <= 1e-3)

    # The single-path steps use criterion 9's own Heisenberg driver, not a
    # seeded one, because two of their outcomes depend on the path: over 16
    # seeded paths the k=0 remainder slope came within 0.02 of its bound, and
    # over 24 seeded paths besov_norm's refinement growth at level 3 reached
    # 7.3% of the 10% at which it raises DivergenceError (1.4% on this path).
    H = 0.5
    spec = FbmSpec(H, 2, size["M_path"])
    gamma = m.exact_gamma(spec)
    w = fgauss.sample_fbm(spec, 1, CRITERION_9_SEED).path(0)
    x = rl.lift_grid_path(w, 3)
    terms = job.op("expansion_terms", lambda: rde.expansion_terms(m.vf, m.a, gamma, x, H))
    epss = [2.0 ** -j for j in range(2, 7)]
    for k, kappa_next in ((0, 1.0), (1, 2.0)):
        sups = job.op(f"remainders_k{k}", lambda k=k: [
            float(np.max(np.linalg.norm(rde.remainder(
                m.vf, m.a, gamma, x, e, k, H, terms=terms).values, axis=-1)))
            for e in epss], terms)
        slope = None
        if sups is not None:
            job.output(f"remainders_k{k}", sups)
            slope = float(np.polyfit(np.log(epss), np.log(sups), 1)[0])
        job.check(f"remainder_slope_k{k}", slope, kappa_next - 0.15,
                  slope is not None and slope >= kappa_next - 0.15)

    # criterion 4: Young translation with refinement against the joint lift
    g = gamma.render(spec.times)
    out = job.op("young_translate", lambda: rl.young_translate(x, g, refine=4))
    gap = None
    if out is not None:
        ref = rl.lift_grid_path(w + g, 3)
        gap = max(float(np.max(np.abs(out.prefix1 - ref.prefix1))),
                  float(np.max(np.abs(out.prefix2 - ref.prefix2))),
                  float(np.max(np.abs(out.prefix3 - ref.prefix3))))
        job.output("young_translate", out.prefix3)
    job.check("translation_gap", gap, 1e-8, gap is not None and gap <= 1e-8)

    # criterion 2 and the metrics layer
    chen = job.op("chen_defect", lambda: rl.prefix_chen_defect(x))
    job.check("chen_defect", chen, 1e-10, chen is not None and chen <= 1e-10)
    glike = job.op("grouplike_defect", lambda: rl.grouplike_defect(x))
    job.check("grouplike_defect", glike, 1e-10, glike is not None and glike <= 1e-10)

    p, delta = 2.5, 0.2
    ctrl = job.op("control", lambda: metrics.ControlEvaluator(x, p))
    count = job.op("greedy_count", lambda: metrics.greedy_count(x, p, delta, control=ctrl),
                   ctrl)
    used = None if count is None else delta * count
    bound = np.nan if ctrl is None else ctrl.total()
    job.check("greedy_delta_count_vs_control", used, bound,
              used is not None and used <= bound + 1e-12)
    besov = [job.op(f"besov_level{lv}", lambda lv=lv: metrics.besov_norm(x, lv, 0.28, 12))
             for lv in (1, 2, 3)]
    if ctrl is not None and count is not None and None not in besov:
        job.output("metrics", ctrl.total(), count, besov)


WORKLOADS = {
    "heis-alpha0": heis_alpha0,
    "lognormal-fine": lognormal_fine,
    "heis-kusuoka": heis_kusuoka,
    "pathwise": pathwise,
}


def build_context(name, size):
    """Models and specs a workload needs; built during set-up."""
    if name == "lognormal-fine":
        return {"model": models.lognormal(sigma=0.5, a=1.0, a_prime=1.5, hurst=0.4),
                "spec": FbmSpec(0.4, 1, size["M"])}
    spec = FbmSpec(0.5, 2, size.get("M", 128))
    return {"model": models.heisenberg(), "spec": spec}


def warm_up():
    """Touch each layer once at a tiny size so lazy imports and caches are filled."""
    m = models.heisenberg()
    spec = FbmSpec(0.5, 2, 8)
    fgauss.IncrementGram(spec).cholesky()
    w = fgauss.sample_fbm(spec, 2, 0)
    rde.solve_skeleton(m.vf, m.a, m.exact_gamma(spec))
    rde.solve_increments(m.vf, m.a, np.diff(w.values, axis=-2), with_flows=True)
    malliavin.CovMatrix(np.eye(3)).min_eigenvalue
