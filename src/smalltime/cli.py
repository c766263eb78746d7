"""Batch command-line front-end.

Every subcommand writes its numeric artifacts (CSV/JSON) plus a manifest
into the output directory.  Runs with the same configuration and seed are
bit-identical; the worker-count flag is recorded in the manifest but by
construction never enters any computation.

Exit codes: 0 success, 2 configuration error, 3 numeric failure,
4 verification failures present.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__, asymptotics, fgauss, malliavin, minimizer, models, rde
from . import roughlift as rl
from .errors import ConfigError, InvalidArgumentError, NumericalDegeneracyError, SmalltimeError
from .fgauss import FbmSpec
from .indexsets import SET_NAMES, enumerate_exponents, format_exponent, parse_hurst
from .paths import to_csv

_SUBCOMMANDS = ("simulate-fbm", "lift", "solve", "skeleton", "expand", "minimize",
                "covariance", "hormander", "indices", "density", "asymptotics",
                "verify")


def _add_common(p):
    p.add_argument("--hurst", default="1/2", help="Hurst parameter, 'p/q' or decimal")
    p.add_argument("--grid", type=int, default=256, help="grid size M (power of two)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1,
                   help="parallelism hint; results are independent of it")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--config", default=None, help="flat key = value config file")


def _add_model(p):
    p.add_argument("--model", default="heisenberg",
                   choices=["heisenberg", "lognormal", "bridge1d", "file"])
    p.add_argument("--model-file", default=None, help="JSON file for --model file")
    p.add_argument("--sigma", type=float, default=0.5, help="lognormal volatility")
    p.add_argument("--start", default=None, help="comma-separated start point a")
    p.add_argument("--target", default=None, help="comma-separated target a'")


def build_parser():
    ap = argparse.ArgumentParser(prog="smalltime",
                                 description="small-time density asymptotics toolkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("indices", help="enumerate expansion exponent sets")
    _add_common(p)
    p.add_argument("--set", dest="which", default="L1", choices=list(SET_NAMES))
    p.add_argument("--cutoff", type=float, default=4.0)

    p = sub.add_parser("simulate-fbm", help="sample fBm paths to CSV")
    _add_common(p)
    p.add_argument("--dim", type=int, default=1)
    p.add_argument("--paths", type=int, default=10)

    p = sub.add_parser("lift", help="lift one sampled path to a rough path")
    _add_common(p)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--depth", type=int, default=3)

    p = sub.add_parser("solve", help="solve the RDE along one sampled driver")
    _add_common(p)
    _add_model(p)
    p.add_argument("--eps", type=float, default=1.0)

    p = sub.add_parser("skeleton", help="solve the skeleton ODE at the minimizer")
    _add_common(p)
    _add_model(p)

    p = sub.add_parser("expand", help="expansion terms along one sampled driver")
    _add_common(p)
    _add_model(p)
    p.add_argument("--kappa-max", type=float, default=None)

    p = sub.add_parser("minimize", help="bridge energy minimization")
    _add_common(p)
    _add_model(p)
    p.add_argument("--knots", type=int, default=64, help="optimizer knot blocks")
    p.add_argument("--starts", type=int, default=5)

    p = sub.add_parser("covariance", help="Malliavin covariance at the minimizer")
    _add_common(p)
    _add_model(p)
    p.add_argument("--eps", type=float, default=0.5)
    p.add_argument("--tail-eps", default=None,
                   help="comma-separated eps grid for an eigenvalue-tail report")
    p.add_argument("--tail-samples", type=int, default=500)

    p = sub.add_parser("hormander", help="bracket-generated ranks at a point")
    _add_common(p)
    _add_model(p)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--point", default=None, help="comma-separated evaluation point")

    p = sub.add_parser("density", help="Monte Carlo density estimate")
    _add_common(p)
    _add_model(p)
    p.add_argument("--t", type=float, default=0.5)
    p.add_argument("--method", default="shifted", choices=["plain", "shifted"])
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--bandwidth", type=float, default=None)

    p = sub.add_parser("asymptotics", help="density estimates over a t-grid plus fits")
    _add_common(p)
    _add_model(p)
    p.add_argument("--t-grid", default="0.4,0.2,0.1")
    p.add_argument("--samples", type=int, default=100_000)

    p = sub.add_parser("verify", help="run the acceptance-criteria suite")
    _add_common(p)
    p.add_argument("--suite", default="fast", choices=["fast", "full"])
    return ap


def _apply_config_file(args, argv):
    """Merge `key = value` lines under explicitly passed flags."""
    if not args.config:
        return args
    path = Path(args.config)
    if not path.exists():
        raise ConfigError(f"config file {path} not found")
    passed = {a.split("=")[0].lstrip("-").replace("-", "_")
              for a in argv if a.startswith("--")}
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, val = (s.strip() for s in line.split("=", 1))
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if attr in passed:
            continue
        current = getattr(args, attr)
        if isinstance(current, bool):
            val = val.lower() in ("1", "true", "yes")
        elif isinstance(current, int):
            val = int(val)
        elif isinstance(current, float):
            val = float(val)
        setattr(args, attr, val)
    return args


def _validate(args):
    h = float(parse_hurst(args.hurst))
    if not 0.25 < h <= 0.5:
        raise ConfigError(f"hurst must be in (1/4, 1/2], got {args.hurst}")
    M = args.grid
    if M < 32 or M > 4096 or (M & (M - 1)) != 0:
        raise ConfigError(f"grid must be a power of two in [32, 4096], got {M}")
    if args.command in ("density", "asymptotics"):
        ts = [args.t] if args.command == "density" else _parse_vec(args.t_grid)
        if not all(0.0 < t <= 1.0 for t in ts):
            raise ConfigError("every t must lie in (0, 1]")
        if args.samples < asymptotics.N_BATCHES:
            raise ConfigError(f"--samples must be at least {asymptotics.N_BATCHES}")


def _parse_vec(text, n=None):
    try:
        vals = np.array([float(x) for x in text.split(",")])
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers: {exc}") from exc
    if n is not None and vals.shape[0] != n:
        raise ConfigError(f"expected {n} components, got {vals.shape[0]}")
    return vals


def _build_model(args):
    name = args.model
    h = float(parse_hurst(args.hurst))
    if name == "file":
        if not args.model_file:
            raise ConfigError("--model file needs --model-file")
        m = models.from_file(args.model_file)
    elif name == "lognormal":
        kw = {"sigma": args.sigma, "hurst": h}
        if args.start:
            kw["a"] = float(args.start)
        if args.target:
            kw["a_prime"] = float(args.target)
        m = models.lognormal(**kw)
    elif name == "bridge1d":
        kw = {"hurst": h}
        if args.start:
            kw["a"] = float(args.start)
        if args.target:
            kw["a_prime"] = float(args.target)
        m = models.bridge1d(**kw)
    else:
        kw = {}
        if args.start:
            kw["a"] = tuple(_parse_vec(args.start, 3))
        if args.target:
            kw["a_prime"] = tuple(_parse_vec(args.target, 3))
        m = models.heisenberg(**kw)
    return m


def _spec(args, dim):
    return FbmSpec(parse_hurst(args.hurst), dim, args.grid)


def _out_dir(args):
    out = Path(args.out) if args.out else Path(f"out_{args.command}")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _dump_json(path, payload):
    """Strict JSON: a NaN or infinity in the payload is a numeric failure."""
    try:
        text = json.dumps(payload, allow_nan=False, indent=2, sort_keys=True)
    except ValueError as exc:
        raise NumericalDegeneracyError(f"non-finite value in {path.name}: {exc}") from exc
    path.write_text(text + "\n")


def _manifest(out, args, t0):
    cfg = {k: v for k, v in sorted(vars(args).items()) if k != "config"}
    _dump_json(out / "manifest.json", {
        "command": args.command,
        "config": {k: (str(v) if isinstance(v, Fraction) else v) for k, v in cfg.items()},
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "wall_time_s": round(time.perf_counter() - t0, 3),
    })


def _cmd_indices(args, out):
    exps = enumerate_exponents(parse_hurst(args.hurst), args.which, args.cutoff)
    line = ",".join(format_exponent(e) for e in exps)
    print(line)
    (out / "indices.csv").write_text(line + "\n")
    return 0


def _cmd_simulate_fbm(args, out):
    spec = _spec(args, args.dim)
    w = fgauss.sample_fbm(spec, args.paths, args.seed)
    with open(out / "fbm.csv", "w") as fh:
        to_csv(w, fh)
    return 0


def _cmd_lift(args, out):
    spec = _spec(args, args.dim)
    w = fgauss.sample_fbm(spec, 1, args.seed).path(0)
    lifted = rl.lift_grid_path(w, args.depth)
    cols = [lifted.times, lifted.prefix1.reshape(len(lifted.times), -1),
            lifted.prefix2.reshape(len(lifted.times), -1)]
    if lifted.prefix3 is not None:
        cols.append(lifted.prefix3.reshape(len(lifted.times), -1))
    data = np.column_stack(cols)
    np.savetxt(out / "lift.csv", data, delimiter=",", fmt="%.17g")
    _dump_json(out / "lift.json", {
        "chen_defect": rl.prefix_chen_defect(lifted),
        "grouplike_defect": rl.grouplike_defect(lifted),
        "depth": args.depth,
    })
    return 0


def _cmd_solve(args, out):
    m = _build_model(args)
    spec = _spec(args, m.d)
    w = fgauss.sample_fbm(spec, 1, args.seed).path(0)
    lift = rl.lift_grid_path(w, 3)
    gamma = fgauss.cm_element_zero(spec)
    res = rde.solve_scaled_shifted(m.vf, m.a, lift, gamma, args.eps, spec.hurst)
    with open(out / "solution.csv", "w") as fh:
        to_csv(res.y, fh)
    jk = np.einsum("tij,tjk->tik", res.J, res.K)
    _dump_json(out / "solve.json", {
        "endpoint": res.endpoint.tolist(),
        "jk_identity_dev": float(np.max(np.abs(jk - np.eye(m.n)))),
        "eps": args.eps,
    })
    return 0


def _minimize(args, m, spec):
    return minimizer.minimize_energy(
        m.vf, m.a, m.a_prime, spec, M_opt=getattr(args, "knots", 64),
        n_starts=getattr(args, "starts", 5), seed=args.seed)


def _cmd_skeleton(args, out):
    m = _build_model(args)
    spec = _spec(args, m.d)
    res = _minimize(args, m, spec)
    sk = rde.solve_skeleton(m.vf, m.a, res.gamma_bar)
    with open(out / "skeleton.csv", "w") as fh:
        to_csv(sk.y, fh)
    _dump_json(out / "skeleton.json", {
        "endpoint": sk.endpoint.tolist(), "target": m.a_prime.tolist(),
        "energy": res.energy,
    })
    return 0


def _cmd_expand(args, out):
    m = _build_model(args)
    spec = _spec(args, m.d)
    w = fgauss.sample_fbm(spec, 1, args.seed).path(0)
    x = rl.lift_grid_path(w, 3)
    gamma = m.exact_gamma(spec)
    if gamma is None:
        gamma = _minimize(args, m, spec).gamma_bar
    terms = rde.expansion_terms(m.vf, m.a, gamma, x, spec.hurst,
                                kappa_max=args.kappa_max)
    header = ["t"]
    cols = [x.times]
    for e in terms.exponents:
        phi = terms.phis[e.key()]
        for comp in range(m.n):
            header.append(f"phi{format_exponent(e)}_{comp + 1}")
            cols.append(phi[:, comp])
    np.savetxt(out / "expansion.csv", np.column_stack(cols), delimiter=",",
               fmt="%.17g", header=",".join(header), comments="")
    return 0


def _cmd_minimize(args, out):
    m = _build_model(args)
    spec = _spec(args, m.d)
    res = _minimize(args, m, spec)
    payload = res.to_dict()
    rep = minimizer.multiplier_identity_check(res, m.vf, n_samples=1000,
                                              seed=args.seed + 1)
    payload["multiplier_identity"] = rep
    _dump_json(out / "minimize.json", payload)
    print(f"energy = {res.energy:.12g}  constraint = {res.constraint_residual:.3e}")
    return 0


def _cmd_covariance(args, out):
    m = _build_model(args)
    spec = _spec(args, m.d)
    res = _minimize(args, m, spec)
    sk = rde.solve_skeleton(m.vf, m.a, res.gamma_bar)
    A = rde.skeleton_gradient(m.vf, sk)
    q = malliavin.malliavin_Q(A, spec)
    w = rl.lift_grid_path(fgauss.sample_fbm(spec, 1, args.seed).path(0), 3)
    sol = rde.solve_scaled_shifted(m.vf, m.a, w, res.gamma_bar, args.eps, spec.hurst)
    c = malliavin.reduced_cov_C(sol, m.vf.sigma, epsilon=args.eps)
    _dump_json(out / "covariance.json", {
        "Q": q.matrix.tolist(),
        "Q_min_eigenvalue": q.min_eigenvalue,
        "reduced_C_sample": c.matrix.tolist(),
        "eps": args.eps,
    })
    if args.tail_eps:
        epss = [float(x) for x in args.tail_eps.split(",")]
        samples = [
            malliavin.sample_scaled_Q(m.vf, m.a, spec, e, spec.hurst,
                                      args.tail_samples, seed=args.seed + i)
            for i, e in enumerate(epss)
        ]
        _dump_json(out / "eigen_tail.json", malliavin.eigen_tail(samples, epss))
    return 0


def _cmd_hormander(args, out):
    m = _build_model(args)
    point = _parse_vec(args.point, m.n) if args.point else m.a
    ranks, total = malliavin.hormander_rank(m.vf, point, max_depth=args.depth)
    payload = {"ranks_per_depth": list(ranks), "total_rank": total,
               "state_dim": m.n, "spans": total == m.n}
    _dump_json(out / "hormander.json", payload)
    print(json.dumps(payload, allow_nan=False))
    return 0


def _cmd_density(args, out):
    m = _build_model(args)
    spec = _spec(args, m.d)
    mres = None
    if args.method == "shifted":
        mres = _minimize(args, m, spec)
    est = asymptotics.estimate_density(m, args.t, args.method, args.samples, spec,
                                       seed=args.seed, bandwidth=args.bandwidth,
                                       minimizer_result=mres)
    payload = est.to_dict()
    oracle = m.exact_density(args.t)
    if oracle is not None:
        payload["oracle"] = float(oracle)
        payload["rel_err_vs_oracle"] = abs(est.estimate - oracle) / oracle
    _dump_json(out / "density.json", payload)
    print(json.dumps(payload, allow_nan=False))
    return 0


def _cmd_asymptotics(args, out):
    m = _build_model(args)
    spec = _spec(args, m.d)
    mres = _minimize(args, m, spec)
    ts = [float(x) for x in args.t_grid.split(",")]
    ests = [
        asymptotics.estimate_density(m, t, "shifted", args.samples, spec,
                                     seed=args.seed + i, minimizer_result=mres)
        for i, t in enumerate(ts)
    ]
    rep = asymptotics.fit_asymptotics(ests, 2.0 * mres.energy, m.n, spec.hurst,
                                      drift=m.vf.drift_present)
    rows = np.array([[e.t, e.estimate, e.se] for e in ests])
    np.savetxt(out / "density_grid.csv", rows, delimiter=",", fmt="%.17g",
               header="t,estimate,se", comments="")
    _dump_json(out / "asymptotics.json", {"fit": rep, "energy": mres.energy})
    print(json.dumps(rep, allow_nan=False))
    return 0


def _cmd_verify(args, out):
    from . import acceptance

    results = acceptance.run_suite(args.suite, printer=print)
    _dump_json(out / "verify.json", {
        "suite": args.suite,
        "results": [r.to_dict() for r in results],
        "all_passed": all(r.passed for r in results),
    })
    return 0 if all(r.passed for r in results) else 4


_HANDLERS = {
    "indices": _cmd_indices,
    "simulate-fbm": _cmd_simulate_fbm,
    "lift": _cmd_lift,
    "solve": _cmd_solve,
    "skeleton": _cmd_skeleton,
    "expand": _cmd_expand,
    "minimize": _cmd_minimize,
    "covariance": _cmd_covariance,
    "hormander": _cmd_hormander,
    "density": _cmd_density,
    "asymptotics": _cmd_asymptotics,
    "verify": _cmd_verify,
}


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        args = _apply_config_file(args, argv)
        _validate(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    out = _out_dir(args)
    try:
        rc = _HANDLERS[args.command](args, out)
        _manifest(out, args, t0)
    except (ConfigError, InvalidArgumentError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SmalltimeError as exc:
        print(f"[{args.command}] numeric failure: {exc}", file=sys.stderr)
        return 3
    return rc


if __name__ == "__main__":
    sys.exit(main())
