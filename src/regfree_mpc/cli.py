"""Command-line front end: analyze, solve, simulate."""

import argparse
import math
import os
import sys

from . import config as cfg
from .errors import ConfigError, NumericalError, RegfreeMpcError
from .linear_analysis import analyze_linear
from .mpc import MpcController, assemble, solve
from .simulation import atomic_write, metrics, run


def format_analysis(rep):
    out = []
    out.append("linear analysis report")
    out.append(f"  period T = {rep.T}, horizon N = {rep.N}")
    out.append("")
    out.append(f"regulator_residual_dynamics={rep.residual_dynamics:.6g}")
    out.append(f"regulator_residual_output={rep.residual_output:.6g}")
    out.append(f"pbh_detectable={str(rep.detectable).lower()}")
    out.append(f"pbh_stabilizable={str(rep.stabilizable).lower()}")
    for e in rep.nonres.entries:
        out.append(
            f"nonresonance_k={e.k} lambda={e.lam.real:.6g}{e.lam.imag:+.6g}j "
            f"min_sv={e.smin:.6g} pass={str(e.passed).lower()}")
    out.append(f"nonresonance_pass={str(rep.nonres.passed).lower()}")
    out.append(f"augmented_detectable={str(rep.augmented_detectable).lower()}")
    out.append(f"augmented_predicted={str(rep.augmented_predicted).lower()}")
    b = rep.bounds
    out.append(f"epsilon_o={b.epsilon_o:.6g}")
    out.append(f"gamma_s={b.gamma_s:.6g}")
    out.append(f"gamma_Ybar={b.gamma_s:.6g}")
    out.append(f"N_1={b.N_1:.6g}")
    out.append(f"alpha_N={b.alpha_N:.6g}")
    if b.nu is not None:
        out.append(f"nu={b.nu}")
        out.append(f"c_o={b.c_o:.6g}")
        out.append(f"alpha_Ns={b.alpha_Ns:.6g}")
        out.append(f"N_Ybar_s={b.N_Ybar_s:.6g}")
    if rep.relative_degree is not None:
        out.append(f"relative_degree={rep.relative_degree}")
        zs = " ".join(f"{z.real:.6g}{z.imag:+.6g}j" for z in rep.zeros)
        out.append(f"transmission_zeros={zs if zs else 'none'}")
        out.append(f"minimum_phase={str(rep.minimum_phase).lower()}")
    return "\n".join(out) + "\n"


def cmd_analyze(args):
    spec = cfg.parse_config(cfg.read_config_file(args.config))
    if not isinstance(spec, cfg.AnalysisSpec):
        raise ConfigError("analyze needs a config with an [analyze] section")
    rep = analyze_linear(spec.system, spec.T, spec.N, spec.Q, spec.R, gamma_s=spec.gamma_s)
    text = format_analysis(rep)
    if args.out:
        atomic_write(args.out, text)
    sys.stdout.write(text)
    return 0


def cmd_solve(args):
    spec = cfg.parse_config(cfg.read_config_file(args.config))
    if isinstance(spec, cfg.AnalysisSpec):
        raise ConfigError("solve needs a scenario config with a [sim] section")
    memory = MpcController(spec.model, spec.mpc, initial_input=spec.u_init).memory
    ocp = assemble(spec.model, spec.mpc, spec.x0, spec.w0,
                   memory=memory, regulator=spec.regulator)
    sol = solve(ocp)
    lines = [f"value={sol.value:.12g}",
             f"iterations={sol.iterations}",
             f"converged={str(sol.converged).lower()}",
             f"kkt_residual={sol.kkt_residual:.6g}"]
    for k, u in enumerate(sol.u_opt):
        lines.append(f"u_{k}=" + " ".join(f"{v:.12g}" for v in u))
    text = "\n".join(lines) + "\n"
    if args.out:
        atomic_write(args.out, text)
    sys.stdout.write(text)
    return 0


def _failures(trace):
    """'k of K solves failed, first at t=j', or '' when every solve succeeded."""
    k = sum(map(math.isnan, trace.value))
    return f"{k} of {trace.steps} solves failed, first at t={trace.failed_at}" if k else ""


def _simulate_one(spec, out_path, verbose):
    trace = run(spec)
    if out_path:
        trace.write_csv(out_path)
        if verbose:
            sys.stderr.write(f"trace written to {out_path}\n")
    else:
        sys.stdout.write(trace.to_csv())
    failures = _failures(trace)
    if failures:
        sys.stderr.write(failures + "\n")
    if verbose:
        rep = metrics(trace, spec)
        sys.stderr.write(
            f"seed={spec.seed} sup|y|={rep.sup_output:.6g} "
            f"second_half={rep.sup_output_second_half:.6g} "
            f"violation={rep.max_constraint_violation:.3g}\n")


def _seeded_out(path, seed):
    stem, ext = os.path.splitext(path)
    return f"{stem}_seed{seed}{ext or '.csv'}"


def _seed_range(seed_arg):
    """Seeds of a sweep a:b, i.e. range(a, b); an empty or malformed range is an error."""
    try:
        a, b = (int(tok) for tok in seed_arg.split(":"))
    except ValueError:
        raise ConfigError(f"seed sweep must be a:b with integers a < b, got {seed_arg!r}") from None
    if b <= a:
        raise ConfigError(f"seed sweep {seed_arg!r} is empty; it needs a < b")
    return range(a, b)


def _run_sweep_entry(packed):
    text, seed, out_path = packed
    spec = cfg.parse_config(text, seed_override=seed)
    trace = run(spec)
    trace.write_csv(out_path)
    return seed, _failures(trace)


def cmd_simulate(args):
    text = cfg.read_config_file(args.config)
    sweep = isinstance(args.seed, str)
    if sweep:
        seeds = _seed_range(args.seed)
        if args.out is None:
            raise ConfigError("seed sweeps need --out for the per-seed trace files")
    # parsed once before any run (a sweep with its first seed), so a refused value writes nothing
    spec = cfg.parse_config(text, seed_override=seeds[0] if sweep else args.seed)
    if isinstance(spec, cfg.AnalysisSpec):
        raise ConfigError("simulate needs a scenario config with a [sim] section")
    if not sweep:
        _simulate_one(spec, args.out, args.verbose)
        return 0
    jobs = max(1, min(args.jobs, len(seeds)))
    work = [(text, s, _seeded_out(args.out, s)) for s in seeds]
    if jobs == 1:
        results = [_run_sweep_entry(wk) for wk in work]
    else:
        import multiprocessing as mp
        with mp.Pool(jobs) as pool:
            results = pool.map(_run_sweep_entry, work)
    for seed, failures in results:
        if failures or args.verbose:
            sys.stderr.write(f"seed {seed}: {failures or 'ok'}\n")
    return 0


def _seed_arg(text):
    """--seed value: an integer, or a sweep a:b kept as text for `_seed_range`."""
    if ":" in text:
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("must be an integer, or a:b for a sweep") from None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="regfree-mpc",
        description="Output-regulation MPC: linear certificates, OCP solves, closed-loop simulation.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("analyze", cmd_analyze), ("solve", cmd_solve), ("simulate", cmd_simulate)):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True,
                        help="config file path or shipped preset name")
        sp.add_argument("--out", default=None, help="output file (written atomically)")
        sp.set_defaults(fn=fn)
    # the loop ends on simulate, the one subcommand that reads a seed
    sp.add_argument("--seed", type=_seed_arg, default=None,
                    help="seed override, or a:b for a sweep")
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers for sweeps")
    sp.add_argument("--verbose", action="store_true")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1
    except (RegfreeMpcError, OSError) as exc:     # OSError: e.g. an --out that cannot be written
        kind = "numerical failure" if isinstance(exc, NumericalError) else type(exc).__name__
        sys.stderr.write(f"{kind}: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
