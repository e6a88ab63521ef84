"""Command-line interface.

One binary, subcommand style.  Exit codes: 0 success, 1 numeric failure
(with a partial report on stdout), 2 input error (an error report on stdout,
the message also on stderr; argparse usage errors print usage only).
Reports are valid JSON under ``--format json`` (the default) and flat
``key = value`` lines under ``--format text``; every numeric is printed at
12 significant digits and the RNG seed is recorded in every report.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from .config import RunConfig, load_config, override
from .divergences import DivergenceKind, divergence
from .errors import InputError, NumericFailure
from .estimators import (
    EstimatorKind,
    is_matched_pair,
    maximize_likelihood,
    solve_estimating_equation,
)
from .families import FamilyKind, member_with_normalizer
from .fileio import (
    load_distribution,
    load_family,
    load_linear_family,
    load_sample,
    save_sample,
)
from .measures import SampleData, empirical
from .oracle import SimplexGrid, ThetaGrid, grid_forward_min, grid_reverse_min
from .projection import (
    forward_dpd_projection,
    pythagorean_gap,
    reverse_dpd_projection,
)
from .sufficiency import factorization_check, sufficient_statistic

_KIND_ALIASES = {
    "kl": DivergenceKind.KL,
    "renyi": DivergenceKind.RENYI,
    "dpd": DivergenceKind.DENSITY_POWER,
    "rae": DivergenceKind.REL_ALPHA_ENTROPY,
}

_MODEL_ALIASES = {
    "exp": FamilyKind.EXPONENTIAL,
    "bpow": FamilyKind.NON_NORMALIZED_ALPHA_POWER_LAW,
    "mpow": FamilyKind.ALPHA_POWER_LAW,
    "aexp": FamilyKind.ALPHA_EXPONENTIAL,
}


# --- report plumbing ----------------------------------------------------------


def _clean(value, path: str, nonfinite: dict):
    """``value`` as JSON values, numbers at 12 significant digits; a
    non-finite number becomes None, and ``nonfinite`` maps its dotted path
    (``value``, ``kkt.mu.2``) to "inf", "-inf" or "nan"."""
    if isinstance(value, dict):
        return {k: _clean(v, f"{path}.{k}" if path else str(k), nonfinite) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.ravel().tolist()
    if isinstance(value, (list, tuple)):
        return [_clean(v, f"{path}.{i}", nonfinite) for i, v in enumerate(value)]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float):
        if not math.isfinite(value):
            nonfinite[path] = str(value)
            return None
        return float(f"{value:.12g}")  # 12 significant digits round-trip through JSON
    return value


def _json_report(report: dict, nan_ok: bool = True) -> dict:
    """The report in strict JSON values, with a "nonfinite" entry naming
    every number printed as null.  A NaN is no answer: with ``nan_ok``
    false it raises NumericFailure."""
    nonfinite = {}
    report = _clean(report, "", nonfinite)
    nan = [path for path, kind in nonfinite.items() if kind == "nan"]
    if nan and not nan_ok:
        raise NumericFailure(f"report holds NaN at {', '.join(nan)}")
    if nonfinite:
        report["nonfinite"] = nonfinite
    return report


def _emit(report: dict, config: RunConfig) -> None:
    if config.output_format == "json":
        print(json.dumps(report, sort_keys=True, allow_nan=False))
        return
    def walk(prefix, value):
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, list):
            print(f"{prefix} = {json.dumps(value)}")
        else:
            print(f"{prefix} = {value}")
    walk("", report)


def _report_of_solve(rep) -> dict:
    out = {
        "theta_star": rep.theta_star,
        "p_star": rep.p_star.probs if rep.p_star is not None else None,
        "residual_norm": rep.residual_norm,
        "iterations": rep.iterations,
        "route": rep.route.value,
    }
    if rep.note:
        out["note"] = rep.note
    return out


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError:
        raise InputError(f"could not parse vector {text!r}") from None


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError(f"expected lo:hi:steps, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise InputError(f"expected lo:hi:steps, got {text!r}") from None


# --- sample generation ----------------------------------------------------------


def sample_generator(spec, theta, n, contamination=None, seed=0) -> SampleData:
    """Draw n i.i.d. symbols from P_theta, optionally contaminated.

    ``contamination`` is ``(rate, outlier_symbol)``: each draw is replaced
    by the outlier symbol independently with the given probability.
    Deterministic under the seed.
    """
    if n < 1:
        raise InputError("sample size must be at least 1")
    p = member_with_normalizer(spec, theta)[0]
    rng = np.random.default_rng(seed)
    idx = rng.choice(spec.alphabet.size, size=n, p=p.probs)
    if contamination is not None:
        rate, outlier = contamination
        if not 0.0 <= rate < 1.0:
            raise InputError("contamination rate must be in [0, 1)")
        outlier_idx = spec.alphabet.index(outlier)
        idx = np.where(rng.random(n) < rate, outlier_idx, idx)
    obs = [spec.alphabet.symbols[i] for i in idx]
    return empirical(obs, spec.alphabet)


# --- subcommand handlers ----------------------------------------------------------


def _cmd_divergence(args, cfg):
    p = load_distribution(args.p)
    q = load_distribution(args.q)
    value = divergence(_KIND_ALIASES[args.kind], p, q, alpha=args.alpha)
    return {"kind": args.kind, "alpha": args.alpha, "value": value}


def _cmd_family_eval(args, cfg):
    spec = load_family(args.spec)
    theta = _parse_vector(args.theta)
    p, z = member_with_normalizer(spec, theta)
    return {
        "kind": spec.kind.value,
        "theta": theta,
        "p_theta": p.probs,
        "z": z,
    }


def _cmd_estimate(args, cfg):
    spec = load_family(args.family)
    sample = load_sample(args.sample, alphabet=spec.alphabet)
    kind = EstimatorKind(args.kind)
    init = _parse_vector(args.init) if args.init else None
    out = {
        "kind": kind.value,
        "alpha": args.alpha if args.alpha is not None else spec.alpha,
        "matched_family": is_matched_pair(kind, spec),
        "n": sample.n,
    }
    if not is_matched_pair(kind, spec):
        out["note"] = "unmatched pair, no equivalence guarantee"
    routes = ("eq", "lik") if args.route == "both" else (args.route,)
    reports = {}
    for route in routes:
        solver = solve_estimating_equation if route == "eq" else maximize_likelihood
        reports[route] = solver(
            kind,
            spec,
            sample,
            init=init,
            alpha=args.alpha,
            tol=cfg.residual_tol,
            max_iter=cfg.max_iterations,
        )
    for route, rep in reports.items():
        out[route] = _report_of_solve(rep)
    if args.route == "both":
        out["route_gap"] = float(
            np.max(np.abs(reports["eq"].theta_star - reports["lik"].theta_star))
        )
    return out


def _cmd_project_forward(args, cfg):
    q = load_distribution(args.q)
    lin = load_linear_family(args.linear, alphabet=q.alphabet)
    res = forward_dpd_projection(q, lin, args.alpha)
    out = {
        "alpha": args.alpha,
        "p_star": res.p_star.probs,
        "theta": res.theta,
        "z": res.z,
        "support": [bool(b) for b in res.support_mask],
        "objective": res.objective,
    }
    if res.kkt_multipliers is not None:
        out["kkt"] = {
            "lambda": res.kkt_multipliers["lambda"],
            "nu": res.kkt_multipliers["nu"],
            "mu": res.kkt_multipliers["mu"],
            "max_slackness": float(
                np.max(np.abs(res.kkt_multipliers["mu"] * res.p_star.probs))
            ),
        }
    return out


def _cmd_project_reverse(args, cfg):
    spec = load_family(args.family)
    sample = load_sample(args.sample, alphabet=spec.alphabet)
    res = reverse_dpd_projection(sample, spec)
    return {
        "alpha": spec.alpha,
        "p_star": res.p_star.probs,
        "theta": res.theta,
        "in_family": res.in_family,
        "moment_residual": res.moment_residual,
        "note": res.note,
    }


def _cmd_verify_pythagoras(args, cfg):
    if args.trials < 1:
        raise InputError("--trials must be at least 1")
    q = load_distribution(args.q)
    lin = load_linear_family(args.linear, alphabet=q.alphabet)
    res = forward_dpd_projection(q, lin, args.alpha)
    rng = np.random.default_rng(cfg.rng_seed)
    gaps = []
    for _ in range(args.trials):
        member = lin.sample_member(rng)
        gaps.append(pythagorean_gap(member, res.p_star, q, args.alpha))
    gaps = np.asarray(gaps)
    return {
        "alpha": args.alpha,
        "trials": args.trials,
        "p_star": res.p_star.probs,
        "gap_min": float(gaps.min()),
        "gap_max": float(gaps.max()),
        "inequality_ok": bool(np.all(gaps >= -1e-10)),
        "equality_ok": bool(np.max(np.abs(gaps)) <= 1e-9),
    }


def _cmd_suffstat(args, cfg):
    spec = load_family(args.family)
    sample = load_sample(args.sample, alphabet=spec.alphabet)
    model = _MODEL_ALIASES[args.model]
    alpha = args.alpha if args.alpha is not None else spec.alpha
    stat = sufficient_statistic(model, sample, spec.q, spec.f, alpha=alpha)
    return {
        "model": args.model,
        "alpha": alpha,
        "value": stat.value,
        "components": stat.components_doc,
    }


def _cmd_suffcheck(args, cfg):
    spec = load_family(args.family)
    model = _MODEL_ALIASES[args.model]
    if model is not spec.kind:
        raise InputError("--model must match the family file's kind")
    sample_a = load_sample(args.sample_a, alphabet=spec.alphabet)
    sample_b = load_sample(args.sample_b, alphabet=spec.alphabet)
    lo, hi, steps = _parse_range(args.grid)
    grid = ThetaGrid.of(lo, hi, steps, k=spec.theta_dim).points()
    report = factorization_check(spec, sample_a, sample_b, grid)
    return {
        "model": args.model,
        "t_a": report.t_a,
        "t_b": report.t_b,
        "t_equal": report.t_equal,
        "max_deviation_from_constant": report.max_deviation_from_constant,
        "argmax_equal": report.argmax_equal,
    }


def _cmd_oracle_forward(args, cfg):
    q = load_distribution(args.q)
    lin = load_linear_family(args.linear, alphabet=q.alphabet) if args.linear else None
    grid = SimplexGrid(q.m, args.resolution)
    p_best, value, gap = grid_forward_min(_KIND_ALIASES[args.kind], args.alpha, q, lin, grid)
    return {
        "kind": args.kind,
        "alpha": args.alpha,
        "resolution": args.resolution,
        "p_best": p_best.probs,
        "value": value,
        "constraint_gap": gap,
    }


def _cmd_oracle_reverse(args, cfg):
    spec = load_family(args.family)
    sample = load_sample(args.sample, alphabet=spec.alphabet)
    lo, hi, steps = _parse_range(args.box)
    grid = ThetaGrid.of(lo, hi, steps, k=spec.theta_dim)
    theta_best, value = grid_reverse_min(
        _KIND_ALIASES[args.kind], args.alpha, sample, spec, grid
    )
    return {
        "kind": args.kind,
        "alpha": args.alpha,
        "theta_best": theta_best,
        "value": value,
        "cell_width": grid.cell_width(),
    }


def _cmd_sample(args, cfg):
    spec = load_family(args.family)
    theta = _parse_vector(args.theta)
    contamination = None
    if args.rate > 0.0:
        if args.outlier is None:
            raise InputError("--rate needs --outlier SYMBOL")
        contamination = (args.rate, args.outlier)
    seed = cfg.rng_seed
    sample = sample_generator(spec, theta, args.n, contamination=contamination, seed=seed)
    if args.out:
        save_sample(args.out, sample)
    return {
        "n": sample.n,
        "counts": sample.counts,
        "empirical": sample.empirical.probs,
        "out": args.out,
    }


# --- parser ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divproj",
        description="Minimum-divergence estimation on finite alphabets",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("--format", choices=("json", "text"), default=None)
    parser.add_argument("--config", default=None, help="key=value config file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--residual-tol", type=float, default=None)
    parser.add_argument("--max-iter", type=int, default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divergence", help="evaluate a divergence between two distributions")
    p.add_argument("--kind", choices=sorted(_KIND_ALIASES), required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--p", required=True)
    p.add_argument("--q", required=True)
    p.set_defaults(handler=_cmd_divergence)

    fam = sub.add_parser("family", help="family operations").add_subparsers(
        dest="family_command", required=True
    )
    p = fam.add_parser("eval", help="evaluate a family member")
    p.add_argument("--spec", required=True)
    p.add_argument("--theta", required=True)
    p.set_defaults(handler=_cmd_family_eval)

    p = sub.add_parser("estimate", help="solve an estimation problem")
    p.add_argument("--kind", choices=[k.value for k in EstimatorKind], required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--family", required=True)
    p.add_argument("--sample", required=True)
    p.add_argument("--route", choices=("eq", "lik", "both"), default="eq")
    p.add_argument("--init", default=None)
    p.set_defaults(handler=_cmd_estimate)

    proj = sub.add_parser("project", help="forward/reverse projections").add_subparsers(
        dest="project_command", required=True
    )
    p = proj.add_parser("forward", help="forward projection onto a linear family")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--linear", required=True)
    p.set_defaults(handler=_cmd_project_forward)
    p = proj.add_parser("reverse", help="reverse projection via the forward route")
    p.add_argument("--family", required=True)
    p.add_argument("--sample", required=True)
    p.set_defaults(handler=_cmd_project_reverse)

    ver = sub.add_parser("verify", help="certificates").add_subparsers(
        dest="verify_command", required=True
    )
    p = ver.add_parser("pythagoras", help="three-point gap checks on random members")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--linear", required=True)
    p.add_argument("--trials", type=int, default=20)
    p.set_defaults(handler=_cmd_verify_pythagoras)

    p = sub.add_parser("suffstat", help="sufficient statistic of a sample")
    p.add_argument("--model", choices=sorted(_MODEL_ALIASES), required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--family", required=True)
    p.add_argument("--sample", required=True)
    p.set_defaults(handler=_cmd_suffstat)

    p = sub.add_parser("suffcheck", help="equal-statistic factorization check")
    p.add_argument("--model", choices=sorted(_MODEL_ALIASES), required=True)
    p.add_argument("--family", required=True)
    p.add_argument("--sample-a", required=True)
    p.add_argument("--sample-b", required=True)
    p.add_argument("--grid", required=True, help="lo:hi:steps")
    p.set_defaults(handler=_cmd_suffcheck)

    orc = sub.add_parser("oracle", help="brute-force grids").add_subparsers(
        dest="oracle_command", required=True
    )
    p = orc.add_parser("forward", help="simplex-grid forward argmin")
    p.add_argument("--kind", choices=sorted(_KIND_ALIASES), required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--q", required=True)
    p.add_argument("--linear", default=None)
    p.add_argument("--resolution", type=int, default=60)
    p.set_defaults(handler=_cmd_oracle_forward)
    p = orc.add_parser("reverse", help="parameter-grid reverse argmin")
    p.add_argument("--kind", choices=sorted(_KIND_ALIASES), required=True)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--family", required=True)
    p.add_argument("--sample", required=True)
    p.add_argument(
        "--box", required=True, help="lo:hi:steps per dimension (use --box=-2:2:201 for negative bounds)"
    )
    p.set_defaults(handler=_cmd_oracle_reverse)

    p = sub.add_parser("sample", help="draw a (possibly contaminated) sample")
    p.add_argument("--family", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--rate", type=float, default=0.0)
    p.add_argument("--outlier", default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=_cmd_sample)

    return parser


def _command_name(args) -> str:
    """The subcommand path as reports name it: ``oracle.reverse``, ``estimate``."""
    sub = getattr(args, f"{args.command}_command", None)
    return f"{args.command}.{sub}" if sub else args.command


def _failure_report(args, exc, cfg) -> dict:
    report = {
        "command": _command_name(args),
        "error": type(exc).__name__,
        "message": str(exc),
        "seed": cfg.rng_seed,
    }
    best = getattr(exc, "best_theta", None)
    if best is not None:
        report["best_theta"] = best
        report["best_residual"] = exc.best_residual
    values = getattr(exc, "values", None)
    if values:
        report["values"] = list(values)
    return report


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    cfg = RunConfig()
    try:
        if args.config:
            cfg = load_config(args.config)
        cfg = override(
            cfg,
            output_format=args.format,
            rng_seed=args.seed,
            residual_tol=args.residual_tol,
            max_iterations=args.max_iter,
        )
        report = args.handler(args, cfg)
        report["command"] = _command_name(args)
        report["seed"] = cfg.rng_seed
        report = _json_report(report, nan_ok=False)
    except InputError as exc:
        print(f"divproj: {exc}", file=sys.stderr)
        _emit(_json_report(_failure_report(args, exc, cfg)), cfg)
        return 2
    except NumericFailure as exc:
        _emit(_json_report(_failure_report(args, exc, cfg)), cfg)
        return 1
    _emit(report, cfg)
    return 0


if __name__ == "__main__":
    sys.exit(main())
