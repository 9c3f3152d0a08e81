"""Command-line front end: norms, pairings, operator calculus, validator
suites, and the convergence demonstration, with JSON/CSV outputs."""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict

import numpy as np

from .duality import pairing
from .applications import convergence_demo
from .errors import BesovCalcError
from .functions import parse_function_spec, parse_number
from .norms import b0_norm, b_norm, e0_norm, hinf_norm
from .operators import (
    _SeededDraws,
    apply_calculus_report,
    gamma_hat,
    gamma_weak_sample,
    parse_operator_spec,
    profile,
)
from .quadrature import QuadratureConfig
from .report import curve_csv, json_document, reports_to_csv, reports_to_json
from .suite import run_suite

__all__ = ["main", "run"]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="besovcalc",
        description="Quadrature engine for half-plane function norms and the "
        "resolvent-integral operator calculus.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, tol=True):
        if tol:  # apply, profile and demo run under fixed tolerances
            p.add_argument("--tol", type=float, default=None, help="absolute tolerance override")
        p.add_argument("--out", default=None, help="output directory for JSON/CSV reports")

    p = sub.add_parser("norm", help="compute a function norm")
    p.add_argument("--f", required=True, help="function spec, e.g. cayley(n=1)")
    p.add_argument("--kind", choices=["b", "b0", "hinf", "e0"], default="b")
    common(p)

    p = sub.add_parser("pair", help="compute the duality pairing <g, f>")
    p.add_argument("--g", required=True)
    p.add_argument("--f", required=True)
    common(p)

    p = sub.add_parser("apply", help="apply a function to an operator")
    p.add_argument("--A", required=True, help="operator spec or file:PATH")
    p.add_argument("--f", required=True)
    common(p, tol=False)

    p = sub.add_parser("profile", help="semigroup/sectoriality/gamma profile")
    p.add_argument("--A", required=True)
    common(p, tol=False)
    p.add_argument("--seed", type=int, default=42, help="seed of the weak-sample vectors")

    p = sub.add_parser("suite", help="run bound validators from a manifest")
    p.add_argument("--manifest", default=None, help="manifest file (default: all)")
    common(p)
    p.add_argument(
        "--plot-data", action="store_true", dest="plot_data", help="also write suite_slack.csv"
    )

    p = sub.add_parser("demo", help="strong-convergence demonstration")
    p.add_argument("--A", required=True)
    p.add_argument("--f", default="exp(a=1)")
    p.add_argument("--n-list", default="1,4,16,64", dest="n_list")
    common(p, tol=False)
    p.add_argument("--seed", type=int, default=42, help="seed of the start vector")
    p.add_argument(
        "--plot-data", action="store_true", dest="plot_data", help="also write demo_curve.csv"
    )
    return ap


def _config(args) -> QuadratureConfig:
    cfg = QuadratureConfig()
    if getattr(args, "tol", None) is not None:
        cfg = cfg.with_tolerances(abs_tol=args.tol, rel_tol=max(args.tol * 10, 1e-12))
    return cfg


def _write(out_dir: str | None, name: str, text: str) -> None:
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _fmt_matrix(m: np.ndarray) -> str:
    rows = []
    for row in np.atleast_2d(m):
        rows.append("  ".join(f"{v.real:+.6e}{v.imag:+.6e}i" for v in row))
    return "\n".join(rows)


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    code, files = 0, []
    try:
        cfg = _config(args)
        if args.command == "norm":
            f = parse_function_spec(args.f)
            kind = {"b": b_norm, "b0": b0_norm, "hinf": hinf_norm, "e0": e0_norm}[args.kind]
            rep = kind(f, cfg)
            mark = "" if rep.certified else " (not certified)"
            print(f"{args.kind}-norm[{args.f}] = {rep.value:.6f} +- {rep.error_bound:.2e}{mark}")
            doc = {"f": args.f, "kind": args.kind, **asdict(rep)}

        elif args.command == "pair":
            g = parse_function_spec(args.g)
            f = parse_function_spec(args.f)
            res = pairing(g, f, cfg)
            mark = "" if res.converged else " (not converged)"
            print(f"<{args.g}, {args.f}> = {res.value.real:.8f}{res.value.imag:+.8f}i "
                  f"+- {res.error:.2e}{mark}")
            doc = {"g": args.g, "f": args.f, "value": res.value, "error": res.error}

        elif args.command == "apply":
            A = parse_operator_spec(args.A)
            f = parse_function_spec(args.f)
            rep = apply_calculus_report(A, f)
            print(f"f(A) for f={args.f}, A={args.A}:")
            print(_fmt_matrix(rep.value))
            mark = "" if rep.certified else " (not certified)"
            print(f"error bound {rep.error:.2e}{mark}")
            doc = {
                "A": args.A,
                "f": args.f,
                "matrix": [[complex(v) for v in row] for row in rep.value],
                "error": rep.error,
                "certified": rep.certified,
            }

        elif args.command == "profile":
            A = parse_operator_spec(args.A)
            prof, (gamma, settled) = profile(A), gamma_hat(A)
            weak = gamma_weak_sample(A, seed=args.seed)
            print(
                f"K = {prof.K:.6f}  M = {prof.M:.6f}  "
                f"gamma in [{weak:.6f}, {gamma:.6f}]  gamma settled = {settled}"
            )
            doc = {
                "A": args.A,
                "K": prof.K,
                "M": prof.M if math.isfinite(prof.M) else "inf",
                "gamma_hat": gamma,
                "gamma_settled": settled,
                "gamma_weak_sample": weak,
            }

        elif args.command == "suite":
            manifest = None
            if args.manifest:
                with open(args.manifest, "r", encoding="utf-8") as fh:
                    manifest = fh.read()
            reports = run_suite(manifest, cfg)
            for r in reports:
                status = "pass" if r.passed else "FAIL"
                print(
                    f"{status}  {r.estimate_id:<22} lhs={r.lhs:.6g} rhs={r.rhs:.6g} "
                    f"slack={r.slack:.4g}"
                )
            doc = reports_to_json(reports)
            files = [("suite.csv", reports_to_csv(reports))]
            if args.plot_data:
                slack = {
                    "index": list(range(len(reports))),
                    "lhs": [r.lhs for r in reports],
                    "rhs": [r.rhs for r in reports],
                }
                files.append(("suite_slack.csv", curve_csv(slack)))
            n_fail = sum(not r.passed for r in reports)
            print(f"{len(reports) - n_fail}/{len(reports)} validators passed")
            code = 2 if n_fail else 0

        else:  # demo
            A = parse_operator_spec(args.A)
            f = parse_function_spec(args.f)
            ns = [parse_number(v, "--n-list entry", int) for v in args.n_list.split(",")]
            x = _SeededDraws(args.seed).unit_columns(A.n, 1)[:, 0]
            table = convergence_demo(A, f, ns, x)
            for n, s, st in zip(table.n_values, table.shrink, table.stretch):
                print(f"n={n:<6} shrink={s:.6e}  stretch={st:.6e}")
            print(f"decrease factor {table.decrease_factor:.2f}")
            curve = {"n": table.n_values, "shrink": table.shrink, "stretch": table.stretch}
            doc = {"A": args.A, "f": args.f, **curve}
            if args.plot_data:
                files = [("demo_curve.csv", curve_csv(curve))]

        _write(args.out, f"{args.command}.json", json_document(args.command, doc))
        for name, text in files:
            _write(args.out, name, text)
    except BesovCalcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 1
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
