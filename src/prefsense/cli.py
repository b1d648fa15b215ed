"""Command-line frontend.

One executable with subcommands for every computation: composition,
derivatives, regions, areas, the witness construction, figure export,
dataset synthesis, fitting, and the self-contained verification suite.

Human output prints numerics at 6 significant digits; --json emits a
single full-precision JSON object instead. Exit codes: 0 on success, 1 on
any validation error, 2 when `verify` finds failing criteria.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import DomainError, PrefsenseError, require_probability
from .fitting import counts_from_samples, fit_bt, load_counts, predict
from .links import get_link
from .models import compose_pairwise
from .oracles import DEFAULT_SEED, mc_area_bt, quad_area_pl
from .raster import DEFAULT_RESOLUTION, DEFAULT_THRESHOLDS, export, raster_bt, raster_pl
from .sensitivity import (
    PLSensitivityContext,
    bt_partial,
    bt_region_area,
    bt_region_slice,
    general_partial,
    pl_partials,
    pl_region_area,
    pl_region_uv,
    pl_region_vu,
    sensitivity_witness,
)
from .synth import DatasetSpec, empirical_check, generate, read_jsonl, sweep, write_jsonl, write_manifest
from .verification import run_all

__all__ = ["main", "build_parser"]


class _UsageError(PrefsenseError):
    pass


class _Parser(argparse.ArgumentParser):
    # Argparse exits with status 2 on bad usage; this package reserves 2
    # for verification failures, so route usage problems through the
    # normal validation-error path (exit 1).
    def error(self, message):
        raise _UsageError(message)


def _fmt(x) -> str:
    return f"{float(x):.6g}"


def _probability(text: str) -> float:
    # A DomainError is a ValueError, which argparse would replace with its
    # own message; a usage error keeps ours.
    try:
        return require_probability(text, "probability")
    except DomainError as exc:
        raise _UsageError(str(exc)) from None


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise _UsageError(f"expected a comma-separated list of numbers, got {text!r}")


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit full-precision JSON")

    parser = _Parser(prog="prefsense", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compose", parents=[common], help="compose two pair probabilities")
    p.add_argument("--p-ik", type=_probability, required=True)
    p.add_argument("--p-kj", type=_probability, required=True)
    p.add_argument("--link", default="logistic", choices=("logistic", "probit"))

    p = sub.add_parser("grad", parents=[common], help="analytic derivatives at a point")
    p.add_argument("model", choices=("bt", "pl"))
    p.add_argument("--p-ik", type=_probability)
    p.add_argument("--p-kj", type=_probability)
    p.add_argument("--link", default="logistic", choices=("logistic", "probit"))
    p.add_argument("--p-uv", type=_probability)
    p.add_argument("--p-vu", type=_probability)
    p.add_argument("--alpha", type=float, default=1.01)
    p.add_argument("--beta", type=float, default=0.99)

    p = sub.add_parser("region", parents=[common], help="sensitive-region bounds")
    p.add_argument("model", choices=("bt", "pl"))
    p.add_argument("--M", type=float, required=True, dest="threshold")
    p.add_argument("--p-kj", type=_probability)
    p.add_argument("--p-uv", type=_probability)
    p.add_argument("--p-vu", type=_probability)
    p.add_argument("--alpha", type=float, default=1.01)
    p.add_argument("--beta", type=float, default=0.99)

    p = sub.add_parser("area", parents=[common], help="closed-form and oracle region areas")
    p.add_argument("model", choices=("bt", "pl"))
    p.add_argument("--M", type=float, required=True, dest="threshold")
    p.add_argument("--alpha", type=float, default=1.01)
    p.add_argument("--beta", type=float, default=0.99)
    p.add_argument("--which", choices=("uv", "vu"), default="uv")
    p.add_argument("--n-samples", type=int, default=1_000_000)
    p.add_argument("--grid-n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("witness", parents=[common], help="construct a high-derivative point")
    p.add_argument("--link", default="logistic", choices=("logistic", "probit"))
    p.add_argument("--M", type=float, required=True, dest="threshold")
    p.add_argument("--delta", type=float, default=1.0)

    p = sub.add_parser("raster", parents=[common], help="export a region figure")
    p.add_argument("model", choices=("bt", "pl"))
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "svg"), default="csv")
    p.add_argument("--which", default=None)
    p.add_argument("--thresholds", type=_float_list, default=DEFAULT_THRESHOLDS)
    p.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    p.add_argument("--alpha", type=float, default=1.01)
    p.add_argument("--beta", type=float, default=0.99)

    p = sub.add_parser("gen-data", parents=[common], help="synthesize one preference dataset")
    p.add_argument("--permutation", required=True, help="three option names, comma-separated")
    p.add_argument("--p12", type=_probability, required=True)
    p.add_argument("--p23", type=_probability, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", required=True)

    p = sub.add_parser("sweep-data", parents=[common], help="synthesize the 21-dataset sweep")
    p.add_argument("--permutation", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out-dir", required=True)

    p = sub.add_parser("fit", parents=[common], help="fit scores to comparison data")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--options", default=None, help="option names for JSONL input")
    p.add_argument("--out", default=None, help="write the fit as JSON")

    p = sub.add_parser("verify", parents=[common], help="run the oracle verification suite")
    p.add_argument("--quick", action="store_true", help="reduced sample sizes")

    return parser


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload))
    else:
        for line in lines:
            print(line)


def _cmd_compose(args) -> int:
    link = get_link(args.link)
    value = compose_pairwise(link, args.p_ik, args.p_kj)
    _emit(
        args,
        {"link": args.link, "p_ik": args.p_ik, "p_kj": args.p_kj, "composed": value},
        [f"composed probability ({args.link}): {_fmt(value)}"],
    )
    return 0


def _cmd_grad(args) -> int:
    if args.model == "bt":
        if args.p_ik is None or args.p_kj is None:
            raise _UsageError("grad bt requires --p-ik and --p-kj")
        if args.link == "logistic":
            d_ik = bt_partial(args.p_ik, args.p_kj)
            d_kj = bt_partial(args.p_kj, args.p_ik)
        else:
            link = get_link(args.link)
            d_ik = general_partial(link, args.p_ik, args.p_kj)
            d_kj = general_partial(link, args.p_kj, args.p_ik)
        _emit(
            args,
            {"link": args.link, "d_p_ik": d_ik, "d_p_kj": d_kj},
            [f"d p_ij / d p_ik: {_fmt(d_ik)}", f"d p_ij / d p_kj: {_fmt(d_kj)}"],
        )
        return 0
    if args.p_uv is None or args.p_vu is None:
        raise _UsageError("grad pl requires --p-uv and --p-vu")
    ctx = PLSensitivityContext.from_alpha_beta(args.alpha, args.beta)
    d_uv, d_vu = pl_partials(args.p_uv, args.p_vu, ctx)
    _emit(
        args,
        {"alpha": args.alpha, "beta": args.beta, "d_p_uv": d_uv, "d_p_vu": d_vu},
        [f"d p / d p_uv: {_fmt(d_uv)}", f"d p / d p_vu: {_fmt(d_vu)}"],
    )
    return 0


def _cmd_region(args) -> int:
    if args.model == "bt":
        if args.p_kj is None:
            raise _UsageError("region bt requires --p-kj")
        region = bt_region_slice(args.threshold, args.p_kj)
        payload = {
            "threshold": region.threshold,
            "p_kj": region.p_kj,
            "case": region.case,
            "boundary": region.boundary,
            "interval": region.interval,
        }
        lines = [f"case: {region.case}", f"boundary p_ik: {_fmt(region.boundary)}"]
        if region.interval:
            lines.append(
                f"sensitive p_ik interval: ({_fmt(region.interval[0])}, {_fmt(region.interval[1])})"
            )
        else:
            lines.append("sensitive p_ik interval: empty")
        _emit(args, payload, lines)
        return 0
    ctx = PLSensitivityContext.from_alpha_beta(args.alpha, args.beta)
    if args.p_uv is not None:
        bounds = pl_region_uv(args.threshold, ctx, args.p_uv)
    elif args.p_vu is not None:
        bounds = pl_region_vu(args.threshold, ctx, args.p_vu)
    else:
        raise _UsageError("region pl requires --p-uv or --p-vu")
    payload = {
        "threshold": bounds.threshold,
        "which": bounds.which,
        "fixed": bounds.fixed,
        "center": None if bounds.empty else bounds.center,
        "half_width": bounds.half_width,
        "interval": bounds.interval,
    }
    if bounds.empty:
        lines = [f"[{bounds.which}] interval: empty (fixed coordinate beyond beta/(4 alpha M))"]
    else:
        lines = [
            f"[{bounds.which}] center: {_fmt(bounds.center)}, half width: {_fmt(bounds.half_width)}",
            f"interval: ({_fmt(bounds.interval[0])}, {_fmt(bounds.interval[1])})",
        ]
    _emit(args, payload, lines)
    return 0


def _cmd_area(args) -> int:
    if args.model == "bt":
        closed = bt_region_area(args.threshold)
        oracle = mc_area_bt(args.threshold, args.n_samples, args.seed)
        diff = abs(closed.closed_form - oracle.value)
        payload = {
            "threshold": args.threshold,
            "closed_form": closed.closed_form,
            "oracle": oracle.value,
            "oracle_std_error": oracle.std_error,
            "n_samples": oracle.n_samples,
            "seed": oracle.seed,
            "discrepancy": diff,
        }
        lines = [
            f"closed form: {_fmt(closed.closed_form)}",
            f"monte carlo ({oracle.n_samples} samples, seed {oracle.seed}): "
            f"{_fmt(oracle.value)} +/- {_fmt(oracle.std_error)}",
            f"discrepancy: {_fmt(diff)}",
        ]
        _emit(args, payload, lines)
        return 0
    ctx = PLSensitivityContext.from_alpha_beta(args.alpha, args.beta)
    closed = pl_region_area(args.threshold, ctx, args.which)
    oracle = quad_area_pl(args.threshold, args.alpha, args.beta, args.which, args.grid_n)
    diff = abs(closed.closed_form - oracle)
    payload = {
        "threshold": args.threshold,
        "alpha": args.alpha,
        "beta": args.beta,
        "which": args.which,
        "closed_form": closed.closed_form,
        "oracle": oracle,
        "grid_n": args.grid_n,
        "discrepancy": diff,
    }
    lines = [
        f"closed form ({args.which}): {_fmt(closed.closed_form)}",
        f"quadrature (grid {args.grid_n}): {_fmt(oracle)}",
        f"discrepancy: {_fmt(diff)}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_witness(args) -> int:
    link = get_link(args.link)
    w = sensitivity_witness(link, args.threshold, args.delta)
    payload = {
        "link": args.link,
        "threshold": w.threshold,
        "delta": w.delta,
        "p_ik": w.p_ik,
        "p_kj": w.p_kj,
        "derivative": w.derivative,
    }
    _emit(
        args,
        payload,
        [
            f"witness point: p_ik = {_fmt(w.p_ik)}, p_kj = {_fmt(w.p_kj)}",
            f"derivative there: {_fmt(w.derivative)} (> {_fmt(w.threshold)})",
        ],
    )
    return 0


def _cmd_raster(args) -> int:
    if args.model == "bt":
        which = args.which or "d_pik"
        grid = raster_bt(which, args.thresholds, args.resolution)
    else:
        which = args.which or "d_uv"
        grid = raster_pl(which, args.alpha, args.beta, args.thresholds, args.resolution)
    path = export(grid, args.format, args.out)
    payload = {
        "path": path,
        "format": args.format,
        "resolution": grid.resolution,
        "thresholds": list(grid.thresholds),
        "which": grid.which,
        "singular_cells": int(grid.singular.sum()),
    }
    _emit(
        args,
        payload,
        [
            f"wrote {args.format} raster ({grid.resolution}x{grid.resolution}, "
            f"{len(grid.thresholds)} thresholds) to {path}"
        ],
    )
    return 0


def _parse_permutation(text: str) -> tuple[str, str, str]:
    names = tuple(tok.strip() for tok in text.split(",") if tok.strip())
    if len(names) != 3:
        raise _UsageError(f"--permutation needs exactly 3 names, got {text!r}")
    return names


def _cmd_gen_data(args) -> int:
    spec = DatasetSpec(
        permutation=_parse_permutation(args.permutation),
        p12=args.p12,
        p23=args.p23,
        n_samples=args.n,
        seed=args.seed,
    )
    samples = generate(spec)
    write_jsonl(samples, args.out)
    report = empirical_check(samples, spec)
    payload = {
        "path": args.out,
        "n_samples": len(samples),
        "pairs": [
            {
                "pair": list(ps.pair),
                "count": ps.count,
                "empirical_p": ps.empirical_p,
                "expected_p": ps.expected_p,
                "z": ps.z_score,
            }
            for ps in report.pairs
        ],
        "forbidden_count": report.forbidden_count,
    }
    lines = [f"wrote {len(samples)} samples to {args.out}"]
    for ps in report.pairs:
        lines.append(
            f"pair {ps.pair[0]} > {ps.pair[1]}: {ps.count} samples, empirical "
            f"{_fmt(ps.empirical_p)} vs {_fmt(ps.expected_p)} (z = {_fmt(ps.z_score)})"
        )
    _emit(args, payload, lines)
    return 0


def _cmd_sweep_data(args) -> int:
    base = DatasetSpec(
        permutation=_parse_permutation(args.permutation),
        p12=0.99,
        p23=0.5,
        n_samples=args.n,
        seed=args.seed,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, spec in enumerate(sweep(base)):
        path = out_dir / f"sweep_{i:02d}_p23_{spec.p23:.2f}.jsonl"
        write_jsonl(generate(spec), path)
        entries.append((spec, str(path)))
    manifest = out_dir / "manifest.csv"
    write_manifest(entries, manifest)
    payload = {
        "out_dir": str(out_dir),
        "manifest": str(manifest),
        "datasets": [{"p23": spec.p23, "seed": spec.seed, "path": path} for spec, path in entries],
    }
    _emit(
        args,
        payload,
        [f"wrote {len(entries)} datasets and manifest to {out_dir}"],
    )
    return 0


def _cmd_fit(args) -> int:
    path = Path(args.infile)
    if path.suffix == ".jsonl":
        if not args.options:
            raise _UsageError("fitting a JSONL dataset requires --options with the option names")
        labels = [tok.strip() for tok in args.options.split(",") if tok.strip()]
        counts = counts_from_samples(read_jsonl(path), labels)
    else:
        counts = load_counts(path)
        labels = [str(i) for i in range(counts.n)]
    fit = fit_bt(counts)
    predictions = {}
    for i in range(counts.n):
        for j in range(counts.n):
            if i != j:
                predictions[f"{labels[i]}>{labels[j]}"] = predict(fit, i, j)
    payload = {
        "labels": labels,
        "scores": list(fit.scores),
        "log_likelihood": fit.log_likelihood,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "predictions": predictions,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    lines = [
        "scores: " + ", ".join(f"{lab} = {_fmt(s)}" for lab, s in zip(labels, fit.scores)),
        f"log likelihood: {_fmt(fit.log_likelihood)} "
        f"({'converged' if fit.converged else 'not converged'}, {fit.iterations} iterations)",
    ]
    for key, value in predictions.items():
        lines.append(f"p({key}) = {_fmt(value)}")
    if args.out:
        lines.append(f"wrote fit to {args.out}")
    _emit(args, payload, lines)
    return 0


def _cmd_verify(args) -> int:
    results = run_all(quick=args.quick)
    failed = [r for r in results if not r.passed]
    if args.json:
        print(
            json.dumps(
                {
                    "quick": args.quick,
                    "passed": len(results) - len(failed),
                    "failed": [r.name for r in failed],
                    "results": [
                        {
                            "name": r.name,
                            "passed": r.passed,
                            "details": r.details,
                            "elapsed_s": r.elapsed_s,
                        }
                        for r in results
                    ],
                }
            )
        )
    else:
        for r in results:
            print(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.details}")
        print(
            f"{len(results) - len(failed)}/{len(results)} criteria passed"
            + (f"; FAILED: {', '.join(r.name for r in failed)}" if failed else "")
        )
    return 2 if failed else 0


_HANDLERS = {
    "compose": _cmd_compose,
    "grad": _cmd_grad,
    "region": _cmd_region,
    "area": _cmd_area,
    "witness": _cmd_witness,
    "raster": _cmd_raster,
    "gen-data": _cmd_gen_data,
    "sweep-data": _cmd_sweep_data,
    "fit": _cmd_fit,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except (PrefsenseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
