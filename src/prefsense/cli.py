"""Command-line frontend.

One executable with subcommands for every computation: composition,
derivatives, regions, areas, the witness construction, figure export,
dataset synthesis, fitting, and the self-contained verification suite.
The model commands (grad, region, area, raster) take the model, bt or pl,
as a nested subcommand that accepts exactly the options its computation
reads.

Human output prints numerics at 6 significant digits; --json emits a
single full-precision JSON object instead. Exit codes: 0 on success, 1 on
any validation error, 2 when `verify` finds failing criteria.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .errors import DomainError, PrefsenseError, require_probability, text_file
from .fitting import counts_from_samples, fit_bt, load_counts
from .links import LOGISTIC, get_link
from .models import compose_pairwise
from .oracles import DEFAULT_SEED, mc_area_bt, quad_area_pl
from .raster import DEFAULT_RESOLUTION, DEFAULT_THRESHOLDS, export, raster_bt, raster_pl
from .sensitivity import (
    bt_partial,
    bt_region_area,
    bt_region_slice,
    general_partial,
    pl_partials,
    pl_region,
    pl_region_area,
    sensitivity_witness,
)
from .synth import DatasetSpec, empirical_check, generate, read_jsonl, sweep, write_jsonl, write_manifest
from .verification import run_all

__all__ = ["main"]


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


def _interval(interval) -> str:
    return f"({_fmt(interval[0])}, {_fmt(interval[1])})"


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


def _names(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def build_parser() -> _Parser:
    json_opt, link, composition, alpha_beta, threshold, seed, figure, permutation = (
        argparse.ArgumentParser(add_help=False) for _ in range(8)
    )
    json_opt.add_argument("--json", action="store_true", help="emit full-precision JSON")
    link.add_argument("--link", default="logistic", choices=("logistic", "probit"))
    composition.add_argument("--p-ik", type=_probability, required=True)
    composition.add_argument("--p-kj", type=_probability, required=True)
    alpha_beta.add_argument("--alpha", type=float, default=1.01)
    alpha_beta.add_argument("--beta", type=float, default=0.99)
    threshold.add_argument("--M", type=float, required=True, dest="threshold")
    seed.add_argument("--seed", type=int, default=DEFAULT_SEED)
    figure.add_argument("--out", required=True)
    figure.add_argument("--format", choices=("csv", "svg"), default="csv")
    figure.add_argument("--thresholds", type=_float_list, default=DEFAULT_THRESHOLDS)
    figure.add_argument("--resolution", type=int, default=DEFAULT_RESOLUTION)
    permutation.add_argument(
        "--permutation", type=_names, required=True, help="three option names, comma-separated"
    )

    parser = _Parser(prog="prefsense", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    def leaf(group, name, handler, *parents, **kwargs) -> argparse.ArgumentParser:
        p = group.add_parser(name, parents=[json_opt, *parents], **kwargs)
        p.set_defaults(handler=handler)
        return p

    def models(name, help):
        return commands.add_parser(name, help=help).add_subparsers(dest="model", required=True)

    leaf(commands, "compose", _cmd_compose, composition, link, help="compose two pair probabilities")

    grad = models("grad", "analytic derivatives at a point")
    leaf(grad, "bt", _grad_bt, composition, link)
    p = leaf(grad, "pl", _grad_pl, alpha_beta)
    p.add_argument("--p-uv", type=_probability, required=True)
    p.add_argument("--p-vu", type=_probability, required=True)

    region = models("region", "sensitive-region bounds")
    p = leaf(region, "bt", _region_bt, threshold)
    p.add_argument("--p-kj", type=_probability, required=True)
    p = leaf(region, "pl", _region_pl, threshold, alpha_beta)
    fixed = p.add_mutually_exclusive_group(required=True)
    fixed.add_argument("--p-uv", type=_probability)
    fixed.add_argument("--p-vu", type=_probability)

    area = models("area", "closed-form and oracle region areas")
    p = leaf(area, "bt", _area_bt, threshold, seed)
    p.add_argument("--n-samples", type=int, default=1_000_000)
    p = leaf(area, "pl", _area_pl, threshold, alpha_beta)
    p.add_argument("--which", choices=("uv", "vu"), default="uv")
    p.add_argument("--grid-n", type=int, default=100_000)

    raster = models("raster", "export a region figure")
    p = leaf(raster, "bt", _raster_bt, figure)
    p.add_argument("--which", choices=("d_pik", "d_pkj"), default="d_pik")
    p = leaf(raster, "pl", _raster_pl, figure, alpha_beta)
    p.add_argument("--which", choices=("d_uv", "d_vu"), default="d_uv")

    p = leaf(commands, "witness", _cmd_witness, link, threshold, help="construct a high-derivative point")
    p.add_argument("--delta", type=float, default=1.0)

    p = leaf(commands, "gen-data", _cmd_gen_data, permutation, seed, help="synthesize one preference dataset")
    p.add_argument("--p12", type=_probability, required=True)
    p.add_argument("--p23", type=_probability, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)

    p = leaf(commands, "sweep-data", _cmd_sweep_data, permutation, seed, help="synthesize the 21-dataset sweep")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out-dir", required=True)

    p = leaf(commands, "fit", _cmd_fit, help="fit scores to comparison data")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--options", type=_names, default=None, help="option names for JSONL input")
    p.add_argument("--out", default=None, help="write the fit as JSON")

    p = leaf(commands, "verify", _cmd_verify, help="run the oracle verification suite")
    p.add_argument("--quick", action="store_true", help="reduced sample sizes")

    return parser


@functools.cache
def _parser() -> _Parser:
    """The parser, built on first use: in-process callers parse many times."""
    return build_parser()


# Each handler returns (payload, lines): main prints the payload as JSON
# under --json and the human-readable lines otherwise.


def _cmd_compose(args):
    value = compose_pairwise(get_link(args.link), args.p_ik, args.p_kj)
    return (
        {"link": args.link, "p_ik": args.p_ik, "p_kj": args.p_kj, "composed": value},
        [f"composed probability ({args.link}): {_fmt(value)}"],
    )


def _grad_bt(args):
    if args.link == "logistic":
        d_ik = bt_partial(args.p_ik, args.p_kj)
        d_kj = bt_partial(args.p_kj, args.p_ik)
    else:
        link = get_link(args.link)
        d_ik = general_partial(link, args.p_ik, args.p_kj)
        d_kj = general_partial(link, args.p_kj, args.p_ik)
    return (
        {"link": args.link, "d_p_ik": d_ik, "d_p_kj": d_kj},
        [f"d p_ij / d p_ik: {_fmt(d_ik)}", f"d p_ij / d p_kj: {_fmt(d_kj)}"],
    )


def _grad_pl(args):
    d_uv, d_vu = pl_partials(args.p_uv, args.p_vu, args.alpha, args.beta)
    return (
        {"alpha": args.alpha, "beta": args.beta, "d_p_uv": d_uv, "d_p_vu": d_vu},
        [f"d p / d p_uv: {_fmt(d_uv)}", f"d p / d p_vu: {_fmt(d_vu)}"],
    )


def _region_bt(args):
    region = bt_region_slice(args.threshold, args.p_kj)
    return asdict(region), [
        f"case: {region.case}",
        f"boundary p_ik: {_fmt(region.boundary)}",
        f"sensitive p_ik interval: {_interval(region.interval) if region.interval else 'empty'}",
    ]


def _region_pl(args):
    if args.p_uv is not None:
        bounds = pl_region(args.threshold, args.alpha, args.beta, args.p_uv, "uv")
    else:
        bounds = pl_region(args.threshold, args.alpha, args.beta, args.p_vu, "vu")
    payload = {**asdict(bounds), "center": None if bounds.empty else bounds.center}
    if bounds.empty:
        # pl_region_terms' discriminant; where it is positive, the bounds rounded together.
        beyond = args.beta * (args.beta - 4.0 * args.alpha * args.threshold * bounds.fixed) <= 0.0
        reason = "fixed coordinate beyond beta/(4 alpha M)" if beyond else "its bounds coincide in float64"
        return payload, [f"[{bounds.which}] interval: empty ({reason})"]
    return payload, [
        f"[{bounds.which}] center: {_fmt(bounds.center)}, half width: {_fmt(bounds.half_width)}",
        f"interval: {_interval(bounds.interval)}",
    ]


def _area_bt(args):
    closed = bt_region_area(args.threshold)
    oracle = mc_area_bt(args.threshold, args.n_samples, args.seed)
    diff = abs(closed - oracle.value)
    payload = {
        "threshold": args.threshold,
        "closed_form": closed,
        "oracle": oracle.value,
        "oracle_std_error": oracle.std_error,
        "n_samples": oracle.n_samples,
        "seed": oracle.seed,
        "discrepancy": diff,
    }
    return payload, [
        f"closed form: {_fmt(closed)}",
        f"monte carlo ({oracle.n_samples} samples, seed {oracle.seed}): "
        f"{_fmt(oracle.value)} +/- {_fmt(oracle.std_error)}",
        f"discrepancy: {_fmt(diff)}",
    ]


def _area_pl(args):
    closed = pl_region_area(args.threshold, args.alpha, args.beta, args.which)
    oracle = quad_area_pl(args.threshold, args.alpha, args.beta, args.which, args.grid_n)
    diff = abs(closed - oracle)
    payload = {
        "threshold": args.threshold,
        "alpha": args.alpha,
        "beta": args.beta,
        "which": args.which,
        "closed_form": closed,
        "oracle": oracle,
        "grid_n": args.grid_n,
        "discrepancy": diff,
    }
    return payload, [
        f"closed form ({args.which}): {_fmt(closed)}",
        f"quadrature (grid {args.grid_n}): {_fmt(oracle)}",
        f"discrepancy: {_fmt(diff)}",
    ]


def _cmd_witness(args):
    w = sensitivity_witness(get_link(args.link), args.threshold, args.delta)
    return {"link": args.link, **asdict(w)}, [
        f"witness point: p_ik = {_fmt(w.p_ik)}, p_kj = {_fmt(w.p_kj)}",
        f"derivative there: {_fmt(w.derivative)} (> {_fmt(w.threshold)})",
    ]


def _raster_bt(args):
    return _export(args, raster_bt(args.which, args.thresholds, args.resolution))


def _raster_pl(args):
    return _export(args, raster_pl(args.which, args.alpha, args.beta, args.thresholds, args.resolution))


def _export(args, grid):
    path = export(grid, args.format, args.out)
    payload = {
        "path": path,
        "format": args.format,
        "resolution": grid.resolution,
        "thresholds": list(grid.thresholds),
        "which": grid.which,
    }
    return payload, [
        f"wrote {args.format} raster ({grid.resolution}x{grid.resolution}, "
        f"{len(grid.thresholds)} thresholds) to {path}"
    ]


def _cmd_gen_data(args):
    spec = DatasetSpec(args.permutation, args.p12, args.p23, args.n, args.seed)
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
    return payload, lines


def _cmd_sweep_data(args):
    base = DatasetSpec(args.permutation, 0.99, 0.5, args.n, args.seed)
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
    return payload, [f"wrote {len(entries)} datasets and manifest to {out_dir}"]


def _cmd_fit(args):
    path = Path(args.infile)
    if path.suffix == ".jsonl":
        if not args.options:
            raise _UsageError("fitting a JSONL dataset requires --options with the option names")
        labels = list(args.options)
        counts = counts_from_samples(read_jsonl(path), labels)
    else:
        if args.options:
            raise _UsageError("--options names the options of JSONL input; a counts file labels them 0 to N-1")
        counts = load_counts(path)
        labels = [str(i) for i in range(counts.n)]
    fit = fit_bt(counts)
    s = fit.scores
    # Every ordered pair of distinct options, row by row, in one array call.
    i, j = np.nonzero(~np.eye(counts.n, dtype=bool))
    scores = np.array(s)
    values = LOGISTIC.evaluate(scores[i] - scores[j]).tolist()
    predictions = {f"{labels[a]}>{labels[b]}": p for a, b, p in zip(i.tolist(), j.tolist(), values)}
    payload = {
        "labels": labels,
        "scores": list(s),
        "log_likelihood": fit.log_likelihood,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "predictions": predictions,
    }
    lines = [] if args.json else [
        "scores: " + ", ".join(f"{lab} = {_fmt(x)}" for lab, x in zip(labels, s)),
        f"log likelihood: {_fmt(fit.log_likelihood)} "
        f"({'converged' if fit.converged else 'not converged'}, {fit.iterations} iterations)",
        *(f"p({key}) = {_fmt(value)}" for key, value in predictions.items()),
    ]
    if args.out:
        with text_file(args.out, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
        lines.append(f"wrote fit to {args.out}")
    return payload, lines


def _cmd_verify(args):
    results = run_all(quick=args.quick)
    failed = [r.name for r in results if not r.passed]
    lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.details}" for r in results]
    lines.append(
        f"{len(results) - len(failed)}/{len(results)} criteria passed"
        + (f"; FAILED: {', '.join(failed)}" if failed else "")
    )
    payload = {
        "quick": args.quick,
        "passed": len(results) - len(failed),
        "failed": failed,
        "results": [asdict(r) for r in results],
    }
    return payload, lines


# json.dumps keeps a string for every key and value of a dict until it
# joins them, about 220 bytes per entry on top of the dict: _print_json
# encodes a larger dict (fit's N(N - 1) predictions) this many entries at a time.
_JSON_BLOCK = 1024


def _print_json(payload: dict) -> None:
    """print(json.dumps(payload)), byte for byte, with a large dict in blocks."""
    write = sys.stdout.write
    sep = "{"
    for key, value in payload.items():
        write(sep + json.dumps(key) + ": ")
        sep = ", "
        if isinstance(value, dict) and len(value) > _JSON_BLOCK:
            entries, inner = iter(value.items()), "{"
            while block := dict(itertools.islice(entries, _JSON_BLOCK)):
                write(inner + json.dumps(block)[1:-1])
                inner = ", "
            write("}")
        else:
            write(json.dumps(value))
    write("}\n" if payload else "{}\n")


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        payload, lines = args.handler(args)
    except (PrefsenseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.json:
        _print_json(payload)
    else:
        print("\n".join(lines))
    return 2 if args.command == "verify" and payload["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
