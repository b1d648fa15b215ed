"""The four benchmark workloads: inputs from the seed, one pass, output checks.

Each pass is a closed loop: one caller issues the next call only after
the previous one returns. A pass is a list of operations, each one CLI
call (``prefsense.cli.main([..., "--json"])`` with stdout captured) or,
where no subcommand exists, one library call. Every operation's output is
checked; an operation that raises, exits non-zero or fails its check
counts as failed, so a change that is faster but wrong shows up.

Why these four (see also ``why`` in BENCHMARK.json):

- ``verify_full``: the reproduction gate users run. Synthesis does about
  three quarters of it (``dataset_protocol``); the scalar closed forms
  (links, models, sensitivity) and the oracles do the rest. Fitting and
  file I/O do almost nothing.
- ``dataset_roundtrip``: the paper's dominant-pair regime. JSONL writes
  and reads, synthesis and parsing; the fit has N=3 and is the bypass
  case for any change to fitting.
- ``figures``: raster export. Writing the CSV dominates, reading it back
  sits beside it; synthesis and fitting are not used.
- ``fit_scale``: fitting does nearly all the work, on a dense N=100
  pairwise matrix with 20 comparisons per pair.
"""

from __future__ import annotations

import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import prefsense.cli
import prefsense.raster
from prefsense.synth import DatasetSpec, generate, read_jsonl

# Outputs recorded from the commit that introduced this benchmark; see
# record_expected.py.
EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Largest allowed |fitted - true| score difference of a pair, in standard
# errors from the Fisher information at the true scores. Over seeds 0-119
# the largest seen was 4.7.
FIT_Z_LIMIT = 6.0

# Largest allowed |z| of a generated pair's win rate against its spec. The
# workload seed is arbitrary, so the limit must not fail a correct
# generator: |z| > 3 happens for 19 of seeds 0-2999 (seed 19 first), while
# a wrong win probability gives |z| in the hundreds at n = 10^5.
PAIR_Z_LIMIT = 5.0


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


def run_cli(argv: list[str]) -> dict:
    """One in-process ``prefsense`` call; returns its parsed --json output."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = prefsense.cli.main([*argv, "--json"])
    if code != 0:
        raise CheckFailed(f"prefsense {argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
    return json.loads(out.getvalue())


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _expected(key: str):
    return json.loads(EXPECTED_PATH.read_text())[key]


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Workload:
    """Inputs for one run; ``steps`` lists one pass as (call, check) pairs."""

    name = ""

    def steps(self, index: int) -> list:
        """Operations of pass `index`; only fit_scale varies its input by pass."""
        raise NotImplementedError

    def check_run(self) -> None:
        """Checks too costly for every pass, made once after the timed passes."""


class VerifyFull(Workload):
    name = "verify_full"

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        # The suite pins its own seeds, so the workload seed is unused.
        self.argv = ["verify", "--quick"] if tiny else ["verify"]
        self.expected = _expected("verify_details")["quick" if tiny else "full"]
        self.input_sha256 = _sha256_text(" ".join(self.argv))

    def steps(self, index):
        return [(lambda: run_cli(self.argv), self._check)]

    def _check(self, out: dict) -> None:
        if out["failed"] or out["passed"] != len(self.expected):
            raise CheckFailed(f"verify passed {out['passed']}/{len(self.expected)}; failed {out['failed']}")
        details = {r["name"]: r["details"] for r in out["results"]}
        changed = sorted(k for k in self.expected if details.get(k) != self.expected[k])
        if changed or len(details) != len(self.expected):
            raise CheckFailed(f"verify details differ from the recorded ones: {changed}")


class DatasetRoundtrip(Workload):
    name = "dataset_roundtrip"
    OPTIONS = "dog,bird,cat"
    P12, P23 = 0.99, 0.02

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.n = 2000 if tiny else 100_000
        self.seed = seed
        self.path = workdir / "roundtrip.jsonl"
        self.gen_argv = [
            "gen-data", "--permutation", self.OPTIONS, "--p12", str(self.P12), "--p23", str(self.P23),
            "--n", str(self.n), "--seed", str(seed), "--out", str(self.path),
        ]  # fmt: skip
        self.fit_argv = ["fit", "--in", str(self.path), "--options", self.OPTIONS]
        # A digest is recorded for the default seed only.
        self.recorded = _expected("roundtrip_sha256")[str(self.n)] if seed == 0 else None
        self.first_digest = None
        self.input_sha256 = _sha256_text(" ".join(self.gen_argv[:-2]))

    def steps(self, index):
        return [(lambda: run_cli(self.gen_argv), self._check_gen), (lambda: run_cli(self.fit_argv), self._check_fit)]

    def _check_gen(self, out: dict) -> None:
        if out["n_samples"] != self.n or out["forbidden_count"] != 0:
            raise CheckFailed(f"gen-data wrote {out['n_samples']} samples, {out['forbidden_count']} forbidden")
        if any(abs(p["z"]) > PAIR_Z_LIMIT for p in out["pairs"]):
            raise CheckFailed(f"gen-data pair frequencies off: z = {[p['z'] for p in out['pairs']]}")
        digest = sha256_file(self.path)
        if self.recorded is not None and digest != self.recorded:
            raise CheckFailed(f"JSONL digest {digest} differs from the recorded {self.recorded}")
        self.first_digest = self.first_digest or digest
        if digest != self.first_digest:
            raise CheckFailed("JSONL differs from the first pass's for the same seed")
        self.pairs = out["pairs"]

    def _check_fit(self, out: dict) -> None:
        if not out["converged"]:
            raise CheckFailed(f"fit did not converge in {out['iterations']} iterations")
        # The two observed pairs form a chain, so the MLE reproduces each
        # pair's empirical win rate exactly.
        for pair in self.pairs:
            fitted = out["predictions"]["{}>{}".format(*pair["pair"])]
            if abs(fitted - pair["empirical_p"]) > 1e-6:
                raise CheckFailed(f"fit gives {fitted} for {pair['pair']}, data say {pair['empirical_p']}")

    def check_run(self) -> None:
        spec = DatasetSpec(tuple(self.OPTIONS.split(",")), self.P12, self.P23, self.n, self.seed)
        if read_jsonl(self.path) != generate(spec):
            raise CheckFailed("JSONL read back differs from the generated samples")


class Figures(Workload):
    name = "figures"
    FILES = (("bt", "csv"), ("bt", "svg"), ("pl", "csv"), ("pl", "svg"))

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        # The workload is deterministic, so the seed is unused.
        resolution = 64 if tiny else prefsense.raster.DEFAULT_RESOLUTION
        size = [] if resolution == prefsense.raster.DEFAULT_RESOLUTION else ["--resolution", str(resolution)]
        self.paths = {f"{m}.{f}": workdir / f"{m}.{f}" for m, f in self.FILES}
        self.argvs = {
            key: ["raster", key.split(".")[0], "--out", str(path), "--format", key.split(".")[1], *size]
            for key, path in self.paths.items()
        }
        self.recorded = _expected("figures_sha256")[str(resolution)]
        grid = prefsense.raster.raster_bt(resolution=resolution)
        centers = grid.cell_centers()
        self.reference = {
            "x": np.repeat(centers, resolution),
            "y": np.tile(centers, resolution),
            "value": grid.values.ravel(),
            "class": grid.classes.ravel(),
        }
        self.input_sha256 = _sha256_text(f"{sorted(self.argvs)} {resolution}")

    def steps(self, index):
        steps = [(lambda argv=argv: run_cli(argv), lambda out, key=key: self._check_file(key)) for key, argv in self.argvs.items()]
        steps.append((lambda: prefsense.raster.read_csv_grid(self.paths["bt.csv"]), self._check_read))
        return steps

    def _check_file(self, key: str) -> None:
        digest = sha256_file(self.paths[key])
        if digest != self.recorded[key]:
            raise CheckFailed(f"{key} digest {digest} differs from the recorded {self.recorded[key]}")

    def _check_read(self, data: dict) -> None:
        # The CSV holds 9 significant digits, so values agree to half a
        # unit in the ninth digit.
        for column in ("x", "y", "value"):
            got, want = data[column], self.reference[column]
            finite = np.isfinite(want)
            if got.shape != want.shape or not np.array_equal(got[~finite], want[~finite]):
                raise CheckFailed(f"CSV column {column} does not match the grid")
            if np.any(np.abs(got[finite] - want[finite]) > 5e-9 * np.abs(want[finite])):
                raise CheckFailed(f"CSV column {column} differs from the grid beyond 9 significant digits")
        if not np.array_equal(data["class"], self.reference["class"]):
            raise CheckFailed("CSV classes differ from the grid")


def _bt_loglik(wins: np.ndarray, scores: np.ndarray) -> float:
    diff = scores[:, None] - scores[None, :]
    return float(np.sum(wins * -np.logaddexp(0.0, -diff)))


class FitScale(Workload):
    name = "fit_scale"
    PER_PAIR = 20

    def __init__(self, seed: int, workdir: Path, tiny: bool):
        self.seed = seed
        self.n = 10 if tiny else 100
        self.counts_path = workdir / "counts.txt"
        self.first_scores: dict[int, tuple] = {}
        self.index = None
        self.input_sha256 = hashlib.sha256(self._make_input(0)).hexdigest()

    def _make_input(self, index: int) -> bytes:
        """Write input `index` of this seed's sequence; return the file's bytes.

        The fitter's iteration count depends on the data (654 to 2452 over
        seeds 0-249), so passes draw fresh inputs and a run's median pass
        reflects the typical input, not one seed's.
        """
        rng = np.random.default_rng([self.seed, index])
        n = self.n
        self.true = rng.normal(size=n)
        p = 1.0 / (1.0 + np.exp(self.true[None, :] - self.true[:, None]))
        upper = np.triu_indices(n, 1)
        self.wins = np.zeros((n, n))
        self.wins[upper] = rng.binomial(self.PER_PAIR, p[upper])
        self.wins.T[upper] = self.PER_PAIR - self.wins[upper]
        rows = "\n".join(" ".join(str(int(w)) for w in row) for row in self.wins)
        data = f"{n}\n{rows}\n".encode()
        self.counts_path.write_bytes(data)
        # Standard errors of the score differences, from the Fisher
        # information at the true scores (score 0 pinned, as in the fit).
        weight = self.PER_PAIR * p * (1.0 - p)
        np.fill_diagonal(weight, 0.0)
        cov = np.zeros((n, n))
        cov[1:, 1:] = np.linalg.inv((np.diag(weight.sum(axis=1)) - weight)[1:, 1:])
        self.se = np.sqrt(np.diag(cov)[:, None] + np.diag(cov)[None, :] - 2.0 * cov)
        self.ll_true = _bt_loglik(self.wins, self.true)
        self.index = index
        return data

    def steps(self, index):
        if index != self.index:
            self._make_input(index)
        return [(lambda: run_cli(["fit", "--in", str(self.counts_path)]), self._check)]

    def _check(self, out: dict) -> None:
        scores = np.array(out["scores"])
        ll = _bt_loglik(self.wins, scores)
        if not out["converged"]:
            raise CheckFailed(f"fit did not converge in {out['iterations']} iterations")
        if abs(out["log_likelihood"] - ll) > 1e-9 * abs(ll):
            raise CheckFailed(f"fit reports log likelihood {out['log_likelihood']}, its scores give {ll}")
        if ll < self.ll_true - 1e-9 * abs(self.ll_true):
            raise CheckFailed(f"fitted log likelihood {ll} is below the true scores' {self.ll_true}")
        error = np.abs((scores[:, None] - scores[None, :]) - (self.true[:, None] - self.true[None, :]))
        upper = np.triu_indices(len(scores), 1)
        z = float(np.max(error[upper] / self.se[upper]))
        if z > FIT_Z_LIMIT:
            raise CheckFailed(f"fitted pair probabilities off by {z:.2f} standard errors")
        if self.first_scores.setdefault(self.index, tuple(scores)) != tuple(scores):
            raise CheckFailed("fitted scores differ from an earlier pass's on the same input")


WORKLOADS = {w.name: w for w in (VerifyFull, DatasetRoundtrip, Figures, FitScale)}
