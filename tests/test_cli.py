"""CLI surface: output conventions, files, exit codes."""

import json
import math
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from prefsense import (
    DivergenceWarning,
    SaturationWarning,
    bt_prob,
    cli,
    general_partial,
    get_link,
    pl_region,
    synth,
)
from prefsense.verification import CheckResult


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error_line(err, text):
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert text in err
    assert "Traceback" not in err


class TestCompose:
    def test_example_value(self, capsys):
        code, out, _ = run(capsys, "compose", "--p-ik", "0.9801", "--p-kj", "0.02")
        assert code == 0
        assert "0.501279" in out

    def test_module_entry_point(self):
        # python -m prefsense.cli runs main() and exits with its code.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "prefsense.cli", "compose", "--p-ik", "0.9801", "--p-kj", "0.02"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "0.501279" in proc.stdout

    def test_json_full_precision(self, capsys):
        code, out, _ = run(capsys, "compose", "--p-ik", "0.9801", "--p-kj", "0.02", "--json")
        payload = json.loads(out)
        assert payload["composed"] == pytest.approx(0.5012786415711945, abs=1e-15)

    def test_probit_link(self, capsys):
        code, out, _ = run(capsys, "compose", "--p-ik", "0.5", "--p-kj", "0.5", "--link", "probit")
        assert code == 0
        assert "0.5" in out

    def test_invalid_probability_exits_one(self, capsys):
        code, _, err = run(capsys, "compose", "--p-ik", "1.5", "--p-kj", "0.5")
        assert code == 1
        assert "error" in err

    def test_boundary_probability_exits_one(self, capsys):
        code, _, err = run(capsys, "compose", "--p-ik", "1.0", "--p-kj", "0.5")
        assert code == 1


class TestGradRegionArea:
    def test_grad_bt(self, capsys):
        code, out, _ = run(capsys, "grad", "bt", "--p-ik", "0.99", "--p-kj", "0.02")
        assert code == 0
        assert "22.3703" in out

    def test_grad_bt_probit(self, capsys):
        code, out, _ = run(
            capsys, "grad", "bt", "--link", "probit", "--p-ik", "0.99", "--p-kj", "0.02", "--json"
        )
        assert code == 0
        probit = get_link("probit")
        assert json.loads(out) == {
            "link": "probit",
            "d_p_ik": general_partial(probit, 0.99, 0.02),
            "d_p_kj": general_partial(probit, 0.02, 0.99),
        }

    # beta p_vu / (alpha p_uv + p_vu)^2, and the p_uv : p_vu ratio for d p_vu.
    def test_grad_pl(self, capsys):
        code, out, _ = run(capsys, "grad", "pl", "--p-uv", "0.05", "--p-vu", "0.1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert (payload["alpha"], payload["beta"]) == (1.01, 0.99)
        d_uv = 0.99 * 0.1 / (1.01 * 0.05 + 0.1) ** 2
        assert payload["d_p_uv"] == pytest.approx(d_uv, rel=1e-12)
        assert payload["d_p_vu"] == pytest.approx(-d_uv / 2, rel=1e-12)

    def test_grad_pl_singular(self, capsys):
        # (alpha p_uv + p_vu)^2 underflows to 0 at these probabilities.
        argv = ("grad", "pl", "--p-uv", "1e-200", "--p-vu", "1e-200", "--alpha", "1.01", "--beta", "0.99")
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert_one_error_line(err, "ranking derivative undefined at (1e-200, 1e-200)")

    def test_grad_requires_point(self, capsys):
        code, _, err = run(capsys, "grad", "bt")
        assert code == 1

    def test_region_bt_example(self, capsys):
        code, out, _ = run(capsys, "region", "bt", "--M", "20", "--p-kj", "0.02")
        assert code == 0
        assert "case1" in out
        assert "0.988224" in out

    def test_region_bt_empty(self, capsys):
        code, out, _ = run(capsys, "region", "bt", "--M", "20", "--p-kj", "0.5")
        assert code == 0
        assert "empty" in out

    # The raw boundary of these empty slices is 1.02083 and -0.0208333.
    @pytest.mark.parametrize("p_kj, boundary", [("0.02", "1"), ("0.98", "0")])
    def test_region_bt_empty_boundary_within_unit_interval(self, capsys, p_kj, boundary):
        code, out, _ = run(capsys, "region", "bt", "--M", "1e200", "--p-kj", p_kj)
        assert code == 0
        assert out.splitlines()[:2] == ["case: empty", f"boundary p_ik: {boundary}"]

    def test_region_bt_where_inverse_overflows(self, capsys):
        # 1 / p_kj overflows below about 5.6e-309; the boundary's float64 limit is 1.
        argv = ["region", "bt", "--M", "2", "--p-kj", "1e-310"]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out.splitlines() == [
            "case: case1",
            "boundary p_ik: 1",
            "sensitive p_ik interval: (1, 1)",
        ]
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0

        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        assert json.loads(out, parse_constant=refuse) == {
            "threshold": 2.0,
            "p_kj": 1e-310,
            "case": "case1",
            "boundary": 1.0,
            "interval": [1.0, 1.0],
        }

    def test_region_pl(self, capsys):
        code, out, _ = run(
            capsys, "region", "pl", "--M", "2", "--alpha", "1.01", "--beta", "0.99",
            "--p-uv", "0.05",
        )
        assert code == 0
        assert "interval" in out

    def test_region_pl_vu(self, capsys):
        code, out, _ = run(
            capsys, "region", "pl", "--M", "2", "--alpha", "1.01", "--beta", "0.99",
            "--p-vu", "0.05", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        bounds = pl_region(2.0, 1.01, 0.99, 0.05, "vu")
        assert payload["which"] == "vu"
        assert payload["interval"] == list(bounds.interval)

    def test_region_pl_empty(self, capsys):
        argv = ["region", "pl", "--M", "2", "--p-uv", "0.5"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert out == "[uv] interval: empty (fixed coordinate beyond beta/(4 alpha M))\n"
        code, out, _ = run(capsys, *argv, "--json")
        payload = json.loads(out)
        assert (payload["center"], payload["interval"]) == (None, None)

    def test_region_pl_requires_point(self, capsys):
        code, _, err = run(capsys, "region", "pl", "--M", "2")
        assert code == 1
        assert_one_error_line(err, "one of the arguments --p-uv --p-vu is required")

    def test_region_threshold_guard(self, capsys):
        code, _, err = run(capsys, "region", "bt", "--M", "0.5", "--p-kj", "0.3")
        assert code == 1

    def test_area_bt(self, capsys):
        code, out, _ = run(
            capsys, "area", "bt", "--M", "2", "--n-samples", "50000", "--seed", "8"
        )
        assert code == 0
        assert "0.0739191" in out
        assert "discrepancy" in out

    @pytest.mark.parametrize(
        "argv,text",
        [
            ("area bt --M 2 --n-samples 1000000000001", "n must lie in [10000, 1000000000]"),
            ("area pl --M 2 --alpha 1.01 --beta 0.99 --grid-n 10000001", "grid_n must lie in [10000, 10000000]"),
        ],
        ids=["area-bt-n-samples", "area-pl-grid-n"],
    )
    def test_area_oracle_size_cap(self, capsys, argv, text):
        code, out, err = run(capsys, *argv.split())
        assert code == 1
        assert out == ""
        assert_one_error_line(err, text)

    # Every PL command passes --alpha and --beta to the same check.
    @pytest.mark.parametrize(
        "argv",
        [
            "grad pl --p-uv 0.3 --p-vu 0.6",
            "region pl --M 2 --p-uv 0.05",
            "area pl --M 2",
            "raster pl --out unused.csv",
        ],
        ids=["grad", "region", "area", "raster"],
    )
    def test_pl_constants_refused(self, capsys, argv):
        code, out, err = run(capsys, *argv.split(), "--alpha", "0.5")
        assert (code, out) == (1, "")
        assert_one_error_line(err, "need alpha >= 1 and 0 < beta <= 1, got 0.5, 0.99")

    def test_area_pl_huge_threshold(self, capsys):
        argv = ["area", "pl", "--M", "1e200", "--alpha", "1.01", "--beta", "0.99"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert "closed form (uv): 0\n" in out
        code, out, _ = run(capsys, *argv[:2], "--M", "1e150", *argv[4:])
        assert "closed form (uv): 1.61733e-301" in out

    def test_area_pl_json(self, capsys):
        code, out, _ = run(
            capsys, "area", "pl", "--M", "2", "--alpha", "1.01", "--beta", "0.99", "--json"
        )
        payload = json.loads(out)
        assert payload["closed_form"] == pytest.approx(0.040433, abs=1e-5)
        assert payload["discrepancy"] < 1e-6


class TestWitness:
    def test_logistic(self, capsys):
        code, out, _ = run(capsys, "witness", "--link", "logistic", "--M", "10")
        assert code == 0
        assert "witness point" in out

    def test_probit_json(self, capsys):
        code, out, _ = run(
            capsys, "witness", "--link", "probit", "--M", "100", "--delta", "0.5", "--json"
        )
        payload = json.loads(out)
        assert payload["derivative"] > 100.0


class TestRaster:
    def test_csv(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, out, _ = run(
            capsys, "raster", "bt", "--out", str(out_file), "--format", "csv",
            "--resolution", "64",
        )
        assert code == 0
        assert out_file.exists()
        header = out_file.read_text().split("\n", 1)[0]
        assert header == "x,y,value,class"

    def test_svg(self, capsys, tmp_path):
        out_file = tmp_path / "grid.svg"
        code, out, _ = run(
            capsys, "raster", "pl", "--out", str(out_file), "--format", "svg",
            "--resolution", "64", "--which", "d_vu",
        )
        assert code == 0
        assert out_file.read_text().count('id="class-') == 6

    def test_custom_thresholds(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, out, _ = run(
            capsys, "raster", "bt", "--out", str(out_file), "--format", "csv",
            "--resolution", "64", "--thresholds", "2,5",
        )
        assert code == 0

    def test_bad_threshold_list(self, capsys, tmp_path):
        out_file = tmp_path / "grid.csv"
        code, out, err = run(capsys, "raster", "bt", "--thresholds", "2,x", "--out", str(out_file))
        assert (code, out) == (1, "")
        assert_one_error_line(err, "expected a comma-separated list of numbers, got '2,x'")
        assert not out_file.exists()

    def test_bad_resolution(self, capsys, tmp_path):
        for resolution in ("8", "4097"):
            out = tmp_path / f"{resolution}.csv"
            code, _, err = run(capsys, "raster", "bt", "--out", str(out), "--resolution", resolution)
            assert code == 1
            assert not out.exists()


class TestData:
    def test_gen_fit_round_trip(self, capsys, tmp_path):
        data = tmp_path / "d.jsonl"
        code, out, _ = run(
            capsys, "gen-data", "--permutation", "dog,bird,cat", "--p12", "0.9",
            "--p23", "0.2", "--n", "2000", "--seed", "4", "--out", str(data),
        )
        assert code == 0
        assert data.exists()
        fit_out = tmp_path / "fit.json"
        code, out, _ = run(
            capsys, "fit", "--in", str(data), "--options", "dog,bird,cat",
            "--out", str(fit_out), "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["converged"]
        assert payload["predictions"]["dog>bird"] == pytest.approx(0.9, abs=0.03)
        assert json.loads(fit_out.read_text())["scores"] == payload["scores"]

    def test_gen_data_labels_inside_template_words(self, capsys, tmp_path):
        # "a" occurs inside "gravitate"; outcomes are read where the two answers differ.
        code, out, err = run(
            capsys, "gen-data", "--permutation", "a,b,c", "--p12", "0.9",
            "--p23", "0.2", "--n", "200", "--seed", "3", "--out", str(tmp_path / "d.jsonl"),
        )
        assert code == 0, err
        assert "pair a > b: 112 samples" in out
        assert "pair b > c: 88 samples" in out

    def test_gen_data_rejects_endpoint(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "gen-data", "--permutation", "a,b,c", "--p12", "0.99",
            "--p23", "0.0", "--n", "10", "--seed", "0", "--out", str(tmp_path / "d.jsonl"),
        )
        assert code == 1

    def test_gen_data_refuses_oversized(self, capsys, tmp_path):
        out = tmp_path / "d.jsonl"
        code, _, err = run(
            capsys, "gen-data", "--permutation", "a,b,c", "--p12", "0.9",
            "--p23", "0.5", "--n", str(10**12), "--seed", "0", "--out", str(out),
        )
        assert code == 1
        assert "n_samples" in err
        assert not out.exists()

    def test_gen_data_refuses_negative_seed(self, capsys, tmp_path):
        out = tmp_path / "d.jsonl"
        code, _, err = run(
            capsys, "gen-data", "--permutation", "a,b,c", "--p12", "0.9",
            "--p23", "0.5", "--n", "10", "--seed", "-1", "--out", str(out),
        )
        assert code == 1
        assert_one_error_line(err, "seed must be at least 0")
        assert not out.exists()

    def test_fit_jsonl_not_utf8(self, capsys, tmp_path):
        data = tmp_path / "d.jsonl"
        data.write_bytes('{"question": "caf\u00e9?", "chosen": "a over b", "rejected": "b over a"}\n'.encode("latin-1"))
        code, _, err = run(capsys, "fit", "--in", str(data), "--options", "a,b")
        assert code == 1
        assert_one_error_line(err, f"{data}: not UTF-8")

    def test_fit_jsonl_null_field(self, capsys, tmp_path):
        data = tmp_path / "d.jsonl"
        data.write_text('{"question": "q", "chosen": null, "rejected": "b over a"}\n')
        code, _, err = run(capsys, "fit", "--in", str(data), "--options", "a,b")
        assert code == 1
        assert_one_error_line(err, f"{data}:1: malformed sample record")

    def test_fit_jsonl_requires_options(self, capsys, tmp_path):
        data = tmp_path / "d.jsonl"
        data.write_text("{}\n")
        code, _, err = run(capsys, "fit", "--in", str(data))
        assert code == 1
        assert "--options" in err

    def test_fit_jsonl_over_cap(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr(synth, "MAX_SAMPLES", 3)
        data = tmp_path / "d.jsonl"
        data.write_text('{"question": "q", "chosen": "a over b", "rejected": "b over a"}\n' * 4)
        code, _, err = run(capsys, "fit", "--in", str(data), "--options", "a,b")
        assert code == 1
        assert_one_error_line(err, f"{data}:4: more than 3 records")

    def test_fit_counts_file(self, capsys, tmp_path):
        counts = tmp_path / "counts.txt"
        counts.write_text("2 0 25 75 0")
        code, out, _ = run(capsys, "fit", "--in", str(counts))
        assert code == 0
        assert "1.09861" in out  # ln 3

    def test_fit_counts_file_refuses_options(self, capsys, tmp_path):
        counts = tmp_path / "c.txt"
        counts.write_text("2 0 25 75 0")
        code, out, err = run(capsys, "fit", "--in", str(counts), "--options", "a,b,c")
        assert (code, out) == (1, "")
        assert_one_error_line(err, "--options names the options of JSONL input; a counts file labels them 0 to N-1")

    def test_fit_saturated_prediction_warns(self, capsys, tmp_path):
        # 1 beats 0 and 0 beats 2 at odds of 1e17. The win graph is strongly
        # connected, so the MLE is finite, at scores (0, +-ln 1e17), and
        # p(1>2) = sigmoid(2 ln 1e17) rounds to 1.
        counts = tmp_path / "counts.txt"
        counts.write_text("3  0 1 1e17  1e17 0 0  1 0 0")
        with warnings.catch_warnings():
            warnings.simplefilter("error", DivergenceWarning)
            with pytest.warns(SaturationWarning):
                code, out, _ = run(capsys, "fit", "--in", str(counts), "--json")
                fit = json.loads(out)
                s = fit["scores"]
                expected = {f"{i}>{j}": bt_prob(s[i], s[j]) for i in range(3) for j in range(3) if i != j}
        assert code == 0 and fit["converged"]
        assert s == pytest.approx([0.0, math.log(1e17), -math.log(1e17)], rel=1e-12)
        assert fit["predictions"] == expected
        assert expected["1>2"] == 1.0

    # The N(N - 1) predictions come from one array call, whose entries are
    # the scalar bt_prob's bit for bit (numpy's exp can differ by an ulp).
    def test_fit_predictions_equal_scalar_calls(self, capsys, tmp_path):
        n = 100
        rng = np.random.default_rng(3)
        true = rng.normal(size=n)
        upper = np.triu_indices(n, 1)
        wins = np.zeros((n, n))
        wins[upper] = rng.binomial(20, 1.0 / (1.0 + np.exp(true[upper[1]] - true[upper[0]])))
        wins.T[upper] = 20 - wins[upper]
        counts = tmp_path / "counts.txt"
        counts.write_text(f"{n}\n" + "\n".join(" ".join(str(int(w)) for w in row) for row in wins))
        code, out, _ = run(capsys, "fit", "--in", str(counts), "--json")
        fit = json.loads(out)
        s = fit["scores"]
        expected = {f"{i}>{j}": bt_prob(s[i], s[j]) for i in range(n) for j in range(n) if i != j}
        assert code == 0 and fit["converged"]
        assert json.dumps(fit["predictions"]) == json.dumps(expected)

    # Dicts above _JSON_BLOCK entries are printed a block at a time.
    @pytest.mark.parametrize("size", [0, 1, cli._JSON_BLOCK, cli._JSON_BLOCK + 1, 3 * cli._JSON_BLOCK])
    def test_json_output_equals_one_dumps(self, capsys, size):
        payload = {
            "values": {f"k{i}\u00e9": [i / 7, math.nan, None][i % 3] for i in range(size)},
            "empty": {},
            "list": [math.inf, "\"q\"", True],
            "after": {str(i): i for i in range(size)},
        }
        for data in (payload, {}, {"only": payload["values"]}):
            cli._print_json(data)
            assert capsys.readouterr().out == json.dumps(data) + "\n"

    def test_fit_counts_not_utf8(self, capsys, tmp_path):
        counts = tmp_path / "counts.txt"
        counts.write_bytes(b"2 0 25 75 \xff")
        code, _, err = run(capsys, "fit", "--in", str(counts))
        assert code == 1
        assert_one_error_line(err, f"{counts}: not UTF-8")

    def test_sweep_data(self, capsys, tmp_path):
        out_dir = tmp_path / "sweep"
        code, out, _ = run(
            capsys, "sweep-data", "--permutation", "dog,bird,cat", "--n", "50",
            "--seed", "0", "--out-dir", str(out_dir),
        )
        assert code == 0
        files = sorted(out_dir.glob("*.jsonl"))
        assert len(files) == 21
        manifest = (out_dir / "manifest.csv").read_text().strip().split("\n")
        assert len(manifest) == 22


class TestVerify:
    def test_exit_two_on_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli,
            "run_all",
            lambda quick: [CheckResult("stub", False, "broken", 0.0)],
        )
        code, out, _ = run(capsys, "verify")
        assert code == 2
        assert "FAIL" in out and "stub" in out

    def test_exit_zero_on_success(self, capsys, monkeypatch):
        monkeypatch.setattr(
            cli,
            "run_all",
            lambda quick: [CheckResult("stub", True, "fine", 0.0)],
        )
        code, out, _ = run(capsys, "verify", "--json")
        assert code == 0
        assert json.loads(out)["failed"] == []


class TestParsing:
    def test_unknown_command(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_required(self, capsys):
        code, _, err = run(capsys, "region", "bt", "--p-kj", "0.3")
        assert code == 1

    @pytest.mark.parametrize(
        "argv, text",
        [
            ("grad bt --p-ik 0.99 --p-kj 0.02 --alpha 2", "unrecognized arguments: --alpha 2"),
            ("area pl --M 2 --n-samples 7", "unrecognized arguments: --n-samples 7"),
            ("raster bt --out x.csv --alpha 7", "unrecognized arguments: --alpha 7"),
            ("region pl --M 2 --p-uv 0.05 --p-vu 0.9", "argument --p-vu: not allowed with argument --p-uv"),
            ("grad --json bt --p-ik 0.99 --p-kj 0.02", "unrecognized arguments: --json"),
        ],
    )
    def test_option_of_another_model_refused(self, capsys, tmp_path, monkeypatch, argv, text):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv.split())
        assert code == 1 and out == ""
        assert_one_error_line(err, text)
        assert list(tmp_path.iterdir()) == []

    # main builds its parser once per process; a usage error must leave it
    # as a fresh one would be.
    def test_reused_parser_answers_as_fresh_ones(self, capsys, monkeypatch):
        calls = [
            ("region", "bt", "--p-kj", "0.3"),
            ("compose", "--p-ik", "0.9801", "--p-kj", "0.02", "--json"),
            ("grad", "pl", "--p-uv", "2"),
            ("grad", "pl", "--p-uv", "0.1", "--p-vu", "0.2"),
        ]
        assert cli._parser() is cli._parser()
        reused = [run(capsys, *argv) for argv in calls]
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert reused == [run(capsys, *argv) for argv in calls]
        assert [code for code, _, _ in reused] == [1, 0, 1, 0]

    # Each model leaf, a valid invocation of it, and the options it reads.
    LEAVES = {
        "grad bt": ("--p-ik 0.9 --p-kj 0.1", {"--p-ik", "--p-kj", "--link"}),
        "grad pl": ("--p-uv 0.1 --p-vu 0.1", {"--p-uv", "--p-vu", "--alpha", "--beta"}),
        "region bt": ("--M 2 --p-kj 0.1", {"--M", "--p-kj"}),
        "region pl": ("--M 2 --p-uv 0.1", {"--M", "--p-uv", "--p-vu", "--alpha", "--beta"}),
        "area bt": ("--M 2", {"--M", "--n-samples", "--seed"}),
        "area pl": ("--M 2", {"--M", "--alpha", "--beta", "--which", "--grid-n"}),
        "raster bt": (
            "--out x.csv",
            {"--out", "--format", "--which", "--thresholds", "--resolution"},
        ),
        "raster pl": (
            "--out x.csv",
            {"--out", "--format", "--which", "--thresholds", "--resolution", "--alpha", "--beta"},
        ),
    }
    MODEL_OPTIONS = set().union(*(options for _, options in LEAVES.values()))

    @pytest.mark.parametrize("leaf", sorted(LEAVES))
    def test_leaf_refuses_every_option_it_does_not_read(self, capsys, tmp_path, monkeypatch, leaf):
        monkeypatch.chdir(tmp_path)
        valid, reads = self.LEAVES[leaf]
        for option in sorted(self.MODEL_OPTIONS - reads):
            code, _, err = run(capsys, *leaf.split(), *valid.split(), option, "2")
            assert code == 1, option
            assert_one_error_line(err, f"unrecognized arguments: {option} 2")
        assert list(tmp_path.iterdir()) == []


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_lines():
    block = README.read_text(encoding="utf-8").split("## CLI", 1)[1]
    block = block.split("```sh\n", 1)[1].split("```", 1)[0].replace("\\\n", " ")
    return [line.strip() for line in block.splitlines() if line.startswith("prefsense ")]


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    """Every `prefsense` line of README's CLI block exits 0, in order, and
    prints the value of its `# -> value` comment."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "counts.txt").write_text("2 0 25 75 0")
    lines = readme_cli_lines()
    assert lines
    for line in lines:
        code, out, err = run(capsys, *shlex.split(line, comments=True)[1:])
        assert code == 0, (line, err)
        expected = re.search(r"#\s*->\s*(\S+)", line)
        if expected:
            assert expected.group(1) in out, (line, out)
