"""Record the outputs the benchmark checks against into expected.json.

Run from the repository root, at a commit whose outputs are known good:

    python3 bench/record_expected.py

Output formats are meant to stay byte-identical, so this is re-run only
when a change alters an output on purpose, and that change says so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import DatasetRoundtrip, Figures, run_cli, sha256_file  # noqa: E402


def main() -> None:
    expected = {"verify_details": {}, "roundtrip_sha256": {}, "figures_sha256": {}}
    for label, argv in (("full", ["verify"]), ("quick", ["verify", "--quick"])):
        out = run_cli(argv)
        expected["verify_details"][label] = {r["name"]: r["details"] for r in out["results"]}
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for n in (100_000, 2000):
            path = Path(tmp) / "roundtrip.jsonl"
            run_cli(["gen-data", "--permutation", DatasetRoundtrip.OPTIONS, "--p12", str(DatasetRoundtrip.P12),
                     "--p23", str(DatasetRoundtrip.P23), "--n", str(n), "--seed", "0", "--out", str(path)])  # fmt: skip
            expected["roundtrip_sha256"][str(n)] = sha256_file(path)
        for resolution in (512, 64):
            digests = {}
            for model, fmt in Figures.FILES:
                path = Path(tmp) / f"{model}.{fmt}"
                run_cli(["raster", model, "--out", str(path), "--format", fmt, "--resolution", str(resolution)])
                digests[f"{model}.{fmt}"] = sha256_file(path)
            expected["figures_sha256"][str(resolution)] = digests
    Path(__file__).with_name("expected.json").write_text(json.dumps(expected, indent=2) + "\n")


if __name__ == "__main__":
    main()
