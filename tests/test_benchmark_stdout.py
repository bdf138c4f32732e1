"""The benchmark's stdout contract, on short traced runs of each workload.

``perfbench/run.py`` ends its stdout with one strict-JSON result line, right
after one context line.  Anything the package writes to stdout, or a
non-finite metric, breaks that contract for whatever reads the result.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def strict_json(line: str):
    return json.loads(line, parse_constant=_reject_constant)


# the layers the brute-force blackbox path runs through; a rewrite that stops
# calling them by the names the tracer wraps reads as 0 here
SFM_LAYERS = ("sfm.calls", "core.evaluate.calls", "core.contract.calls", "hypergraph.cut_value.calls")


@pytest.mark.parametrize("workload", ["mincut", "sfm"])
def test_traced_run_ends_with_strict_json_result(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "0.01",
         "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # nothing but the context line and the result line
    assert len(lines) == 2, proc.stdout[:2000]
    context = strict_json(lines[0])["context"]
    assert context["missing"] == [] and context["broken_counters"] == {}
    result = strict_json(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert len(declared) == 36
    assert list(result["metrics"]) == declared
    if workload == "sfm":
        for name in SFM_LAYERS:
            assert result["metrics"][name]["value"] > 0, name
