"""The scripts in ``benchmarks/`` run and end with one strict-JSON record.

Nothing else imports them, so a name they import going away would otherwise
break them unnoticed.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_benchmark_stdout import strict_json

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, keys", [
    ("bench_maxflow.py", ["--solves", "5"], {"backend", "solves", "us_per_build", "us_per_solve", "nodes_per_solve", "arcs_per_solve", "python", "numpy"}),
    ("bench_sfm.py", ["--calls", "1"], {"queries", "us_per_query", "python", "numpy"}),
])
def test_tiny_run_ends_with_strict_json_record(script, args, keys):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = strict_json(proc.stdout.splitlines()[-1])
    assert set(record) == keys
    if script == "bench_maxflow.py":
        assert record["solves"] == 5
        for key in ("us_per_build", "us_per_solve"):
            assert isinstance(record[key], float) and record[key] > 0
