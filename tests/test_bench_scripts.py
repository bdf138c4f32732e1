"""The scripts in ``benchmarks/`` run and end with one strict-JSON record.

Nothing else imports them, so a name they import going away would otherwise
break them unnoticed.  The call-count replay must also agree with the driver.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from isocut import DriverConfig, gen_uniform, hypergraph_mincut

from conftest import philox
from test_benchmark_stdout import strict_json

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, keys", [
    ("bench_maxflow.py", ["--solves", "5"], {"backend", "solves", "us_per_build", "us_per_solve", "nodes_per_solve", "arcs_per_solve", "python", "numpy"}),
    ("bench_sfm.py", ["--calls", "1"], {"queries", "us_per_query", "python", "numpy"}),
    ("bench_calls.py", [], {"rng_seed", "rows", "paper_calls_exponent_vs_log2_n",
                            "charged_calls_exponent_vs_n_log2_n", "paper_calls_below_naive_from",
                            "charged_calls_below_naive_from", "python", "numpy"}),
    ("bench_missrate.py", ["--runs", "3", "--draws", "20"], {"rng_seed", "end_to_end", "all_within_bound_plus_3se",
                                                          "sampling", "sampling_max_abs_z", "python", "numpy"}),
])
def test_tiny_run_ends_with_strict_json_record(script, args, keys, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # from a temporary directory: each script writes its BENCH_<name>.json record to the current one
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / script), *args],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    record = strict_json(proc.stdout.splitlines()[-1])
    assert set(record) == keys
    written = tmp_path / f"BENCH_{script[len('bench_'):-len('.py')]}.json"
    assert strict_json(written.read_text()) == record
    if script == "bench_maxflow.py":
        assert record["solves"] == 5
        for key in ("us_per_build", "us_per_solve"):
            assert isinstance(record[key], float) and record[key] > 0


def load_bench_calls():
    spec = importlib.util.spec_from_file_location("bench_calls", ROOT / "benchmarks" / "bench_calls.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n, calls, trials", [(30, 798, 96), (60, 1323, 110)])
def test_call_replay_matches_the_driver(n, calls, trials):
    # the replay draws no graph, so any connected input must give its counts
    bench_calls = load_bench_calls()
    row = bench_calls.replay(n)
    h = gen_uniform(n, 4 * n, 3, 5, philox(n))
    res = hypergraph_mincut(h, DriverConfig(rng_seed=bench_calls.RNG_SEED))
    skipped = sum(r.trials_skipped for r in res.driver.per_k_breakdown)
    assert (res.blackbox_calls, res.trials, res.trials - skipped) == (calls, trials, row["trials_run"])
    assert (row["charged_calls"], row["trials"], row["naive_calls"]) == (calls, trials, n - 1)


def test_below_naive_from_needs_every_later_row_below():
    below_naive_from = load_bench_calls().below_naive_from
    rows = [{"n": n, "naive_calls": n - 1, "calls": calls} for n, calls in [(10, 12), (20, 15), (40, 50), (80, 60)]]
    assert below_naive_from(rows, "calls") == 80
    assert below_naive_from(rows[:2], "calls") == 20
    assert below_naive_from(rows[:3], "calls") is None
