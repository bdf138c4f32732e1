"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The statistical criteria share their expensive runs through session fixtures:
the mincut sweep (criteria 1 and 8) and the isolating-set sweep (criteria 2,
3 and 4) each run once.
"""

import math

import pytest
from click.testing import CliRunner

from isocut import (
    CutOracle,
    DriverConfig,
    ElementSubset,
    HypergraphFlowBlackbox,
    TerminalSet,
    cli,
    gen_uniform,
    hypergraph_mincut,
    isolating_sets,
    sample_terminals,
    st_mincut,
)

from conftest import (
    brute_isolating,
    brute_min_nontrivial,
    brute_st_cut,
    philox,
    random_hypergraph,
)


def record(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="session")
def mincut_sweep():
    """25 random instances x 100 seeds of the full randomized min-cut."""
    rng = philox(510)
    runs = []
    for _ in range(25):
        n = int(rng.integers(4, 13))
        m = int(rng.integers(3, 21))
        h = gen_uniform(n, m, min(5, n), 10, rng)
        truth = brute_min_nontrivial(h)
        for seed in range(100):
            res = hypergraph_mincut(h, DriverConfig(rng_seed=seed))
            runs.append((h, truth, res))
    return runs


@pytest.fixture(scope="session")
def isolating_sweep():
    """50 random cut-function instances with random terminal sets."""
    rng = philox(511)
    runs = []
    for _ in range(50):
        h = random_hypergraph(rng, n_lo=4, n_hi=10, m_lo=3, m_hi=15, max_rank=4, max_weight=10)
        size = int(rng.integers(2, h.n))  # 2 <= |R| <= n - 1
        members = sorted(int(v) for v in rng.choice(h.n, size=size, replace=False))
        f = CutOracle(h)
        ts = TerminalSet(ElementSubset.of(h.n, members))
        res = isolating_sets(f, ts, HypergraphFlowBlackbox(h))
        expected = brute_isolating(h, members)
        runs.append((h, members, res, expected))
    return runs


def test_criterion_1_bruteforce_mincut_equivalence(mincut_sweep):
    total = len(mincut_sweep)
    matches = sum(1 for _, truth, res in mincut_sweep if res.value == truth)
    rate = matches / total
    ok = rate >= 0.99
    record(1, "brute-force min-cut equivalence", ok, f"{matches}/{total} runs matched ({rate:.2%})")
    assert ok


def test_criterion_2_isolating_oracle_equivalence(isolating_sweep):
    exact = 0
    cell_bound_ok = 0
    total_sets = 0
    for h, members, res, expected in isolating_sweep:
        all_match = True
        for v in members:
            total_sets += 1
            if (res.values[v], res.isolating_sets[v].mask) != expected[v]:
                all_match = False
        if all_match:
            exact += 1
        if sum(len(c) for c in res.cells.values()) <= h.n:
            cell_bound_ok += 1
    ok = exact == len(isolating_sweep) and cell_bound_ok == len(isolating_sweep)
    record(
        2, "isolating-set oracle equivalence", ok,
        f"{exact}/{len(isolating_sweep)} instances set-exact over {total_sets} terminals; "
        f"cell bound held in {cell_bound_ok}/{len(isolating_sweep)}",
    )
    assert ok


def test_criterion_3_call_counts(isolating_sweep):
    bad = 0
    for _, members, res, _ in isolating_sweep:
        if res.stats.step1_calls != (len(members) - 1).bit_length():
            bad += 1
        elif res.stats.step2_calls != len(members):
            bad += 1
    ok = bad == 0
    record(
        3, "call-count check", ok,
        f"ceil(log2 |R|) + |R| calls exact in {len(isolating_sweep) - bad}/{len(isolating_sweep)} runs",
    )
    assert ok


def test_criterion_4_containment(isolating_sweep):
    violations = 0
    checked = 0
    for h, members, res, expected in isolating_sweep:
        for v in members:
            checked += 1
            brute_set = ElementSubset(h.n, expected[v][1])
            if not brute_set <= res.cells[v]:
                violations += 1
    ok = violations == 0
    record(4, "containment claim", ok, f"S_v within its cell for {checked - violations}/{checked} terminals")
    assert ok


def test_criterion_5_flow_engine():
    # kernel_cut packs each network with build_forward_star and solves it with
    # the blackbox's kernel, solve_max_flow, whose last BFS levels give the side
    from test_maxflow import enumerate_min_cut, kernel_cut, random_network

    rng = philox(512)
    bad = 0
    for _ in range(200):
        net = random_network(rng, max_nodes=12)
        flow, side, _ = kernel_cut(*net)
        if (flow, side) != enumerate_min_cut(*net):
            bad += 1
    ok = bad == 0
    record(5, "flow/cut engine", ok, f"value and minimal side exact on {200 - bad}/200 networks")
    assert ok


def test_criterion_6_reduction_faithfulness():
    rng = philox(513)
    bad = 0
    checked = 0
    for _ in range(100):
        h = random_hypergraph(rng, n_lo=3, n_hi=10, m_lo=2, m_hi=15, max_rank=5, max_weight=10)
        for _ in range(5):
            picks = rng.choice(h.n, size=2, replace=False)
            s_mask, t_mask = 1 << int(picks[0]), 1 << int(picks[1])
            value, _ = st_mincut(h, ElementSubset(h.n, s_mask), ElementSubset(h.n, t_mask))
            expect_value, _ = brute_st_cut(h, s_mask, t_mask)
            checked += 1
            if value != expect_value:
                bad += 1
    ok = bad == 0
    record(6, "reduction faithfulness", ok, f"st-mincut exact on {checked - bad}/{checked} source-sink pairs")
    assert ok


def test_criterion_7_sampling_constant():
    rng = philox(514)
    k, n, trials = 30, 120, 100_000
    planted = 20  # 2k/3 planted elements, placed at 0..19
    hits = 0
    for _ in range(trials):
        sample = sample_terminals(n, k, rng)
        if (sample.mask & ((1 << planted) - 1)).bit_count() == 1:
            hits += 1
    target = (2 / 3) * math.exp(-2 / 3)
    freq = hits / trials
    ok = abs(freq - target) <= 0.05
    record(7, "sampling constant", ok, f"P(exactly one) = {freq:.4f} vs (2/3)e^(-2/3) = {target:.4f}")
    assert ok


def test_criterion_8_disjoint_ground_accounting(mincut_sweep):
    # per trial: the |R| round-2 instances total at most 4 (p + |R|); runs on
    # disconnected inputs (driver is None) make no trial and count as within
    total = len(mincut_sweep)
    within = 0
    worst = 0.0
    for h, _, res in mincut_sweep:
        trials = [] if res.driver is None else [s for r in res.driver.per_k_breakdown for s in r.trial_stats]
        within += all(s.step2_rep_total <= 4 * (h.p + s.step2_calls) for s in trials)
        worst = max([worst] + [s.step2_rep_total / (h.p + s.step2_calls) for s in trials])
    ok = within == total
    record(
        8, "disjoint-ground accounting", ok,
        f"per-cell sizes within 4(p + |R|) in {within}/{total} runs; worst ratio {worst:.2f}",
    )
    assert ok


def test_criterion_9_cli_determinism(tmp_path):
    runner = CliRunner()
    gen = runner.invoke(cli.main, ["gen", "--n", "10", "--m", "14", "--seed", "21"])
    assert gen.exit_code == 0
    path = tmp_path / "instance.hgr"
    path.write_text(gen.stdout)
    spot_checks = [
        ["mincut", str(path), "--seed", str(s)] for s in range(4)
    ] + [
        ["mincut", str(path), "--seed", "9", "--verify"],
        ["isolate", str(path), "--terminals", "1,5,9", "--json"],
        ["sfm", "--demo", "concave:7", "--seed", "13"],
        ["sfm", "--demo", f"cut:{path}", "--seed", "13"],
        ["gen", "--n", "8", "--m", "9", "--seed", "4"],
        ["gen", "--model", "planted", "--n", "10", "--m", "12", "--seed", "4"],
    ]
    diffs = 0
    for args in spot_checks:
        first = runner.invoke(cli.main, args)
        second = runner.invoke(cli.main, args)
        assert first.exit_code == 0, args
        if first.stdout.encode() != second.stdout.encode():
            diffs += 1
    ok = diffs == 0
    record(9, "CLI determinism", ok, f"{len(spot_checks) - diffs}/{len(spot_checks)} spot checks byte-identical")
    assert ok
