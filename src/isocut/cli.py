"""Command-line surface: mincut, isolate, gen, sfm.

Machine output (JSON or generated files) goes to stdout, diagnostics to
stderr, and every randomized command is deterministic under --seed
(fallback: the ISOCUT_SEED environment variable, then 0).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import click
import numpy as np

from . import _kernels
from .core import GroundSet, SubmodularOracle
from .driver import DriverConfig, NoCandidateError, find_nontrivial_minimizer
from .generate import gen_planted, gen_uniform
from .hypergraph import (
    CutOracle,
    Hypergraph,
    HypergraphFlowBlackbox,
    HypergraphParseError,
    _echo,
    _parse_ints,
    hypergraph_mincut,
    parse_hypergraph,
    parse_hypergraph_json,
    serialize_hypergraph,
)
from .isolating import TerminalSet, isolating_sets
from .sfm import BruteForceBlackbox, bruteforce_nontrivial_min

VERIFY_CAP = 14
# seeds feed numpy's SeedSequence and the driver's 64-bit rng_seed
SEED_LIMIT = 1 << 64
REPS_HELP = "Sampling repetitions per k (default: the fewest whose miss bound is <= 2**-30)."


class _DecimalInt(click.ParamType):
    """ASCII ``[+-]?[0-9]+`` only; click's ``int`` also reads ``1_0`` and non-ASCII digits."""

    name = "integer"

    def convert(self, value, param, ctx):
        try:
            return value if isinstance(value, int) else _parse_ints([value])[0]
        except ValueError:
            self.fail(f"{_echo(value)} is not an ASCII decimal integer", param, ctx)


DECIMAL_INT = _DecimalInt()


def _resolve_seed(seed):
    source = "--seed"
    if seed is None:
        env = os.environ.get("ISOCUT_SEED")
        if not env:
            return 0
        source = "ISOCUT_SEED"
        try:
            (seed,) = _parse_ints([env])
        except ValueError:
            raise click.UsageError(f"ISOCUT_SEED is not an integer: {_echo(env)}")
    if not 0 <= seed < SEED_LIMIT:
        raise click.UsageError(f"{source} must be in 0..2**64-1, got {_echo(seed)}")
    return seed


def _decode_utf8(data: bytes) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1
        raise HypergraphParseError(f"not UTF-8 text (byte 0x{data[e.start]:02x})", line) from None


def _load_hypergraph(path: str) -> Hypergraph:
    """Read a hypergraph with at least 2 vertices, or exit 1 with ``<path>: <reason>``."""
    try:
        text = _decode_utf8(Path(path).read_bytes())
        if path.endswith(".json") or text.lstrip().startswith("{"):
            h = parse_hypergraph_json(text)
        else:
            h = parse_hypergraph(text)
    except OSError as e:
        click.echo(f"{path}: {e.strerror or e}", err=True)
        sys.exit(1)
    except HypergraphParseError as e:
        click.echo(f"{path}: {e}", err=True)
        sys.exit(1)
    if h.n < 2:
        click.echo(f"{path}: needs at least 2 vertices, got n={h.n}", err=True)
        sys.exit(1)
    return h


def _emit(report: dict, as_json: bool, text_lines) -> None:
    if as_json:
        click.echo(json.dumps(report, indent=2))
    else:
        for line in text_lines:
            click.echo(line)


def _one_indexed(subset) -> list[int]:
    return [v + 1 for v in subset]


def _exit_no_candidate(cfg: DriverConfig, n: int) -> None:
    reps = cfg.resolved_repetitions(n)
    click.echo(f"no side found: every sample at --reps {reps} had fewer than 2 terminals or all {n}; raise --reps",
               err=True)
    sys.exit(1)


@click.group()
def main():
    """Nontrivial minimizers of symmetric submodular functions; hypergraph min-cut."""


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=DECIMAL_INT, default=None, help="RNG seed (fallback: ISOCUT_SEED, then 0).")
@click.option("--reps", type=DECIMAL_INT, default=None, help=REPS_HELP)
@click.option("--verify", is_flag=True, help="Cross-check against brute force (n <= 14).")
@click.option("--json/--text", "as_json", default=True, help="Output format (default JSON).")
def mincut(file, seed, reps, verify, as_json):
    """Global min cut of a hypergraph file (hMETIS-style text or JSON mirror)."""
    if reps is not None and reps < 1:
        raise click.UsageError("--reps must be >= 1")
    seed = _resolve_seed(seed)
    h = _load_hypergraph(file)
    cfg = DriverConfig(rng_seed=seed, repetitions_per_k=reps)
    start = time.perf_counter()
    try:
        res = hypergraph_mincut(h, cfg)
    except NoCandidateError:
        _exit_no_candidate(cfg, h.n)
    elapsed = time.perf_counter() - start

    verdict = None
    if verify:
        if h.n <= VERIFY_CAP:
            _, brute_value = bruteforce_nontrivial_min(CutOracle(h))
            verdict = "match" if brute_value == res.value else "mismatch"
        else:
            verdict = "skipped"
            click.echo(f"verification skipped: n={h.n} exceeds the n<={VERIFY_CAP} brute-force guard", err=True)

    schedule = [] if res.driver is None else [r.k for r in res.driver.per_k_breakdown]
    report = {
        "min_cut_value": res.value,
        "side": _one_indexed(res.side),
        "n": res.n,
        "m": res.m,
        "p": res.p,
        "blackbox_calls": res.blackbox_calls,
        "seed": seed,
        "trials": res.trials,
        "reps": None if res.driver is None else cfg.resolved_repetitions(h.n),
        "k_schedule": schedule,
        "step2_rep_total": res.step2_rep_total,
        "flow_solves": res.flow_solves,
        "miss_bound": res.miss_bound,
        "verification": verdict,
    }
    _emit(report, as_json, [
        f"min cut value: {res.value}",
        f"side (1-indexed): {_one_indexed(res.side)}",
        f"n={res.n} m={res.m} p={res.p}",
        f"blackbox calls: {res.blackbox_calls}  trials: {res.trials}",
        f"seed: {seed}",
    ] + ([f"verification: {verdict}"] if verdict else []))
    click.echo(f"wall time: {elapsed:.3f}s  backend: {_kernels.BACKEND}", err=True)
    if verdict == "mismatch":
        sys.exit(2)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--terminals", required=True, help="Comma-separated 1-indexed vertices, at least two.")
@click.option("--json/--text", "as_json", default=False, help="Output format (default text table).")
def isolate(file, terminals, as_json):
    """Minimum isolating sets of a hypergraph's cut function for given terminals."""
    h = _load_hypergraph(file)
    try:
        ids = _parse_ints([tok.strip() for tok in terminals.split(",") if tok.strip()])
    except ValueError:
        raise click.UsageError(f"--terminals must be comma-separated integers, got {_echo(terminals)}")
    if len(ids) != len(set(ids)):
        raise click.UsageError("--terminals contains a repeated vertex")
    if len(ids) < 2:
        raise click.UsageError("need at least 2 terminals")
    for v in ids:
        if not 1 <= v <= h.n:
            raise click.UsageError(f"terminal {_echo(v)} outside 1..{h.n}")

    oracle = CutOracle(h)
    ts = TerminalSet(oracle.ground.subset([v - 1 for v in ids]))
    iso = isolating_sets(oracle, ts, HypergraphFlowBlackbox(h))
    cell_total = sum(len(c) for c in iso.cells.values())
    assert cell_total <= h.n

    rows = [
        {
            "terminal": v + 1,
            "cell_size": len(iso.cells[v]),
            "value": iso.values[v],
            "isolating_set": _one_indexed(iso.isolating_sets[v]),
        }
        for v in ts.members
    ]
    report = {
        "terminals": [v + 1 for v in ts.members],
        "rows": rows,
        "step1_calls": iso.stats.step1_calls,
        "step2_calls": iso.stats.step2_calls,
        "cell_size_total": cell_total,
        "n": h.n,
    }
    _emit(report, as_json, [
        f"{'v':>4} {'|U_v|':>6} {'f(S_v)':>8}  S_v",
    ] + [
        f"{r['terminal']:>4} {r['cell_size']:>6} {r['value']:>8}  {r['isolating_set']}"
        for r in rows
    ] + [
        f"round-1 calls: {iso.stats.step1_calls}  round-2 calls: {iso.stats.step2_calls}",
        f"sum of cell sizes: {cell_total} (<= n={h.n})",
    ])


@main.command()
@click.option("--model", type=click.Choice(["uniform", "planted"]), default="uniform", show_default=True)
@click.option("--n", "n", type=DECIMAL_INT, required=True)
@click.option("--m", "m", type=DECIMAL_INT, required=True)
@click.option("--max-rank", type=DECIMAL_INT, default=3, show_default=True)
@click.option("--max-weight", type=DECIMAL_INT, default=10, show_default=True)
@click.option("--seed", type=DECIMAL_INT, default=None)
def gen(model, n, m, max_rank, max_weight, seed):
    """Emit a random hypergraph file on stdout; deterministic under --seed."""
    seed = _resolve_seed(seed)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    try:
        if model == "planted":
            h, _, planted_value = gen_planted(n, m, max_rank, max_weight, rng)
            click.echo(f"% planted cut value = {planted_value}")
        else:
            h = gen_uniform(n, m, max_rank, max_weight, rng)
    except ValueError as e:
        raise click.UsageError(str(e))
    click.echo(serialize_hypergraph(h), nl=False)


@main.command()
@click.option("--demo", required=True, help="Oracle family: cut:<file> or concave:<n>.")
@click.option("--seed", type=DECIMAL_INT, default=None)
@click.option("--reps", type=DECIMAL_INT, default=None, help=REPS_HELP)
@click.option("--json/--text", "as_json", default=True)
def sfm(demo, seed, reps, as_json):
    """Nontrivial minimizer demo with the brute-force blackbox; reports query counts."""
    if reps is not None and reps < 1:
        raise click.UsageError("--reps must be >= 1")
    seed = _resolve_seed(seed)
    family, _, arg = demo.partition(":")
    if family == "cut":
        if not arg:
            raise click.UsageError("cut demo needs a file: --demo cut:<file>")
        h = _load_hypergraph(arg)
        oracle = CutOracle(h)
        label = f"cut:{arg}"
    elif family == "concave":
        try:
            (n,) = _parse_ints([arg])
        except ValueError:
            raise click.UsageError(f"concave demo needs an integer size, got {_echo(arg)}")
        if n < 2:
            raise click.UsageError("concave demo needs n >= 2")
        oracle = SubmodularOracle(GroundSet(n), lambda s: min(len(s), n - len(s)), symmetric=True)
        label = f"concave:{n}"
    else:
        raise click.UsageError(f"unknown demo family {_echo(family)} (use cut:<file> or concave:<n>)")
    # each brute-force blackbox call enumerates up to 2^(n-2) sets, over
    # thousands of calls: past the --verify guard a demo takes minutes or more
    if oracle.ground.n > VERIFY_CAP:
        raise click.UsageError(
            f"sfm demo needs n <= {VERIFY_CAP}, the brute-force guard of mincut --verify, "
            f"got n={oracle.ground.n}"
        )

    cfg = DriverConfig(rng_seed=seed, repetitions_per_k=reps)
    start = time.perf_counter()
    try:
        res = find_nontrivial_minimizer(oracle, cfg, BruteForceBlackbox())
    except NoCandidateError:
        _exit_no_candidate(cfg, oracle.ground.n)
    elapsed = time.perf_counter() - start
    report = {
        "demo": label,
        "value": res.best_value,
        "side": _one_indexed(res.best_set),
        "n": oracle.ground.n,
        "oracle_queries": oracle.query_count,
        "blackbox_calls": res.blackbox_calls_total,
        "trials": res.trials_run,
        "seed": seed,
        "reps": cfg.resolved_repetitions(oracle.ground.n),
        "miss_bound": res.miss_bound,
        "k_schedule": [r.k for r in res.per_k_breakdown],
        "per_k": [[r.k, r.blackbox_calls, r.best_value] for r in res.per_k_breakdown],
    }
    _emit(report, as_json, [
        f"demo: {label}",
        f"value: {res.best_value}  side (1-indexed): {_one_indexed(res.best_set)}",
        f"oracle queries: {oracle.query_count}  blackbox calls: {res.blackbox_calls_total}  trials: {res.trials_run}",
        f"seed: {seed}",
    ])
    click.echo(f"wall time: {elapsed:.3f}s", err=True)


if __name__ == "__main__":
    main()
