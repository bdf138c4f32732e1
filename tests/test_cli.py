"""CLI surface: commands, exit codes, JSON determinism."""

import json
import re

import pytest
from click.testing import CliRunner

from isocut import MISS_TARGET, DriverConfig, cli, hypergraph_mincut, miss_bound
from isocut.hypergraph import MAX_TOTAL_WEIGHT, MAX_VERTICES, parse_hypergraph

DUMBBELL = """7 6 1
1 1 2
1 2 3
1 1 3
1 4 5
1 5 6
1 4 6
1 3 4
"""

STAR = """3 4 1
1 1 2
1 1 3
1 1 4
"""

# the path 1-2-3: at one repetition per k, seed 0 samples fewer than two
# terminals at both k = 2 and k = 3
PATH3 = """2 3
1 2
2 3
"""


# one long value in each place a parse error echoes one: 100,000 characters,
# or 4,000 digits where the value must parse as an int (int() takes at most
# 4,300)
LONG_VALUE_CASES = [
    ("n.json", '{"n": "%s", "edges": []}' % ("x" * 100_000), "bad vertex count 'xxx"),
    ("n-digits.json", '{"n": 1%s, "edges": []}' % ("0" * 100_000), "invalid JSON: integer literal too long"),
    ("verts.json", '{"n": 3, "edges": [{"verts": "%s"}]}' % ("x" * 100_000), "edge 0 needs a non-empty"),
    ("weight.json", '{"n": 3, "edges": [{"verts": [1, 2], "w": "%s"}]}' % ("x" * 100_000), "edge 0 has bad weight"),
    ("vertex.json", '{"n": 3, "edges": [{"verts": [1, "%s"]}]}' % ("x" * 100_000), "edge 0 has vertex"),
    ("fmt.hgr", "1 3 %s\n1 2\n" % ("x" * 100_000), "line 1: unsupported fmt 'xxx"),
    ("n-limit.json", '{"n": %s, "edges": []}' % ("9" * 4000), "vertex count 999"),
    ("counts.hgr", "-%s 3\n" % ("9" * 4000), "line 1: bad header counts m=-999"),
    ("n-limit.hgr", "0 %s\n" % ("9" * 4000), "line 1: vertex count 999"),
    ("m.hgr", "%s 3\n1 2\n" % ("9" * 4000), "expected 999"),
    ("weight.hgr", "1 3 1\n-%s 1 2\n" % ("9" * 4000), "line 2: non-positive weight -999"),
    ("vertex.hgr", "1 3\n1 %s\n" % ("9" * 4000), "line 2: vertex 999"),
]


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestMincut:
    def test_dumbbell_with_verify(self, runner, tmp_path):
        path = write(tmp_path, "dumbbell.hgr", DUMBBELL)
        result = runner.invoke(cli.main, ["mincut", path, "--seed", "1", "--verify"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["min_cut_value"] == 1
        assert report["side"] == [1, 2, 3]
        assert report["verification"] == "match"
        assert report["n"] == 6 and report["m"] == 7 and report["p"] == 14
        assert report["blackbox_calls"] > 0
        assert report["seed"] == 1

    def test_json_keys(self, runner, tmp_path):
        path = write(tmp_path, "dumbbell.hgr", DUMBBELL)
        result = runner.invoke(cli.main, ["mincut", path, "--seed", "1"])
        assert result.exit_code == 0
        assert list(json.loads(result.stdout)) == [
            "min_cut_value", "side", "n", "m", "p", "blackbox_calls", "seed", "trials",
            "reps", "k_schedule", "step2_rep_total", "flow_solves", "miss_bound", "verification",
        ]

    def test_json_reports_the_library_counts_and_bound(self, runner, tmp_path):
        path = write(tmp_path, "dumbbell.hgr", DUMBBELL)
        for args, reps in ([], 17), (["--reps", "2"], 2):
            report = json.loads(runner.invoke(cli.main, ["mincut", path, "--seed", "1", *args]).stdout)
            res = hypergraph_mincut(parse_hypergraph(DUMBBELL), DriverConfig(rng_seed=1, repetitions_per_k=reps))
            assert report["reps"] == reps
            assert report["flow_solves"] == res.flow_solves > 0
            assert report["miss_bound"] == res.miss_bound == miss_bound(6, reps)

    def test_disconnected_input_reports_a_zero_bound(self, runner, tmp_path):
        path = write(tmp_path, "two.hgr", "1 4\n1 2\n")
        report = json.loads(runner.invoke(cli.main, ["mincut", path]).stdout)
        assert (report["min_cut_value"], report["reps"], report["flow_solves"], report["miss_bound"]) == (0, None, 0, 0.0)

    def test_too_few_repetitions_exit_1_with_a_hint(self, runner, tmp_path):
        path = write(tmp_path, "path3.hgr", PATH3)
        result = runner.invoke(cli.main, ["mincut", path, "--reps", "1", "--seed", "0"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a clean exit, not a traceback
        assert result.stderr.count("\n") == 1 and "raise --reps" in result.stderr
        assert result.stdout == ""

    def test_parse_error_exits_1_with_line(self, runner, tmp_path):
        path = write(tmp_path, "bad.hgr", "2 3\n1 2\n9 9\n")
        result = runner.invoke(cli.main, ["mincut", path])
        assert result.exit_code == 1
        assert "line 3" in result.stderr

    def test_verify_skipped_above_cap(self, runner, tmp_path):
        gen = runner.invoke(cli.main, ["gen", "--n", "30", "--m", "40", "--seed", "3"])
        assert gen.exit_code == 0
        path = write(tmp_path, "big.hgr", gen.stdout)
        result = runner.invoke(cli.main, ["mincut", path, "--seed", "1", "--verify", "--reps", "4"])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["verification"] == "skipped"
        assert "verification skipped" in result.stderr

    def test_mismatch_exits_2(self, runner, tmp_path, monkeypatch):
        import isocut.cli as cli_mod

        def fake_brute(oracle):
            return None, -999

        monkeypatch.setattr(cli_mod, "bruteforce_nontrivial_min", fake_brute)
        path = write(tmp_path, "dumbbell.hgr", DUMBBELL)
        result = runner.invoke(cli.main, ["mincut", path, "--seed", "1", "--verify"])
        assert result.exit_code == 2
        assert json.loads(result.stdout)["verification"] == "mismatch"

    def test_text_mode(self, runner, tmp_path):
        path = write(tmp_path, "dumbbell.hgr", DUMBBELL)
        result = runner.invoke(cli.main, ["mincut", path, "--seed", "1", "--text"])
        assert result.exit_code == 0
        assert "min cut value: 1" in result.stdout

    def test_env_seed_fallback(self, runner, tmp_path):
        path = write(tmp_path, "dumbbell.hgr", DUMBBELL)
        with_flag = runner.invoke(cli.main, ["mincut", path, "--seed", "77"])
        with_env = runner.invoke(cli.main, ["mincut", path], env={"ISOCUT_SEED": "77"})
        assert with_flag.stdout == with_env.stdout
        assert json.loads(with_env.stdout)["seed"] == 77

    @pytest.mark.parametrize("args, env, source", [
        (["--seed", "-1"], {}, "--seed"),
        (["--seed", str(1 << 64)], {}, "--seed"),
        (["--seed", "99999999999999999999999"], {}, "--seed"),
        ([], {"ISOCUT_SEED": "-5"}, "ISOCUT_SEED"),
    ])
    def test_seed_out_of_range_is_usage_error(self, runner, tmp_path, args, env, source):
        path = write(tmp_path, "dumbbell.hgr", DUMBBELL)
        result = runner.invoke(cli.main, ["mincut", path, *args], env=env)
        assert result.exit_code == 2
        assert f"{source} must be in 0..2**64-1" in result.stderr

    def test_largest_seed_accepted(self, runner, tmp_path):
        path = write(tmp_path, "dumbbell.hgr", DUMBBELL)
        result = runner.invoke(cli.main, ["mincut", path, "--seed", str((1 << 64) - 1)])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["seed"] == (1 << 64) - 1

    def test_json_input_mirror(self, runner, tmp_path):
        h = parse_hypergraph(DUMBBELL)
        obj = {"n": h.n, "edges": [{"verts": [v + 1 for v in vs], "w": w} for vs, w in h.edges]}
        path = write(tmp_path, "dumbbell.json", json.dumps(obj))
        result = runner.invoke(cli.main, ["mincut", path, "--seed", "1"])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["min_cut_value"] == 1

    @staticmethod
    def assert_parse_error(runner, path, where):
        result = runner.invoke(cli.main, ["mincut", path])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a clean exit, not a traceback
        assert where in result.stderr
        return result

    def test_json_edges_not_a_list_exits_1(self, runner, tmp_path):
        path = write(tmp_path, "bad.json", '{"n": 3, "edges": 5}')
        self.assert_parse_error(runner, path, "'edges' must be a list")

    def test_json_verts_not_a_list_exits_1(self, runner, tmp_path):
        for verts in ("7", "[]"):
            path = write(tmp_path, "bad.json", f'{{"n": 3, "edges": [{{"verts": {verts}}}]}}')
            self.assert_parse_error(runner, path, "edge 0 needs a non-empty 'verts' list")

    def test_json_bools_rejected(self, runner, tmp_path):
        path = write(tmp_path, "vert.json", '{"n": 3, "edges": [{"verts": [true, 2]}]}')
        self.assert_parse_error(runner, path, "edge 0 has vertex True")
        path = write(tmp_path, "weight.json", '{"n": 3, "edges": [{"verts": [1, 2], "w": true}]}')
        self.assert_parse_error(runner, path, "edge 0 has bad weight True")

    @pytest.mark.parametrize("name, text, where", LONG_VALUE_CASES, ids=[c[0] for c in LONG_VALUE_CASES])
    def test_long_offending_value_is_cut_short(self, runner, tmp_path, name, text, where):
        path = write(tmp_path, name, text)
        message = self.assert_parse_error(runner, path, where).stderr.removeprefix(f"{path}: ")
        assert len(message) < 200

    def test_non_utf8_file_exits_1_with_line(self, runner, tmp_path):
        path = tmp_path / "latin1.hgr"
        path.write_bytes(b"1 3\n1 2\xff 3\n")
        self.assert_parse_error(runner, str(path), "line 2: not UTF-8")

    def test_overflowing_weight_exits_1_with_line(self, runner, tmp_path):
        path = write(tmp_path, "heavy.hgr", f"2 3 1\n{1 << 59} 1 2\n{1 << 59} 2 3\n")
        self.assert_parse_error(runner, path, "line 3: total edge weight")

    @pytest.mark.parametrize("text", ["1 1_0\n1 2\n", "1 ١٠\n1 2\n"], ids=["underscore", "arabic-indic"])
    def test_non_ascii_decimal_header_exits_1(self, runner, tmp_path, text):
        path = write(tmp_path, "bad.hgr", text)
        result = runner.invoke(cli.main, ["mincut", path])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)
        assert f"{path}: line 1: header fields must be integers" in result.stderr

    def test_one_vertex_exits_1(self, runner, tmp_path):
        for name, text in (("one.hgr", "0 1\n"), ("one.json", '{"n": 1, "edges": []}')):
            path = write(tmp_path, name, text)
            self.assert_parse_error(runner, path, f"{path}: needs at least 2 vertices")

    def test_deeply_nested_json_exits_1(self, runner, tmp_path):
        depth = 100_000
        path = write(tmp_path, "deep.json", '{"n": 2, "edges": ' + "[" * depth + "]" * depth + "}")
        self.assert_parse_error(runner, path, f"{path}: invalid JSON: nested too deeply")


class TestIsolate:
    def test_star_terminals(self, runner, tmp_path):
        path = write(tmp_path, "star.hgr", STAR)
        result = runner.invoke(cli.main, ["isolate", path, "--terminals", "2,3", "--json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["step1_calls"] == 1 and report["step2_calls"] == 2
        by_terminal = {r["terminal"]: r for r in report["rows"]}
        assert by_terminal[2]["value"] == 1 and by_terminal[2]["isolating_set"] == [2]
        assert by_terminal[3]["value"] == 1 and by_terminal[3]["isolating_set"] == [3]
        assert report["cell_size_total"] <= report["n"]

    def test_text_table(self, runner, tmp_path):
        path = write(tmp_path, "star.hgr", STAR)
        result = runner.invoke(cli.main, ["isolate", path, "--terminals", "2,3"])
        assert result.exit_code == 0
        assert "round-1 calls: 1" in result.stdout

    def test_all_vertices_as_terminals(self, runner, tmp_path):
        path = write(tmp_path, "star.hgr", STAR)
        result = runner.invoke(cli.main, ["isolate", path, "--terminals", "1,2,3,4", "--json"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert all(r["isolating_set"] == [r["terminal"]] for r in report["rows"])

    def test_usage_errors(self, runner, tmp_path):
        path = write(tmp_path, "star.hgr", STAR)
        assert runner.invoke(cli.main, ["isolate", path, "--terminals", "2"]).exit_code == 2
        assert runner.invoke(cli.main, ["isolate", path, "--terminals", "2,2"]).exit_code == 2
        assert runner.invoke(cli.main, ["isolate", path, "--terminals", "2,9"]).exit_code == 2
        assert runner.invoke(cli.main, ["isolate", path, "--terminals", "a,b"]).exit_code == 2
        assert runner.invoke(cli.main, ["isolate", path, "--terminals", "1,2_0"]).exit_code == 2
        assert runner.invoke(cli.main, ["isolate", path, "--terminals", "١,٢"]).exit_code == 2
        assert runner.invoke(cli.main, ["isolate", path, "--terminals", " 2, 3 "]).exit_code == 0

    @pytest.mark.parametrize("terminals, where, chars", [
        ("a" * 3000, "--terminals must be comma-separated integers", 3002),
        ("2," + "9" * 3000, "terminal 999", 3000),
    ], ids=["not-integers", "outside-range"])
    def test_long_offending_value_is_cut_short(self, runner, tmp_path, terminals, where, chars):
        path = write(tmp_path, "star.hgr", STAR)
        result = runner.invoke(cli.main, ["isolate", path, "--terminals", terminals])
        assert result.exit_code == 2
        assert where in result.stderr
        assert f"... ({chars} chars)" in result.stderr
        assert len(result.stderr.encode()) < 300

    def test_seed_environment_is_ignored(self, runner, tmp_path):
        # nothing in isolate is random, so no seed is read or reported
        path = write(tmp_path, "star.hgr", STAR)
        plain = runner.invoke(cli.main, ["isolate", path, "--terminals", "2,3", "--json"])
        result = runner.invoke(cli.main, ["isolate", path, "--terminals", "2,3", "--json"], env={"ISOCUT_SEED": "abc"})
        assert result.exit_code == 0
        assert result.stdout == plain.stdout
        assert "seed" not in json.loads(result.stdout)


class TestGen:
    def test_deterministic_bytes(self, runner):
        a = runner.invoke(cli.main, ["gen", "--n", "10", "--m", "12", "--seed", "5"])
        b = runner.invoke(cli.main, ["gen", "--n", "10", "--m", "12", "--seed", "5"])
        assert a.exit_code == 0
        assert a.stdout == b.stdout
        parse_hypergraph(a.stdout)  # parses cleanly

    def test_planted_comment_matches_cut(self, runner, tmp_path):
        result = runner.invoke(cli.main, [
            "gen", "--model", "planted", "--n", "12", "--m", "18", "--seed", "9",
        ])
        assert result.exit_code == 0
        first = result.stdout.splitlines()[0]
        assert first.startswith("% planted cut value = ")
        planted = int(first.rsplit("=", 1)[1])
        h = parse_hypergraph(result.stdout)
        # the planted bipartition is an upper bound witness for the min cut
        path = write(tmp_path, "planted.hgr", result.stdout)
        run = runner.invoke(cli.main, ["mincut", path, "--seed", "0", "--verify"])
        report = json.loads(run.stdout)
        assert report["verification"] == "match"
        assert report["min_cut_value"] <= planted
        assert h.n == 12

    def test_param_validation(self, runner):
        assert runner.invoke(cli.main, ["gen", "--n", "5", "--m", "3", "--max-rank", "1"]).exit_code == 2
        assert runner.invoke(cli.main, ["gen", "--n", "1", "--m", "3"]).exit_code == 2
        assert runner.invoke(cli.main, ["gen", "--n", "5", "--m", "0"]).exit_code == 2
        # past the parsers' vertex limit, so `mincut` could not read the file
        assert runner.invoke(cli.main, ["gen", "--n", str(MAX_VERTICES + 1), "--m", "3"]).exit_code == 2
        result = runner.invoke(cli.main, ["gen", "--model", "planted", "--n", "2000000", "--m", "3"])
        assert result.exit_code == 2
        assert f"n <= {MAX_VERTICES}" in result.stderr
        # past the total-weight limit; from 2**63 up, numpy's own bound check would name no option
        for weight in (MAX_TOTAL_WEIGHT, 1 << 63):
            result = runner.invoke(cli.main, ["gen", "--n", "5", "--m", "3", "--max-weight", str(weight)])
            assert result.exit_code == 2
            assert f"max_weight < {MAX_TOTAL_WEIGHT}" in result.stderr

    def test_edge_count_past_the_total_weight_limit_is_usage_error(self, runner):
        # every edge weighs at least 1: such a file could never load, and the draws would not end
        for m in (str(MAX_TOTAL_WEIGHT), "9" * 4000):
            for model in ("uniform", "planted"):
                result = runner.invoke(cli.main, ["gen", "--model", model, "--n", "5", "--m", m])
                assert result.exit_code == 2
                assert f"m < {MAX_TOTAL_WEIGHT}" in result.stderr
                assert len(result.stderr.encode()) < 300

    def test_long_offending_value_is_cut_short(self, runner):
        result = runner.invoke(cli.main, ["gen", "--n", "5", "--m", "3", "--max-weight", "9" * 4000])
        assert result.exit_code == 2
        assert "... (4000 chars)" in result.stderr
        assert len(result.stderr.encode()) < 300

    def test_negative_seed_is_usage_error(self, runner):
        result = runner.invoke(cli.main, ["gen", "--n", "5", "--m", "5", "--seed", "-1"])
        assert result.exit_code == 2
        assert "--seed must be in 0..2**64-1" in result.stderr


class TestSfm:
    def test_concave_demo(self, runner):
        result = runner.invoke(cli.main, ["sfm", "--demo", "concave:8", "--seed", "0"])
        assert result.exit_code == 0
        report = json.loads(result.stdout)
        assert report["value"] == 1
        assert len(report["side"]) == 1
        assert report["oracle_queries"] > 0
        assert report["blackbox_calls"] > 0

    def test_cut_demo(self, runner, tmp_path):
        path = write(tmp_path, "dumbbell.hgr", DUMBBELL)
        result = runner.invoke(cli.main, ["sfm", "--demo", f"cut:{path}", "--seed", "0"])
        assert result.exit_code == 0
        assert json.loads(result.stdout)["value"] == 1

    def test_usage_errors(self, runner):
        assert runner.invoke(cli.main, ["sfm", "--demo", "concave:1"]).exit_code == 2
        assert runner.invoke(cli.main, ["sfm", "--demo", "weird:4"]).exit_code == 2
        assert runner.invoke(cli.main, ["sfm", "--demo", "concave:x"]).exit_code == 2
        assert runner.invoke(cli.main, ["sfm", "--demo", "concave:1_0"]).exit_code == 2
        assert runner.invoke(cli.main, ["sfm", "--demo", "concave:٨"]).exit_code == 2
        assert runner.invoke(cli.main, ["sfm", "--demo", "cut:"]).exit_code == 2

    @pytest.mark.parametrize("demo, where", [
        ("concave:" + "x" * 3000, "concave demo needs an integer size"),
        ("w" * 3000 + ":4", "unknown demo family"),
    ], ids=["concave-size", "family"])
    def test_long_offending_value_is_cut_short(self, runner, demo, where):
        result = runner.invoke(cli.main, ["sfm", "--demo", demo])
        assert result.exit_code == 2
        assert where in result.stderr
        assert "... (3002 chars)" in result.stderr
        assert len(result.stderr.encode()) < 300

    def test_negative_seed_is_usage_error(self, runner):
        result = runner.invoke(cli.main, ["sfm", "--demo", "concave:6", "--seed", "-1"])
        assert result.exit_code == 2
        assert "--seed must be in 0..2**64-1" in result.stderr

    @staticmethod
    def assert_cut_demo_exits_1(runner, path, where):
        result = runner.invoke(cli.main, ["sfm", "--demo", f"cut:{path}"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a clean exit, not a traceback
        assert f"{path}: {where}" in result.stderr

    def test_one_vertex_cut_demo_exits_1(self, runner, tmp_path):
        path = write(tmp_path, "one.hgr", "0 1\n")
        self.assert_cut_demo_exits_1(runner, path, "needs at least 2 vertices")

    def test_missing_cut_file_exits_1(self, runner, tmp_path):
        self.assert_cut_demo_exits_1(runner, str(tmp_path / "absent.hgr"), "No such file or directory")

    def test_directory_cut_file_exits_1(self, runner, tmp_path):
        self.assert_cut_demo_exits_1(runner, str(tmp_path), "Is a directory")

    def test_oversized_demo_rejected_before_running(self, runner, tmp_path):
        # past n = 14 a brute-force demo runs for seconds to hours
        for n in (15, 27):
            path = write(tmp_path, f"path{n}.hgr", f"{n - 1} {n}\n" + "".join(f"{v} {v + 1}\n" for v in range(1, n)))
            for demo in (f"concave:{n}", f"cut:{path}"):
                result = runner.invoke(cli.main, ["sfm", "--demo", demo])
                assert result.exit_code == 2, demo
                assert f"sfm demo needs n <= 14, the brute-force guard of mincut --verify, got n={n}" in result.stderr

    def test_too_few_repetitions_exit_1_with_a_hint(self, runner):
        result = runner.invoke(cli.main, ["sfm", "--demo", "concave:3", "--reps", "1", "--seed", "0"])
        assert result.exit_code == 1
        assert isinstance(result.exception, SystemExit)  # a clean exit, not a traceback
        assert result.stderr.count("\n") == 1 and "raise --reps" in result.stderr
        assert result.stdout == ""

    def test_json_reports_the_bound(self, runner):
        report = json.loads(runner.invoke(cli.main, ["sfm", "--demo", "concave:8", "--seed", "0"]).stdout)
        assert report["reps"] == 14
        assert report["miss_bound"] == miss_bound(8, 14) <= 2**-30

    def test_largest_demo_runs(self, runner):
        result = runner.invoke(cli.main, ["sfm", "--demo", "concave:14", "--reps", "1", "--seed", "0"])
        assert result.exit_code == 0, result.stderr
        assert json.loads(result.stdout)["value"] == 1


@pytest.mark.parametrize("command", ["mincut", "sfm"])
def test_reps_help_states_the_miss_target(runner, command):
    # --help quotes the target that the default repetitions per k meet
    result = runner.invoke(cli.main, [command, "--help"])
    exponent = re.search(r"miss bound is <= 2\*\*(-?\d+)\)", " ".join(result.stdout.split()))
    assert 2.0 ** int(exponent.group(1)) == MISS_TARGET


class TestIntegerOptions:
    """Integer options and ISOCUT_SEED take ASCII ``[+-]?[0-9]+`` only, like the files."""

    FLAG_CASES = [
        ["mincut", "FILE", "--seed", "V"],
        ["mincut", "FILE", "--reps", "V"],
        ["gen", "--n", "V", "--m", "5"],
        ["gen", "--n", "5", "--m", "V"],
        ["gen", "--n", "5", "--m", "5", "--max-rank", "V"],
        ["gen", "--n", "5", "--m", "5", "--max-weight", "V"],
        ["gen", "--n", "5", "--m", "5", "--seed", "V"],
        ["sfm", "--demo", "concave:6", "--seed", "V"],
        ["sfm", "--demo", "concave:6", "--reps", "V"],
    ]
    ENV_CASES = [["mincut", "FILE"], ["gen", "--n", "5", "--m", "5"], ["sfm", "--demo", "concave:6"]]

    @staticmethod
    def assert_usage_error(result):
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)  # a clean exit, not a traceback
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("value", ["1_0", "٣"], ids=["underscore", "arabic-indic"])
    @pytest.mark.parametrize("args", FLAG_CASES, ids=lambda a: a[0] + a[a.index("V") - 1])
    def test_flag_rejects_non_ascii_decimal(self, runner, tmp_path, args, value):
        path = write(tmp_path, "dumbbell.hgr", DUMBBELL)
        args = [path if a == "FILE" else value if a == "V" else a for a in args]
        result = runner.invoke(cli.main, args)
        self.assert_usage_error(result)
        assert "is not an ASCII decimal integer" in result.stderr

    @pytest.mark.parametrize("value", ["1_0", "٣"], ids=["underscore", "arabic-indic"])
    @pytest.mark.parametrize("args", ENV_CASES, ids=lambda a: a[0])
    def test_env_seed_rejects_non_ascii_decimal(self, runner, tmp_path, args, value):
        path = write(tmp_path, "dumbbell.hgr", DUMBBELL)
        args = [path if a == "FILE" else a for a in args]
        result = runner.invoke(cli.main, args, env={"ISOCUT_SEED": value})
        self.assert_usage_error(result)
        assert "ISOCUT_SEED is not an integer" in result.stderr

    @pytest.mark.parametrize("value, where", [
        ("x" * 5000, "ISOCUT_SEED is not an integer"),
        ("9" * 4000, "ISOCUT_SEED must be in 0..2**64-1"),
    ], ids=["unparsable", "out-of-range"])
    def test_long_env_seed_is_cut_short(self, runner, value, where):
        result = runner.invoke(cli.main, ["gen", "--n", "5", "--m", "5"], env={"ISOCUT_SEED": value})
        self.assert_usage_error(result)
        assert where in result.stderr
        assert " chars)" in result.stderr
        assert len(result.stderr.encode()) < 300

    def test_signed_ascii_values_still_parse(self, runner):
        result = runner.invoke(cli.main, ["gen", "--n", "+5", "--m", "05", "--max-rank", "3", "--seed", "+7"])
        assert result.exit_code == 0
        assert result.stdout == runner.invoke(cli.main, ["gen", "--n", "5", "--m", "5", "--seed", "7"]).stdout


class TestDeterminism:
    def test_repeat_runs_byte_identical(self, runner, tmp_path):
        dumbbell = write(tmp_path, "dumbbell.hgr", DUMBBELL)
        star = write(tmp_path, "star.hgr", STAR)
        invocations = [
            ["mincut", dumbbell, "--seed", "3"],
            ["mincut", dumbbell, "--seed", "4", "--verify"],
            ["mincut", star, "--seed", "3"],
            ["isolate", star, "--terminals", "2,4", "--json"],
            ["gen", "--n", "9", "--m", "11", "--seed", "2"],
            ["gen", "--model", "planted", "--n", "8", "--m", "10", "--seed", "2"],
            ["sfm", "--demo", "concave:6", "--seed", "8"],
            ["sfm", "--demo", f"cut:{star}", "--seed", "8"],
            ["mincut", dumbbell, "--seed", "5", "--reps", "7"],
            ["mincut", dumbbell, "--seed", "6"],
        ]
        for args in invocations:
            first = runner.invoke(cli.main, args)
            second = runner.invoke(cli.main, args)
            assert first.exit_code == 0, args
            assert first.stdout.encode() == second.stdout.encode(), args
