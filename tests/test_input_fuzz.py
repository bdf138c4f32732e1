"""Fuzz of the input contract: parsers raise only parse errors, the CLI exits cleanly.

Files are small (at most 7 vertices), so the ones that parse also run the
whole ``mincut`` pipeline quickly.
"""

import json
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from isocut import cli
from isocut.hypergraph import HypergraphParseError, parse_hypergraph, parse_hypergraph_json

# tokens that int() accepts or nearly accepts, and a few it never does
ODD_TOKENS = ["", "-1", "+1", "1_0", "١", "٣", "²", "x", "1.5", "1e3", "0x10", "9" * 25, "%", "{", "\x00"]
token = st.one_of(st.integers(-1, 7).map(str), st.sampled_from(ODD_TOKENS))


@st.composite
def hgr_texts(draw):
    """A mostly valid hMETIS file with a few tokens or lines swapped for odd ones."""
    m, n = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    fmt = draw(st.sampled_from([[], ["0"], ["1"]]))
    lines = [[str(m), str(n), *fmt]]
    for _ in range(m):
        weight = [str(draw(st.integers(1, 5)))] if fmt == ["1"] else []
        lines.append(weight + draw(st.lists(st.integers(1, n).map(str), min_size=1, max_size=4)))
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, len(lines)))
        if row == len(lines):
            lines.append(draw(st.lists(token, max_size=4)))
        elif lines[row]:
            lines[row][draw(st.integers(0, len(lines[row]) - 1))] = draw(token)
    return "\n".join(" ".join(line) for line in lines) + "\n"


json_scalar = st.one_of(
    st.none(), st.booleans(), st.integers(-1, 7), st.sampled_from([2**40, 2**70]), st.floats(), st.text(max_size=3),
)
json_any = st.recursive(
    json_scalar,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.sampled_from(["n", "edges", "verts", "w"]), kids,
                                                              max_size=4),
    max_leaves=10,
)


@st.composite
def json_docs(draw):
    """A mostly valid JSON hypergraph with a field or two swapped for any JSON value."""
    n = draw(st.integers(1, 6))
    edges = []
    for _ in range(draw(st.integers(0, 5))):
        edge = {"verts": draw(st.lists(st.integers(1, n), min_size=1, max_size=4))}
        if draw(st.booleans()):
            edge["w"] = draw(st.integers(1, 5))
        edges.append(edge)
    doc = {"n": n, "edges": edges}
    for _ in range(draw(st.integers(0, 2))):
        where = draw(st.sampled_from([doc, *edges]))
        where[draw(st.sampled_from(sorted(where)))] = draw(json_any)
    return doc


json_texts = st.one_of(json_docs().map(json.dumps), json_any.map(json.dumps), st.text(max_size=30))


@settings(max_examples=300)
@given(st.one_of(hgr_texts(), st.text(max_size=40)))
def test_text_parser_raises_only_parse_errors(text):
    try:
        parse_hypergraph(text)
    except HypergraphParseError:
        pass


@settings(max_examples=300)
@given(json_texts)
def test_json_parser_raises_only_parse_errors(text):
    try:
        parse_hypergraph_json(text)
    except HypergraphParseError:
        pass


@settings(max_examples=150)
@given(st.one_of(
    st.tuples(st.just("in.hgr"), hgr_texts()),
    st.tuples(st.sampled_from(["in.hgr", "in.json"]), json_texts),
    st.tuples(st.sampled_from(["in.hgr", "in.json"]), st.binary(max_size=40)),
))
def test_mincut_exits_cleanly(file):
    name, data = file
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")  # lone surrogates become invalid UTF-8
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_bytes(data)
        result = CliRunner().invoke(cli.main, ["mincut", str(path), "--seed", "0"])
    assert result.exit_code in (0, 1, 2), result.output
    assert result.exception is None or isinstance(result.exception, SystemExit), repr(result.exception)
    assert "Traceback" not in result.output
