"""Command-line interface: parsing, reports, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainkit import build_chain, cli, demo, errors, line_chain, spectral, structure
from chainkit.chain import ENTRY_CLAMP, ROW_SUM_ATOL
from chainkit.cli import main, parse_graph_tsv
from chainkit.stationary import STATIONARITY_ATOL

from conftest import circulating_line_chain, layered_chain, periodic_chain

CHAIN_DOC = {
    "states": ["S", "C", "B"],
    "P": [[0.5, 0.3, 0.2], [0.1, 0.8, 0.1], [0.3, 0.2, 0.5]],
}

TSV_UNDIRECTED = "#undirected\na\tb\t3\nb\tc\t1\n"
TSV_BALANCED = "#directed\n1\t2\t3\n2\t1\t1\n2\t3\t4\n3\t2\t2\n3\t4\t2\n4\t1\t2\n"

# one successful invocation of every subcommand; {chain}, {graph} and
# {absorbing} stand for the fixture files
EVERY_SUBCOMMAND = [
    ["validate", "{chain}"],
    ["classify", "{chain}"],
    ["stationary", "{chain}"],
    ["spectrum", "{chain}"],
    ["taxonomy", "{chain}", "--format", "csv"],
    ["evolve", "{chain}", "--start", "S", "--steps", "3"],
    ["simulate", "{chain}", "--start", "S", "--length", "5", "--seed", "2"],
    ["simulate", "{chain}", "--start", "S", "--length", "5", "--trajectories", "4",
     "--seed", "2"],
    ["reverse", "{chain}"],
    ["reversibilize", "{chain}", "--mode", "multiplicative"],
    ["kmatrix", "{chain}"],
    ["laplacian", "{chain}", "--variant", "directed"],
    ["embed", "{graph}", "--k", "2"],
    ["gft", "{graph}", "--signal", "1,0,0"],
    ["pagerank", "{chain}", "--damping", "0.85"],
    ["absorb", "{absorbing}"],
    ["rwset", "{graph}", "--other", "{graph}"],
    ["demo-line-chain", "--n", "8", "--perturb", "0.1", "--seed", "3"],
]


def case_id(template):
    """The subcommand; the ensemble form of simulate is told apart."""
    return template[0] + ("-trajectories" if "--trajectories" in template else "")


@pytest.fixture
def chain_file(tmp_path):
    f = tmp_path / "chain.json"
    f.write_text(json.dumps(CHAIN_DOC))
    return str(f)


@pytest.fixture
def graph_file(tmp_path):
    f = tmp_path / "graph.tsv"
    f.write_text(TSV_UNDIRECTED)
    return str(f)


@pytest.fixture
def inputs(chain_file, graph_file, tmp_path):
    f = tmp_path / "absorbing.json"
    f.write_text(json.dumps({"states": ["t", "a"], "P": [[0.5, 0.5], [0.0, 1.0]]}))
    return {"chain": chain_file, "graph": graph_file, "absorbing": str(f)}


def route_chain(route):
    """One chain per `decompose` route: a reversible line chain, three
    classes with no edges between them, a layered reducible chain, a
    chain of period 3 (the cyclic lift) and a dense chain (one Schur form
    of the whole P)."""
    rng = np.random.default_rng(15)
    if route == "reversible":
        return line_chain(n=12, perturb=0.1, seed=5)
    if route == "classes":
        p = np.zeros((12, 12))
        for a, b in ((0, 3), (3, 7), (7, 12)):
            p[a:b, a:b] = rng.random((b - a, b - a)) + 0.05
        order = rng.permutation(12)
        p = (p / p.sum(axis=1, keepdims=True))[np.ix_(order, order)]
        return build_chain([str(i) for i in range(12)], p)
    if route == "layered":
        return layered_chain(rng, [2, 4, 3])
    if route == "lift":
        return periodic_chain(rng, 3, 5)
    p = rng.random((8, 8)) + 0.05
    return build_chain([str(i) for i in range(8)], p / p.sum(axis=1, keepdims=True))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_undirected_tsv_mirrors_edges(self):
        g = parse_graph_tsv(TSV_UNDIRECTED)
        assert g.is_undirected
        assert g.w[0, 1] == g.w[1, 0] == 3.0

    def test_missing_directive_rejected(self, tmp_path, capsys):
        f = tmp_path / "bad.tsv"
        f.write_text("a\tb\t1\n")
        code, _, err = run(capsys, "validate", str(f))
        assert code == 2 and "error" in err

    def test_malformed_json_rejected(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        code, _, err = run(capsys, "validate", str(f))
        assert code == 2

    def test_missing_file_rejected(self, capsys):
        code, _, _ = run(capsys, "validate", "/nonexistent/chain.json")
        assert code == 2

    @pytest.mark.parametrize("argv", [["validate", "{long}"],
                                      ["rwset", "{graph}", "--other", "{long}"]],
                             ids=["validate", "rwset-other"])
    def test_unopenable_path_is_exit_two(self, argv, graph_file, capsys):
        # a 5000-byte file name cannot be opened: OSError, not FileNotFoundError
        argv = [a.format(long="a" * 5000, graph=graph_file) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv, data", [
        (["classify"], b"\xff\xfe\x00garbage"),
        (["validate"], b"#directed\na\tb\t1\nb\t\xff\t1\n"),
        (["validate"], b'{"states": ["a"],\n "P": [[1.0]], "x": "\xff"}'),
        (["rwset", "--other", "{bad}"], b"\xff"),
    ], ids=["bytes", "tsv", "json", "rwset-other"])
    def test_non_utf8_input_is_exit_two(self, argv, data, graph_file, tmp_path, capsys):
        f = tmp_path / "bad.bin"
        f.write_bytes(data)
        first = graph_file if argv[0] == "rwset" else str(f)
        code, out, err = run(capsys, argv[0], first, *[a.format(bad=f) for a in argv[1:]])
        assert code == 2 and out == ""
        assert err.startswith("error: line ") and "not UTF-8" in err
        assert "Traceback" not in err

    def test_deeply_nested_json_is_exit_two(self, tmp_path, capsys):
        f = tmp_path / "deep.json"
        f.write_text('{"states":["a"],"P":' + "[" * 200_000)
        code, out, err = run(capsys, "validate", str(f))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_json_after_long_leading_whitespace(self, tmp_path, capsys):
        # the JSON/TSV decision reads the first non-whitespace character,
        # however far into the file it sits
        results = []
        for pad in (0, 10, 2000):
            f = tmp_path / f"pad{pad}.json"
            f.write_text(" " * pad + json.dumps(CHAIN_DOC))
            code, out, err = run(capsys, "validate", str(f))
            assert code == 0 and err == ""
            results.append(json.loads(out)["result"])
        assert results[0] == results[1] == results[2]

    def test_digest_is_of_the_bytes_read(self, tmp_path, capsys):
        # CRLF line ends parse like LF ones; the digest covers the raw bytes
        text = json.dumps(CHAIN_DOC, indent=1)
        reports = []
        for name, data in (("lf", text.encode()), ("crlf", text.replace("\n", "\r\n").encode())):
            f = tmp_path / f"{name}.json"
            f.write_bytes(data)
            code, out, _ = run(capsys, "stationary", str(f))
            assert code == 0
            reports.append(json.loads(out))
            assert reports[-1]["input_digest"] == hashlib.sha256(data).hexdigest()
        assert reports[0]["result"] == reports[1]["result"]


# ---------------------------------------------------------------------------
# the chain JSON decoder (orjson) against the standard library's

ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

# repr, the 12 digits reports print, round-trip digits, and 21 digits in
# exponent form (past round-trip, so the decimal is rounded to a double)
FLOAT_FORMATS = ("%r", "%.12g", "%.17g", "%.20e")


def decoded(text):
    """The (labels, P) parse_chain_json hands to build_chain."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "build_chain", lambda labels, p: (labels, p))
        return cli.parse_chain_json(text)


def float_bits(values):
    return [(type(v), np.float64(v).view(np.uint64)) for v in values]


class TestChainJsonDecoder:
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=12),
           st.sampled_from(FLOAT_FORMATS))
    @example([0.0, -0.0, 5e-324, -2.225073858507201e-308, 2.2250738585072014e-308,
              1.7976931348623157e308, 0.1, 1 / 3], "%r")
    @example([5e-324, 4.9406564584124654e-324, -1e-310, 1e-5], "%.12g")
    @settings(max_examples=300)
    def test_floats_decode_as_the_stdlib_does(self, values, fmt):
        text = ('{"states": ["a"], "P": [['
                + ", ".join(fmt % v for v in values) + "]]}")
        labels, p = decoded(text)
        ref = json.loads(text)
        assert labels == ref["states"]
        assert float_bits(p[0]) == float_bits(ref["P"][0])

    @pytest.mark.parametrize("text, line, reason", [
        ('{"states": ["a", "b"],\n "P": [[NaN, 1.0], [0.5, 0.5]]}', 2, ""),
        ('{"states": ["a", "b"],\n "P": [[0.5, 0.5],\n [Infinity, 0.5]]}', 3, ""),
        ('{"states": ["a", "b"],\n "P": [[0.5, 0.5], [-Infinity, 0.5]]}', 2, ""),
        ('{"states": ["a", "b"],\n "P": [[1e400, 0.5], [0.5, 0.5]]}', 2, "infinity"),
        ('{"states": ["a"],\n "P": [[1' + "0" * 400 + ']]}', 2, "infinity"),
        ('\ufeff{"states": ["a"], "P": [[1.0]]}', 1, "byte order mark"),
        ('{"states": ["\\ud800"],\n "P": [[1.0]]}', 1, "surrogate"),
        ('{"states": ["a", "b"], "P": [[0.5, 0.5], [0.5, 0.5],]}', 1, "trailing comma"),
    ], ids=["nan", "infinity", "minus-infinity", "overflow", "long-integer", "bom",
            "lone-surrogate", "trailing-comma"])
    def test_non_rfc_8259_text_is_a_parse_error(self, text, line, reason, tmp_path, capsys):
        # NaN, Infinity and 1e400 used to decode and fail as non-finite
        # entries, a 401-digit integer with a traceback, and an unpaired
        # surrogate escape in a label exited 0
        f = tmp_path / "chain.json"
        f.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, "validate", str(f))
        assert code == 2 and out == ""
        assert err.startswith(f"error: line {line}: ") and reason in err

    @pytest.mark.parametrize("extra, code", [(0, 0), (1, 2)], ids=["at-cap", "past-cap"])
    def test_bracket_cap_is_exact(self, extra, code, tmp_path, capsys):
        # {"states": [...], "P": [[...]], "pad": [[...]]} holds 4 + depth brackets
        depth = cli.MAX_BRACKETS - 4 + extra
        f = tmp_path / "chain.json"
        f.write_text('{"states": ["a"], "P": [[1.0]], "pad": '
                     + "[" * depth + "]" * depth + "}")
        assert run(capsys, "validate", str(f))[0] == code

    @pytest.mark.parametrize("nest, close, depth, message", [
        ("[", "]", 1_000_000, "error: line 1: chain JSON holds more than"),
        ('{"a":', "}", 100_000, "error: line 1: chain JSON holds more than"),
        # exactly MAX_BRACKETS in all: decoded, then refused as no matrix
        ('{"a":', "}", cli.MAX_BRACKETS - 2,
         "error: transition matrix is not a numeric array"),
    ], ids=["arrays", "objects", "objects-at-cap"])
    def test_deep_nesting_is_exit_two_not_a_crash(self, nest, close, depth, message,
                                                  tmp_path):
        # in a subprocess, so a decoder that overflows the C stack fails
        # this test instead of killing the test run
        f = tmp_path / "deep.json"
        f.write_text('{"states": ["a"], "P": ' + nest * depth + "1" + close * depth + "}")
        proc = subprocess.run([sys.executable, "-m", "chainkit.cli", "validate", str(f)],
                              env=ENV, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2, proc.returncode  # a signal is negative
        assert proc.stdout == "" and proc.stderr.startswith(message)


# ---------------------------------------------------------------------------
# the whole-file TSV reader against the per-edge loop it replaced

def reference_parse_graph_tsv(text):
    """The former reader: one record at a time, then one W update per entry."""
    lines = text.splitlines()
    if not lines or lines[0].strip() not in ("#undirected", "#directed"):
        raise errors.ParseError(1, 'first line must be "#undirected" or "#directed"')
    undirected = lines[0].strip() == "#undirected"
    edges = []
    idx = {}
    for no, line in enumerate(lines[1:], start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise errors.ParseError(no, "expected src<TAB>dst<TAB>weight")
        src, dst, raw = parts
        try:
            weight = float(raw)
        except ValueError:
            raise errors.ParseError(no, f"bad weight {raw!r}") from None
        if not (0 < weight < math.inf):
            raise errors.ParseError(no, "weights must be positive and finite")
        edges.append((no, idx.setdefault(src, len(idx)), idx.setdefault(dst, len(idx)),
                      weight))
    w = np.zeros((len(idx), len(idx)))
    for no, i, j, weight in edges:
        for entry in {(i, j), (j, i)} if undirected else {(i, j)}:
            w[entry] = float(w[entry]) + weight
            if w[entry] == math.inf:
                raise errors.ParseError(no, "summed edge weight is not finite")
    if not idx:  # build_graph refuses a graph without vertices
        raise errors.ValidationError("a chain or graph needs at least one state")
    return list(idx), w


def tsv_outcome(parse, text):
    """(labels, W) of a parse, or its error's line (None for a file
    without records) and message."""
    try:
        out = parse(text)
    except errors.ValidationError as exc:
        return getattr(exc, "line", None), str(exc)
    return (list(out.labels), out.w) if hasattr(out, "labels") else out


def assert_same_tsv_outcome(text):
    got, want = tsv_outcome(parse_graph_tsv, text), tsv_outcome(reference_parse_graph_tsv,
                                                                  text)
    assert got[0] == want[0]
    if isinstance(want[1], np.ndarray):
        assert np.array_equal(got[1], want[1])
    else:
        assert got[1] == want[1]


_tsv_labels = st.sampled_from(["a", "b", "c", "node 1", "x y z", "é", "节点", "0.5"]) | st.text(
    st.characters(blacklist_characters="\t\r\n"), min_size=1, max_size=3)
_tsv_pad = st.sampled_from(["", " ", "\t", "  \t ", "\u3000"])
_tsv_weights = st.one_of(
    st.floats(min_value=5e-324, max_value=1e300).map(repr),
    st.sampled_from(["1", "2.5", " 3 ", "1e-3", "1_000", "+4", "1E2", "7."]))
_tsv_bad_weights = st.sampled_from(["nan", "-1", "0", "-0.0", "inf", "-inf", "x", "", "1e999",
                                    "1e-400", "1e308", "0x10", "1,5"])


@st.composite
def tsv_files(draw, bad=False):
    """A directive TSV: records drawn from a few labels (so duplicates,
    mirrored duplicates and self-loops are common) between comments and
    blank lines, padded with whitespace, with LF or CRLF line ends; with
    `bad`, also malformed records."""
    labels = draw(st.lists(_tsv_labels, min_size=1, max_size=5))
    lines = [draw(_tsv_pad) + draw(st.sampled_from(["#undirected", "#directed"]))
             + draw(_tsv_pad)]
    kinds = ["edge"] * 12 + ["comment", "blank"] + (["fields", "weight", "huge"] if bad else [])
    for _ in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(kinds))
        if kind == "comment":
            lines.append(draw(_tsv_pad) + "#" + draw(st.sampled_from(["", " note", "\tx\ty"])))
        elif kind == "blank":
            lines.append(draw(_tsv_pad))
        else:
            fields = [draw(st.sampled_from(labels)), draw(st.sampled_from(labels)),
                      "1e308" if kind == "huge" else
                      draw(_tsv_bad_weights if kind == "weight" else _tsv_weights)]
            if kind == "fields":
                fields = fields[:draw(st.integers(1, 2))] if draw(st.booleans()) else fields + ["1"]
            lines.append(draw(_tsv_pad) + "\t".join(fields) + draw(_tsv_pad))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


class TestGraphTsvReader:
    @given(tsv_files())
    def test_valid_files_match_reference(self, text):
        try:
            labels, w = reference_parse_graph_tsv(text)
        except errors.ValidationError:  # no records: a zero-state graph
            with pytest.raises(errors.ValidationError, match="at least one state"):
                parse_graph_tsv(text)
            return
        got = parse_graph_tsv(text)
        assert list(got.labels) == labels and np.array_equal(got.w, w)

    @given(tsv_files(bad=True))
    def test_any_file_matches_reference(self, text):
        assert_same_tsv_outcome(text)

    @pytest.mark.parametrize("text, line, reason", [
        ("#directed\na\tb\t1\na\tb\n", 3, "expected src<TAB>dst<TAB>weight"),
        ("#directed\na\tb\t1\t2\n", 2, "expected src<TAB>dst<TAB>weight"),
        # one and five fields: three per record on average, all numeric
        ("#directed\n1\n1\t1\t1\t1\t1\n", 2, "expected src<TAB>dst<TAB>weight"),
        ("#directed\na\tb\tone\n", 2, "bad weight 'one'"),
        ("#directed\na\tb\tnan\n", 2, "weights must be positive and finite"),
        ("#directed\na\tb\t-1\n", 2, "weights must be positive and finite"),
        ("#directed\na\tb\t0\n", 2, "weights must be positive and finite"),
        ("#directed\na\tb\tinf\n", 2, "weights must be positive and finite"),
        ("#directed\na\tb\t1e308\n\na\tb\t1e308\n", 4, "summed edge weight is not finite"),
        ("#undirected\na\tb\t1e308\nb\ta\t1e308\n", 3, "summed edge weight is not finite"),
        ("#undirected\na\ta\t1e308\n# c\na\ta\t1e308\n", 4,
         "summed edge weight is not finite"),
        # a bad record anywhere outranks an overflow before it
        ("#directed\na\tb\t1e308\na\tb\t1e308\na\tb\n", 4,
         "expected src<TAB>dst<TAB>weight"),
        ("a\tb\t1\n", 1, 'first line must be "#undirected" or "#directed"'),
    ])
    def test_errors_match_reference(self, text, line, reason):
        with pytest.raises(errors.ParseError) as exc:
            parse_graph_tsv(text)
        assert (exc.value.line, str(exc.value)) == (line, f"line {line}: {reason}")
        assert_same_tsv_outcome(text)

    @pytest.mark.parametrize("bad", ["a\tb", "a\tb\tx", "a\tb\t0", "a\tb\t1e308"])
    def test_error_after_long_valid_prefix(self, bad):
        rng = np.random.default_rng(4)
        records = [f"v{i}\tv{j}\t{x!r}" for i, j, x in
                   zip(*rng.integers(0, 300, (2, 3000)).tolist(), rng.random(3000).tolist())]
        text = "\n".join(["#undirected", "a\tb\t1e308", *records, bad, "c\td\t1"])
        assert_same_tsv_outcome(text)
        with pytest.raises(errors.ParseError, match="^line 3003: "):
            parse_graph_tsv(text)

    def test_undirected_self_loop_counts_once(self):
        g = parse_graph_tsv("#undirected\na\ta\t2\na\tb\t1\nb\ta\t0.5\n")
        assert g.labels == ("a", "b")
        assert np.array_equal(g.w, [[2.0, 1.5], [1.5, 0.0]])


class TestGraphTsvSummation:
    def test_records_sum_in_file_order(self):
        # 1e16 + 1 rounds back to 1e16 twice; 1 + 1 first would give 1e16 + 2
        g = parse_graph_tsv("#directed\na\tb\t1e16\na\tb\t1\na\tb\t1\n")
        assert g.w[0, 1] == 1e16
        g = parse_graph_tsv("#directed\na\tb\t1\na\tb\t1\na\tb\t1e16\n")
        assert g.w[0, 1] == 1e16 + 2

    def test_weights_are_frozen(self):
        g = parse_graph_tsv(TSV_UNDIRECTED)
        assert not g.w.flags.writeable and g.w.flags.c_contiguous


class TestReports:
    def test_validate_chain(self, chain_file, capsys):
        code, out, _ = run(capsys, "validate", chain_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "validate"
        assert doc["result"]["ok"] and doc["result"]["kind"] == "chain"
        assert len(doc["input_digest"]) == 64

    def test_validate_graph_reports_shape_facts(self, graph_file, capsys):
        code, out, _ = run(capsys, "validate", graph_file)
        doc = json.loads(out)
        assert doc["result"]["kind"] == "graph"
        assert doc["result"]["undirected"] is True
        assert doc["result"]["volume"] == 8.0

    @pytest.mark.parametrize("template", EVERY_SUBCOMMAND, ids=case_id)
    def test_reports_are_byte_identical(self, template, inputs, capsys):
        argv = [arg.format(**inputs) for arg in template]
        code, first, _ = run(capsys, *argv)
        assert code == 0
        _, second, _ = run(capsys, *argv)
        assert first == second

    # sha256 of each EVERY_SUBCOMMAND case's stdout; last changed when each
    # check began recording the tolerance it applies (`result` unchanged)
    GOLDEN_DIGESTS = {
        "validate": "339b00e596cb9a63176faaffcd64eb1bc5edf6a5cf68d3c1ad2e701b8814936b",
        "classify": "8ffbcacf744f65e89202b4bf1399009f9318b95bf1a8346dfd272cd819e0fb5a",
        "stationary": "5154421f687e6ee5bb2f2e17b6201c29ba7e330a5102148e23ea960a13156fe0",
        "spectrum": "d846a0265346d1184f1bf320032b4e7a1487682fb193bb4ea5a2b18b34ae391c",
        "taxonomy": "07901dd2d56ae36c1d8eca84eb95527e211e7a2f32406cefd1f1490f9e98d72f",
        "evolve": "db3edff0ea9a0c38d986a292624a0714cf6de02f2fde3d9f14436d03a8509bb5",
        "simulate": "85dcccc72534a1aa85805003a33f55de244192957db2b0442ac897ef15bc38e3",
        "simulate-trajectories":
            "32104b162ee1c6b90321667fff81d50d240c35f88fccf0bd8cccd712f9c6c3e0",
        "reverse": "4e1c5533e6411d4ad6567dc9e085239d403b3a06f41933a27f3c52c291a90938",
        "reversibilize": "521538ade3640d2997774eb36186612fe94543f0f28d9385ec9499ec737c0fbc",
        "kmatrix": "e242af815dc80f69c853bcfef9e40936c449c1998e36b7c3e2de02ec345e271b",
        "laplacian": "673be34f05777395362ead05d85f86b261a63cfae66f75198deda3957c337aa7",
        "embed": "90c4b13ccbbcf52471abba3fa4bef2bc0a4bf32885ff1eab1861db38567a6be1",
        "gft": "b0376483f3331f17e751df1da1ef56eafda6e7049d21a9ab71183ad2bc3cba34",
        "pagerank": "4b6b6f743789033d966f3e8d7f51a452f6dfb1af12f1a86a9d13a77cbacbc3fc",
        "absorb": "7117452981561f8d9391c050e453e3a818e4d2b37ad712f4d21da0e1a4e0b40d",
        "rwset": "4a6701ef2d431c0be0fcc1874a72cf77a6ea899750398ce4ae6f4bd5a5c85360",
        "demo-line-chain": "892ed92fef8eddc7a6b5391d8a7f794a1097d9a300a4b3ce865d3c9844be0b20",
    }

    @pytest.mark.parametrize("template", EVERY_SUBCOMMAND, ids=case_id)
    def test_report_matches_golden_digest(self, template, inputs, capsys):
        code, out, _ = run(capsys, *[arg.format(**inputs) for arg in template])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == self.GOLDEN_DIGESTS[case_id(template)]

    # sha256 of the `spectrum` and `taxonomy --format csv` reports on one
    # chain per `decompose` route (spectrum's with the tolerances it applied)
    ROUTE_DIGESTS = {
        "reversible": ("9e5e4c6fef595897c7942b254e86fb9018189566d33f3dbd339849f575986673",
                      "7ae3c03133c81d985370b7a1552e99f60f339ab9066f5446b10ccbfaf0a64ad5"),
        "classes": ("190c22d1ee316051404a8b66dfe68da0ea8b49a3a73458c7a1bb951691725c28",
                   "dc51fcb879736747004e675307408e94c029ce38da9041e421d45b6a42460638"),
        "layered": ("02705b77ad4075a64caf04a5c597998f72d3cca8ea3e8b1b8873f2bb6b5bb790",
                   "6c87364658507630ef03fc5ec472463691f14b4808ab16379d711d3019262721"),
        "lift": ("af91b4aa5c609addbf09982be51799b9dda73efe7539760deb31481867702634",
                "f22615191449a4da2f7a84a5ac886fc16d1fc0a4e9cd91783c4c5fcba0b0ff0a"),
        "dense": ("8840d5a8c6fb5b19669d9d153df4a913fabae75f237e0c0def8ef71457886a6c",
                 "f70dbcacdb8e24942a5108896c1ee1a74e4013bda3019b2884ccd97e772866cb"),
    }

    @pytest.mark.parametrize("route", sorted(ROUTE_DIGESTS))
    def test_route_reports_match_golden_digests(self, route, tmp_path, capsys):
        chain = route_chain(route)
        f = tmp_path / "chain.json"
        f.write_text(json.dumps({"states": list(chain.labels), "P": chain.p.tolist()}))
        digests = []
        for argv in (["spectrum", str(f)], ["taxonomy", str(f), "--format", "csv"]):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            digests.append(hashlib.sha256(out.encode()).hexdigest())
        assert tuple(digests) == self.ROUTE_DIGESTS[route]

    def test_every_subcommand_is_covered(self):
        assert sorted({t[0] for t in EVERY_SUBCOMMAND}) == sorted(cli.COMMANDS)

    def test_spectrum_report_analyses_once(self, chain_file, tmp_path, capsys, monkeypatch):
        calls = {"real_schur": [], "sym_eigen": [], "classify": []}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name].append(np.shape(args[0].p if name == "classify" else args[0]))
                return func(*args, **kwargs)
            return wrapper

        for name in ("real_schur", "sym_eigen"):
            monkeypatch.setattr(spectral, name, counted(name, getattr(spectral, name)))
        monkeypatch.setattr(structure, "classify", counted("classify", structure.classify))
        # an ergodic chain takes one Schur form of P, a 12-state chain of
        # period 3 one of its 4x4 cycle product, a 56-state chain of period
        # 4 that of its 14x14 product, which fails the residual gate, then
        # that of its 28x28 product at the divisor 2, and a 3-class chain
        # one per class, sources first; a line chain and a walk on an
        # undirected graph are reversible and take sym_eigen instead
        periodic, layered = tmp_path / "periodic.json", tmp_path / "layered.json"
        period_four = tmp_path / "period_four.json"
        line, graph = tmp_path / "line.json", tmp_path / "graph.tsv"
        for path, chain in ((periodic, periodic_chain(np.random.default_rng(3), 3, 4)),
                            (period_four, periodic_chain(np.random.default_rng(1), 4, 14)),
                            (layered, layered_chain(np.random.default_rng(6), [3, 4, 5])),
                            (line, line_chain(n=20, perturb=0.1, seed=1))):
            path.write_text(json.dumps({"states": list(chain.labels), "P": chain.p.tolist()}))
        graph.write_text("#undirected\na\tb\t3\nb\tc\t1\nc\ta\t2\nc\td\t5\nd\te\t1\n")
        for path, n, schur, sym in ((chain_file, 3, [(3, 3)], []),
                                    (str(periodic), 12, [(4, 4)], []),
                                    (str(period_four), 56, [(14, 14), (28, 28)], []),
                                    (str(layered), 12, [(3, 3), (4, 4), (5, 5)], []),
                                    (str(line), 20, [], [(20, 20)]),
                                    (str(graph), 5, [], [(5, 5)])):
            for seen in calls.values():
                seen.clear()
            code, _, _ = run(capsys, "spectrum", path)
            assert code == 0
            assert calls == {"real_schur": schur, "sym_eigen": sym, "classify": [(n, n)]}

    def test_floats_rounded_to_twelve_significant_digits(self, chain_file, capsys):
        _, out, _ = run(capsys, "stationary", chain_file)
        doc = json.loads(out)
        for v in doc["result"]["equal_weight_combination"]:
            assert v == float(f"{v:.12g}")

    def test_stationary_of_ergodic_chain(self, chain_file, capsys):
        _, out, _ = run(capsys, "stationary", chain_file)
        doc = json.loads(out)
        pi = np.array(doc["result"]["equal_weight_combination"])
        p = np.array(CHAIN_DOC["P"])
        assert doc["result"]["unique"]
        assert np.max(np.abs(pi @ p - pi)) < 1e-9

    def test_classify_payload(self, chain_file, capsys):
        _, out, _ = run(capsys, "classify", chain_file)
        r = json.loads(out)["result"]
        assert r["irreducible"] and r["ergodic"]
        assert r["periodicity"] == "aperiodic"

    def test_classify_flags_agree_on_roundoff_entry(self, tmp_path, capsys):
        f = tmp_path / "leak.json"
        f.write_text(json.dumps({"states": ["a", "b"],
                                 "P": [[1 - 1e-13, 1e-13], [0.5, 0.5]]}))
        code, out, _ = run(capsys, "classify", str(f))
        r = json.loads(out)["result"]
        assert code == 0 and r["classes"] == [["a"], ["b"]]
        assert r["irreducible"] is False and r["ergodic"] is False
        assert r["absorbing"] is True and r["absorbing_states"] == ["a"]

    def test_graph_input_normalizes_to_walk(self, graph_file, capsys):
        code, out, _ = run(capsys, "classify", graph_file)
        assert code == 0
        assert json.loads(out)["result"]["irreducible"]


class TestSpectrumFormats:
    def test_row_order_ignores_state_order(self, tmp_path, capsys):
        # every eigenvalue of a 60-cycle has modulus 1 up to roundoff, so
        # an order set by last-ulp noise changes when the states do
        rng = np.random.default_rng(60)
        order = rng.permutation(60)
        p = np.zeros((60, 60))
        p[order, np.roll(order, -1)] = 1.0
        states = [f"s{i}" for i in range(60)]
        perm = rng.permutation(60)
        reports = []
        for name, doc in (("cycle", {"states": states, "P": p.tolist()}),
                          ("permuted", {"states": [states[i] for i in perm],
                                        "P": p[np.ix_(perm, perm)].tolist()})):
            f = tmp_path / f"{name}.json"
            f.write_text(json.dumps(doc))
            code, out, _ = run(capsys, "spectrum", str(f))
            assert code == 0
            reports.append(json.loads(out)["result"]["eigenvalues"])
        first, second = reports
        assert [r["label"] for r in first] == [r["label"] for r in second]
        for key in ("re", "im", "abs"):
            assert np.allclose([r[key] for r in first], [r[key] for r in second],
                               rtol=0, atol=1e-10)

    def test_csv_has_header_and_rows(self, chain_file, capsys):
        code, out, _ = run(capsys, "spectrum", chain_file, "--format", "csv")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "re,im,abs,label"
        assert len(lines) == 4

    def test_json_taxonomy_labels(self, chain_file, capsys):
        _, out, _ = run(capsys, "taxonomy", chain_file)
        rows = json.loads(out)["result"]["eigenvalues"]
        assert rows[0]["label"] == "persistent_structure"
        assert abs(rows[0]["abs"] - 1.0) < 1e-9

    def test_perron_summary(self, chain_file, capsys):
        _, out, _ = run(capsys, "spectrum", chain_file)
        perron = json.loads(out)["result"]["perron"]
        assert perron["unit_multiplicity"] == 1

    def test_second_modulus_is_the_largest_not_labelled_unit(self, tmp_path, capsys):
        # the lazy birth-death path I + d (A - D) at d = 2.56e-8, A and D
        # the path's adjacency and degree matrices: 1 - 1.5e-8 ties with
        # 1 in the modulus cluster and sorts first, labelled transient
        d = 2.56e-8
        a = np.diag(np.ones(3), 1) + np.diag(np.ones(3), -1)
        f = tmp_path / "lazy_path.json"
        f.write_text(json.dumps({"states": list("abcd"),
                                 "P": (np.eye(4) + d * (a - np.diag(a.sum(1)))).tolist()}))
        code, out, _ = run(capsys, "spectrum", str(f))
        result = json.loads(out)["result"]
        assert code == 0
        assert result["eigenvalues"][0] == {"abs": 0.999999985004, "im": 0.0,
                                            "label": "transient_structure",
                                            "re": 0.999999985004}
        assert result["perron"]["second_modulus"] == 0.999999985004
        assert result["perron"]["unit_multiplicity"] == 1

    def test_lazy_cycle_spectrum_exits_zero(self, tmp_path, capsys):
        # (1 - d) I + d C at d = 6.2e-9: each term of the Francis shift's
        # first column is near 1 and their sum O(d^2), which the direct
        # form lost, and QR ran out of sweeps (exit 3)
        f = tmp_path / "lazy_cycle.json"
        f.write_text('{"states":["a","b","c"],"P":[[0.9999999938,0.0000000062,0],'
                     '[0,0.9999999938,0.0000000062],[0.0000000062,0,0.9999999938]]}')
        code, out, err = run(capsys, "spectrum", str(f))
        assert code == 0 and err == ""
        rows = json.loads(out)["result"]["eigenvalues"]
        assert [r["label"] for r in rows] == ["transient_structure", "persistent_structure",
                                              "transient_structure"]


class TestEvolutionAndSimulation:
    def test_evolve_point_mass(self, chain_file, capsys):
        _, out, _ = run(capsys, "evolve", chain_file, "--start", "S",
                        "--steps", "2")
        dist = json.loads(out)["result"]["distribution"]
        expected = np.linalg.matrix_power(np.array(CHAIN_DOC["P"]), 2)[0]
        assert np.allclose(dist, expected, atol=1e-9)

    def test_evolve_huge_step_count(self, chain_file, capsys):
        # 10^9 steps take about 30 squarings, not 10^9 vector products.
        # The oracle is pi, not np.linalg.matrix_power: the stored row
        # (0.1, 0.8, 0.1) sums to 1 + 5.6e-17, and unnormalized squaring
        # compounds that to a mass of 1 + 3e-9 by 10^9 steps
        start = time.perf_counter()
        code, out, _ = run(capsys, "evolve", chain_file, "--start", "S",
                           "--steps", "1000000000")
        assert code == 0 and time.perf_counter() - start < 1.0
        dist = np.array(json.loads(out)["result"]["distribution"])
        assert np.max(np.abs(dist - [4 / 17, 19 / 34, 7 / 34])) <= 1e-12

    def test_evolve_needs_a_start(self, chain_file, capsys):
        code, _, err = run(capsys, "evolve", chain_file)
        assert code == 2

    def test_evolve_start_and_mu_together_is_a_usage_error(self, chain_file, capsys):
        # --mu went unread beside --start, so even a NaN one exited 0
        with pytest.raises(SystemExit) as exc:
            main(["evolve", chain_file, "--start", "S", "--mu", "nan,nan,nan"])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "" and err.startswith("usage:")
        assert "argument --mu: not allowed with argument --start" in err

    def test_simulate_seed_flag_and_env(self, chain_file, capsys, monkeypatch):
        _, a, _ = run(capsys, "simulate", chain_file, "--start", "S",
                      "--length", "20", "--seed", "5")
        monkeypatch.setenv("CHAINS_SEED", "5")
        _, b, _ = run(capsys, "simulate", chain_file, "--start", "S",
                      "--length", "20")
        assert a == b
        assert json.loads(a)["result"]["seed"] == 5

    def test_chains_seed_is_read_on_every_call(self, chain_file, capsys, monkeypatch):
        # the parser is built once per process; the environment is read per call
        seeds = []
        for env in ("5", "7"):
            monkeypatch.setenv("CHAINS_SEED", env)
            _, out, _ = run(capsys, "simulate", chain_file, "--start", "S")
            seeds.append(json.loads(out)["result"]["seed"])
        assert seeds == [5, 7]

    def test_malformed_chains_seed_is_a_usage_error(self, chain_file, capsys,
                                                    monkeypatch):
        monkeypatch.setenv("CHAINS_SEED", "abc")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", chain_file, "--start", "S"])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and err.startswith("usage:")
        assert "argument --seed: invalid int value: 'abc'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, env", [
        (["simulate", "{chain}", "--start", "S", "--seed", "-1"], None),
        (["simulate", "{chain}", "--start", "S", "--length", "3", "--trajectories", "4",
          "--seed", "-2"], None),
        (["simulate", "{chain}", "--start", "S"], "-4"),
        (["demo-line-chain", "--seed", "-3", "--perturb", "0.1"], None),
        # exit 0 while the seed went unread; every negative seed is refused now
        (["demo-line-chain", "--seed", "-3"], None),
        (["demo-line-chain", "--n", "6"], "-1"),
    ], ids=["path", "ensemble", "env", "demo-perturbed", "demo", "demo-env"])
    def test_negative_seed_is_a_usage_error(self, argv, env, chain_file, capsys,
                                            monkeypatch):
        if env is not None:
            monkeypatch.setenv("CHAINS_SEED", env)
        with pytest.raises(SystemExit) as exc:
            main([a.format(chain=chain_file) for a in argv])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == "" and err.startswith("usage:")
        assert "argument --seed: seed must be non-negative" in err
        assert "Traceback" not in err

    def test_seed_flag_overrides_chains_seed(self, chain_file, capsys, monkeypatch):
        monkeypatch.setenv("CHAINS_SEED", "abc")
        _, out, _ = run(capsys, "simulate", chain_file, "--start", "S", "--seed", "9")
        assert json.loads(out)["result"]["seed"] == 9

    def test_simulate_many_trajectories_reports_occupancy(self, chain_file,
                                                          capsys):
        _, out, _ = run(capsys, "simulate", chain_file, "--start", "S",
                        "--length", "3", "--trajectories", "50", "--seed", "1")
        occ = np.array(json.loads(out)["result"]["occupancy"])
        assert occ.shape == (4, 3)
        assert np.allclose(occ.sum(axis=1), 1.0, atol=1e-12)

    # golden stdout, captured with the per-step reference sampler that
    # test_chain keeps as its oracle, on CHAIN_DOC as chain_file writes it
    GOLDEN_PATH = (
        '{"command":"simulate","input_digest":'
        '"003a0b7371bbefe7775f81edea4a13dcca68a70d21d52f00614296622486ab4a",'
        '"result":{"path":["S","S","S","B","S","C","C","C","S","S","C","C",'
        '"C","C","C","C","C","B","B","C","C","C","C","C","C","C","B","C","C",'
        '"C","C","C","C","C","C","C","C","C","C","C","C"],"seed":2},'
        '"tolerances":{"entry":1e-12,"row_sum":1e-09},"tool_version":"0.1.0"}\n')
    GOLDEN_ENSEMBLE = (
        '{"command":"simulate","input_digest":'
        '"003a0b7371bbefe7775f81edea4a13dcca68a70d21d52f00614296622486ab4a",'
        '"result":{"length":6,"occupancy":[[1.0,0.0,0.0],[0.46,0.3,0.24],'
        '[0.38,0.44,0.18],[0.28,0.5,0.22],[0.32,0.56,0.12],[0.24,0.6,0.16],'
        '[0.28,0.48,0.24]],"seed":2,"states":["S","C","B"],"trajectories":50},'
        '"tolerances":{"entry":1e-12,"row_sum":1e-09},"tool_version":"0.1.0"}\n')

    def test_simulate_path_golden(self, chain_file, capsys):
        code, out, _ = run(capsys, "simulate", chain_file, "--start", "S",
                           "--length", "40", "--seed", "2")
        assert code == 0 and out == self.GOLDEN_PATH

    def test_simulate_ensemble_golden(self, chain_file, capsys):
        code, out, _ = run(capsys, "simulate", chain_file, "--start", "S",
                           "--length", "6", "--trajectories", "50", "--seed", "2")
        assert code == 0 and out == self.GOLDEN_ENSEMBLE


class TestTransformCommands:
    def test_reverse_round_trip(self, chain_file, capsys):
        _, out, _ = run(capsys, "reverse", chain_file)
        doc = json.loads(out)["result"]["chain"]
        p = np.array(doc["P"])
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("argv", [["reverse"], ["reversibilize", "--mode", "additive"]],
                             ids=["reverse", "reversibilize"])
    def test_transform_echoes_row_sum_tolerance(self, argv, chain_file, capsys):
        # the input and output chains pass build_chain's entry and row-sum
        # checks, pi the stationarity check; no detailed-balance tolerance
        # is applied
        code, out, _ = run(capsys, argv[0], chain_file, *argv[1:])
        assert code == 0
        assert json.loads(out)["tolerances"] == {"entry": ENTRY_CLAMP, "row_sum": ROW_SUM_ATOL,
                                                 "stationarity": STATIONARITY_ATOL}

    def test_reversibilize_modes(self, chain_file, capsys):
        for mode in ("additive", "multiplicative"):
            code, out, _ = run(capsys, "reversibilize", chain_file,
                               "--mode", mode)
            assert code == 0
            assert json.loads(out)["result"]["mode"] == mode

    def test_kmatrix_reports_symmetry_verdict(self, chain_file, capsys):
        # symmetric is Kolmogorov's verdict: K_ij / K_ji = pi_i P_ij / (pi_j P_ji)
        _, out, _ = run(capsys, "kmatrix", chain_file)
        r = json.loads(out)["result"]
        k = np.array(r["k"])
        assert r["symmetric"] is r["reversible"] is False
        assert np.max(np.abs(k - k.T)) > 1e-3

    @given(n=st.integers(3, 5), delta=st.floats(0.5e-9, 3e-9),
           seed=st.integers(0, 2**32 - 1))
    def test_kmatrix_flags_agree_near_the_cycle_tolerance(self, n, delta, seed,
                                                          tmp_path_factory):
        # a walk on symmetric weights with one entry scaled by 1 + delta: its
        # cycles' log ratios straddle CYCLE_RTOL, where an entrywise test on K
        # and the cycle test disagreed on both sides
        rng = np.random.default_rng(seed)
        w = rng.random((n, n)) ** 3 + 1e-3
        w = w + w.T
        i, j = rng.choice(n, 2, replace=False)
        w[i, j] *= 1 + delta
        p = w / w.sum(axis=1, keepdims=True)
        f = tmp_path_factory.mktemp("kmatrix") / "chain.json"
        f.write_text(json.dumps({"states": [f"s{k}" for k in range(n)], "P": p.tolist()}))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["kmatrix", str(f)]) == 0
        r = json.loads(out.getvalue())["result"]
        assert r["symmetric"] == r["reversible"]
        assert (r["witness"] is None) == r["reversible"]

    def test_kmatrix_flags_agree_on_a_small_circulation(self, tmp_path, capsys):
        # flows differ by at most 4e-10 here, but p[2, 0] = 2e-8 has no
        # reverse edge: the chain is not reversible, and reverse moves P
        chain = circulating_line_chain(50, 0.5, 2e-8)
        f = tmp_path / "circulating.json"
        f.write_text(json.dumps({"states": list(chain.labels), "P": chain.p.tolist()}))
        code, out, _ = run(capsys, "kmatrix", str(f))
        assert code == 0
        r = json.loads(out)["result"]
        assert not r["reversible"] and not r["semi_reversible"] and not r["symmetric"]
        assert r["witness"] == [2, 0]

    def test_laplacian_on_graph_and_chain(self, graph_file, chain_file, capsys):
        _, out, _ = run(capsys, "laplacian", graph_file,
                        "--variant", "normalized")
        m = np.array(json.loads(out)["result"]["matrix"])
        assert np.allclose(m, m.T, atol=1e-12)
        _, out, _ = run(capsys, "laplacian", chain_file,
                        "--variant", "directed")
        assert json.loads(out)["result"]["variant"] == "directed"

    def test_embed_and_gft(self, graph_file, capsys):
        _, out, _ = run(capsys, "embed", graph_file, "--k", "2")
        coords = np.array(json.loads(out)["result"]["coordinates"])
        assert coords.shape == (3, 2)
        _, out, _ = run(capsys, "gft", graph_file, "--signal", "1,0,0")
        assert len(json.loads(out)["result"]["coefficients"]) == 3

    def test_rwset_detects_scaled_copy(self, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("#directed\nx\ty\t1\ny\tx\t2\n")
        b.write_text("#directed\nx\ty\t3\ny\tx\t6\n")
        _, out, _ = run(capsys, "rwset", str(a), "--other", str(b))
        r = json.loads(out)["result"]
        assert r["same_random_walk_set"]
        assert np.allclose(r["scaling"], [1 / 3, 1 / 3], atol=1e-12)

    def test_rwset_matches_vertices_by_label(self, tmp_path, capsys):
        # each file numbers its vertices in order of first mention: c, b, a
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("#undirected\na\tb\t1\nb\tc\t2\n")
        b.write_text("#undirected\nc\tb\t4\nb\ta\t2\n")
        code, out, _ = run(capsys, "rwset", str(a), "--other", str(b))
        r = json.loads(out)["result"]
        assert code == 0 and r["same_random_walk_set"] is True
        assert r["scaling"] == [0.5, 0.5, 0.5]

    def test_rwset_of_a_graph_with_a_sink(self, tmp_path, capsys):
        # c has no out-weight, so the graph has no random walk: not even
        # the graph itself shares one, while classify refuses the file
        g = tmp_path / "g.tsv"
        g.write_text("#directed\na\tb\t1\nb\tc\t2\n")
        code, out, _ = run(capsys, "rwset", str(g), "--other", str(g))
        assert code == 0
        assert json.loads(out)["result"] == {"same_random_walk_set": False, "scaling": None}
        code, out, err = run(capsys, "classify", str(g))
        assert code == 2 and out == ""
        assert err == "error: vertex 'c' has no outgoing weight\n"

    @pytest.mark.parametrize("other", ["#undirected\na\tb\t1\nb\td\t2\n",
                                       "#undirected\na\tb\t1\n"],
                             ids=["other-label", "fewer-vertices"])
    def test_rwset_refuses_other_vertices(self, other, tmp_path, capsys):
        a = tmp_path / "a.tsv"
        b = tmp_path / "b.tsv"
        a.write_text("#undirected\na\tb\t1\nb\tc\t2\n")
        b.write_text(other)
        code, out, err = run(capsys, "rwset", str(a), "--other", str(b))
        assert code == 2 and out == ""
        assert err == "error: vertex 'c' is in only one of the graphs\n"

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(2, 6))
    def test_rwset_finds_shuffled_rescaled_copy(self, data, n, tmp_path_factory):
        # every vertex keeps an out-edge, so the walk is defined
        edges = {}
        for i in range(n):
            heads = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
            for j in heads:
                edges[i, j] = data.draw(st.floats(0.01, 100))
        factor = [data.draw(st.floats(0.01, 100)) for _ in range(n)]
        order = data.draw(st.permutations(sorted(edges)))
        d = tmp_path_factory.mktemp("rwset")
        (d / "a.tsv").write_text("#directed\n" + "".join(
            f"v{i}\tv{j}\t{w!r}\n" for (i, j), w in edges.items()))
        (d / "b.tsv").write_text("#directed\n" + "".join(
            f"v{i}\tv{j}\t{edges[i, j] * factor[i]!r}\n" for i, j in order))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["rwset", str(d / "a.tsv"), "--other", str(d / "b.tsv")]) == 0
        r = json.loads(out.getvalue())["result"]
        first = list(dict.fromkeys(f"v{k}" for edge in edges for k in edge))
        assert r["same_random_walk_set"] is True
        assert np.allclose(r["scaling"], [1 / factor[int(v[1:])] for v in first], rtol=1e-10)

    def test_pagerank_report(self, chain_file, capsys):
        _, out, _ = run(capsys, "pagerank", chain_file, "--damping", "0.85")
        r = json.loads(out)["result"]
        assert abs(sum(r["pagerank"]) - 1.0) < 1e-9
        assert r["residual_l1"] < 1e-10

    def test_absorb_payload(self, tmp_path, capsys):
        f = tmp_path / "abs.json"
        f.write_text(json.dumps({
            "states": ["t", "a"],
            "P": [[0.5, 0.5], [0.0, 1.0]],
        }))
        _, out, _ = run(capsys, "absorb", str(f))
        r = json.loads(out)["result"]
        assert r["permutation"] == ["t", "a"]
        assert r["fundamental"] == [[2.0]]
        assert r["expected_steps"] == [2.0]


class TestExitCodes:
    @pytest.mark.parametrize("template", [t + ["--tol", "1e-3"] for t in EVERY_SUBCOMMAND]
                             + [["classify", "{chain}", "--format", "csv"],
                                ["stationary", "{chain}", "--seed", "1"]],
                             ids=lambda t: f"{case_id(t)}{t[-2]}")
    def test_flag_outside_its_subcommands_is_exit_two(self, template, inputs):
        with pytest.raises(SystemExit) as exc:
            main([arg.format(**inputs) for arg in template])
        assert exc.value.code == 2

    def test_row_sum_violation_is_exit_two(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"states": ["a", "b"],
                                 "P": [[0.5, 0.4], [0.5, 0.5]]}))
        code, out, err = run(capsys, "validate", str(f))
        assert code == 2 and out == "" and "error" in err

    def test_absorb_on_ergodic_chain_is_exit_two(self, chain_file, capsys):
        code, _, _ = run(capsys, "absorb", chain_file)
        assert code == 2

    def test_reverse_on_non_recurrent_chain_is_exit_two(self, tmp_path, capsys):
        f = tmp_path / "nonrec.json"
        f.write_text(json.dumps({"states": ["a", "b"],
                                 "P": [[0.5, 0.5], [0.0, 1.0]]}))
        code, _, _ = run(capsys, "reverse", str(f))
        assert code == 2

    @pytest.mark.parametrize("argv", [["reverse"], ["kmatrix"],
                                      ["reversibilize", "--mode", "additive"],
                                      ["laplacian", "--variant", "directed"]],
                             ids=["reverse", "kmatrix", "reversibilize", "laplacian"])
    def test_underflowing_pi_is_exit_two(self, argv, tmp_path, capsys):
        # pi_i grows like 9^i, so pi_0 ~ 1e-381 underflows to 0
        p = demo.line_chain(n=400, p_right=0.9).p
        f = tmp_path / "birth_death.json"
        f.write_text(json.dumps({"states": [str(i) for i in range(400)], "P": p.tolist()}))
        code, out, err = run(capsys, argv[0], str(f), *argv[1:])
        assert code == 2 and out == ""
        assert "requires strictly positive pi" in err and "Warning" not in err

    @pytest.mark.parametrize("low", [[[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]],
                                     [[0.2, 0.7, 0.1], [0.1, 0.2, 0.7], [0.7, 0.1, 0.2]]],
                             ids=["symmetric", "cyclic"])
    @pytest.mark.parametrize("argv", [["embed", "--k", "2"], ["gft", "--signal", "1,2,3,4"],
                                      ["spectrum"]], ids=["embed", "gft", "spectrum"])
    def test_underflowing_reflector_norm_is_exit_zero(self, argv, low, tmp_path, capsys):
        # state 0 trades 1e-170 with each other state, so the Householder
        # column below the subdiagonal squares to 0
        p = np.full((4, 4), 1e-170)
        p[0, 0] = 1.0
        p[1:, 1:] = low
        f = tmp_path / "underflow.json"
        f.write_text(json.dumps({"states": list("abcd"), "P": p.tolist()}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, argv[0], str(f), *argv[1:])
        assert code == 0, err
        result = json.loads(out)["result"]
        if argv[0] == "spectrum":
            got = [complex(v["re"], v["im"]) for v in result["eigenvalues"]]
            want = np.linalg.eigvals(p)
        else:  # pi is uniform, so K = P
            got = result["values"]
            want = np.linalg.eigvalsh(np.eye(4) - 0.5 * (p + p.T))[:len(got)]
        assert len(got) == len(want)
        for x, y in ((got, want), (want, got)):
            assert max(min(abs(a - b) for b in y) for a in x) <= 1e-10

    def test_every_error_class_has_an_exit_code(self):
        # main maps ValidationError to exit 2 and NumericError to exit 3
        classes = [c for c in vars(errors).values()
                   if isinstance(c, type) and issubclass(c, errors.ChainkitError)
                   and c not in (errors.ChainkitError, errors.ValidationError,
                                 errors.NumericError)]
        assert classes
        for c in classes:
            assert issubclass(c, (errors.ValidationError, errors.NumericError)), c

    @pytest.mark.parametrize("weight", ["1", "1e-13"])
    def test_graph_flags_do_not_depend_on_weight_units(self, weight, tmp_path, capsys):
        # a directed 3-cycle: the same random walk at either weight
        f = tmp_path / "cycle.tsv"
        f.write_text("#directed\n" + "".join(f"{u}\t{v}\t{weight}\n"
                                             for u, v in ("ab", "bc", "ca")))
        code, out, _ = run(capsys, "validate", str(f))
        doc = json.loads(out)["result"]
        assert code == 0 and doc["undirected"] is False and doc["balanced"] is True
        code, out, err = run(capsys, "laplacian", str(f), "--variant", "normalized")
        assert code == 2 and out == "" and "symmetric weight matrix" in err

    def test_walk_on_an_undirected_graph_is_reversible_at_any_weight_range(
            self, tmp_path, capsys):
        # P[b, a] = 1e-13 is a transition of the walk, as W[b, a] > 0 is an
        # edge: the walk is irreducible, with pi = d / vol, and reversible
        f = tmp_path / "wide.tsv"
        f.write_text("#undirected\na\tb\t1e-6\nb\tc\t1e7\n")
        code, out, _ = run(capsys, "classify", str(f))
        doc = json.loads(out)["result"]
        assert code == 0 and doc["irreducible"] and doc["classes"] == [["a", "b", "c"]]
        code, out, _ = run(capsys, "stationary", str(f))
        assert code == 0 and json.loads(out)["result"]["vectors"] == [[5e-14, 0.5, 0.5]]
        code, out, _ = run(capsys, "kmatrix", str(f))
        doc = json.loads(out)["result"]
        assert code == 0 and doc["reversible"] and doc["symmetric"]

    def test_numeric_error_is_exit_three(self, chain_file, capsys, monkeypatch):
        # no known input reaches a NumericError, so a stage is made to raise one
        def fail(*args):
            raise errors.NumericError("no convergence")
        monkeypatch.setattr(spectral, "decompose", fail)
        code, out, err = run(capsys, "spectrum", chain_file)
        assert code == 3 and out == ""
        assert err == "numeric failure: no convergence\n"

    @pytest.mark.parametrize("records", [
        # a light pair 1e-6 apart beside a heavy one: each pair is judged by
        # its own weight, not by the largest
        [("a", "b", "0.001"), ("b", "a", "0.001000001"), ("b", "c", "1e9"),
         ("c", "b", "1e9")],
        # a heavy balanced 3-cycle beside a light pair 1e-8 apart: each
        # vertex is judged by its own degree
        [("a", "b", "10"), ("b", "c", "10"), ("c", "a", "10"), ("d", "e", "0.001"),
         ("e", "d", "0.00100000001")],
    ], ids=["near-symmetric", "light-imbalance"])
    def test_graph_flags_are_per_pair_and_per_vertex(self, records, tmp_path, capsys):
        f = tmp_path / "graph.tsv"
        f.write_text("#directed\n" + "".join("\t".join(r) + "\n" for r in records))
        code, out, _ = run(capsys, "validate", str(f))
        doc = json.loads(out)["result"]
        assert code == 0 and doc["undirected"] is False and doc["balanced"] is False

    def test_bad_damping_is_exit_two(self, chain_file, capsys):
        code, _, _ = run(capsys, "pagerank", chain_file, "--damping", "1.5")
        assert code == 2


    @pytest.mark.parametrize("argv", [
        ["simulate", "--start", "S", "--length", "-3"],
        ["simulate", "--start", "S", "--length", "-3", "--trajectories", "5"],
        ["simulate", "--start", "S", "--trajectories", "0"],
        ["simulate", "--start", "S", "--trajectories", "-4"],
        ["evolve", "--start", "S", "--steps", "-1"],
    ], ids=["length", "ensemble-length", "zero-trajectories",
            "negative-trajectories", "steps"])
    def test_bad_count_is_exit_two(self, argv, chain_file, capsys):
        code, out, err = run(capsys, argv[0], chain_file, *argv[1:])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv, message", [
        (["--length", "10000000000"], "length must be at most 100000000, got 10000000000"),
        (["--length", "1000000", "--trajectories", "1000000"],
         "length * trajectories must be at most 100000000, got 1000000000000"),
    ], ids=["path", "ensemble"])
    def test_walk_past_the_step_budget_is_exit_two(self, argv, message, chain_file, capsys):
        # both ran for seconds on end before the budget (chain.MAX_STEPS)
        start = time.perf_counter()
        code, out, err = run(capsys, "simulate", chain_file, "--start", "S", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == "" and err == f"error: {message}\n"

    @pytest.mark.parametrize("argv, doc", [
        (["simulate", "--start", "a"], {"states": ["a", "b"],
                                        "P": [[float("nan"), 0.5], [0.2, 0.8]]}),
        (["evolve", "--start", "a"], {"states": ["a", "b"],
                                      "P": [[0.5, 0.5], [float("nan"), 1.0]]}),
        (["evolve", "--mu", "nan,1"], {"states": ["a", "b"],
                                       "P": [[0.5, 0.5], [0.2, 0.8]]}),
        (["classify"], {"states": ["a", "b"], "P": [[0.5, 0.5], [0.2, "x"]]}),
        (["classify"], {"states": ["a", "b"], "P": [[0.5, 0.5], [1.0]]}),
    ], ids=["simulate-nan", "evolve-nan", "mu-nan", "non-numeric", "ragged"])
    def test_unreadable_chain_is_exit_two(self, argv, doc, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        code, out, err = run(capsys, argv[0], str(f), *argv[1:])
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf", "1e308"])
    def test_non_finite_weight_is_exit_two(self, weight, tmp_path, capsys):
        # 1e308 is finite, but an undirected edge listed twice sums to inf
        f = tmp_path / "bad.tsv"
        f.write_text(f"#undirected\na\tb\t{weight}\nb\ta\t{weight}\nb\tc\t1\n")
        code, out, err = run(capsys, "classify", str(f))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-0.001"])
    def test_bad_pagerank_tolerance_is_exit_two(self, tol, chain_file, capsys):
        # pagerank has no tolerance to set: argparse refuses --pr-tol outright
        with pytest.raises(SystemExit) as exc:
            run(capsys, "pagerank", chain_file, "--damping", "0.5", "--pr-tol", tol)
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert "unrecognized arguments: --pr-tol" in err and "Traceback" not in err

    @pytest.mark.parametrize("states", [5, [["x"]], {"a": 1}],
                             ids=["number", "nested", "object"])
    def test_bad_states_is_exit_two(self, states, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"states": states, "P": [[1.0]]}))
        code, out, err = run(capsys, "classify", str(f))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["classify", "stationary", "pagerank", "absorb"])
    @pytest.mark.parametrize("text", ["#directed\n", "#undirected\n",
                                      '{"states": [], "P": []}'],
                             ids=["directed", "undirected", "json"])
    def test_zero_state_input_is_exit_two(self, command, text, tmp_path, capsys):
        f = tmp_path / "empty"
        f.write_text(text)
        code, out, err = run(capsys, command, str(f))
        assert code == 2 and out == ""
        assert "at least one state" in err and "Traceback" not in err

    def test_non_finite_signal_is_exit_two(self, graph_file, capsys):
        code, out, err = run(capsys, "gft", graph_file, "--signal", "1,nan,0")
        assert code == 2 and out == ""


# argv after the subcommand name for the exit-code fuzz; {input} is the
# fuzzed file itself
FUZZ_COMMANDS = [
    ["validate"], ["classify"], ["stationary"], ["spectrum"],
    ["taxonomy", "--format", "csv"], ["evolve", "--start", "a", "--steps", "2"],
    ["evolve", "--mu", "0.5,0.5"], ["simulate", "--start", "a", "--length", "3"],
    ["simulate", "--start", "a", "--length", "2", "--trajectories", "3"],
    ["reverse"], ["reversibilize", "--mode", "multiplicative"], ["kmatrix"],
    ["laplacian", "--variant", "normalized"], ["laplacian", "--variant", "unnormalized"],
    ["laplacian", "--variant", "directed"], ["embed", "--k", "1"],
    ["gft", "--signal", "1,0"], ["pagerank", "--damping", "0.5"], ["absorb"],
    ["rwset", "--other", "{input}"],
]

_labels = st.one_of(st.sampled_from(["a", "b", "c"]), st.text(max_size=2))
_json_numbers = st.one_of(st.sampled_from([0, 1, 0.5, -0.5, 1e-13, 1e308, 10 ** 400]),
                          st.floats(allow_nan=True, allow_infinity=True),
                          st.integers(-10 ** 20, 10 ** 20))
_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), _json_numbers, _labels),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_labels, inner, max_size=3)),
    max_leaves=10)
_chain_docs = st.fixed_dictionaries({
    "states": st.one_of(st.lists(_labels, max_size=3), _json_values),
    "P": st.one_of(st.lists(st.lists(_json_numbers, max_size=3), max_size=3), _json_values),
})
_tsv = st.builds(
    lambda head, rows: "\n".join([head] + ["\t".join(r) for r in rows]),
    st.sampled_from(["#directed", "#undirected", "", "#other"]),
    st.lists(st.lists(st.one_of(_labels, _json_numbers.map(str)), min_size=1, max_size=4),
             max_size=5))
_nested = st.builds(lambda depth, tail: '{"states":["a"],"P":' + "[" * depth + tail,
                    st.integers(0, 5000), st.sampled_from(["", "1.0]]}", "]"]))
FUZZ_INPUTS = st.one_of(
    st.binary(max_size=40),
    _json_values.map(json.dumps).map(str.encode),
    _chain_docs.map(json.dumps).map(str.encode),
    _tsv.map(str.encode),
    _nested.map(str.encode),
)


# chains of period d > 1 whose spectrum is not lifted from the cycle
# product: groups of 1 and 2 states, a singular product, and an entry of
# 1e-13 outside the cyclic blocks
UNEQUAL_GROUPS = json.dumps({"states": list("abc"),
                             "P": [[0, 0.4, 0.6], [1, 0, 0], [1, 0, 0]]}).encode()
SINGULAR_PRODUCT = json.dumps({"states": list("abcd"),
                               "P": [[0, 0, 0.5, 0.5], [0, 0, 0.5, 0.5],
                                     [0.3, 0.7, 0, 0], [0.3, 0.7, 0, 0]]}).encode()
TINY_ENTRY = json.dumps({"states": list("abcd"),
                         "P": [[1e-13, 0, 0.5, 0.5], [0, 0, 0.25, 0.75],
                               [0.3, 0.7, 0, 0], [0.6, 0.4, 0, 0]]}).encode()


def birth_death_doc(n, p_right, one_way=False):
    """A biased walk on a path of n states with reflecting ends. ln pi
    spans (n - 1) ln(p / q): 877 at 400 states and p = 0.9, so P is far
    from normal. one_way moves 0.01 of state 5's left step to a jump
    5 -> 7, which has no reverse."""
    chain = line_chain(n, p_right)
    p = chain.p.copy()
    if one_way:
        p[5, 7], p[5, 4] = 0.01, p[5, 4] - 0.01
    return json.dumps({"states": list(chain.labels), "P": p.tolist()}).encode()


EXTREME_BIRTH_DEATH = birth_death_doc(400, 0.9)
# 56 states of period 4, lifted from the cycle product at the divisor 2
PERIOD_FOUR = json.dumps({"states": [str(i) for i in range(56)],
                          "P": periodic_chain(np.random.default_rng(1), 4, 14).p.tolist()}
                         ).encode()


class TestExitCodeFuzz:
    @given(command=st.sampled_from(FUZZ_COMMANDS), data=FUZZ_INPUTS)
    @example(command=["stationary"], data=b"#directed\n")
    @example(command=["pagerank", "--damping", "0.5"], data=b"#undirected\n")
    @example(command=["spectrum"], data=UNEQUAL_GROUPS)
    @example(command=["taxonomy", "--format", "csv"], data=UNEQUAL_GROUPS)
    @example(command=["spectrum"], data=SINGULAR_PRODUCT)
    @example(command=["taxonomy", "--format", "csv"], data=SINGULAR_PRODUCT)
    @example(command=["spectrum"], data=TINY_ENTRY)
    @example(command=["taxonomy", "--format", "csv"], data=TINY_ENTRY)
    @example(command=["spectrum"], data=EXTREME_BIRTH_DEATH)
    @example(command=["taxonomy", "--format", "csv"], data=EXTREME_BIRTH_DEATH)
    @example(command=["spectrum"], data=PERIOD_FOUR)
    @example(command=["taxonomy", "--format", "csv"], data=PERIOD_FOUR)
    def test_any_input_ends_in_a_contract_exit_code(self, command, data, tmp_path_factory):
        # every input ends in 0, 2 or 3, with no traceback and no warning
        f = tmp_path_factory.mktemp("fuzz") / "input"
        f.write_bytes(data)
        argv = [command[0], str(f)] + [a.format(input=f) for a in command[1:]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
        assert (out.getvalue() == "") == (code != 0)


# Option values: cheap counts and lengths (a huge --n or --length would
# allocate gigabytes or run for minutes), any float, short numeric lists,
# and malformed text of every kind.
_MALFORMED = st.sampled_from(["nan", "inf", "-inf", "x", "", "1e3", "0x10", "1,x"])
_COUNTS = st.one_of(st.integers(-3, 4).map(str), st.integers(5, 200).map(str), _MALFORMED)
_REALS = st.one_of(st.sampled_from(["0", "0.05", "0.5", "0.85", "0.999", "1"]),
                   st.floats(allow_nan=True, allow_infinity=True).map(repr), _MALFORMED)
_VECTORS = st.one_of(
    st.sampled_from(["0.2,0.3,0.5", "1,0,0", "1,2,3"]),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=4)
    .map(lambda xs: ",".join(map(repr, xs))),
    _MALFORMED)
OPTION_VALUES = {
    "--damping": _REALS, "--teleport": _VECTORS, "--mu": _VECTORS, "--signal": _VECTORS,
    "--k": _COUNTS, "--steps": _COUNTS, "--length": _COUNTS, "--trajectories": _COUNTS,
    "--seed": _COUNTS, "--n": _COUNTS, "--perturb": _REALS, "--p-right": _REALS,
}
# every subcommand that takes one of those options, with its other arguments
OPTION_COMMANDS = [
    (["evolve", "{input}", "--start", "S"], ["--steps"]),
    (["evolve", "{input}"], ["--mu", "--steps"]),
    (["simulate", "{input}", "--start", "S"], ["--length", "--trajectories", "--seed"]),
    (["embed", "{input}"], ["--k"]),
    (["gft", "{input}"], ["--signal"]),
    (["pagerank", "{input}"], ["--damping", "--teleport"]),
    (["demo-line-chain"], ["--n", "--p-right", "--perturb", "--seed"]),
]


@st.composite
def option_argvs(draw):
    """One command of OPTION_COMMANDS with each of its options left out or
    given a drawn value, as --option=value so that "-inf" stays a value."""
    argv, options = draw(st.sampled_from(OPTION_COMMANDS))
    for option in options:
        value = draw(st.none() | OPTION_VALUES[option])
        if value is not None:
            argv = argv + [f"{option}={value}"]
    return argv


class TestOptionValueFuzz:
    def test_options_cover_every_valued_option(self):
        assert {o for _, options in OPTION_COMMANDS for o in options} == set(OPTION_VALUES)

    @settings(max_examples=300)
    @given(argv=option_argvs())
    def test_any_option_value_ends_in_a_contract_exit_code(self, argv, tmp_path_factory):
        # TestExitCodeFuzz's contract; argparse refuses a malformed value by
        # SystemExit(2), which main's caller sees as the exit code
        f = tmp_path_factory.mktemp("options") / "chain.json"
        f.write_text(json.dumps(CHAIN_DOC))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main([a.format(input=f) for a in argv])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2, 3)
        assert "Traceback" not in err.getvalue() and "Warning" not in err.getvalue()
        assert (out.getvalue() == "") == (code != 0)


def test_far_from_normal_chain_spectrum_has_no_overflow(tmp_path, capsys):
    # not reversible, so it takes the Schur route, whose eigenvector
    # back-substitution grows columns past 1e154 on this chain
    f = tmp_path / "one_way.json"
    f.write_bytes(birth_death_doc(400, 0.9, one_way=True))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "spectrum", str(f))
    assert code == 0 and err == ""
    assert len(json.loads(out)["result"]["eigenvalues"]) == 400


@pytest.mark.parametrize("n, p_right", [(60, 0.7), (160, 0.9999)])
def test_steep_reversible_chain_is_not_diagonalizable(n, p_right, tmp_path, capsys):
    # similar to a symmetric matrix, yet pi spans 22 decades at (60, 0.7),
    # where 1/s reaches 2.2e9, and ln pi 1,464 at (160, 0.9999), where
    # Pi^1/2 leaves the double range: the reversible route forms the
    # eigenvectors in log scale and still takes the chain, and the report
    # prints the measured verdict beside the limit it applies
    f = tmp_path / "steep.json"
    f.write_bytes(birth_death_doc(n, p_right))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run(capsys, "spectrum", str(f))
    assert code == 0 and err == ""
    report = json.loads(out)
    result = report["result"]
    assert result["diagonalizable"] is False
    assert report["tolerances"]["condition"] == 1e4
    assert result["perron"]["unit_multiplicity"] == 1
    assert result["perron"]["unit_multiplicity_matches_recurrent_classes"] is True


class TestDemoCommand:
    def test_line_chain_report(self, capsys):
        code, out, _ = run(capsys, "demo-line-chain", "--n", "12",
                           "--p-right", "0.6")
        assert code == 0
        r = json.loads(out)["result"]
        assert r["stationary_strictly_increasing"] is True
        assert abs(r["laplacian_values_head"][0]) < 1e-9
        assert np.allclose(r["lambda0_right_transformed"], np.ones(12),
                           atol=1e-8)

    @pytest.mark.parametrize("flags", [["--n", "1"], ["--p-right", "1.5"]])
    def test_bad_line_chain_is_exit_two(self, flags, capsys):
        code, out, err = run(capsys, "demo-line-chain", *flags)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("n", ["99999999999999999999999", "3000000000"],
                             ids=["past-intp", "past-memory"])
    def test_huge_line_chain_is_refused_before_allocating(self, n, capsys, monkeypatch):
        # numpy raised ValueError ("Maximum allowed dimension exceeded") for
        # the first and MemoryError for the second, both out of main
        def refuse(*_, **__):
            raise AssertionError("allocated the line chain")

        monkeypatch.setattr(np, "full", refuse)
        code, out, err = run(capsys, "demo-line-chain", "--n", n)
        assert code == 2 and out == ""
        assert err == (f"error: line chain of {n} states is too large: numpy cannot index "
                       "its n * n float64 entries\n")

    def test_memory_error_is_exit_two(self, capsys, monkeypatch):
        def exhausted(**_):
            raise MemoryError("Unable to allocate 67.1 GiB")

        monkeypatch.setattr(demo, "line_chain", exhausted)
        code, out, err = run(capsys, "demo-line-chain", "--n", "90000")
        assert code == 2 and out == ""
        assert err == "error: not enough memory: Unable to allocate 67.1 GiB\n"

    @pytest.mark.parametrize("perturb, message", [
        ("inf", "perturb has a non-finite entry"),
        ("nan", "perturb has a non-finite entry"),
        ("-0.5", "perturb must be finite and not negative, got -0.5"),
    ], ids=["inf", "nan", "-0.5"])
    def test_bad_perturb_is_exit_two(self, perturb, message, capsys):
        # inf raised numpy's OverflowError; NaN and a negative perturb left
        # the chain silently unperturbed
        code, out, err = run(capsys, "demo-line-chain", "--n", "6", "--perturb", perturb)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_huge_perturb_lands_on_the_clip(self, capsys):
        # finite, but numpy's uniform(-1e308, 1e308) overflowed its width
        code, out, _ = run(capsys, "demo-line-chain", "--n", "12", "--perturb", "1e308",
                           "--seed", "3")
        assert code == 0
        p = np.array(json.loads(out)["result"]["chain"]["P"])
        assert set(np.diag(p, 1)) == {0.001, 0.999}
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12

    def test_perturbed_chain_still_stochastic(self, capsys):
        code, out, _ = run(capsys, "demo-line-chain", "--n", "12",
                           "--perturb", "0.1", "--seed", "3")
        assert code == 0
        p = np.array(json.loads(out)["result"]["chain"]["P"])
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12


# The tolerances census: every subcommand on five inputs, each report's
# `tolerances` keys written out here. A birth-death chain, a directed
# graph whose pattern is not symmetric (b -> c, c -> a one way), an
# undirected graph, an irreducible chain whose pattern is not symmetric
# (Kolmogorov's criterion fails on it before `cycle` is compared) and
# an absorbing chain of two 1x1 classes (no Schur form runs, so no
# `deflate`). An int is the exit code of a refused run.
CENSUS_INPUTS = {
    "chain.json": json.dumps({"states": list("abc"),
                              "P": [[0.5, 0.5, 0], [0.25, 0.5, 0.25], [0, 0.5, 0.5]]}),
    "directed.tsv": "#directed\na\tb\t1\nb\tc\t2\nc\ta\t1\nb\ta\t1\n",
    "undirected.tsv": "#undirected\na\tb\t1\nb\tc\t2\n",
    "one_way.json": json.dumps({"states": list("abc"),
                                "P": [[0.5, 0.5, 0], [0, 0.5, 0.5], [0.5, 0, 0.5]]}),
    "absorbing.json": json.dumps({"states": ["t", "a"], "P": [[0.5, 0.5], [0, 1]]}),
}
E = {"entry", "row_sum"}
S = E | {"stationarity"}
GRAPH = {"balanced", "undirected"}
SPECTRUM = E | {"cluster", "condition", "deflate", "epsilon", "radius"}
EMBED = S | {"cluster"}
CENSUS = {  # command: its keys on each of CENSUS_INPUTS, in order
    "validate": (E, GRAPH, GRAPH, E, E),
    "classify": (E, E, E, E, E),
    "stationary": (S, S, S, S, S),
    "spectrum": (SPECTRUM | {"cycle"}, SPECTRUM, SPECTRUM | {"cycle"}, SPECTRUM,
                 SPECTRUM - {"deflate"}),
    "evolve --start a": (E, E, E, E, E),
    "simulate --start a": (E, E, E, E, E),
    "simulate --start a --trajectories 3": (E, E, E, E, E),
    "reverse": (S, S, S, S, 2),
    "reversibilize": (S, S, S, S, 2),
    "kmatrix": (S | {"cycle"}, S, S | {"cycle"}, S, 2),
    "laplacian": (2, 2, {"undirected"}, 2, 2),
    "laplacian --variant unnormalized": (2, 2, {"undirected"}, 2, 2),
    "laplacian --variant directed": (S, S, S, S, 2),
    "embed": (EMBED, EMBED | {"undirected"}, {"cluster", "undirected"}, EMBED, 2),
    "gft --signal 1,2,3": (EMBED, EMBED | {"undirected"}, {"cluster", "undirected"}, EMBED, 2),
    "pagerank": (E, E, E, E, E),
    "absorb": (2, 2, 2, 2, E),
    "rwset --other {input}": (2, {"rel"}, {"rel"}, 2, 2),
}
CENSUS["taxonomy"] = CENSUS["spectrum"]


class TestToleranceCensus:
    """A report lists a tolerance iff one of its checks compared against it."""

    def test_every_subcommand_is_in_the_census(self):
        assert {c.split()[0] for c in CENSUS} | {"demo-line-chain"} == set(cli.COMMANDS)

    @pytest.mark.parametrize("command", sorted(CENSUS))
    def test_printed_keys(self, command, tmp_path, capsys):
        for (name, text), expected in zip(CENSUS_INPUTS.items(), CENSUS[command]):
            f = tmp_path / name
            f.write_text(text)
            word, *flags = command.format(input=f).split()
            code, out, _ = run(capsys, word, str(f), *flags)
            if isinstance(expected, int):
                assert code == expected, (command, name)
            else:
                assert code == 0 and set(json.loads(out)["tolerances"]) == expected, (command, name)

    def test_demo_line_chain(self, capsys):
        code, out, _ = run(capsys, "demo-line-chain", "--n", "5")
        assert code == 0 and set(json.loads(out)["tolerances"]) == S | {"cluster"}

    def test_nothing_is_recorded_outside_a_report(self, capsys):
        assert run(capsys, "demo-line-chain", "--n", "5")[0] == 0
        assert run(capsys, "demo-line-chain", "--n", "1")[0] == 2
        assert errors.TOLERANCES.get() is None
        build_chain(["a"], [[1.0]])  # a library check after main returned
        assert errors.TOLERANCES.get() is None
