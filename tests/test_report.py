"""Report writer: `make_report` against the per-value composition it
replaces, byte for byte."""

import functools
import json
from collections import Counter
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from chainkit import (__version__, build_chain, build_graph, build_laplacian, classify, cli,
                      k_matrix, stationary_basis)
from chainkit.chain import occupancy


def reference_report(command, digest, result, tolerances) -> str:
    """The old writer: every value through _jsonable, then one json.dumps."""
    report = {
        "command": command,
        "input_digest": digest,
        "result": cli._jsonable(result),
        "tolerances": cli._jsonable(tolerances),
        "tool_version": __version__,
    }
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.3e-308,
               1e-330, 1e308, -1e308, 0.99999999999995, -0.99999999999995,
               999999999999.7, 999999999999.4, 1e12, 1e16, 1e17, 0.5, 1.0,
               1e-4, 9.99999999999995e-5, 1e-5, 9.99999999999e-6, 1e-9, 1e-10, 1e-99,
               1e-100, -1.5e-100, float("nan"), float("inf"), float("-inf")]

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(EDGE_FLOATS),
    # every magnitude from 1e-330 to 1e308, on and near 12-digit values
    st.builds(lambda m, e: m * 10.0 ** e, st.integers(-10 ** 13, 10 ** 13),
              st.integers(-343, 295)),
    st.integers(10 ** 12, 10 ** 17).map(float),
)

float_arrays = hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2,
                                                       min_side=0, max_side=7),
                          elements=floats)

leaves = st.one_of(
    floats,
    float_arrays,
    st.text(max_size=4),
    st.booleans(),
    st.integers(-2 ** 70, 2 ** 70),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
    floats.map(np.float64),
    st.integers(-2 ** 40, 2 ** 40).map(np.int64),
    st.booleans().map(np.bool_),
    hnp.arrays(np.int64, hnp.array_shapes(max_dims=2, min_side=0, max_side=4)),
)

values = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=12,
)


class TestMakeReport:
    @given(result=values, tolerances=st.dictionaries(st.text(max_size=3), floats, max_size=3))
    def test_matches_per_value_writer(self, result, tolerances):
        text = cli.make_report("cmd", "digest", result, tolerances)
        assert text == reference_report("cmd", "digest", result, tolerances)

    @given(a=hnp.arrays(np.float64, st.sampled_from([(0,), (0, 3), (3, 0), (1, 9), (9, 1),
                                                     (4, 5), (5, 3), (40, 40), ()]),
                        elements=floats))
    def test_float_array_shapes(self, a):
        result = {"m": a, "rows": [a, a.T]}
        text = cli.make_report("c", "d", result, {})
        assert text == reference_report("c", "d", result, {})

    def test_float_text_rule(self):
        result = {"v": np.array([[-0.0, 0.1 + 0.2, 1 / 3, 2.0000000000001],
                                 [5e-324, 1234567890123.0, float("nan"), -float("inf")]])}
        doc = cli.make_report("c", "d", result, {})
        assert ('"v":[[0.0,0.3,0.333333333333,2.0],'
                '[5e-324,1234567890120.0,NaN,-Infinity]]') in doc

    @given(a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, max_side=12),
                        elements=floats.filter(lambda x: abs(x) < 1e15)))
    def test_finite_arrays_take_the_orjson_path(self, a):
        # magnitudes below 1e15 and no NaN: only repr-read entries, no walk
        expected = json.dumps(cli._jsonable(a), separators=(",", ":"))
        with mock.patch.object(cli, "_jsonable", side_effect=AssertionError):
            assert cli._float_text(a) == expected

    def test_nested_dicts_sorted_by_string_key(self):
        result = {"b": {2: 1.5, "10": np.arange(3.0)}, "a": [("x", True, None)]}
        doc = cli.make_report("c", "d", result, {})
        assert doc == reference_report("c", "d", result, {})
        assert '"result":{"a":[["x",true,null]],"b":{"10":[0.0,1.0,2.0],"2":1.5}}' in doc


def test_near_ties_round_as_repr():
    # doubles nearest 13-digit ties, where rint of |x|·10**(11-e) in
    # floating point rounds the wrong way (or m lands 2**-13 from the half)
    a = np.array([0.006732655185895, 6.459721981905, -8.319432152805e-37,
                  9.415651814085e-14, 1.148748719755e-71])
    assert cli._float_text(a) == json.dumps(cli._jsonable(a), separators=(",", ":"))


def test_unexpected_exponent_layout_falls_back():
    dumps = orjson.dumps
    a = np.array([[1.5e-5, 0.25], [-2e-120, 0.0]])
    with mock.patch.object(orjson, "dumps", lambda *args, **kw: dumps(*args, **kw).upper()):
        assert cli._float_text(a) == "[[1.5e-05,0.25],[-2e-120,0.0]]"


def test_orjson_float_layouts():
    # what _float_text relies on: repr's digits, fixed form from 1e-4 up to
    # 1e16 with ".0" on integers, "e-" and the bare exponent below 1e-7
    x = np.array([1e-4, 0.00015, 1.5e-10, 1e-10, 1.5e-100, 5e-324, 123456789012.0, 0.5,
                  -2.0, 0.0])
    assert orjson.dumps(x, option=orjson.OPT_SERIALIZE_NUMPY) == (
        b"[0.0001,0.00015,1.5e-10,1e-10,1.5e-100,5e-324,123456789012.0,0.5,-2.0,0.0]")


@functools.cache
def workload_matrices():
    """The float arrays structural and walks reports print, at their sizes:
    a dense 300-state chain, its K matrix, the normalized Laplacian of a
    sparse graph (exact zeros off its edges) and an occupancy table."""
    rng = np.random.default_rng(7)
    p = rng.random((300, 300)) ** 2 + 1e-3
    chain = build_chain([f"s{i}" for i in range(300)], p / p.sum(axis=1, keepdims=True))
    k = k_matrix(chain, stationary_basis(chain, classify(chain)))
    w = np.zeros((600, 600))
    for i in range(1, 600):
        j = int(rng.integers(i))
        w[i, j] = w[j, i] = rng.integers(1, 10)
    lap = build_laplacian(build_graph([f"v{i}" for i in range(600)], w), "normalized").m
    q = p[:50, :50]
    walk = build_chain([f"s{i}" for i in range(50)], q / q.sum(axis=1, keepdims=True))
    table = occupancy(walk, "s0", 100, 3, 40)
    return {"chain": chain.p, "k": k, "laplacian": lap, "occupancy": table}


@pytest.mark.parametrize("name", ["chain", "k", "laplacian", "occupancy"])
def test_workload_matrices_take_the_orjson_path(name):
    a = workload_matrices()[name]
    expected = json.dumps(cli._jsonable(a), separators=(",", ":"))
    with mock.patch.object(cli, "_jsonable", side_effect=AssertionError("fell back")):
        assert cli._float_text(a) == expected


# a path report's labels: one json.dumps for a list made only of str
label_lists = st.one_of(
    st.lists(st.text(max_size=5), max_size=30),
    st.lists(st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é",
                              "状態", "\U0001f600", "\ud800", "s1", ""]), max_size=12),
)

# a simulated path's vocabulary: at most 60 distinct labels, escapes and
# the empty label always among them
ESCAPED_LABELS = ['"', "\\", "\n", "\x00", "\x1f", "é", "\ud800", ""]
vocabularies = st.lists(st.text(max_size=6), max_size=52).map(
    lambda extra: list(dict.fromkeys(ESCAPED_LABELS + extra)))


class Label(str):
    pass


def long_path(vocabulary, seed, length):
    """length labels drawn from vocabulary, as one list of the same str objects."""
    picks = np.random.default_rng(seed).integers(0, len(vocabulary), length)
    return [vocabulary[i] for i in picks.tolist()]


class TestLabelLists:
    @given(labels=label_lists)
    def test_matches_per_value_writer(self, labels):
        result = {"path": labels, "seed": 3}
        assert (cli.make_report("simulate", "d", result, {})
                == reference_report("simulate", "d", result, {}))

    def test_empty_list(self):
        doc = cli.make_report("simulate", "d", {"path": []}, {})
        assert doc == reference_report("simulate", "d", {"path": []}, {})
        assert '"result":{"path":[]}' in doc

    def test_escapes_and_non_ascii(self):
        labels = ['a"b', "c\\d", "e\nf", "\x01", "é", "状態", "\U0001f600"]
        doc = cli.make_report("simulate", "d", {"path": labels}, {})
        assert doc == reference_report("simulate", "d", {"path": labels}, {})
        assert ('"path":["a\\"b","c\\\\d","e\\nf","\\u0001","\\u00e9",'
                '"\\u72b6\\u614b","\\ud83d\\ude00"]') in doc

    @given(mixed=st.lists(st.one_of(st.text(max_size=3), floats, st.integers(-5, 5),
                                    st.booleans(), floats.map(np.float64)),
                          min_size=1, max_size=8))
    def test_mixed_lists_take_the_per_value_path(self, mixed):
        # a float or numpy scalar in the list sends it through _jsonable,
        # which rounds floats; str, int and bool alone take one json.dumps
        with mock.patch.object(cli, "_jsonable", wraps=cli._jsonable) as walk:
            text = cli._report_text(mixed)
        assert text == json.dumps(cli._jsonable(mixed), sort_keys=True,
                                  separators=(",", ":"))
        assert walk.called == any(type(x) not in (str, int, bool) for x in mixed)

    def test_str_list_skips_the_per_value_walk(self):
        with mock.patch.object(cli, "_jsonable", wraps=cli._jsonable) as walk:
            assert cli._report_text(["x", "y\u00e9"]) == '["x","y\\u00e9"]'
        assert not walk.called

    @given(vocabulary=vocabularies, seed=st.integers(0, 2 ** 32 - 1),
           length=st.integers(20_000, 20_100))
    @settings(max_examples=20)
    def test_long_paths_over_few_labels(self, vocabulary, seed, length):
        path = long_path(vocabulary, seed, length)
        assert cli._report_text(path) == json.dumps(path, separators=(",", ":"))
        assert cli._report_text(tuple(path)) == json.dumps(path, separators=(",", ":"))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_each_label_is_encoded_once(self, seed):
        # json's pure-Python encoder looks the string encoder up by name,
        # so the count covers json.dumps too if the writer falls back to it
        rng = np.random.default_rng(seed)
        vocabulary = ESCAPED_LABELS + [f"s{i}" for i in range(int(rng.integers(1, 53)))]
        path = long_path(vocabulary, seed, 20_001)
        encode, encoded = json.encoder.encode_basestring_ascii, Counter()

        def counted(label):
            encoded[label] += 1
            return encode(label)

        with mock.patch.object(json.encoder, "c_make_encoder", None), \
                mock.patch.object(json.encoder, "encode_basestring_ascii", counted):
            text = cli._report_text(path)
        assert text == json.dumps(path, separators=(",", ":"))
        assert encoded == Counter(set(path))

    @pytest.mark.parametrize("items, expected", [
        (["1", 1, True], '["1",1,true]'),
        (["a", 1.5], '["a",1.5]'),
        (["a", ["b"]], '["a",["b"]]'),
        ([np.str_("a"), "b"], '["a","b"]'),
        (["a", np.str_("a"), np.str_("\u00e9")], '["a","a","\\u00e9"]'),
        ([Label("x"), "y"], '["x","y"]'),
        (["x", Label("x"), Label('"')], '["x","x","\\""]'),
    ], ids=["str-int-bool", "str-float", "nested", "numpy-str-first", "numpy-str-later",
            "subclass-first", "subclass-later"])
    def test_lists_not_all_str_keep_their_text(self, items, expected):
        # the first item seen that is not an exact str stops the join, and
        # the list takes the _native/_jsonable route it took before
        assert cli._report_text(items) == expected
        assert cli._report_text(items) == json.dumps(cli._jsonable(items), sort_keys=True,
                                                     separators=(",", ":"))


# a classification's classes and edges: str, int and bool leaves in
# lists and tuples at any depth, one json.dumps for the whole value
native = st.recursive(
    st.one_of(st.text(max_size=3), st.integers(-2 ** 70, 2 ** 70), st.booleans()),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=3).map(tuple)),
    max_leaves=20,
).filter(lambda x: type(x) in (list, tuple))

# leaves _jsonable must see: it rounds floats and turns numpy scalars
# into Python ones
not_native = st.one_of(st.integers(-2 ** 40, 2 ** 40).map(np.int64),
                       st.booleans().map(np.bool_), floats, floats.map(np.float64))


class TestNativeLists:
    @given(value=native)
    def test_matches_per_value_writer_without_the_walk(self, value):
        result = {"condensation_edges": value, "classes": [value, (value,)]}
        assert (cli.make_report("classify", "d", result, {})
                == reference_report("classify", "d", result, {}))
        with mock.patch.object(cli, "_jsonable", wraps=cli._jsonable) as walk:
            text = cli._report_text(value)
        assert not walk.called
        assert text == json.dumps(cli._jsonable(value), separators=(",", ":"))

    @given(value=native, leaf=not_native, depth=st.integers(0, 3), as_tuple=st.booleans())
    def test_one_numpy_scalar_or_float_takes_the_walk(self, value, leaf, depth, as_tuple):
        nested = [value, (leaf,)]
        for _ in range(depth):
            nested = (nested,) if as_tuple else [nested, "s"]
        result = {"edges": nested}
        assert (cli.make_report("classify", "d", result, {})
                == reference_report("classify", "d", result, {}))
        with mock.patch.object(cli, "_jsonable", wraps=cli._jsonable) as walk:
            cli._report_text(nested)
        assert walk.called

    def test_classify_edges(self):
        edges = sorted({(0, 1), (2, 1), (10, 3)})
        doc = cli.make_report("classify", "d", {"condensation_edges": edges,
                                                 "irreducible": False}, {})
        assert doc == reference_report("classify", "d", {"condensation_edges": edges,
                                                         "irreducible": False}, {})
        assert '"condensation_edges":[[0,1],[2,1],[10,3]]' in doc
