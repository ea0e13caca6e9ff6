"""Command-line interface: parsing, reports, determinism, exit codes."""

import json

import numpy as np
import pytest

from chainkit import cli, spectral
from chainkit.cli import main, parse_graph_tsv

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


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParsing:
    def test_undirected_tsv_mirrors_edges(self, graph_file):
        g = parse_graph_tsv(graph_file)
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

    def test_every_subcommand_is_covered(self):
        assert sorted({t[0] for t in EVERY_SUBCOMMAND}) == sorted(cli.COMMANDS)

    def test_spectrum_report_analyses_once(self, chain_file, capsys, monkeypatch):
        calls = {"real_schur": 0, "classify": 0}

        def counted(name, func):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(spectral, "real_schur",
                            counted("real_schur", spectral.real_schur))
        monkeypatch.setattr(cli, "classify", counted("classify", cli.classify))
        code, _, _ = run(capsys, "spectrum", chain_file)
        assert code == 0
        assert calls == {"real_schur": 1, "classify": 1}

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


class TestEvolutionAndSimulation:
    def test_evolve_point_mass(self, chain_file, capsys):
        _, out, _ = run(capsys, "evolve", chain_file, "--start", "S",
                        "--steps", "2")
        dist = json.loads(out)["result"]["distribution"]
        expected = np.linalg.matrix_power(np.array(CHAIN_DOC["P"]), 2)[0]
        assert np.allclose(dist, expected, atol=1e-9)

    def test_evolve_needs_a_start(self, chain_file, capsys):
        code, _, err = run(capsys, "evolve", chain_file)
        assert code == 2

    def test_simulate_seed_flag_and_env(self, chain_file, capsys, monkeypatch):
        _, a, _ = run(capsys, "simulate", chain_file, "--start", "S",
                      "--length", "20", "--seed", "5")
        monkeypatch.setenv("CHAINS_SEED", "5")
        _, b, _ = run(capsys, "simulate", chain_file, "--start", "S",
                      "--length", "20")
        assert a == b
        assert json.loads(a)["result"]["seed"] == 5

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
        '"tolerances":{"row_sum":1e-09},"tool_version":"0.1.0"}\n')
    GOLDEN_ENSEMBLE = (
        '{"command":"simulate","input_digest":'
        '"003a0b7371bbefe7775f81edea4a13dcca68a70d21d52f00614296622486ab4a",'
        '"result":{"length":6,"occupancy":[[1.0,0.0,0.0],[0.46,0.3,0.24],'
        '[0.38,0.44,0.18],[0.28,0.5,0.22],[0.32,0.56,0.12],[0.24,0.6,0.16],'
        '[0.28,0.48,0.24]],"seed":2,"states":["S","C","B"],"trajectories":50},'
        '"tolerances":{"row_sum":1e-09},"tool_version":"0.1.0"}\n')

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

    def test_reversibilize_modes(self, chain_file, capsys):
        for mode in ("additive", "multiplicative"):
            code, out, _ = run(capsys, "reversibilize", chain_file,
                               "--mode", mode)
            assert code == 0
            assert json.loads(out)["result"]["mode"] == mode

    def test_kmatrix_reports_symmetry_verdict(self, chain_file, capsys):
        _, out, _ = run(capsys, "kmatrix", chain_file)
        r = json.loads(out)["result"]
        k = np.array(r["k"])
        assert r["symmetric"] == bool(np.max(np.abs(k - k.T)) <= 1e-10)

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

    def test_non_finite_signal_is_exit_two(self, graph_file, capsys):
        code, out, err = run(capsys, "gft", graph_file, "--signal", "1,nan,0")
        assert code == 2 and out == ""


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

    def test_perturbed_chain_still_stochastic(self, capsys):
        code, out, _ = run(capsys, "demo-line-chain", "--n", "12",
                           "--perturb", "0.1", "--seed", "3")
        assert code == 0
        p = np.array(json.loads(out)["result"]["chain"]["P"])
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-12
