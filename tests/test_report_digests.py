"""tools/report_digests.py --compare on small hand-made dumps."""

import hashlib
import importlib.util
import json
import platform
import sys
import types
from pathlib import Path

import numpy as np
import orjson
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_digests.py"
spec = importlib.util.spec_from_file_location("report_digests", TOOL)
report_digests = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_digests)


def write_dump(path, stdouts, rc=0, versions=None):
    with path.open("w") as f:
        if versions:
            f.write(json.dumps({"versions": versions}) + "\n")
        for i, out in enumerate(stdouts):
            f.write(json.dumps({"key": f"walks seed 1 #{i:02d} pagerank",
                                "argv": ["pagerank", "<workdir>/in001.json"], "rc": rc,
                                "stdout": out,
                                "sha256": hashlib.sha256(out.encode()).hexdigest()}) + "\n")
    return path


BEFORE = ['{"pi":[0.25,0.75],"residual_l1":2.5e-16}', '{"label":"s12","x":-3.0}']
VERSIONS = {"python": "3.11.7", "numpy": "2.4.6", "orjson": "3.8.3"}


class TestDeviation:
    def test_numbers_only(self):
        dev, scaled, where = report_digests.deviation('{"a":[1.5,200.0]}',
                                                      '{"a":[1.5,200.002]}')
        assert dev == pytest.approx(2e-3) and scaled == pytest.approx(1e-5)
        assert where.endswith("200.0 -> 200.002")

    def test_sign_and_exponent_are_part_of_the_number(self):
        dev, scaled, _ = report_digests.deviation("[6.0e-17]", "[-7.8e-17]")
        assert dev == pytest.approx(1.38e-16) and scaled == dev

    @pytest.mark.parametrize("after", ['{"b":[1.5,200.0]}', '{"a":[1.5,200.0,1]}',
                                       '{"a":[1.5,NaN]}'])
    def test_other_text_is_not_a_deviation(self, after):
        assert report_digests.deviation('{"a":[1.5,200.0]}', after) is None


class TestCompare:
    def test_identical_dumps(self, tmp_path, capsys):
        a = write_dump(tmp_path / "a", BEFORE)
        assert report_digests.compare(a, a) == 0
        assert "2 reports, 2 byte-identical, 0 changed" in capsys.readouterr().out

    def test_change_within_tolerance_is_listed(self, tmp_path, capsys):
        a = write_dump(tmp_path / "a", BEFORE)
        b = write_dump(tmp_path / "b", [BEFORE[0].replace("2.5e-16", "2.4e-16"), BEFORE[1]])
        assert report_digests.compare(a, b) == 0
        out = capsys.readouterr().out
        assert "changed  walks seed 1 #00 pagerank" in out and "#01" not in out

    @pytest.mark.parametrize("after", [
        ['{"pi":[0.25,0.75000000001],"residual_l1":2.5e-16}', BEFORE[1]],  # past 1e-11
        [BEFORE[0], '{"label":"t12","x":-3.0}'],                          # text
        [BEFORE[0]],                                                        # a report missing
    ])
    def test_other_changes_fail(self, tmp_path, after):
        a = write_dump(tmp_path / "a", BEFORE)
        b = write_dump(tmp_path / "b", after)
        assert report_digests.compare(a, b) == 1

    def test_exit_code_change_fails(self, tmp_path):
        a = write_dump(tmp_path / "a", BEFORE)
        b = write_dump(tmp_path / "b", BEFORE, rc=3)
        assert report_digests.compare(a, b) == 1


class TestWhere:
    def test_json_key_path_of_a_changed_label(self):
        a = '{"result":{"rows":[{"abs":1.0,"label":"a"},{"abs":0.5,"label":"b"}]}}'
        b = '{"result":{"rows":[{"abs":1.5,"label":"a"},{"abs":0.5,"label":"c"}]}}'
        assert report_digests.where(a, b) == '.result.rows[1].label: "b" -> "c"'

    def test_json_added_key_and_length(self):
        assert (report_digests.where('{"t":{"e":1}}', '{"t":{"c":2,"e":1}}')
                == ".t.c: only in the second dump")
        assert report_digests.where('{"v":[1,2]}', '{"v":[1,2,3]}') == ".v: length 2 -> 3"

    def test_text_around_the_first_difference(self):
        a = "re,im,abs,label\n1.0,0.0,1.0,persistent_structure\n"
        b = "re,im,abs,label\n1.0,0.0,1.0,transient_structure\n"
        assert report_digests.where(a, b) == (
            "text ',im,abs,label\\n#,#,#,persistent_structure' -> "
            "',im,abs,label\\n#,#,#,transient_structure\\n'")

    def test_compare_prints_where(self, tmp_path, capsys):
        a = write_dump(tmp_path / "a", BEFORE)
        b = write_dump(tmp_path / "b", [BEFORE[0], '{"label":"t12","x":-3.0}'])
        assert report_digests.compare(a, b) == 1
        out = capsys.readouterr().out
        assert '#01 pagerank: differs in more than its numbers, first at .label: "s12" -> "t12"' in out

    def test_compare_prints_exit_codes(self, tmp_path, capsys):
        a = write_dump(tmp_path / "a", BEFORE)
        b = write_dump(tmp_path / "b", BEFORE, rc=3)
        assert report_digests.compare(a, b) == 1
        assert "#00 pagerank: exit code 0 -> 3" in capsys.readouterr().out


class TestVersions:
    def test_out_records_the_versions_first(self, tmp_path, monkeypatch):
        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({"states": ["a"], "P": [[1.0]]}))
        request = types.SimpleNamespace(argv=("validate", str(chain)), kind="validate")
        monkeypatch.setitem(sys.modules, "workloads",
                            types.SimpleNamespace(build=lambda *args: [request]))
        monkeypatch.setattr(report_digests, "WORKLOADS", ("walks",))
        monkeypatch.setattr(report_digests, "SEEDS", (1,))
        monkeypatch.setattr(sys, "path", list(sys.path))
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            monkeypatch.setenv(var, "1")  # dump sets them
        out = tmp_path / "dump.jsonl"
        assert report_digests.dump(out) == 1
        first, record = out.read_text().splitlines()
        assert json.loads(first) == {"versions": {"python": platform.python_version(),
                                                  "numpy": np.__version__,
                                                  "orjson": orjson.__version__}}
        assert json.loads(record)["key"] == "walks seed 1 #00 validate"
        with out.open() as f:
            versions, lines = report_digests.read_dump(f)
            assert (versions, list(lines)) == (json.loads(first)["versions"], [record + "\n"])

    def test_same_versions_no_warning(self, tmp_path, capsys):
        a = write_dump(tmp_path / "a", BEFORE, versions=VERSIONS)
        b = write_dump(tmp_path / "b", BEFORE, versions=dict(VERSIONS))
        assert report_digests.compare(a, b) == 0
        assert "warning" not in capsys.readouterr().out

    @pytest.mark.parametrize("after", [dict(VERSIONS, orjson="3.10.0"), None])
    def test_other_versions_warn(self, tmp_path, capsys, after):
        a = write_dump(tmp_path / "a", BEFORE, versions=VERSIONS)
        b = write_dump(tmp_path / "b", BEFORE, versions=after)
        assert report_digests.compare(a, b) == 0  # a warning, not a failure
        out = capsys.readouterr().out
        assert out.startswith(f"warning: the dumps were written with different versions: "
                              f"{VERSIONS} -> {after}\n")
        assert "2 reports, 2 byte-identical, 0 changed" in out
