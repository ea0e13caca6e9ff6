"""The package surface: lazily run submodules and the public names.

`import chainkit` runs no submodule; each runs on first attribute access.
The load census runs in a fresh interpreter, so that this process's own
imports do not count. A module has run once its type is plain
types.ModuleType again; reading one of its attributes would run it.
"""

import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import chainkit

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

SUBMODULES = ("absorbing", "chain", "cli", "demo", "errors", "graph", "laplacian", "numlin",
              "reversal", "spectral", "stationary", "structure", "surfer")

CENSUS = """
import contextlib, io, json, sys, types

SUBMODULES = {submodules!r}


def ran():
    return [m for m in SUBMODULES if type(sys.modules.get("chainkit." + m)) is types.ModuleType]


def report(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv


chain, graph = sys.argv[1:]
import chainkit  # noqa: E402,F401
census = {{"import": ran()}}
from chainkit.cli import main  # noqa: E402
census["cli"] = ran()
report("simulate", chain, "--start", "a", "--length", "20", "--trajectories", "3")
report("evolve", graph, "--start", "x", "--steps", "5")
report("pagerank", chain, "--damping", "0.99")
census["walks"] = ran()
report("spectrum", chain)
census["spectrum"] = ran()
print(json.dumps(census))
"""


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    folder = tmp_path_factory.mktemp("census")
    chain, graph = folder / "chain.json", folder / "graph.tsv"
    chain.write_text(json.dumps({"states": ["a", "b", "c"],
                                 "P": [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]]}))
    graph.write_text("#undirected\nx\ty\t2\ny\tz\t1\n")
    proc = subprocess.run([sys.executable, "-c", CENSUS.format(submodules=SUBMODULES),
                           str(chain), str(graph)],
                          env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return json.loads(proc.stdout)


class TestLoadCensus:
    def test_import_runs_no_submodule(self, census):
        assert census["import"] == []

    def test_cli_runs_what_every_command_needs(self, census):
        assert census["cli"] == ["chain", "cli", "errors", "graph", "numlin"]

    def test_walks_run_six_modules(self, census):
        assert census["walks"] == ["chain", "cli", "errors", "graph", "numlin", "surfer"]

    def test_spectrum_leaves_absorbing_unrun(self, census):
        assert "spectral" in census["spectrum"] and "absorbing" not in census["spectrum"]


class TestPublicNames:
    @pytest.mark.parametrize("name", chainkit.__all__)
    def test_name_resolves_to_its_definition(self, name):
        obj = getattr(chainkit, name)
        if isinstance(obj, types.ModuleType):
            assert obj is sys.modules[f"chainkit.{name}"]
        else:
            assert obj.__module__.startswith("chainkit.")
            assert getattr(sys.modules[obj.__module__], name) is obj
        assert name in dir(chainkit)

    def test_every_submodule_but_cli_is_an_attribute(self):
        for name in SUBMODULES:
            if name != "cli":
                assert getattr(chainkit, name) is sys.modules[f"chainkit.{name}"]

    def test_star_import_binds_all(self):
        namespace = {}
        exec("from chainkit import *", namespace)
        assert set(chainkit.__all__) <= set(namespace)

    def test_unknown_name_is_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            chainkit.no_such_name  # noqa: B018


def test_module_run_warns_nothing(tmp_path):
    # runpy warns when the module it is asked to run is already in
    # sys.modules, so chainkit.cli is not among the lazily run submodules
    f = tmp_path / "chain.json"
    f.write_text(json.dumps({"states": ["a", "b"], "P": [[0.5, 0.5], [1.0, 0.0]]}))
    proc = subprocess.run([sys.executable, "-W", "error", "-m", "chainkit.cli", "validate",
                           str(f)], env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["result"]["ok"] is True
