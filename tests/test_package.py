"""The package surface: lazily run submodules and the public names.

`import chainkit` runs no submodule; each runs on first attribute access.
The load census runs in a fresh interpreter, so that this process's own
imports do not count. A module has run once its type is plain
types.ModuleType again; reading one of its attributes would run it.
Each command is also run alone, in a freshly imported chainkit, and the
modules it ran are checked against the README's "What an import runs"
table. Every third-party package a module imports is a declared
dependency.
"""

import ast
import json
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

import chainkit
from chainkit.cli import COMMANDS

ROOT = Path(__file__).resolve().parent.parent
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

SUBMODULES = tuple(sorted(p.stem for p in (ROOT / "src" / "chainkit").glob("*.py")
                          if p.stem != "__init__"))

# one report per README row label: the command (its first word) and its
# arguments, a chain JSON input unless the command needs a graph TSV
COMMAND_ARGV = {
    "validate": ["{chain}"],
    "classify": ["{chain}"],
    "stationary": ["{chain}"],
    "spectrum": ["{chain}"],
    "taxonomy": ["{chain}"],
    "evolve": ["{chain}", "--start", "a"],
    "simulate": ["{chain}", "--start", "a"],
    "reverse": ["{chain}"],
    "reversibilize": ["{chain}"],
    "kmatrix": ["{chain}"],
    "laplacian": ["{graph}"],
    "laplacian --variant unnormalized": ["{graph}", "--variant", "unnormalized"],
    "laplacian --variant directed": ["{chain}", "--variant", "directed"],
    "embed": ["{chain}"],
    "gft": ["{chain}", "--signal", "1,2,3"],
    "pagerank": ["{chain}"],
    "absorb": ["{absorbing}"],
    "rwset": ["{graph}", "--other", "{graph}"],
    "demo-line-chain": ["--n", "5"],
}

CENSUS = """
import contextlib, io, json, sys, types

SUBMODULES = {submodules!r}


def ran():
    return [m for m in SUBMODULES if type(sys.modules.get("chainkit." + m)) is types.ModuleType]


def report(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(list(argv)) == 0, argv


chain, commands = sys.argv[1], json.loads(sys.argv[2])
import chainkit  # noqa: E402,F401
census = {{"import": ran()}}
from chainkit.cli import main  # noqa: E402
census["cli"] = ran()
report("simulate", chain, "--start", "a", "--length", "20", "--trajectories", "3")
report("evolve", chain, "--start", "a", "--steps", "5")
report("pagerank", chain, "--damping", "0.99")
census["walks"] = ran()
report("spectrum", chain)
census["spectrum"] = ran()
for case, argv in commands.items():  # each alone, in a freshly imported chainkit
    for name in [m for m in sys.modules if m.partition(".")[0] == "chainkit"]:
        del sys.modules[name]
    from chainkit.cli import main  # noqa: E402
    report(case.split()[0], *argv)
    census["command " + case] = ran()
print(json.dumps(census))
"""


def readme_table() -> dict:
    """{row label: the modules it runs besides errors, chain and cli},
    read from the README's "What an import runs" table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## What an import runs", 1)[1].split("\n## ", 1)[0]
    table = {}
    for line in section.splitlines():
        cells = line.split("|")
        if len(cells) == 4 and "`" in cells[1]:
            for command in re.findall(r"`([^`]+)`", cells[1]):
                table[command] = re.findall(r"`([^`]+)`", cells[2])
    return table


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    folder = tmp_path_factory.mktemp("census")
    paths = {"chain": folder / "chain.json", "absorbing": folder / "absorbing.json",
             "graph": folder / "graph.tsv"}
    paths["chain"].write_text(json.dumps({
        "states": ["a", "b", "c"],
        "P": [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]]}))
    paths["absorbing"].write_text(json.dumps({
        "states": ["a", "b", "c"],
        "P": [[1.0, 0.0, 0.0], [0.25, 0.5, 0.25], [0.0, 0.0, 1.0]]}))
    paths["graph"].write_text("#undirected\nx\ty\t2\ny\tz\t1\n")
    commands = {c: [a.format(**paths) for a in argv] for c, argv in COMMAND_ARGV.items()}
    proc = subprocess.run([sys.executable, "-c", CENSUS.format(submodules=SUBMODULES),
                           str(paths["chain"]), json.dumps(commands)],
                          env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    return json.loads(proc.stdout)


class TestLoadCensus:
    def test_import_runs_no_submodule(self, census):
        assert census["import"] == []

    def test_cli_runs_what_every_command_needs(self, census):
        assert census["cli"] == ["chain", "cli", "errors"]

    def test_walks_run_five_modules(self, census):
        assert census["walks"] == ["chain", "cli", "errors", "gth", "surfer"]

    def test_spectrum_leaves_absorbing_unrun(self, census):
        assert "spectral" in census["spectrum"] and "absorbing" not in census["spectrum"]

    def test_readme_table_lists_every_command(self):
        assert sorted(readme_table()) == sorted(COMMAND_ARGV)
        assert sorted({case.split()[0] for case in COMMAND_ARGV}) == sorted(COMMANDS)

    @pytest.mark.parametrize("command", sorted(COMMAND_ARGV))
    def test_command_runs_its_readme_row(self, census, command):
        # a graph TSV input also runs graph, which turns it into a chain
        expected = {"chain", "cli", "errors", *readme_table()[command]}
        if COMMAND_ARGV[command][0] == "{graph}":
            expected.add("graph")
        assert census["command " + command] == sorted(expected)


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


def test_every_third_party_import_is_a_declared_dependency():
    # imports inside functions count too: the chain JSON decoder is one
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        declared = {re.match(r"[A-Za-z0-9_.-]+", spec)[0].lower().replace("-", "_")
                    for spec in tomllib.load(fh)["project"]["dependencies"]}
    imported = set()
    for path in (ROOT / "src" / "chainkit").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.partition(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"chainkit"}
    assert {"numpy", "orjson"} <= third_party  # the walk sees both kinds of import
    assert third_party <= declared, sorted(third_party - declared)


def test_only_chain_json_imports_orjson(tmp_path):
    # orjson decodes chain JSON and writes float arrays: TSV commands that
    # print none (validate, classify) skip it, laplacian imports it
    graph, chain = tmp_path / "graph.tsv", tmp_path / "chain.json"
    graph.write_text("#undirected\nx\ty\t2\n")
    chain.write_text(json.dumps({"states": ["a"], "P": [[1.0]]}))
    script = (
        "import contextlib, io, sys\n"
        "from chainkit.cli import main\n"
        "seen = []\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in sys.argv[1:]:\n"
        "        main(argv.split())\n"
        "        seen.append('orjson' in sys.modules)\n"
        "print(*seen)\n")
    runs = {(f"validate {graph}", f"classify {graph}", f"laplacian {graph}"):
            ["False", "False", "True"],
            (f"validate {chain}",): ["True"]}
    for argvs, expected in runs.items():
        proc = subprocess.run([sys.executable, "-c", script, *argvs], env=ENV,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout.split() == expected
