"""tools/request_ab.py: whole runs at scale 0.15 on this checkout against
itself and against a copy whose `build_chain` moves one entry by one ulp."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "request_ab.py"


def run(before, after):
    return subprocess.run([sys.executable, str(TOOL), str(before), str(after),
                           "--workload", "structural", "--seed", "1", "--scale", "0.15",
                           "--repeats", "2"],
                          capture_output=True, text=True, timeout=300)


def request_rows(stdout):
    return [line.split() for line in stdout.splitlines()
            if re.fullmatch(r"\s*\d+ \S+( +[\d.]+){3} (yes|NO)", line)]


def test_a_checkout_against_itself():
    done = run(ROOT, ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = request_rows(done.stdout)
    assert rows and all(row[-1] == "yes" for row in rows)
    assert f"{len(rows)} of {len(rows)} requests with the same stdout" in done.stdout
    assert "median of per-request minima: before " in done.stdout


def test_one_ulp_in_build_chain_fails(tmp_path):
    # the least entry of every chain read from JSON moves up one ulp: an
    # absorbing chain's 0.0 becomes 5e-324 and shows in its q or r block
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    chain = tmp_path / "src" / "chainkit" / "chain.py"
    old = '    return _frozen_chain(labels, p)'
    text = chain.read_text()
    assert text.count(old) == 1
    chain.write_text(text.replace(old, '    p.flat[np.argmin(p)] = np.nextafter(p.min(), 1.0)\n'
                                       '    return _frozen_chain(labels, p)'))
    done = run(ROOT, tmp_path)
    assert done.returncode == 1, done.stdout + done.stderr
    differing = [row for row in request_rows(done.stdout) if row[-1] == "NO"]
    assert differing and {row[1] for row in differing} == {"absorb"}


def test_kind_keeps_only_the_named_requests():
    done = subprocess.run([sys.executable, str(TOOL), str(ROOT), str(ROOT),
                           "--workload", "walks", "--seed", "1", "--scale", "0.05",
                           "--repeats", "2", "--kind", "simulate-path", "--kind", "evolve"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    rows = request_rows(done.stdout)
    # a walks pass holds 8 paths and 5 evolve requests at any scale
    assert sorted(row[1] for row in rows) == ["evolve"] * 5 + ["simulate-path"] * 8
    assert "13 of 13 requests with the same stdout" in done.stdout
