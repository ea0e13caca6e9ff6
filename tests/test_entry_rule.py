"""One owner for roundoff in a transition matrix.

`chain.build_chain` sets an input entry at or below ENTRY_CLAMP to zero,
and every other module reads the transitions as P > 0. The package
source is read as text, so nothing is imported to check it.
"""

import re
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "chainkit").glob("*.py"))


def test_sources_found():
    assert "chain.py" in {f.name for f in SOURCES}


@pytest.mark.parametrize("source", [f for f in SOURCES if f.name != "chain.py"],
                         ids=lambda f: f.name)
def test_only_chain_names_entry_clamp(source):
    assert not re.search(r"\bENTRY_CLAMP\b", source.read_text(encoding="utf-8"))
