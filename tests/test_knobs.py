"""The README's "Environment knobs" table lists exactly the ``REPRO_*``
variables the library reads: a knob added to (or deleted from) ``src/``
must be documented (or undocumented) in the same change."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KNOB = re.compile(r"REPRO_[A-Z_]+")


def _knobs_in_source():
    names = set()
    for path in (ROOT / "src").rglob("*.py"):
        names.update(KNOB.findall(path.read_text(encoding="utf-8")))
    return names


def _knobs_in_readme():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Environment knobs", 1)[1].split("\n## ", 1)[0]
    return {
        m.group(1)
        for m in re.finditer(r"^\| `(REPRO_[A-Z_]+)` \|", section, re.MULTILINE)
    }


def test_readme_knob_table_matches_source():
    assert _knobs_in_readme() == _knobs_in_source()
