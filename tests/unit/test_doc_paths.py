"""Every test file the docs cite exists.

A ``tests/...py`` path in ``docs/*.md``, ``DESIGN.md``,
``EXPERIMENTS.md`` or a module of ``src/repro`` is a pointer a reader
follows to the pin of a claim; deleting or renaming a test file must
move the pointer too.
"""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
CITED = re.compile(r"(?<![\w/.-])tests/[\w/]+\.py")


def test_every_cited_test_path_exists():
    sources = [*(ROOT / "docs").glob("*.md"), ROOT / "DESIGN.md", ROOT / "EXPERIMENTS.md",
               *(ROOT / "src" / "repro").rglob("*.py")]
    dangling = sorted(
        f"{source.relative_to(ROOT)}: {path}"
        for source in sources
        for path in set(CITED.findall(source.read_text(encoding="utf-8")))
        if not (ROOT / path).is_file()
    )
    assert not dangling, "\n".join(dangling)
