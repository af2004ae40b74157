"""The library ships one poset kernel: the bitset ``Poset``.

The seed dict-of-sets kernel and the layered ideal BFS live only in
``tests/core/poset_oracle.py``.  No module under ``src/repro`` may name
them, nor probe a poset for its bit rows with ``getattr`` — that probe
only existed so a second kernel could flow through the library.
"""

from __future__ import annotations

import pathlib
import re

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

ORACLE_NAMES = ("poset_reference", "ReferencePoset", "ideals_reference")
BIT_ROW_PROBE = re.compile(r"getattr\([^)]*?_bit_rows", re.DOTALL)


def _sources():
    paths = sorted(SRC.rglob("*.py"))
    assert paths, f"no sources under {SRC}"
    return [(path, path.read_text(encoding="utf-8")) for path in paths]


def test_no_module_names_the_oracle_kernels():
    offenders = [
        f"{path.relative_to(SRC)}: {name}"
        for path, text in _sources()
        for name in ORACLE_NAMES
        if name in text
    ]
    assert not offenders, offenders


def test_no_module_probes_for_bit_rows():
    offenders = [
        f"{path.relative_to(SRC)}: {match.group(0)!r}"
        for path, text in _sources()
        for match in BIT_ROW_PROBE.finditer(text)
    ]
    assert not offenders, offenders
