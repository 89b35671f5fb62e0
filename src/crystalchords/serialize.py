"""JSON and compact-text forms for partitions, tableaux, words and matrices.

Partitions serialize as integer arrays like ``[3, 2]``; the compact figure
form ``"311"`` (single-digit parts, ``"000"`` for the empty partition) is
accepted on input.  Tableaux accept the comma-separated compact form
``"000,111,222"``.  Spin letters serialize as sign strings like ``"+-+"``,
barred letters as negative integers and the zero letter as ``0``.
"""

from __future__ import annotations

import json

from .crystals import SPIN, TableauSeq, Word
from .weights import Partition, partition

Matrix = tuple[tuple[int, ...], ...]


def parse_partition(value) -> Partition:
    if isinstance(value, str):
        text = value.strip()
        if text in ("", "-"):
            return ()
        if not text.isdigit():
            raise ValueError(f"compact partition {value!r} must be digits")
        return partition(int(ch) for ch in text)
    return partition(value)


def parse_tableau(value, family: str | None = None, rank: int | None = None) -> TableauSeq:
    """Tableau from JSON dict or from the compact comma-separated form."""
    if isinstance(value, str):
        if family is None or rank is None:
            raise ValueError("compact tableau form needs an explicit family and rank")
        steps = [parse_partition(tok) for tok in value.split(",")]
        return TableauSeq(family, rank, tuple(steps))
    if isinstance(value, dict):
        fam = value.get("family", family)
        r = value.get("r", rank)
        steps = tuple(parse_partition(s) for s in value["steps"])
        return TableauSeq(fam, int(r), steps)
    raise ValueError(f"cannot parse a tableau from {value!r}")


def tableau_to_json(t: TableauSeq) -> dict:
    return {
        "family": t.family,
        "r": t.rank,
        "steps": [list(p) for p in t.steps],
    }


def _letter_to_json(kind: str, x):
    if kind == SPIN:
        return "".join("+" if s == 1 else "-" for s in x)
    return x


def _letter_from_json(kind: str, value):
    if kind == SPIN:
        if not isinstance(value, str) or set(value) - {"+", "-"}:
            raise ValueError(f"spin letter must be a sign string, got {value!r}")
        return tuple(1 if ch == "+" else -1 for ch in value)
    return int(value)


def word_to_json(w: Word) -> dict:
    return {
        "kind": w.kind,
        "r": w.rank,
        "letters": [_letter_to_json(w.kind, x) for x in w.letters],
    }


def parse_word(value: dict) -> Word:
    kind = value["kind"]
    r = int(value["r"])
    letters = tuple(_letter_from_json(kind, x) for x in value["letters"])
    return Word(kind, r, letters)


def matrix_to_json(m: Matrix) -> list[list[int]]:
    return [list(row) for row in m]


def parse_matrix(value) -> Matrix:
    return tuple(tuple(int(x) for x in row) for row in value)


def render_matrix(m: Matrix) -> str:
    if not m:
        return "(empty matrix)"
    width = max(len(str(x)) for row in m for x in row)
    return "\n".join(" ".join(str(x).rjust(width) for x in row) for row in m)


def render_chords(m: Matrix) -> str:
    """Edge list of the chord diagram, one 'i-j xmult' line per edge."""
    lines = []
    for i in range(len(m)):
        for j in range(i + 1, len(m)):
            if m[i][j]:
                lines.append(f"{i + 1}-{j + 1} x{m[i][j]}")
    return "\n".join(lines) if lines else "(no chords)"


def render_tableau(t: TableauSeq) -> str:
    """Compact one-line form; multi-digit parts fall back to bracketed lists."""
    out = []
    for p in t.steps:
        padded = list(p) + [0] * (t.rank - len(p))
        if all(x <= 9 for x in padded):
            out.append("".join(str(x) for x in padded))
        else:
            out.append("[" + ",".join(str(x) for x in p) + "]")
    return ",".join(out)


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
