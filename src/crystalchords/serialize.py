"""JSON and compact-text forms for partitions, tableaux and matrices.

Partitions serialize as integer arrays like ``[3, 2]``.  Their compact form
is r figures, ``"311"`` (``"000"`` for the empty partition), or a bracketed
list such as ``[10,2]`` once a part exceeds 9; :func:`render_partition` writes
it and :func:`parse_partition` reads it back.  Tableaux use the compact form
of each step, joined by the commas outside brackets: ``"000,111,222"`` or
``"0,9,[10],9"``.  Matrices are written as arrays of rows and rendered as
text or as chord lists; no command reads one back.
"""

from __future__ import annotations

import json
import re

from .crystals import TableauSeq
from .weights import Matrix, Partition, partition

# a comma that separates two steps: no "]" closes a bracket after it
_COMPACT_STEP = re.compile(r",(?![^\[]*\])")


def parse_partition(value) -> Partition:
    if isinstance(value, str):
        text = value.strip()
        if text in ("", "-"):
            return ()
        # figures, or the parts of a bracketed list
        parts = text[1:-1].split(",") if text[0] == "[" and text[-1] == "]" else text
        if not all(x.isdigit() for x in parts):
            raise ValueError(f"compact partition {value!r} must be digits")
        return partition(int(x) for x in parts)
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"cannot parse a partition from {value!r}")
    return partition(value)


def parse_tableau(value, family: str | None = None, rank: int | None = None) -> TableauSeq:
    """Tableau from JSON dict or from the compact comma-separated form."""
    if isinstance(value, str):
        if family is None or rank is None:
            raise ValueError("compact tableau form needs an explicit family and rank")
        steps = [parse_partition(tok) for tok in _COMPACT_STEP.split(value)]
        return TableauSeq(family, rank, tuple(steps))
    if isinstance(value, dict):
        fam = value.get("family", family)
        r = value.get("r", rank)
        steps = value.get("steps")
        if not isinstance(steps, list):
            raise ValueError("tableau JSON needs a list of steps")
        steps = tuple(parse_partition(s) for s in steps)
        return TableauSeq(fam, r, steps)
    raise ValueError(f"cannot parse a tableau from {value!r}")


def tableau_to_json(t: TableauSeq) -> dict:
    return {
        "family": t.family,
        "r": t.rank,
        "steps": [list(p) for p in t.steps],
    }


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


def render_partition(p: Partition, r: int) -> str:
    """Compact form: r figures, or a bracketed list when a part exceeds 9."""
    if p and p[0] > 9:
        return "[" + ",".join(map(str, p)) + "]"
    return "".join(map(str, p)) + "0" * (r - len(p))


def render_tableau(t: TableauSeq) -> str:
    """Compact one-line form, one :func:`render_partition` per step."""
    return ",".join(render_partition(p, t.rank) for p in t.steps)


def dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
