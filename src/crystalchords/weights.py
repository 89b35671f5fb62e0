"""Partitions, integer weight vectors and the hyperoctahedral dominance map.

Partitions are canonical tuples of weakly decreasing positive integers
(trailing zeros trimmed, so ``(3, 2, 0)`` and ``(3, 2)`` are the same
partition and compare equal).  Weight vectors are plain integer tuples of a
fixed length ``r`` and may contain negative entries.  The two are kept apart
by convention: a weight vector becomes a partition only through
:func:`dominant_representative` or :func:`partition`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import lt
from typing import Iterable, Sequence

Partition = tuple[int, ...]
WeightVec = tuple[int, ...]


def partition(parts: Iterable[int]) -> Partition:
    """Validate and canonicalize a weakly decreasing sequence into a partition."""
    p = tuple(map(int, parts))
    if any(map(lt, p, p[1:])):
        raise ValueError(f"not weakly decreasing: {p}")
    if p and p[-1] < 0:
        raise ValueError(f"negative part: {p}")
    return trim(p) if p and p[-1] == 0 else p


def trim(parts: Sequence[int]) -> Partition:
    """Drop trailing zeros."""
    n = len(parts)
    while n > 0 and parts[n - 1] == 0:
        n -= 1
    return tuple(parts[:n])


def is_partition(parts: Sequence[int]) -> bool:
    return all(a >= b for a, b in zip(parts, parts[1:])) and (not parts or parts[-1] >= 0)


def pad(parts: Sequence[int], length: int) -> WeightVec:
    """Extend with zeros to the requested length."""
    if len(parts) > length:
        raise ValueError(f"{parts} has more than {length} parts")
    return tuple(parts) + (0,) * (length - len(parts))


def vec_add(u: Sequence[int], v: Sequence[int]) -> WeightVec:
    n = max(len(u), len(v))
    u, v = pad(u, n), pad(v, n)
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Sequence[int], v: Sequence[int]) -> WeightVec:
    n = max(len(u), len(v))
    u, v = pad(u, n), pad(v, n)
    return tuple(a - b for a, b in zip(u, v))


def unit_vector(i: int, r: int) -> WeightVec:
    """Standard basis vector e_i (1-based position) in Z^r."""
    if not 1 <= i <= r:
        raise ValueError(f"position {i} out of range 1..{r}")
    return tuple(1 if j == i else 0 for j in range(1, r + 1))


def dominant_representative(w: Sequence[int]) -> Partition:
    """Sort the absolute values of the entries weakly decreasing.

    This is the dominant weight in the orbit of the group of signed
    permutations, the common Weyl group of types B and C.
    """
    return trim(tuple(sorted((abs(x) for x in w), reverse=True)))


def union_parts(p: Sequence[int], q: Sequence[int]) -> Partition:
    """Row-wise sum of two partitions (so ``union_parts(d, d)`` is 2d)."""
    return trim(vec_add(p, q))


def intersect_parts(p: Sequence[int], q: Sequence[int]) -> Partition:
    """Row-wise minimum of two partitions."""
    n = max(len(p), len(q))
    return trim(tuple(min(a, b) for a, b in zip(pad(p, n), pad(q, n))))


StepKind = tuple[str, int | None]


def step_classify(p: Sequence[int], q: Sequence[int]) -> StepKind:
    """Finest relation of q relative to p.

    Returns one of ``("equal", None)``, ``("add_box", row)``,
    ``("remove_box", row)``, ``("vertical_strip", None)``,
    ``("horizontal_strip", None)`` or ``("other", None)``.  Rows are 1-based.
    Strip kinds apply only in the growing direction p <= q; a skew shape that
    is both kinds of strip reports as vertical.
    """
    p, q = partition(p), partition(q)
    if p == q:
        return ("equal", None)
    n = max(len(p), len(q))
    pp, qq = pad(p, n), pad(q, n)
    diff = [b - a for a, b in zip(pp, qq)]
    changed = [i for i, d in enumerate(diff) if d != 0]
    if len(changed) == 1 and diff[changed[0]] == 1:
        return ("add_box", changed[0] + 1)
    if len(changed) == 1 and diff[changed[0]] == -1:
        return ("remove_box", changed[0] + 1)
    if all(d >= 0 for d in diff):
        if all(d <= 1 for d in diff):
            return ("vertical_strip", None)
        # horizontal strip: at most one new cell per column, i.e. q interleaves p
        if all(qq[i + 1] <= pp[i] for i in range(n - 1)):
            return ("horizontal_strip", None)
    return ("other", None)


def is_vertical_strip(p: Sequence[int], q: Sequence[int]) -> bool:
    """True if p <= q and q/p has at most one cell in each row."""
    n = max(len(p), len(q))
    pp, qq = pad(p, n), pad(q, n)
    return all(0 <= b - a <= 1 for a, b in zip(pp, qq))


def is_horizontal_strip(p: Sequence[int], q: Sequence[int]) -> bool:
    """True if p <= q and q/p has at most one cell in each column."""
    n = max(len(p), len(q)) + 1
    pp, qq = pad(p, n), pad(q, n)
    if any(b < a for a, b in zip(pp, qq)):
        return False
    return all(qq[i + 1] <= pp[i] for i in range(n - 1))


@dataclass(frozen=True)
class RootSystemData:
    """Simple roots of type B_r or C_r in the standard coordinates."""

    type_tag: str  # "B" or "C"
    rank: int
    simple_roots: tuple[WeightVec, ...]


def root_system(type_tag: str, rank: int) -> RootSystemData:
    if type_tag not in ("B", "C"):
        raise ValueError(f"unknown type {type_tag!r}")
    if rank < 1:
        raise ValueError("rank must be positive")
    roots = []
    for i in range(1, rank):
        roots.append(vec_sub(unit_vector(i, rank), unit_vector(i + 1, rank)))
    last = unit_vector(rank, rank)
    if type_tag == "C":
        last = tuple(2 * x for x in last)
    roots.append(last)
    return RootSystemData(type_tag, rank, tuple(roots))
