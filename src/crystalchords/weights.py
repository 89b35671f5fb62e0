"""Partitions, integer weight vectors and the hyperoctahedral dominance map.

Partitions are canonical tuples of weakly decreasing positive integers
(trailing zeros trimmed, so ``(3, 2, 0)`` and ``(3, 2)`` are the same
partition and compare equal).  Weight vectors are plain integer tuples of a
fixed length ``r`` and may contain negative entries.  The two are kept apart
by convention: a weight vector becomes a partition only through
:func:`dominant_representative` or :func:`partition`.
"""

from __future__ import annotations

from operator import lt
from typing import Iterable, Sequence

Partition = tuple[int, ...]
WeightVec = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]


def partition(parts: Iterable[int]) -> Partition:
    """Validate and canonicalize a weakly decreasing sequence of ints into a partition."""
    p = tuple(parts)
    for x in p:
        if type(x) is not int:  # no bool, float or str parts
            raise ValueError(f"part {x!r} of {p} is not an int")
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


def dominant_representative(w: Sequence[int]) -> Partition:
    """Sort the absolute values of the entries weakly decreasing.

    This is the dominant weight in the orbit of the group of signed
    permutations, the common Weyl group of types B and C.
    """
    return trim(tuple(sorted((abs(x) for x in w), reverse=True)))

