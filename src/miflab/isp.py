"""Intersecting set-pair systems: validation, the set-pair inequality
certificate, and extraction of a system from a uniform family via a
minimal subfamily with the same transversal size.

Extraction pairs each block m of a tau-critical family E (transversal size
t, and every block's removal lowers it) with a (t-1)-set that misses m and
meets every other block; the pairs then satisfy the cross condition.  Such
a set H is always T - p for a minimum transversal T and the only point p
of T in m: H plus any point of m has t points and meets every block.
Conversely T - p misses exactly the blocks whose only point of T is p.  So
one pass over the minimum transversals yields every block's candidates,
and no search per block is needed.  A block with a candidate in a family
keeps it in every subfamily that keeps the block, since the candidate
still meets all the other blocks; such a block is critical in all of them.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import comb
from operator import or_
from typing import Iterable, Sequence

from .errors import (EmptyBlockError, EmptyFamilyError, FormatError, InvalidIspError,
                     NotUniformError, VerificationError, _check_int, _load_json)
from .family import Family, bits_of, point_incidence
from .transversal import _hitting_sets, transversal_family


class SetPairSystem:
    """A sequence of pairs (A_i, B_i) meant to satisfy: A_i and B_j are
    disjoint exactly when i = j.  Pair order is preserved; declared
    parameters (k, t) are optional size annotations."""

    __slots__ = ("pairs", "k", "t")

    def __init__(self, pairs: Iterable[tuple[Sequence[int], Sequence[int]]],
                 k: int | None = None, t: int | None = None):
        pairs = [(tuple(a), tuple(b)) for a, b in pairs]
        for i, (a, b) in enumerate(pairs):
            # type() and not isinstance(): JSON true is no integer
            if not all(type(p) is int and p >= 0 for p in a + b):
                raise FormatError(f"pair {i}: point ids must be integers >= 0")
            if len(set(a)) < len(a) or len(set(b)) < len(b):
                raise FormatError(f"pair {i}: a side repeats a point id")
        for name, size in (("k", k), ("t", t)):
            if size is not None:
                _check_int(name, size)
        self.pairs = tuple((tuple(sorted(a)), tuple(sorted(b))) for a, b in pairs)
        self.k = k
        self.t = t

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SetPairSystem):
            return NotImplemented
        return self.pairs == other.pairs and self.k == other.k and self.t == other.t

    def __repr__(self) -> str:
        return f"SetPairSystem({list(self.pairs)!r}, k={self.k}, t={self.t})"

    def point_set(self) -> set[int]:
        pts: set[int] = set()
        for a, b in self.pairs:
            pts.update(a)
            pts.update(b)
        return pts

    def point_count(self) -> int:
        return len(self.point_set())

    def to_json_obj(self) -> dict:
        obj: dict = {"pairs": [{"A": list(a), "B": list(b)} for a, b in self.pairs]}
        if self.k is not None:
            obj["k"] = self.k
        if self.t is not None:
            obj["t"] = self.t
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj) -> "SetPairSystem":
        if not isinstance(obj, dict) or not isinstance(obj.get("pairs"), list):
            raise FormatError('ISP JSON must be an object with a "pairs" list')
        pairs = []
        for i, entry in enumerate(obj["pairs"]):
            if not (isinstance(entry, dict)
                    and all(isinstance(entry.get(side), list) for side in "AB")):
                raise FormatError(f'pair {i} must be {{"A": [...], "B": [...]}}')
            pairs.append((entry["A"], entry["B"]))
        k = obj.get("k")
        t = obj.get("t")
        if not all(v is None or type(v) is int for v in (k, t)):
            raise FormatError('"k" and "t" must be integers when present')
        return cls(pairs, k=k, t=t)

    @classmethod
    def from_json(cls, text: str) -> "SetPairSystem":
        return cls.from_json_obj(_load_json(text))


@dataclass(frozen=True)
class IspValidation:
    ok: bool
    n_pairs: int
    point_count: int
    violation: tuple[int, int, str] | None
    message: str

    def __bool__(self) -> bool:
        return self.ok


def validate_isp(system: SetPairSystem) -> IspValidation:
    """Check the full cross-intersection matrix and declared sizes.

    The violation triple is (i, j, kind) with 0-based pair indices; kind
    is "overlap" (A_i meets B_i), "disjoint" (A_i misses B_j, i != j), or
    "size" (declared parameter mismatch, j = -1)."""
    pairs = system.pairs
    n = len(pairs)
    points = system.point_set()
    pts = len(points)

    def fail(i, j, kind, msg):
        return IspValidation(False, n, pts, (i, j, kind), msg)

    for i, (a, b) in enumerate(pairs):
        if system.k is not None and len(a) != system.k:
            return fail(i, -1, "size", f"#A_{i} = {len(a)} != declared k = {system.k}")
        if system.t is not None and len(b) != system.t:
            return fail(i, -1, "size", f"#B_{i} = {len(b)} != declared t = {system.t}")
    # row i of the matrix, as the bit set of the j with A_i meeting B_j,
    # read from the B sides through each point of A_i; it must hold every
    # j but i, and its lowest wrong bit is the row's first violation.  The
    # bit sets run over pair indices, so none grows with a point id.
    b_through = point_incidence([b for _, b in pairs], defaultdict(int))
    every = (1 << n) - 1
    for i, (a, _) in enumerate(pairs):
        wrong = reduce(or_, [b_through.get(p, 0) for p in a], 0) ^ every ^ (1 << i)
        if wrong:
            j = (wrong & -wrong).bit_length() - 1
            if j == i:
                return fail(i, j, "overlap", f"A_{i} intersects B_{i}")
            return fail(i, j, "disjoint", f"A_{i} is disjoint from B_{j} with {i} != {j}")
    return IspValidation(True, n, pts, None, "valid")


def bollobas_sum(system: SetPairSystem) -> Fraction:
    """Exact value of sum_i 1/C(#A_i + #B_i, #A_i); at most 1 for a valid
    system, and for uniform systems the pair count is at most C(k+t,k)."""
    verdict = validate_isp(system)
    if not verdict:
        raise InvalidIspError(verdict.message)
    total = Fraction(0)
    for a, b in system.pairs:
        total += Fraction(1, comb(len(a) + len(b), len(a)))
    if total > 1:
        raise VerificationError(f"set-pair sum {total} exceeds 1 on a valid system")
    sizes = {(len(a), len(b)) for a, b in system.pairs}
    if len(sizes) == 1:
        k, t = next(iter(sizes))
        if len(system.pairs) > comb(k + t, k):
            raise VerificationError(
                f"{len(system.pairs)} pairs exceed C({k}+{t},{k}) on a uniform system")
    return total


def _near_transversals(blocks: Sequence[Sequence[int]], transversals: Iterable[int],
                       universe_size: int) -> list[int | None]:
    """For each block, as a mask, the least (t-1)-set that misses it and
    meets every other block, or None when there is none.

    The transversals are the masks of all minimum transversals of the
    blocks, of size t.  T - p misses exactly the blocks whose only point of
    T is p, so it belongs to a block when that block is the only one.  All
    candidates have t - 1 points, so of two the lesser in point order holds
    the lowest point of their symmetric difference."""
    through = point_incidence(blocks, [0] * universe_size)
    least: list[int | None] = [None] * len(blocks)
    for mask in transversals:
        seen = twice = 0
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            inc = through[low.bit_length() - 1]
            twice |= seen & inc
            seen |= inc
        lone = ~twice                   # the blocks T meets in one point
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            # the blocks whose only point of T is low
            alone = through[low.bit_length() - 1] & lone
            if not alone or alone & (alone - 1):
                continue
            i = alone.bit_length() - 1
            near = mask ^ low
            old = least[i]
            if old is None:
                least[i] = near
            else:
                diff = near ^ old
                if diff & -diff & near:
                    least[i] = near
    return least


def extract_isp(family: Family) -> SetPairSystem:
    """Build an ISP(k, t-1) from a k-uniform family F with transversal size t.

    A minimal subfamily E with the same transversal size is found by greedy
    deletion in block order, and each block of E is paired with the least
    (t-1)-set that misses it and meets every other block of E.  Every point
    of the input's transversal family is covered by the system's points,
    which is what makes it a bound witness.

    Both steps read minimum transversals (see the module docstring).  The
    blocks with a candidate in F are critical in every subfamily, so the
    deletion keeps them untested and runs its transversal-size test only on
    the others, with the same outcome as testing every block.  The pairing
    reads the minimum transversals of E, which are F's when nothing was
    deleted and otherwise take one search.  Dropping a block m of E always
    leaves transversal size at least t - 1, since any point of m completes a
    hitting set of E - m, so E is minimal exactly when every block of E has
    a candidate; a block without one raises VerificationError."""
    if not family.blocks:
        raise EmptyFamilyError("cannot extract a set-pair system from an empty family")
    if family.has_empty_block():
        raise EmptyBlockError("family contains the empty block")
    k = family.uniform_block_size()
    if k is None:
        raise NotUniformError("set-pair extraction needs a uniform family")
    full_report = transversal_family(family)
    t = full_report.tau
    near = _near_transversals(family.blocks, full_report.transversals.masks,
                              family.universe_size)
    # current keeps tau = t, so a hitting set of current - m of < t points
    # misses m; dropping m's points empties no block of a uniform family
    current = list(family.masks)
    for m, candidate in zip(family.masks, near):
        if candidate is None and _hitting_sets(
                [x & ~m for x in current if x != m], False, t - 1)[0] == t:
            current.remove(m)
    blocks = family.blocks
    if len(current) < len(blocks):
        kept = set(current)
        blocks = [b for b, m in zip(blocks, family.masks) if m in kept]
        near = _near_transversals(blocks, _hitting_sets(current, True, t)[1],
                                  family.universe_size)
    pairs = []
    for block, candidate in zip(blocks, near):
        if candidate is None:
            raise VerificationError(
                f"minimal subfamily violated: no {t - 1}-set misses only block {list(block)}")
        pairs.append((block, bits_of(candidate)))
    system = SetPairSystem(pairs, k=k, t=t - 1)
    verdict = validate_isp(system)
    if not verdict:
        raise VerificationError(f"extracted system invalid: {verdict.message}")
    if full_report.transversals.point_mask & ~reduce(or_, current + near):
        raise VerificationError("a transversal point escaped the extracted system")
    return system
