"""Intersecting set-pair systems: validation, the set-pair inequality
certificate, and extraction of a system from a uniform family via a
minimal subfamily with the same transversal size."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Iterable, Sequence

from .errors import (EmptyBlockError, EmptyFamilyError, FormatError, InvalidIspError,
                     NotUniformError, VerificationError, _check_int, _load_json)
from .family import Family, bits_of, mask_of
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
    # masks over each point's rank, so their size follows the point count
    # and not the largest id
    rank = {p: r for r, p in enumerate(points)}
    amasks = [mask_of(map(rank.__getitem__, a)) for a, _ in pairs]
    bmasks = [mask_of(map(rank.__getitem__, b)) for _, b in pairs]
    for i in range(n):
        for j in range(n):
            meets = bool(amasks[i] & bmasks[j])
            if i == j and meets:
                return fail(i, j, "overlap", f"A_{i} intersects B_{i}")
            if i != j and not meets:
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


def extract_isp(family: Family) -> SetPairSystem:
    """Build an ISP(k, t-1) from a k-uniform family with transversal size t.

    A minimal subfamily E with the same transversal size is found by greedy
    deletion; dropping any single block of E lowers the transversal size to
    exactly t-1, and pairing each block with the least transversal of the
    rest yields the system.  Every point of the input's transversal family
    is covered by the system's points, which is what makes it a bound
    witness."""
    if not family.blocks:
        raise EmptyFamilyError("cannot extract a set-pair system from an empty family")
    if family.has_empty_block():
        raise EmptyBlockError("family contains the empty block")
    k = family.uniform_block_size()
    if k is None:
        raise NotUniformError("set-pair extraction needs a uniform family")
    full_report = transversal_family(family)
    t = full_report.tau
    # current keeps tau = t, so a hitting set of current - m of < t points
    # misses m; dropping m's points empties no block of a uniform family
    current = list(family.masks)
    for m in family.masks:
        if _hitting_sets([x & ~m for x in current if x != m], False, t - 1)[0] == t:
            current = [x for x in current if x != m]
    pairs = []
    for m in current:
        rest_tau, found, _ = _hitting_sets([x & ~m for x in current if x != m], True, t - 1)
        if rest_tau != t - 1:
            raise VerificationError(
                f"minimal subfamily violated: dropping a block gave tau {rest_tau}, want {t - 1}")
        pairs.append((bits_of(m), min(bits_of(x) for x in found)))
    system = SetPairSystem(pairs, k=k, t=t - 1)
    verdict = validate_isp(system)
    if not verdict:
        raise VerificationError(f"extracted system invalid: {verdict.message}")
    top_points = full_report.transversals.point_set()
    if not top_points <= system.point_set():
        raise VerificationError("a transversal point escaped the extracted system")
    return system
