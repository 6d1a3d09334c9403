"""Finite set families over a bounded point universe.

A family is a set of distinct blocks; a block is a set of points; points
are integers ``0 <= p < universe_size``.  Blocks are stored as sorted
tuples and the block list itself is sorted, so two equal families always
have the same representation and serialize to the same bytes.  A parallel
tuple of bitmasks supports fast intersection arithmetic.
"""

from __future__ import annotations

import json
from itertools import chain
from typing import Iterable, Iterator, Sequence

from .errors import FormatError, _check_int, _check_universe, _load_json

DEFAULT_MAX_UNIVERSE = 128


def mask_of(points: Iterable[int]) -> int:
    m = 0
    for p in points:
        m |= 1 << p
    return m


def bits_of(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class Family:
    """Immutable family of distinct blocks.  Treat instances as frozen."""

    __slots__ = ("universe_size", "blocks", "masks", "labels", "point_mask")

    def __init__(self, blocks: Iterable[Iterable[int]], universe_size: int,
                 labels: Sequence[str] | None = None):
        _check_int("universe_size", universe_size)
        if universe_size < 0:
            raise FormatError("universe size must be non-negative")
        blocks = list(map(tuple, blocks))
        # type() and not isinstance(): bool is an int subclass, and True is no
        # point id
        if not set(map(type, chain.from_iterable(blocks))) <= {int}:
            bad = next(b for b in blocks if not all(type(p) is int for p in b))
            raise FormatError(f"bad block {list(bad)!r}: expected a list of integers")
        normalized = sorted({tuple(sorted(set(b))) for b in blocks})
        for b in normalized:
            if b and (b[0] < 0 or b[-1] >= universe_size):
                raise FormatError(
                    f"block {list(b)} does not fit a universe of size {universe_size}")
        self.universe_size = universe_size
        self.blocks = tuple(normalized)
        self.masks = tuple(mask_of(b) for b in self.blocks)
        pm = 0
        for m in self.masks:
            pm |= m
        self.point_mask = pm
        if labels is not None:
            labels = tuple(str(x) for x in labels)
            if len(labels) != universe_size:
                raise FormatError("labels must have exactly one entry per universe point")
            if len(set(labels)) != len(labels):
                raise FormatError("labels must be unique")
        self.labels = labels

    # -- basic structure ------------------------------------------------

    def __len__(self) -> int:
        return len(self.blocks)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.blocks)

    def __contains__(self, block) -> bool:
        return tuple(sorted(block)) in self.blocks

    def __eq__(self, other) -> bool:
        if not isinstance(other, Family):
            return NotImplemented
        return (self.universe_size == other.universe_size
                and self.blocks == other.blocks)

    def __hash__(self) -> int:
        return hash((self.universe_size, self.blocks))

    def __repr__(self) -> str:
        return f"Family({list(map(list, self.blocks))}, universe_size={self.universe_size})"

    def has_empty_block(self) -> bool:
        return bool(self.blocks) and self.blocks[0] == ()

    # -- point-level queries ---------------------------------------------

    def point_set(self) -> set[int]:
        """Union of all blocks."""
        return set(bits_of(self.point_mask))

    def point_count(self) -> int:
        return self.point_mask.bit_count()

    def uniform_block_size(self) -> int | None:
        """Common block size, or None if empty or mixed sizes."""
        if not self.blocks:
            return None
        k = len(self.blocks[0])
        if all(len(b) == k for b in self.blocks):
            return k
        return None

    def is_intersecting(self) -> bool:
        """True iff every two blocks share a point."""
        ms = self.masks
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                if not ms[i] & ms[j]:
                    return False
        return True

    def is_blocking_set(self, points: Iterable[int]) -> bool:
        """True iff the given point set meets every block."""
        m = mask_of(points)
        return all(m & bm for bm in self.masks)

    def uncovered_pairs(self) -> list[tuple[int, int]]:
        """Point pairs of the family that appear together in no block."""
        pts = sorted(self.point_set())
        out = []
        for i, a in enumerate(pts):
            for b in pts[i + 1:]:
                pair = (1 << a) | (1 << b)
                if not any((m & pair) == pair for m in self.masks):
                    out.append((a, b))
        return out

    def blocks_avoiding(self, points: Iterable[int]) -> "Family":
        """Subfamily of blocks disjoint from the given points."""
        avoid = mask_of(points)
        kept = [b for b, m in zip(self.blocks, self.masks) if not m & avoid]
        return Family(kept, self.universe_size, self.labels)

    # -- serialization ----------------------------------------------------

    def to_json_obj(self) -> dict:
        obj: dict = {"universe": self.universe_size}
        if self.labels is not None:
            obj["labels"] = list(self.labels)
        obj["blocks"] = [list(b) for b in self.blocks]
        return obj

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

    @classmethod
    def from_json_obj(cls, obj, max_universe: int | None = DEFAULT_MAX_UNIVERSE) -> "Family":
        if not isinstance(obj, dict):
            raise FormatError("family JSON must be an object")
        if "universe" not in obj or "blocks" not in obj:
            raise FormatError('family JSON needs "universe" and "blocks" keys')
        universe = obj["universe"]
        # type() and not isinstance(): bool is an int subclass, and JSON true
        # is no integer
        if type(universe) is not int:
            raise FormatError('"universe" must be an integer')
        _check_universe(universe, max_universe)
        blocks = obj["blocks"]
        if not isinstance(blocks, list):
            raise FormatError('"blocks" must be a list of point lists')
        for b in blocks:
            if not isinstance(b, list):
                raise FormatError(f"bad block {b!r}: expected a list of integers")
        labels = obj.get("labels")
        if labels is not None and (not isinstance(labels, list)
                                   or not all(isinstance(x, str) for x in labels)):
            raise FormatError('"labels" must be a list of strings')
        return cls(blocks, universe, labels)

    @classmethod
    def from_json(cls, text: str, max_universe: int | None = DEFAULT_MAX_UNIVERSE) -> "Family":
        return cls.from_json_obj(_load_json(text), max_universe=max_universe)

    def to_text(self) -> str:
        return "".join("b " + " ".join(str(p) for p in blk) + "\n" if blk else "b\n"
                       for blk in self.blocks)

    @classmethod
    def from_text(cls, text: str, max_universe: int | None = DEFAULT_MAX_UNIVERSE) -> "Family":
        blocks = []
        top = -1
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] != "b":
                raise FormatError(f"line {lineno}, column 1: expected 'b', got {parts[0]!r}")
            pts = []
            for tok in parts[1:]:
                try:
                    p = int(tok)
                except ValueError:
                    col = raw.index(tok) + 1
                    raise FormatError(
                        f"line {lineno}, column {col}: {tok!r} is not a point id") from None
                if p < 0:
                    col = raw.index(tok) + 1
                    raise FormatError(f"line {lineno}, column {col}: negative point id {p}")
                pts.append(p)
                top = max(top, p)
            blocks.append(pts)
        universe = top + 1
        _check_universe(universe, max_universe)
        return cls(blocks, universe)
