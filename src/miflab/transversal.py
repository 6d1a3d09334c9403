"""Exact minimum blocking sets and their complete enumeration.

One iterative branch-and-bound, ``_hitting_sets``, serves ``tau``,
``transversal_family``, set-pair extraction and the node step of the
orderly family search (its maximality test and threat prune).  A node is a
partial set of chosen points plus a set of forbidden points.  Its
uncovered blocks are kept with the forbidden points cleared; a block left
with no point kills the node, and a node with no uncovered block is a
hitting set.  Otherwise the node branches on its smallest uncovered block
``p1..pr``: child ``i`` takes ``pi`` and forbids ``p1..p(i-1)``.  A
hitting set that extends the node contains a least ``pi`` and matches
child ``i`` only, so the children partition the hitting sets below their
parent.  Each minimum hitting set is therefore reached exactly once, at
the leaf where its last point is chosen, and no memo of visited sets is
needed.  A child's uncovered list is its parent's, filtered by the new
point.

The lower bound is a greedy packing of pairwise-disjoint uncovered blocks,
each of which needs its own point.  Points are tried in order of how many
uncovered blocks they hit, so the first dive finds a good incumbent.  The
two prune modes differ only in ties: the ``tau`` path looks for a strictly
smaller set (prune when ``depth + bound >= best``), while the collecting
path keeps ties (prune when ``depth + bound > best``) and so gathers every
minimum set in the same pass.  A subset-scan oracle double-checks both at
small scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

from .errors import EmptyBlockError, OracleTooLargeError, VerificationError
from .family import Family, bits_of, mask_of

INFINITE_TAU = math.inf
ORACLE_POINT_LIMIT = 20


@dataclass(frozen=True)
class TransversalReport:
    """Minimum blocking-set size, all minimum blocking sets, node count."""
    tau: int | float
    transversals: Family
    nodes: int


def _disjoint_lower_bound(uncovered: list[int]) -> int:
    """Count of pairwise-disjoint uncovered blocks; each needs its own point."""
    union = 0
    count = 0
    for m in uncovered:
        if not m & union:
            count += 1
            union |= m
    return count


def _hitting_sets(masks, collect: bool,
                  limit: int | None = None) -> tuple[int, list[int], int]:
    """Minimum hitting-set size, the masks of the hitting sets found at that
    size, and the node count.

    Only sets of at most ``limit`` points are sought (by default every block
    count will do); when none exists the size reported is ``limit + 1``.
    With ``collect`` every minimum set is returned, otherwise the first one
    that reached the optimum.  Blocks must be non-empty."""
    top = len(masks) if limit is None else limit
    best = top if collect else top + 1
    slack = 0 if collect else 1     # collect keeps ties with the incumbent
    found: list[int] = []
    nodes = 0
    # (chosen points, their count, the parent's uncovered blocks with its
    # forbidden points cleared, the point taken, the points now forbidden)
    stack = [(0, 0, list(masks), 0, 0)]
    while stack:
        chosen, depth, parent, bit, forbid = stack.pop()
        nodes += 1
        if depth + slack > best:
            continue
        keep = ~forbid
        uncovered = [m & keep for m in parent if not m & bit]
        if 0 in uncovered:      # a block lost its last point to the forbidden ones
            continue
        if not uncovered:
            if depth < best:
                best, found = depth, [chosen]
            else:
                found.append(chosen)
            continue
        if depth + _disjoint_lower_bound(uncovered) + slack > best:
            continue
        block = min(uncovered, key=int.bit_count)
        # most uncovered blocks hit first; sum(...) >> p counts them
        points = sorted(bits_of(block),
                        key=lambda p: -(sum(map((1 << p).__and__, uncovered)) >> p))
        excluded = 0
        children = []
        for p in points:
            children.append((chosen | 1 << p, depth + 1, uncovered, 1 << p, excluded))
            excluded |= 1 << p
        stack.extend(reversed(children))
    return (best if found else top + 1), found, nodes


def tau(family: Family) -> int | float:
    """Minimum blocking-set size; 0 for the empty family, inf if a block is empty."""
    return tau_with_nodes(family)[0]


def tau_with_nodes(family: Family) -> tuple[int | float, int]:
    """Like tau, but also reports the optimizer's node count."""
    if not family.blocks:
        return 0, 0
    if family.has_empty_block():
        return INFINITE_TAU, 0
    t, _, nodes = _hitting_sets(family.masks, False)
    return t, nodes


def _empty_family_report(family: Family) -> TransversalReport:
    only_empty = Family([()], family.universe_size, family.labels)
    return TransversalReport(0, only_empty, 0)


def transversal_family(family: Family) -> TransversalReport:
    """All minimum blocking sets, with the k^tau count bound enforced."""
    if family.has_empty_block():
        raise EmptyBlockError("family contains the empty block; no blocking set exists")
    if not family.blocks:
        return _empty_family_report(family)
    t, solutions, nodes = _hitting_sets(family.masks, True)
    k = family.uniform_block_size()
    if k is not None and len(solutions) > k ** t:
        raise VerificationError(
            f"{len(solutions)} transversals exceed the bound {k}^{t}")
    transversals = Family([bits_of(m) for m in solutions], family.universe_size,
                          family.labels)
    return TransversalReport(t, transversals, nodes)


def brute_force_transversals(family: Family) -> TransversalReport:
    """Oracle: scan all subsets of the point set in size order."""
    if family.has_empty_block():
        raise EmptyBlockError("family contains the empty block; no blocking set exists")
    if not family.blocks:
        return _empty_family_report(family)
    points = sorted(family.point_set())
    if len(points) > ORACLE_POINT_LIMIT:
        raise OracleTooLargeError(
            f"{len(points)} points exceed the oracle guard of {ORACLE_POINT_LIMIT}")
    nodes = 0
    for size in range(len(points) + 1):
        hits = []
        for cand in combinations(points, size):
            nodes += 1
            m = mask_of(cand)
            if all(m & bm for bm in family.masks):
                hits.append(cand)
        if hits:
            transversals = Family(hits, family.universe_size, family.labels)
            return TransversalReport(size, transversals, nodes)
    raise VerificationError("no blocking set found within the point set")
