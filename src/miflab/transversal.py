"""Exact minimum blocking sets and their complete enumeration.

One iterative branch-and-bound, ``_hitting_sets``, serves ``tau``,
``transversal_family``, set-pair extraction and the node step of the
orderly family search (its maximality test and threat prune).  A node is a
partial set of chosen points plus a set of forbidden points.  Its
uncovered blocks are kept with the forbidden points cleared, and a node
with no uncovered block is a hitting set.  Otherwise the node branches on
its smallest uncovered block ``p1..pr``: child ``i`` takes ``pi`` and
forbids ``p1..p(i-1)``.  A hitting set that extends the node contains a
least ``pi`` and matches child ``i`` only, so the children partition the
hitting sets below their parent.  Each minimum hitting set is therefore
reached exactly once, at the leaf where its last point is chosen, and no
memo of visited sets is needed.  A child's uncovered list is its parent's,
filtered by the new point; the forbidden points are cleared only when
there are any.  Clearing them never empties a block: child ``i`` forbids
a proper subset of the branching block, so a block it empties would be
smaller than that block, which was a smallest uncovered one, and the
lists hold no empty block to begin with.

The lower bound is a greedy packing of pairwise-disjoint uncovered blocks,
each of which needs its own point.  The children are ordered by the key
``(-hit count, point bit)``: points that hit the most uncovered blocks come
first, so the first dive finds a good incumbent, and ties go to the lower
point.  The two prune modes differ only in ties: the ``tau`` path looks
for a strictly smaller set (prune when ``depth + bound >= best``), while
the collecting path keeps ties (prune when ``depth + bound > best``) and
so gathers every minimum set in the same pass.  A subset-scan oracle
double-checks both at small scale.

A node's room is the number of points it may still add: ``best - depth``
in the collecting mode, one less in the ``tau`` mode.  A node with no room
and an uncovered block is pruned at once, and the packing loop stops as
soon as it has found more disjoint blocks than the room allows, since
either way the bound already exceeds it.  A node with room 1 decides its
children itself, which have no room left: child ``i`` is a leaf exactly
when ``pi`` lies in every uncovered block, so the leaves are the points of
the AND of the uncovered blocks.  They hit the most blocks, so they are
the first children in the order above, and they come in ascending order.
Each passes the same depth check and updates ``best`` and the found list
as a popped leaf would; in the ``tau`` mode the first one makes the rest
too deep.  Every other child leaves a block uncovered and would be pruned
as soon as it was popped, so the children are counted but none is
pushed.  A non-zero AND also means no two uncovered blocks are disjoint,
so the packing bound is 1 there and its loop is skipped.  A node, in the
count the kernel reports, is a child in the tree, whether pushed and
popped or decided at its parent; the counts are those of a walk that
pushes every child.

Points, blocks and hitting sets are int bitmasks throughout the kernel.
``_minimum_transversals`` checks its answers and returns them as masks, in
the order the kernel found them.  ``is_mif``, merge, collapse and set-pair
extraction read only those masks; ``transversal_family`` alone turns them
into a ``Family`` (through ``Family._from_masks``, which sorts them once)
for the callers that get the transversals back.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations
from operator import and_

from .errors import EmptyBlockError, OracleTooLargeError, VerificationError, _Record
from .family import Family, mask_of

INFINITE_TAU = math.inf
ORACLE_POINT_LIMIT = 20


class TransversalReport(_Record):
    """Minimum blocking-set size, all minimum blocking sets, node count."""
    tau: int | float
    transversals: Family
    nodes: int


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
        if forbid:
            keep = ~forbid
            uncovered = [m & keep for m in parent if not m & bit]
        else:
            uncovered = [m for m in parent if not m & bit]
        if not uncovered:
            if depth < best:
                best, found = depth, [chosen]
            else:
                found.append(chosen)
            continue
        room = best - depth - slack     # points this node may still add
        if not room:                    # an uncovered block needs one more
            continue
        # at the last level a child is a leaf iff its point is in every
        # uncovered block; a non-zero AND also packs just one block
        common = reduce(and_, uncovered) if room == 1 else 0
        if not common:
            # packing bound: pairwise-disjoint uncovered blocks each need a
            # point; more than room of them prune the node
            packed = 0
            union = 0
            for m in uncovered:
                if not m & union:
                    packed += 1
                    if packed > room:
                        break
                    union |= m
            if packed > room:
                continue
        if room == 1:
            # the children, counted here but not pushed: the points of
            # common are the leaves, popped first in ascending order; every
            # other child leaves a block uncovered and would be pruned
            nodes += min(map(int.bit_count, uncovered))
            depth += 1                  # the leaves' depth, checked as on a pop
            while common and depth + slack <= best:
                low = common & -common
                common ^= low
                if depth < best:
                    best, found = depth, [chosen | low]
                else:
                    found.append(chosen | low)
            continue
        block = min(uncovered, key=int.bit_count)
        # children in order of (-hit count, point bit); sum(...) // low
        # counts the uncovered blocks through the point
        order = []
        rest = block
        while rest:
            low = rest & -rest
            order.append((-(sum(map(low.__and__, uncovered)) // low), low))
            rest ^= low
        order.sort(reverse=True)
        for _, low in order:    # last child first; each forbids the points before it
            block ^= low
            stack.append((chosen | low, depth + 1, uncovered, low, block))
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


def _minimum_transversals(masks, k: int | None) -> tuple[int, list[int], int]:
    """Minimum blocking-set size, the masks of all minimum blocking sets in
    the kernel's order, and the node count.

    The blocks are masks with no empty one; k is their common size, if they
    have one, and then the k^tau count bound is enforced.  An empty block
    list has one blocking set, 0, found without a search."""
    if not masks:
        return 0, [0], 0
    t, found, nodes = _hitting_sets(masks, True)
    if k is not None and len(found) > k ** t:
        raise VerificationError(f"{len(found)} transversals exceed the bound {k}^{t}")
    if len(set(found)) != len(found):
        raise VerificationError("two masks name the same block")
    return t, found, nodes


def transversal_family(family: Family) -> TransversalReport:
    """All minimum blocking sets, with the k^tau count bound enforced."""
    if family.has_empty_block():
        raise EmptyBlockError("family contains the empty block; no blocking set exists")
    t, found, nodes = _minimum_transversals(family.masks, family.uniform_block_size())
    transversals = Family._from_masks(found, family.universe_size, family.labels)
    return TransversalReport(t, transversals, nodes)


def brute_force_transversals(family: Family) -> TransversalReport:
    """Oracle: scan all subsets of the point set in size order."""
    if family.has_empty_block():
        raise EmptyBlockError("family contains the empty block; no blocking set exists")
    if not family.blocks:
        return TransversalReport(0, Family([()], family.universe_size, family.labels), 0)
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
