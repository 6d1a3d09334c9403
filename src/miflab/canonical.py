"""Canonical labeling of families.

The canonical form of a family is the lexicographically least sorted
block list obtainable by relabeling its used points with 0..v-1.  Two
families have equal canonical forms iff a point bijection maps one's
blocks onto the other's, which is what "up to isomorphism" means here.

The minimization builds the output list entry by entry and hands labels
out in cells.  A cell is a set of points that share the label interval
[start, start + size) in an order not yet fixed; at first all v used
points form the one cell [0, v).  The key of a block is the lowest
|b & C| labels of each cell C it meets: per block, the componentwise (and
so lexicographic) minimum over every labeling that refines the cells.
The next entry of the output is the least key over the unemitted blocks.
Emitting a block splits every cell C it meets into b & C followed by
C - b, so the block takes exactly its key's labels under every refinement.

Why the result is still the exact least list.  Splitting only narrows the
refinements, so keys never fall, and every refinement of a branch's cells
yields a list that starts with the entries the branch emitted.  Take a
least labeling; it refines the starting cell.  If it refines the cells of
a branch that emitted the first j entries of its list, the block it maps
to entry j has a key no larger than that entry, which is the least
possible next entry, so the block ties at the least key, and emitting it
leaves cells the least labeling still refines.  Branching over the blocks
that tie at the least key, with pruning against the best complete list
found so far, therefore reaches the least list, and never branches over
the orderings of the points inside a cell.  The branches live on an
explicit stack, so deep inputs do not grow the Python stack.

Finding automorphisms.  The search starts from the identity labeling's
list as best and keeps the point order of the branch that set best.  A
complete branch whose list equals best labels the blocks as best's
labeling does, so the map sending the point at each position of best's
order to the point at the same position of the branch's order is an
automorphism of the family.  Every such map but the identity is stored.

Skipping tied blocks by orbits.  Before a level emits its next tied block,
it takes the stored automorphisms that fix every cell of its partition
setwise, and skips the block if the group they generate maps it onto a
block already tried at that level.  Why this keeps the exact least list:
a block emitted above the level became a union of cells when it was
emitted, and cells only split, so such an automorphism g fixes every
emitted block and hence the set of remaining blocks.  It maps the tied
block b onto a tied block g(b), and the cells left by emitting g(b) are
the images under g of those left by emitting b, with the same starts and
sizes.  Keys depend on cell starts alone, so the two subtrees produce the
same lists, and the subtree of b, already walked, holds anything the
subtree of g(b) could find: a smaller list, or in test mode a refutation.
An automorphism that moves a point to another cell of the level is not
used there, since it may map a tried block onto a block whose subtree
produces other lists.  The bookkeeping starts with the first stored
automorphism, so a family with a trivial group pays almost nothing for it.

Seeded automorphisms.  The argument above uses only that a stored map is
an automorphism of the family, not that the walk found it, so the test
may start from automorphisms the caller already knows (the search passes
those it derives from the parent's group); they prune from the first tied
level on.  A wrong seed would prune a subtree that holds a smaller list,
so each one is checked against the blocks first.  When the test accepts,
the caller's list gets the automorphisms the walk found and one
transposition per pair of adjacent twin points, points that lie in
exactly the same blocks.  The walk never branches inside a cell and twins
are never separated, so it cannot find those swaps itself; with them the
list generates the whole automorphism group of the family.
"""

from __future__ import annotations

from typing import Sequence

from .errors import ParameterOutOfRangeError


def _split(order: list[int], cell: list[int], size: list[int], block: tuple[int, ...]) -> None:
    """Split every cell the block meets into its part in the block followed
    by the rest, in place."""
    parts: dict[int, list[int]] = {}
    for p in block:
        parts.setdefault(cell[p], []).append(p)
    for start, inside in parts.items():
        n_in, total = len(inside), size[start]
        if n_in == total:
            continue
        rest = [p for p in order[start:start + total] if p not in inside]
        order[start:start + total] = inside + rest
        size[start] = n_in
        size[start + n_in] = total - n_in
        for p in rest:
            cell[p] = start + n_in


def _close(covered: set[int], frontier: list[int], stab: list[list[int]],
           members: tuple[tuple[int, ...], ...], by_mask: dict[int, int]) -> None:
    """Add to covered the orbits of the frontier blocks under the group
    that stab generates."""
    while frontier:
        b = members[frontier.pop()]
        for g in stab:
            image = by_mask[sum(1 << g[p] for p in b)]
            if image not in covered:
                covered.add(image)
                frontier.append(image)


def _in_tried_orbit(level: list, emit: int, autos: list[list[int]],
                    members: tuple[tuple[int, ...], ...], by_mask: dict[int, int]) -> bool:
    """True iff emit lies in the orbit of a candidate already tried at the
    level, under the stored automorphisms that fix each of its cells."""
    orbits = level[6]
    if orbits is None:
        # [automorphisms tested so far, those that fix every cell, the
        # orbits of the tried candidates under them]
        orbits = level[6] = [0, [], set()]
    seen, stab, covered = orbits
    if seen < len(autos):
        cell = level[1]
        new = [g for g in autos[seen:] if all(cell[q] == c for q, c in zip(g, cell))]
        orbits[0] = len(autos)
        if new:
            frontier = list(covered) if stab else level[4][:level[5] - 1]
            stab += new
            covered.update(frontier)
            _close(covered, frontier, stab, members, by_mask)
    if not stab:
        return False
    if emit in covered:
        return True
    covered.add(emit)
    _close(covered, [emit], stab, members, by_mask)
    return False


def _block_masks(ident: tuple[tuple[int, ...], ...], v: int,
                 automorphisms: Sequence[Sequence[int]]) -> dict[int, int]:
    """The index of each block by its mask, after checking that every
    automorphism, given as the list of images of 0..v-1, permutes the
    points and maps each block onto a block."""
    by_mask = {sum(1 << p for p in b): bi for bi, b in enumerate(ident)}
    points = set(range(v))
    for g in automorphisms:
        try:
            ok = (all(type(q) is int for q in g) and len(g) == v and set(g) == points
                  and all(sum(1 << g[p] for p in b) in by_mask for b in ident))
        except (TypeError, IndexError):  # no sequence, or a block point beyond v
            ok = False
        if not ok:
            raise ParameterOutOfRangeError(
                f"{g!r} is not an automorphism of the blocks on points 0..{v - 1}")
    return by_mask


def _twin_swaps(members: tuple[tuple[int, ...], ...], v: int) -> list[list[int]]:
    """One transposition per pair of adjacent points that lie in exactly
    the same blocks."""
    where = [0] * v
    for bi, b in enumerate(members):
        for p in b:
            where[p] |= 1 << bi
    swaps: list[list[int]] = []
    last: dict[int, int] = {}
    for p, blocks_of_p in enumerate(where):
        q = last.get(blocks_of_p)
        if q is not None:
            g = list(range(v))
            g[p], g[q] = q, p
            swaps.append(g)
        last[blocks_of_p] = p
    return swaps


def _minimize(blocks: Sequence[Sequence[int]], test_only: bool,
              seed: list | None = None) -> tuple[tuple[int, ...], ...] | bool:
    ident = tuple(sorted({tuple(sorted(set(b))) for b in blocks}))
    points = sorted({p for b in ident for p in b})
    v = len(points)
    if seed is not None:
        by_mask = _block_masks(ident, v, seed)
    if not ident:
        return True if test_only else ()
    if test_only and points != list(range(v)):
        return False  # the least list labels its points 0..v-1
    index = {p: i for i, p in enumerate(points)}
    members = tuple(tuple(index[p] for p in b) for b in ident)

    out: list[tuple[int, ...]] = []
    # The identity labeling gives members; best_order is the point order
    # of the labeling that gave best, and autos holds the seeded
    # automorphisms and those found so far, each as the list of point
    # images.  A seed implies test_only, so members is ident.
    best, best_order = list(members), list(range(v))
    if seed is None:
        autos: list = []
        by_mask: dict[int, int] = {}
    else:
        autos = list(seed)
    # The branch being explored: order lists the points by label position,
    # cell[p] is the start of p's cell, size[start] that cell's size, and
    # remaining holds the blocks not yet emitted.  It is a list, not a
    # tuple: CPython keeps up to 2000 freed tuples of each length below 20,
    # which raised the peak memory of a run of many calls by 3.6 MB.
    order, cell, size = list(range(v)), [0] * v, [v] + [0] * (v - 1)
    remaining = list(range(len(ident)))
    # One level per entry of out: the branch state before that entry was
    # emitted, the blocks tied there, how many of them were taken, and the
    # orbit bookkeeping of _in_tried_orbit.
    levels: list[list] = []
    while True:
        if not remaining:
            if out < best:
                best, best_order = out[:], order[:]
            elif order != best_order:
                # out == best: both labelings give the same list
                g = [0] * v
                for p, q in zip(best_order, order):
                    g[p] = q
                autos.append(g)
                if not by_mask:
                    by_mask = {sum(1 << p for p in b): bi for bi, b in enumerate(members)}
        else:
            # Blocks are ranked by the sorted cell starts of their points,
            # which orders them as their keys do; only the least is turned
            # into labels.
            least = None
            cands: list[int] = []
            start_of = cell.__getitem__
            for bi in remaining:
                starts = sorted(map(start_of, members[bi]))
                if least is None or starts < least:
                    least = starts
                    cands = [bi]
                elif starts == least:
                    cands.append(bi)
            for i in range(1, len(least)):
                if least[i] <= least[i - 1]:  # the next label of the same cell
                    least[i] = least[i - 1] + 1
            out.append(tuple(least))
            bound = best[:len(out)]
            if out > bound:
                out.pop()
            elif test_only and out < bound:
                return False
            else:
                levels.append([order, cell, size, remaining, cands, 0, None])
        while True:
            while levels and levels[-1][5] == len(levels[-1][4]):
                levels.pop()
                out.pop()
            if not levels:
                if not test_only:
                    return tuple(best)
                if seed is not None:
                    seed += autos[len(seed):]
                    seed += _twin_swaps(members, v)
                return True
            level = levels[-1]
            taken = level[5]
            emit = level[4][taken]
            level[5] = taken + 1
            if not (taken and autos and _in_tried_orbit(level, emit, autos, members, by_mask)):
                break
        order, cell, size, remaining = level[:4]
        if level[5] < len(level[4]):
            order, cell, size = order[:], cell[:], size[:]
        else:  # the last branch takes the lists over
            level[:4] = None, None, None, None
        _split(order, cell, size, members[emit])
        remaining = [bi for bi in remaining if bi != emit]


def least_block_list(blocks: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least relabeled sorted block list."""
    result = _minimize(blocks, test_only=False)
    assert not isinstance(result, bool)
    return result


def is_least_labeling(blocks: Sequence[Sequence[int]],
                      automorphisms: list | None = None) -> bool:
    """True iff the blocks, as labeled, already form the least list.

    automorphisms, if given, is a list of automorphisms of the blocks, each
    the list of images of the points 0..v-1; they prune the test from the
    start, and an entry that is not one raises ParameterOutOfRangeError.
    On True the list is extended to generators of the blocks' whole
    automorphism group; on False it is left as it was."""
    return bool(_minimize(blocks, True, automorphisms))
