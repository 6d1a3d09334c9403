"""Canonical labeling of families.

The canonical form of a uniform family is the lexicographically least
sorted block list obtainable by relabeling its used points with 0..v-1.
Two families have equal canonical forms iff a point bijection maps one's
blocks onto the other's, which is what "up to isomorphism" means here.
Blocks are read as sets, and a family whose distinct blocks have several
sizes is refused with NotUniformError.

The minimization builds the output list entry by entry and hands labels
out in cells.  A cell is a set of points that share the label interval
[start, end] in an order not yet fixed; at first all v used points form
the one cell [0, v - 1].  The label tuple of a block is the lowest
|b & C| labels of each cell C it meets: per block, the componentwise (and
so lexicographic) minimum over every labeling that refines the cells.
The next entry of the output is the least label tuple over the unemitted
blocks.  Emitting a block splits every cell C it meets into b & C
followed by C - b, so the block takes exactly its tuple's labels under
every refinement.

Why the result is still the exact least list.  Splitting only narrows the
refinements, so tuples never fall, and every refinement of a branch's
cells yields a list that starts with the entries the branch emitted.
Take a least labeling; it refines the starting cell.  If it refines the
cells of a branch that emitted the first j entries of its list, the block
it maps to entry j has a tuple no larger than that entry, which is the
least possible next entry, so the block ties at the least tuple, and
emitting it leaves cells the least labeling still refines.  Branching
over the blocks that tie at the least tuple, with pruning against the
best complete list found so far, therefore reaches the least list, and
never branches over the orderings of the points inside a cell.  The
branches live on an explicit stack, so deep inputs do not grow the
Python stack.

Cells by name.  A cell is named by its end, the last label position in
it.  A split gives b & C the first positions of C and the new name
start + |b & C| - 1, while C - b keeps the name end, so a split rewrites
at most |b| points.

Integer keys.  Let D = 2^bit_length(largest block size), so D exceeds
every block size.  The cell named e weighs D^(v-1-e), and a block's key
is the sum of the weights of its points' cells.  Read in base D, the key
counts the block's points in each cell, the first cell as the most
significant digit, and no digit carries, as none reaches D.  Take two
blocks, of one size as every block is, and the first cell where their
counts differ.  The block with more points there has the larger key; the
other block's next point lies in a later cell, so its sorted list of
cells, and with it its label tuple, is the larger from that position on.
So the largest key belongs exactly to the least label tuple, and equal
keys mean equal tuples.  A point that moves adds the change of its
weight to the key of every block through it.  Every key lies in
[0, D^v), so it grows by less than D^v along a branch; an emitted
block's key is set to -D^v and stays below every other.

The point order of a complete branch.  A split keeps the block's points
in ascending order and the rest in their previous order, so by induction
the points of every cell stay ascending.  The branch's labeling lists
its points by position, which is therefore the points sorted by cell
name, ties by point: what an array of the points by label position,
rewritten at every split, would hold.

Deciding a level by keys.  An entry fixes how its block splits every cell
it meets: the block takes the first |b & C| labels of each cell C, and
the entry's labels in C's interval say how many.  So two branches whose
entries so far are equal have the same cell names and sizes, and the top
key then names the same label tuple on both.  The first complete branch
and every branch that sets a new best leave, per level, the top key of
best's branch there (its target).  At a level whose prefix equals
best's, a top key equal to the target means the entry is best's own, one
below it means a larger entry, so the branch is pruned, and one above it
means a smaller entry: the test rejects, and the least list search marks
the branch as below best and builds its label tuples from there on,
since the leaf will set best.  So label tuples are built only on the
first branch and below best, and no level compares a prefix of best.  Best starts as the identity labeling's
list, and the first branch follows the identity labeling while their
entries agree: the identity labeling then refines the branch's cells, so
the least entry is no larger than the identity's next entry, and when
the two are equal the identity's next block ties there and, as the
lowest-numbered tied block, is the one emitted.  So no entry of the
first branch lies above best's, and in test mode the branch either
rejects or reaches best.

Finding automorphisms.  The search starts from the identity labeling's
list as best and keeps the point order of the branch that set best.  A
complete branch whose list equals best labels the blocks as best's
labeling does, so the map sending the point at each position of best's
order to the point at the same position of the branch's order is an
automorphism of the family.  Every such map but the identity is stored,
with its block images: the block best's branch emitted at each level
goes to the block the branch emitted there, as both take that level's
labels.

Skipping tied blocks by orbits.  Before a level emits its next tied block,
it takes the stored automorphisms that fix every cell of its partition
setwise, and skips the block if the group their block images generate
maps it onto a block already tried at that level; the orbits are closed
by looking blocks up in those images.  Why this keeps the exact least
list: a block emitted above the level became a union of cells when it
was emitted, and cells only split, so such an automorphism g fixes every
emitted block and hence the set of remaining blocks.  It maps the tied
block b onto a tied block g(b), and the cells left by emitting g(b) are
the images under g of those left by emitting b, with the same names and
sizes.  Keys and tuples depend on the cells' positions alone, so the two
subtrees produce the same lists, and the subtree of b, already walked,
holds anything the subtree of g(b) could find: a smaller list, or in
test mode a refutation.
An automorphism that moves a point to another cell of the level is not
used there, since it may map a tried block onto a block whose subtree
produces other lists.  The bookkeeping starts with the first stored
automorphism, so a family with a trivial group pays almost nothing for it.

Seeded automorphisms.  The argument above uses only that a stored map is
an automorphism of the family, not that the walk found it, so the test
may start from automorphisms the caller already knows (the search passes
those it derives from the parent's group); they prune from the first tied
level on.  A wrong seed would prune a subtree that holds a smaller list,
so each one is checked against the blocks first, which maps every block
through it and so gives its block images.  When the test accepts,
the caller's list gets the automorphisms the walk found and one
transposition per pair of adjacent twin points, points that lie in
exactly the same blocks.  The walk never branches inside a cell and twins
are never separated, so it cannot find those swaps itself; with them the
list generates the whole automorphism group of the family.
"""

from __future__ import annotations

from typing import Sequence

from .errors import NotUniformError, ParameterOutOfRangeError


def _split(cell: list[int], size: list[int], key: list[int], weight: list[int],
           incidence: list[list[int]], block: tuple[int, ...]) -> None:
    """Split every cell the block meets into its part in the block, which
    takes the cell's first labels and a new name, followed by the rest,
    which keeps the name; the keys of the blocks through each moved point
    follow.  In place."""
    parts: dict[int, list[int]] = {}
    for p in block:
        parts.setdefault(cell[p], []).append(p)
    for end, inside in parts.items():
        n_in, total = len(inside), size[end]
        if n_in == total:
            continue
        new = end - total + n_in
        size[new] = n_in
        size[end] = total - n_in
        delta = weight[new] - weight[end]
        for p in inside:
            cell[p] = new
            for bi in incidence[p]:
                key[bi] += delta


def _labels(block: tuple[int, ...], cell: list[int], size: list[int]) -> tuple[int, ...]:
    """The lowest labels the block can take: the first |b & C| of each
    cell C it meets."""
    labels = [end - size[end] + 1 for end in sorted(map(cell.__getitem__, block))]
    for i in range(1, len(labels)):
        if labels[i] <= labels[i - 1]:  # the next label of the same cell
            labels[i] = labels[i - 1] + 1
    return tuple(labels)


def _close(covered: set[int], frontier: list[int], stab: list[list[int]]) -> None:
    """Add to covered the orbits of the frontier blocks under the group
    that stab, a list of block permutations, generates."""
    while frontier:
        b = frontier.pop()
        for images in stab:
            image = images[b]
            if image not in covered:
                covered.add(image)
                frontier.append(image)


def _in_tried_orbit(level: list, emit: int, autos: list[list[int]],
                    images: list[list[int]]) -> bool:
    """True iff emit lies in the orbit of a candidate already tried at the
    level, under the stored automorphisms that fix each of its cells."""
    orbits = level[5]
    if orbits is None:
        # [automorphisms tested so far, the block images of those that fix
        # every cell, the orbits of the tried candidates under them]
        orbits = level[5] = [0, [], set()]
    seen, stab, covered = orbits
    if seen < len(autos):
        cell = level[0]
        new = [blocks_to for g, blocks_to in zip(autos[seen:], images[seen:])
               if all(cell[q] == c for q, c in zip(g, cell))]
        orbits[0] = len(autos)
        if new:
            frontier = list(covered) if stab else level[3][:level[4] - 1]
            stab += new
            covered.update(frontier)
            _close(covered, frontier, stab)
    if not stab:
        return False
    if emit in covered:
        return True
    covered.add(emit)
    _close(covered, [emit], stab)
    return False


def _block_images(members: tuple[tuple[int, ...], ...], v: int,
                  automorphisms: Sequence[Sequence[int]]) -> list[list[int]]:
    """The index of the image of each block under each automorphism, after
    checking that every automorphism, given as the list of images of
    0..v-1, permutes the points and maps each block onto a block."""
    by_mask = {sum(1 << p for p in b): bi for bi, b in enumerate(members)}
    points = set(range(v))
    images = []
    for g in automorphisms:
        try:
            ok = all(type(q) is int for q in g) and len(g) == v and set(g) == points
            blocks_to = [by_mask.get(sum(1 << g[p] for p in b)) for b in members] if ok else [None]
        except (TypeError, IndexError):  # no sequence, or a block point beyond v
            blocks_to = [None]
        if None in blocks_to:
            raise ParameterOutOfRangeError(
                f"{g!r} is not an automorphism of the blocks on points 0..{v - 1}")
        images.append(blocks_to)
    return images


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
    if len({len(b) for b in ident}) > 1:
        raise NotUniformError("canonical labeling needs a uniform family")
    points = sorted({p for b in ident for p in b})
    v = len(points)
    if test_only and points != list(range(v)):
        # checked before any mask is built, as a point id may be huge
        if seed:
            raise ParameterOutOfRangeError(
                f"{seed[0]!r} is not an automorphism of the blocks on points 0..{v - 1}")
        return False  # the least list labels its points 0..v-1
    index = {p: i for i, p in enumerate(points)}
    members = tuple(tuple(index[p] for p in b) for b in ident)
    # autos holds the seeded automorphisms and those found so far, each as
    # the list of point images, and images the block images of each
    autos: list = [] if seed is None else list(seed)
    images = [] if seed is None else _block_images(members, v, seed)
    if not ident:
        return True if test_only else ()
    n, k = len(members), len(members[0])
    shift = k.bit_length()
    weight = [1 << shift * (v - 1 - end) for end in range(v)]
    # below every key a block reaches, whatever it gains after its emission
    emitted = -1 << shift * v
    incidence: list[list[int]] = [[] for _ in range(v)]
    for bi, b in enumerate(members):
        for p in b:
            incidence[p].append(bi)

    out: list[tuple[int, ...]] = []
    # The identity labeling gives members, which is sorted.  The first
    # complete branch and every branch with a smaller list set best, and
    # with it best_order, the point order of the branch's labeling, and per
    # level its top key (target) and the block it emitted (best_emits).
    best, best_order = list(members), list(range(v))
    target: list[int] = []
    best_emits: list[int] = []
    # the level whose entry fell below best's, None while out is a prefix
    # of best
    below = None
    # The branch being explored: cell[p] is the last label position of p's
    # cell, size[end] that cell's size, and key[bi] the key of block bi, or
    # below every key once bi is emitted.
    cell, size, key = [v - 1] * v, [0] * (v - 1) + [v], [k] * n
    # One level per entry of out: the branch state before that entry was
    # emitted, the blocks tied there, how many of them were taken, the
    # orbit bookkeeping of _in_tried_orbit, and the top key.
    levels: list[list] = []
    while True:
        depth = len(out)
        if depth == n:
            order = sorted(range(v), key=cell.__getitem__)
            emits = [level[3][level[4] - 1] for level in levels]
            if below is not None or not target:
                best, best_order, below = out[:], order, None
                target = [level[6] for level in levels]
                best_emits = emits
            elif order != best_order:
                # out == best: both labelings give the same list, and the
                # blocks emitted at a level take the same labels
                g = [0] * v
                for p, q in zip(best_order, order):
                    g[p] = q
                blocks_to = [0] * n
                for bi, image in zip(best_emits, emits):
                    blocks_to[bi] = image
                autos.append(g)
                images.append(blocks_to)
        else:
            top = max(key)
            if target and below is None:
                # out is best's prefix, so the cells are those of best's
                # branch at this level and the top keys rank the entries
                if top == target[depth]:
                    least = best[depth]
                elif top < target[depth]:
                    least = None
                elif test_only:
                    return False
                else:
                    least, below = _labels(members[key.index(top)], cell, size), depth
            else:
                # the first branch, or a branch below best
                least = _labels(members[key.index(top)], cell, size)
                if below is None and least < best[depth]:
                    if test_only:
                        return False
                    below = depth
            if least is not None:
                if key.count(top) == 1:
                    cands = [key.index(top)]
                else:
                    cands = [bi for bi, x in enumerate(key) if x == top]
                out.append(least)
                levels.append([cell, size, key, cands, 0, None, top])
        while True:
            while levels and levels[-1][4] == len(levels[-1][3]):
                levels.pop()
                out.pop()
            if below is not None and below >= len(levels):
                below = None
            if not levels:
                if not test_only:
                    return tuple(best)
                if seed is not None:
                    seed += autos[len(seed):]
                    seed += _twin_swaps(members, v)
                return True
            level = levels[-1]
            taken = level[4]
            emit = level[3][taken]
            level[4] = taken + 1
            if not (taken and autos and _in_tried_orbit(level, emit, autos, images)):
                break
        cell, size, key = level[:3]
        if level[4] < len(level[3]):
            cell, size, key = cell[:], size[:], key[:]
        else:  # the last branch takes the lists over
            level[:3] = None, None, None
        _split(cell, size, key, weight, incidence, members[emit])
        key[emit] = emitted


def least_block_list(blocks: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least relabeled sorted block list of a uniform
    family; blocks of several sizes raise NotUniformError."""
    result = _minimize(blocks, test_only=False)
    assert not isinstance(result, bool)
    return result


def is_least_labeling(blocks: Sequence[Sequence[int]],
                      automorphisms: list | None = None) -> bool:
    """True iff the blocks, as labeled, already form the least list.
    Blocks of several sizes raise NotUniformError, with automorphisms
    left unread.

    automorphisms, if given, is a list of automorphisms of the blocks, each
    the list of images of the points 0..v-1; they prune the test from the
    start, and an entry that is not one raises ParameterOutOfRangeError.
    On True the list is extended to generators of the blocks' whole
    automorphism group; on False it is left as it was."""
    return bool(_minimize(blocks, True, automorphisms))
