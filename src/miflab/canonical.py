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

Known automorphisms.  The argument above uses only that a stored map is
an automorphism of the family, not that this walk found it, so a walk may
start from automorphisms already known, which prune from the first tied
level on; _least_children starts its walks from a search node's group.
When the test accepts, it returns the automorphisms the walk found and
one transposition per pair of adjacent twin points, points that lie in
exactly the same blocks.  The walk never branches inside a cell and twins
are never separated, so it cannot find those swaps itself; with them the
list generates the whole automorphism group of the family.

Deciding every child of a search node in one walk.  The orderly search
asks, for a node F in least labeling on the points 0..v-1 with
generators of its automorphism group G, which candidates b make F + b
least.  b follows F's last block, so best, F + b's identity list, is
F's list followed by b, and b's points from v on are fresh: v, v+1, ...,
in b alone.  Up to the level where it emits b, F + b's tree is F's tree
with b's key riding along.  The walk runs on the points 0..w-1, w past
every candidate's last point: points in no block stay in the last cell,
named w - 1, and change no label and no order of keys, so F's tree is
the same for every w and F + b's tree is its own.  _least_children
walks F's tree once, in test mode and pruned by G's generators alone,
with observers: for each candidate least in its G-orbit (one that G maps
below itself is skipped, see search.py), every block x of the orbit,
with a member g_x of G that maps b onto x.  Observers follow every split
but never tie and are never emitted.

Why one walk decides them all.  F + b is least iff no state of its tree
whose entries match best's has a top key above its level's target.  Such
a state either has not emitted b, and is then a state of F's tree with b
beside it, or lies below a state of F's tree where b tied at the target
and was emitted.  Every state of F's tree whose entries match best's is
the image g(s) of a visited state s under G, since the walk prunes only
by G and by entries above best's, and b's key at g(s) is that of
g^-1(b) at s.  So at every visited state, pruned ones included, an
observer whose key is above the target rejects its candidate.  The
targets are those of F + b's first branch, which follows F's: b, the
last block, is never the first of a tie, and a level where b beats the
top key rejects.  At the last level the target is b's key where F's
first branch ends, and b's labels there must be b itself.  Below a
state where x ties, g_x carries F + x's subtree, with x emitted, onto
the matching subtree of F + b with the same lists, so a sub-walk of
F + x from a copy of that state, checked against best, covers it; an
automorphism of G that fixes every cell of the state maps tied
observers onto each other, and one sub-walk serves each orbit.  The
sub-walks run after the walk, when every target is known.  The walk
prunes with the given automorphisms only, as the observers are orbits
under them, so the verdicts are exact whatever automorphisms of F are
given.

The child's automorphism group.  One that fixes b maps F onto F, so it
is a member of G that fixes b together with a permutation of b's fresh
points.  Schreier's lemma over b's orbit and the maps g_x gives
generators of b's stabiliser in G, and swaps of adjacent fresh points
give the rest; twin swaps of F that b does not separate lie in that
stabiliser.  One that moves b maps F + b's first branch onto a complete
branch with best's list that emits b before the last level, so a
sub-walk meets its image under some g_x^-1, as an automorphism of F + x
that g_x carries back.  The list is filtered to at most one generator
per pair of points (Sims' filter); it generates the whole group when
the given automorphisms generate G.  Most accepted children are never
expanded, so the group is built on expansion: _least_children returns
b's orbit data, the automorphisms carried back and the fresh swaps, and
_group runs Schreier's lemma and the filter when the search expands the
child.  Each g_x also carries its images of F's blocks, composed from
the generators' along the orbit's links, so a sub-walk looks them up
instead of mapping blocks point by point.  An automorphism a of F + b
known from a deeper sub-walk that maps b onto a block f of F not yet
emitted where b ties spares that sub-walk: a maps its subtree onto the
subtree that emits f there, whose states have not emitted b or emit it
deeper, and those are covered already.  So the sub-walks run deepest
first.
"""

from __future__ import annotations

from typing import Sequence

from .errors import FormatError, NotUniformError, VerificationError


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
               if list(map(cell.__getitem__, g)) == cell]
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


def _block_images(members: tuple[tuple[int, ...], ...],
                  automorphisms: list[list[int]]) -> list[list[int]]:
    """The index of the image of each block under each automorphism, given
    as the list of point images.  The automorphisms come from the walks, so
    one that maps a block off the family is a fault of the search."""
    index = {b: bi for bi, b in enumerate(members)}
    try:
        return [[index[tuple(sorted(map(g.__getitem__, b)))] for b in members]
                for g in automorphisms]
    except KeyError:
        raise VerificationError("a generator of a search node is no automorphism") from None


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


class _Tree:
    """The tie tree of members on the points 0..w-1, whose first n blocks
    are the family that is labeled; any further members are observers,
    whose keys follow every split but which never tie and are never
    emitted.  best is the least list found so far, best_order the point
    order of its branch's labeling, and target and best_emits that
    branch's top key and emitted block per level.  autos holds the known
    automorphisms, each the list of point images, and images their block
    images."""

    def __init__(self, members: tuple[tuple[int, ...], ...], w: int, n: int,
                 incidence: list[list[int]] | None = None,
                 weight: list[int] | None = None) -> None:
        shift = len(members[0]).bit_length()
        self.members, self.w, self.n = members, w, n
        self.weight = weight or [1 << shift * (w - 1 - end) for end in range(w)]
        # below every key a block reaches, whatever it gains after its emission
        self.emitted = -1 << shift * w
        if incidence is None:
            incidence = [[] for _ in range(w)]
            for bi, b in enumerate(members):
                for p in b:
                    incidence[p].append(bi)
        self.incidence = incidence
        # The identity labeling gives members, which is sorted.  The first
        # complete branch and every branch with a smaller list set best.
        self.best, self.best_order = list(members[:n]), list(range(w))
        self.target: list[int] = []
        self.best_emits: list[int] = []
        self.autos: list[list[int]] = []
        self.images: list[list[int]] = []

    def root(self) -> tuple[list[int], list[int], list[int]]:
        """The cells and keys before any entry: all points in one cell."""
        w = self.w
        return [w - 1] * w, [0] * (w - 1) + [w], [len(self.members[0])] * len(self.members)

    def walk(self, test_only: bool, cell: list[int], size: list[int], key: list[int],
             out: list, prefix: list[int], watch=None) -> tuple[tuple[int, ...], ...] | bool:
        """Walk the subtree below a state whose entries so far are out and
        whose emitted blocks are prefix: cell[p] is the last label position
        of p's cell, size[end] that cell's size, and key[bi] the key of
        block bi, or below every key once bi is emitted.  Returns best, or
        in test mode False as soon as a level's entry falls below best's,
        else True.  watch, which a walk with observers needs, is called at
        every complete state and at every other state the walk computes,
        pruned ones included, where some observer's key reaches the level's
        target, before the walk acts on it."""
        members, n, w, weight = self.members, self.n, self.w, self.weight
        incidence, emitted, autos, images = self.incidence, self.emitted, self.autos, self.images
        best, best_order = self.best, self.best_order
        target, best_emits = self.target, self.best_emits
        # the level whose entry fell below best's, None while out is a prefix
        # of best
        below = None
        # One level per entry of out from here on: the branch state before
        # that entry was emitted, the blocks tied there, how many of them
        # were taken, the orbit bookkeeping of _in_tried_orbit, and the top
        # key.
        levels: list[list] = []
        while True:
            depth = len(out)
            if depth == n:
                if watch is not None:
                    watch(depth, None, cell, size, key, levels)
                order = sorted(range(w), key=cell.__getitem__)
                emits = prefix + [level[3][level[4] - 1] for level in levels]
                if below is not None or not target:
                    # a walk from the root: levels holds every level
                    best, best_order, below = out[:], order, None
                    target = [level[6] for level in levels]
                    best_emits = emits
                    self.best, self.best_order = best, best_order
                    self.target, self.best_emits = target, best_emits
                elif order != best_order and len(members) == n:
                    # out == best: both labelings give the same list, and the
                    # blocks emitted at a level take the same labels.  The
                    # observers are orbits under the given automorphisms
                    # alone, so a walk with observers prunes with those only
                    g = [0] * w
                    for p, q in zip(best_order, order):
                        g[p] = q
                    blocks_to = [0] * n
                    for bi, image in zip(best_emits, emits):
                        blocks_to[bi] = image
                    autos.append(g)
                    images.append(blocks_to)
            else:
                if watch is None:
                    keys = key
                    top = max(keys)
                else:  # observers follow the family's blocks in key
                    keys = key[:n]
                    top = max(keys)
                    level_target = target[depth] if target else top
                    if max(key[n:]) >= level_target:
                        watch(depth, level_target, cell, size, key, levels)
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
                        least, below = _labels(members[keys.index(top)], cell, size), depth
                else:
                    # the first branch, or a branch below best
                    least = _labels(members[keys.index(top)], cell, size)
                    if below is None and least < best[depth]:
                        if test_only:
                            return False
                        below = depth
                if least is not None:
                    if keys.count(top) == 1:
                        cands = [keys.index(top)]
                    else:
                        cands = [bi for bi, x in enumerate(keys) if x == top]
                    out.append(least)
                    levels.append([cell, size, key, cands, 0, None, top])
            while True:
                while levels and levels[-1][4] == len(levels[-1][3]):
                    levels.pop()
                    out.pop()
                if not levels:
                    return True if test_only else tuple(best)
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


def _minimize(blocks: Sequence[Sequence[int]], test_only: bool,
              found: list | None = None) -> tuple[tuple[int, ...], ...] | bool:
    try:
        rows = [tuple(b) for b in blocks]
        # type() and not isinstance(): bool is an int subclass, and the sets
        # below would read True and 1.0 as the point 1
        well_typed = {type(p) for b in rows for p in b} <= {int}
    except TypeError:  # the blocks, or one of them, are no iterable
        well_typed = False
    if not well_typed:
        raise FormatError("blocks must be iterables of integer points")
    ident = tuple(sorted({tuple(sorted(set(b))) for b in rows}))
    if len({len(b) for b in ident}) > 1:
        raise NotUniformError("canonical labeling needs a uniform family")
    points = sorted({p for b in ident for p in b})
    v = len(points)
    if test_only and points != list(range(v)):
        return False  # the least list labels its points 0..v-1
    if not ident:
        return True if test_only else ()
    index = {p: i for i, p in enumerate(points)}
    members = tuple(tuple(index[p] for p in b) for b in ident)
    tree = _Tree(members, v, len(members))
    result = tree.walk(test_only, *tree.root(), [], [])
    if result is True and found is not None:
        found += tree.autos + _twin_swaps(members, v)
    return result


def _inverse(perm: list[int]) -> list[int]:
    inverse = [0] * len(perm)
    for p, image in enumerate(perm):
        inverse[image] = p
    return inverse


def _orbit(block: tuple[int, ...], gens: list[list[int]], w: int, least: bool = True):
    """The orbit of block under the group that gens, permutations of
    range(w), generate: its blocks, for each a member of the group that
    maps block onto it, for each the positions of its images under gens,
    and for each but block the (position, generator index) it was first
    reached from.  With least, None if the orbit holds a block that sorts
    below block."""
    orbit, carry, steps, where = [block], [list(range(w))], [], {block: 0}
    parents: list[tuple[int, int] | None] = [None]
    for i, (x, t) in enumerate(zip(orbit, carry)):  # the lists grow while walked
        step = []
        for gi, g in enumerate(gens):
            y = tuple(sorted(map(g.__getitem__, x)))
            j = where.get(y)
            if j is None:
                if least and y < block:
                    return None
                j = where[y] = len(orbit)
                orbit.append(y)
                carry.append([g[q] for q in t])
                parents.append((i, gi))
            step.append(j)
        steps.append(step)
    return orbit, carry, steps, parents


def _schreier(carry: list[list[int]], steps: list[list[int]],
              parents: list[tuple[int, int] | None], gens: list[list[int]],
              w: int) -> list[list[int]]:
    """Schreier generators of the stabiliser of a block in the group gens
    generate, from its _orbit: carry[j]^-1 after s after carry[i] for each
    orbit position i and generator s, j being the position of s's image of
    block i, restricted to range(w), which the group fixes from some point
    on.  Each edge that first reached a block gives the identity and is
    skipped, as is any other identity."""
    inverses: dict[int, list[int]] = {}
    identity = list(range(w))
    generators = []
    for i, (t, step) in enumerate(zip(carry, steps)):
        for gi, (s, j) in enumerate(zip(gens, step)):
            if parents[j] != (i, gi):  # else carry[j] is s after t
                if j not in inverses:
                    inverses[j] = _inverse(carry[j])
                h = [inverses[j][s[t[p]]] for p in range(w)]
                if h != identity:
                    generators.append(h)
    return generators


def _sifted(gens: list[list[int]], w: int) -> list[list[int]]:
    """Generators of the group that gens, permutations of range(w),
    generate, at most one per pair (p, q) with p < q: a member that fixes
    the points below p and maps p to q is kept when no kept one does so,
    and is otherwise divided by that one and sifted again (Sims' filter)."""
    kept: list[list[int]] = []
    inverses: dict[tuple[int, int], list[int]] = {}
    for g in gens:
        p = next((p for p in range(w) if g[p] != p), None)
        while p is not None:
            h = inverses.get((p, g[p]))
            if h is None:
                inverses[p, g[p]] = _inverse(g)
                kept.append(g)
                break
            g = [h[image] for image in g]
            p = next((q for q in range(p + 1, w) if g[q] != q), None)
    return kept


def _group(generators: Sequence[list[int]],
           stabiliser: tuple | None) -> Sequence[list[int]]:
    """The generators of a search node's automorphism group, from the form
    (generators, stabiliser) its record holds the group in.  A node built
    from scratch holds the generators of its whole group and no
    stabiliser.  A child F + b holds what _least_children returns for it:
    as generators the automorphisms its sub-walks found and the swaps of
    b's fresh points, and as stabiliser b's _orbit data (carry, steps,
    parents) under F's generators, those generators and F + b's point
    count w, from which Schreier's lemma gives b's stabiliser; the whole
    list is then sifted."""
    if stabiliser is None:
        return generators
    return _sifted(_schreier(*stabiliser) + list(generators), stabiliser[-1])


def _least_children(blocks: Sequence[tuple[int, ...]], group: Sequence[Sequence[int]],
                    cands: Sequence[tuple[int, ...]]) -> list[tuple | None]:
    """Decide every child F + b of a node F of the orderly search in one
    walk of F's tie tree.  blocks is F, sorted, in least labeling on the
    points 0..v-1, group holds automorphisms of F that generate a group G,
    each the list of images of 0..v-1, and each candidate b follows F's
    last block and has v, v+1, ... as its points from v on.  Per
    candidate: None if F + b is not in least labeling, else the form of
    F + b's group that _group builds automorphisms of F + b on its points
    from, which generate its whole group when G is F's."""
    verdicts: list[tuple | None] = [None] * len(cands)
    members = tuple(blocks)
    n, v = len(members), max(b[-1] for b in members) + 1
    w = max([v] + [b[-1] + 1 for b in cands])
    fixed = list(range(v, w))
    gens = [list(g) + fixed for g in group]
    images = _block_images(members, gens)
    # The observers, numbered on from n: the orbit under G of each
    # candidate that is least in its orbit.  Observer xi belongs to
    # candidate owner[xi], which carry[xi] maps onto it, and moves[xi]
    # holds the images of F's blocks under carry[xi]; spans[ci] holds
    # candidate ci's first observer and its _orbit.
    observers: list[tuple[int, ...]] = []
    owner, carry, moves = [-1] * n, [[]] * n, [[]] * n
    spans: dict[int, tuple] = {}
    for ci, b in enumerate(cands):
        orbit = _orbit(b, gens, w)
        if orbit is not None:
            start = n + len(observers)
            spans[ci] = (start,) + orbit
            observers += orbit[0]
            owner += [ci] * len(orbit[0])
            carry += orbit[1]
            # each carry is a generator after the carry it was reached from
            moves.append(list(range(n)))
            for i, gi in orbit[3][1:]:
                moves.append([images[gi][f] for f in moves[start + i]])
            for gi, im in enumerate(images):
                im += [start + step[gi] for step in orbit[2]]
    if not spans:
        return verdicts
    tree = _Tree(members + tuple(observers), w, n)
    tree.autos, tree.images = gens[:], images[:]
    rejected: set[int] = set()
    last_keys: dict[int, int] = {}  # per candidate b, the target of F + b's last level
    first_cell: list[int] = []
    # per sub-walk: its observer, the depth where it ties, the state there
    # and the blocks emitted above it
    queue: list[tuple] = []

    def watch(depth, target, cell, size, key, levels):
        if depth == n:
            if not first_cell:  # F's first branch ends, and F + b's emits b
                first_cell[:] = cell
                for ci, span in spans.items():
                    last_keys[ci] = key[span[0]]
                    if _labels(cands[ci], cell, size) < cands[ci]:
                        rejected.add(ci)
            for xi in range(n, len(key)):
                if key[xi] > last_keys[owner[xi]]:
                    rejected.add(owner[xi])
            return
        seen = key[n:]
        if max(seen) > target:
            rejected.update(owner[xi] for xi, x in enumerate(seen, n) if x > target)
        tied = [xi for xi, x in enumerate(seen, n) if x == target and owner[xi] not in rejected]
        if len(tied) > 1:
            # one sub-walk per orbit of the generators of G that fix every
            # cell, as they map the state onto itself
            stab = [im for g, im in zip(gens, images) if list(map(cell.__getitem__, g)) == cell]
            covered: set[int] = set()
            reps = []
            for xi in tied:
                if xi not in covered:
                    reps.append(xi)
                    covered.add(xi)
                    _close(covered, [xi], stab)
            tied = reps
        emits = [level[3][level[4] - 1] for level in levels]
        queue.extend((xi, depth, cell[:], size[:], key[:n], emits) for xi in tied)

    if not tree.walk(True, *tree.root(), [], [], watch):
        raise VerificationError("a node of the search is not in least labeling")

    index = {f: bi for bi, f in enumerate(members)}
    incidence = [[bi for bi in at_p if bi < n] for at_p in tree.incidence]
    targets = tree.target + [0]
    found: dict[int, list[list[int]]] = {ci: [] for ci in spans}
    # per candidate b, the blocks of F onto which the automorphisms of F + b
    # known so far map b
    reached: dict[int, set[int]] = {ci: set() for ci in spans}
    # per candidate b, the point order of F + b's first branch
    orders: dict[int, list[int]] = {}
    # deepest first, so that the automorphisms they find spare shallower ones
    queue.sort(key=lambda entry: -entry[1])
    for xi, depth, cell, size, key, emits in queue:
        ci = owner[xi]
        if ci in rejected:
            continue
        b, x, g, to = cands[ci], observers[xi - n], carry[xi], moves[xi]
        if reached[ci] and reached[ci] - {to[bi] for bi in emits}:
            continue  # an automorphism of F + b maps the subtree into covered ones
        targets[n] = last_keys[ci]
        key.append(tree.emitted)
        _split(cell, size, key, tree.weight, incidence, x)
        if max(key) < targets[depth + 1]:
            continue  # the next entry of F + x lies above best's
        # F + x's tree below the state, with x emitted, tested against F + b's
        # first branch, which g carries over
        sub = _Tree(members + (x,), w, n + 1, incidence, tree.weight)
        sub.best, sub.target = tree.best + [b], targets[:]
        if ci not in orders:
            orders[ci] = sorted(range(w), key=lambda p: (first_cell[p], p not in b))
        sub.best_order = [g[p] for p in orders[ci]]
        sub.best_emits = [to[bi] for bi in tree.best_emits] + [n]
        for h, im in zip(gens, images):
            if im[xi] == xi:  # h fixes x, so it is an automorphism of F + x
                sub.autos.append(h)
                sub.images.append(im[:n] + [n])
        seeds = len(sub.autos)
        if not sub.walk(True, cell, size, key, sub.best[:depth + 1], emits + [n]):
            rejected.add(ci)
        elif len(sub.autos) > seeds:
            g_inv = _inverse(g)
            # each automorphism of F + x, carried back to F + b
            found[ci] += [[g_inv[a[q]] for q in g] for a in sub.autos[seeds:]]
            start = spans[ci][0]
            orbit = _orbit(b, found[ci] + [h for h, im in zip(gens, images)
                                           if im[start] == start], w, False)[0]
            reached[ci] = {index[y] for y in orbit[1:]}

    for ci, (_, _, carry_b, steps, parents) in spans.items():
        if ci not in rejected:
            # b's fresh points lie in b alone, so their swaps are
            # automorphisms; twins of F that b does not separate are
            # swapped by the stabiliser
            wb = max(v, cands[ci][-1] + 1)
            swaps = []
            for p in range(v + 1, wb):
                swap = list(range(wb))
                swap[p - 1], swap[p] = p, p - 1
                swaps.append(swap)
            verdicts[ci] = ([a[:wb] for a in found[ci]] + swaps,
                            (carry_b, steps, parents, gens, wb))
    return verdicts


def least_block_list(blocks: Sequence[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Lexicographically least relabeled sorted block list of a uniform
    family; blocks of several sizes raise NotUniformError, and blocks that
    are no iterables of int points raise FormatError."""
    result = _minimize(blocks, test_only=False)
    assert not isinstance(result, bool)
    return result


def is_least_labeling(blocks: Sequence[Sequence[int]],
                      automorphisms: list | None = None) -> bool:
    """True iff the blocks, as labeled, already form the least list.
    Blocks of several sizes raise NotUniformError, and blocks that are no
    iterables of int points raise FormatError.

    automorphisms, if given, is a list that receives output only: on True,
    generators of the blocks' whole automorphism group are appended to it,
    each the list of images of the points 0..v-1.  Its entries are never
    read, and on False or an error it is left as it was."""
    return bool(_minimize(blocks, True, automorphisms))
