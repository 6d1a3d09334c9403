"""Isomorph-free exhaustive search.

Maximal families are enumerated by orderly generation: grow k-uniform
intersecting families one block at a time in ascending block order,
introducing fresh points as the next unused ids, and keep a child only if
its labeling is the least over all point bijections.  Every isomorphism
class of intersecting families then occurs at exactly one tree node, since
deleting the largest block of a least-labeled family leaves a
least-labeled family.

A node's addable blocks are the k-sets below the point cap that follow
its last block and meet every block, in ascending order.  A child F + b
filters its parent's list: a k-set meets every block of F + b iff it
meets those of F and b, so it keeps the entries that follow b and meet
it.  The walk holds one record per pending node, (blocks, automorphism
group, addable list), and builds a child's record where the child is
made.  Only the root builds its record from scratch: a seedless
canonical test for the group, and the list by the same filter folded
over the k-sets below the cap that meet the root block.  A k-set meets
it only if its least point is at most the block's largest, and those
k-sets come first in combinations() order, so only that leading run is
read.  The pending nodes of a checkpoint are children of the nodes on
the walk's path, so reading one replays that path from the root's
record, one node step's child decisions per node on it.  A maximal
family read from one builds no record: a seedless canonical test and
the leaf test, which needs no list or group, check it.
One kernel call per node (``transversal.py``) finds the hitting sets T of
at most k used points for the blocks plus the used parts of the addable
blocks; T then hits every block of every descendant.  A maximal
family never extends to another, so a node with nothing addable whose
hitting sets have k points and are exactly its blocks is a maximal leaf.
If T has fewer than k points, or is a non-block k-set that can no longer
be added (it precedes the last block), no descendant is maximal and the
node is pruned.

The walk carries each node's automorphism group, and one call per node,
``canonical._least_children`` (see canonical.py's module docstring),
decides every candidate block whose fresh points are the next unused
ids.  Its verdicts are those of the canonical test, so the tree and its
node count are those of a walk without groups.  A child's group is built
(``canonical._group``) only when the child is expanded, that is when its
own node step gets past the maximality test and the threat prune, so a
child that is a leaf never pays for it.  Only the root gets its group
from a seedless canonical test.

Set-pair systems are searched directly over pair sequences: the pair count
is capped by C(k+t, k), fresh points are introduced in first-use order,
and the first pair is fixed, which quotients out enough symmetry at desk
scale.  A side of a new pair is its old points, below the next unused
id u, plus fresh ids, fresh-rich first.  The old parts come from two
families of candidate lists that an expanded node keeps, each in
combinations() order: HA[s] holds the s-subsets of range(u) that meet
every B, the old parts of a new A, and HB[s] the s-subsets that meet
every A, the old parts of a new B.  A new B must also miss its A.  B's
fresh ids follow A's, and its old points lie below u, where A has only
its old points; so a test against A's mask filters HB for each A, which
keeps the order of a scan.

Every node's lists are derived from its parent's by ``_extend_hitters``,
the root's from those of the empty system, which spans no points and
holds only the empty set.  The derivation is exact because every older
mask lies below the parent's u, and the new pair's points, from u on,
lie only in the new masks.  So an s-subset of the child's points is an
old part S from the parent's list of size s - j plus j new points, and
it meets every older mask iff S does; it is kept iff it also meets the
new B (for HA) or the new A (for HB), so a node carries its pairs, the
masks of its new pair alone and its next unused id.  Sorting restores
combinations() order, so the children come in the order of a scan.  A
node's lists are derived only when it is expanded, that is when it
passes the point-count bound.  The walk then pushes one record, the
node's lazy child iterator with the u, HA and HB the children derive
theirs from, so a node's children are built only as the walk reaches
them.  As an expanded node holds its lists, (k, t) whose lists one pair
below the root could exceed MAX_LIST_ENTRIES subsets are refused before
anything is built, as is an orderly search with more k-sets below its
cap than that, which bounds the bits its lists hold.  A set-pair
node is counted before the budget is checked, so a stop reports
budget + 1 nodes.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from itertools import combinations, takewhile
from math import comb

from .bounds import proven_point_cap
from .canonical import _group, _least_children, is_least_labeling
from .errors import (BudgetExceededError, FormatError, ParameterOutOfRangeError,
                     UnsupportedKError, UnsupportedParamsError, VerificationError,
                     _check_count, _check_int, _dump_json, _JsonOut, _Record)
from .family import Family, bits_of, mask_of
from .isp import SetPairSystem
from .transversal import _hitting_sets

CHECKPOINT_MAGIC = "mifsearch-v1"
MAX_LIST_ENTRIES = 10**6

Blocks = tuple[tuple[int, ...], ...]
Addable = list[tuple[tuple[int, ...], int]]
# a group as canonical._group takes it: (generators, stabiliser or None)
Record = tuple[Blocks, tuple, Addable]


def _extend_hitters(lists, u: int, w: int, mask: int):
    """The candidate lists of a child node from its parent's: lists[s]
    holds the s-subsets of range(u) that meet some masks below u, with
    their masks, in combinations() order; the result holds, for each s,
    the s-subsets of range(w) that meet those masks and mask, in the same
    order.  With w = u it only filters.

    A new subset is an old one, from the list of its size, plus j of the
    new points range(u, w), which no old mask contains; so it meets the
    old masks iff its old part does.  Each j gives one sorted run, and a
    sort merges them."""
    extended = [[e for e in old if e[1] & mask] for old in lists]  # j = 0
    tails = [((), 0)]
    for j in range(1, min(len(lists) - 1, w - u) + 1):
        # the j-subsets of the new points, in combinations() order
        tails = [(tl + (p,), tm | 1 << p) for tl, tm in tails
                 for p in range(tl[-1] + 1 if tl else u, w)]
        hit_tails = [e for e in tails if e[1] & mask]
        for s in range(j, len(lists)):
            got = extended[s]
            for c, cm in lists[s - j]:
                got += [(c + tl, cm | tm) for tl, tm in (tails if cm & mask else hit_tails)]
    if w > u:
        for got in extended:
            got.sort()
    return extended


def _addable(blocks: Blocks, p_max: int) -> Addable:
    """The blocks a descendant may still add, ascending, with their masks:
    the k-sets below p_max, filtered by each block in turn as the walk
    filters a child's list, to those that follow the block and meet it."""
    # a k-set meeting blocks[0] starts at or below its last point, and
    # those k-sets lead combinations() order: only they are read
    last = blocks[0][-1]
    addable = ((c, mask_of(c)) for c in takewhile(
        lambda c: c[0] <= last, combinations(range(p_max), len(blocks[0]))))
    for b in blocks:
        bm = mask_of(b)
        addable = [e for e in addable if e[0] > b and e[1] & bm]
    return addable


def _root(k: int, p_max: int) -> Record:
    """The root's record: the root block (0, ..., k-1), always in least
    labeling, the generators of its seedless canonical test with no
    stabiliser to build, and its _addable list."""
    blocks = (tuple(range(k)),)
    group: list[list[int]] = []
    is_least_labeling(blocks, group)
    return blocks, (group, None), _addable(blocks, p_max)


def _node_step(blocks: Blocks, k: int, group: tuple,
               addable: Addable) -> tuple[bool, list[Record]]:
    """Classify one canonical node: (is maximal, the records of its
    canonical children).  group is the node's group in the form its
    record holds it, which canonical._group turns into automorphisms of
    the node, as lists of point images, once the node gets past the
    maximality test and the threat prune; addable is the node's _addable
    list, all of which _children is offered.  Any automorphisms give the
    exact children; each child's group is whole when the node's is."""
    last = blocks[-1]
    masks = [mask_of(b) for b in blocks]
    v = max(b[-1] for b in blocks) + 1

    # a set of used points meets an addable block iff it meets its used part
    used = (1 << v) - 1
    t, threats, _ = _hitting_sets(masks + [dm & used for _, dm in addable], True, k)
    # with nothing addable these hit the blocks alone, which intersect: at
    # t = k each block is a hitter, and equal counts leave no other.  An
    # addable block's used part is a hitter of < k points or a non-block
    # k-set (it follows last), so a node with one is never maximal
    if not addable and t == k and len(threats) == len(blocks):
        return True, []  # maximal; and no extension of it can be
    if t < k or any(tm not in masks and bits_of(tm) <= last for tm in threats):
        return False, []
    return False, _children(blocks, group, addable, range(len(addable)))


def _children(blocks: Blocks, group: tuple, addable: Addable, picks) -> list[Record]:
    """The records of the children F + addable[i] of a node F in least
    labeling, for the ascending indices i in picks.  The orderly rule keeps
    only the picked blocks whose new points are the next unused ids, and
    the canonical test only the children in least labeling.  Here the
    node's group is built from the form its record holds."""
    v = max(b[-1] for b in blocks) + 1
    picks = [i for i in picks if (addable[i][1] >> v) & ((addable[i][1] >> v) + 1) == 0]
    verdicts = _least_children(blocks, _group(*group), [addable[i][0] for i in picks])
    # a k-set meets every block of F + b iff it meets those of F and b
    return [(blocks + (addable[i][0],), child_group,
             [e for e in addable[i + 1:] if e[1] & addable[i][1]])
            for i, child_group in zip(picks, verdicts) if child_group is not None]


def _walk(stack: list[Record], found: list[Blocks], nodes: int, k: int, p_max: int,
          budget: int | None, checkpoint_path=None, checkpoint_every: int = 0) -> int:
    """Expand the node records on stack depth-first, appending the maximal
    families to found; returns the node count, starting from nodes.  Each
    record is (blocks, the node's automorphism group in the form
    canonical._group builds generators from, its addable list), as _root
    builds it for the root or _children for any other node; a node's
    generators are built only if it is expanded.

    The budget is checked before each node: a stop writes the blocks of
    the untouched stack as the checkpoint and raises BudgetExceededError
    with the node count, which is the budget unless the walk started
    beyond it.  With a checkpoint path the pending blocks and results are
    also written every checkpoint_every nodes; a stop right after such a
    write leaves that file, which holds the same bytes."""
    since_checkpoint = 0
    written = None  # the node count of this walk's last periodic write
    while stack:
        if budget is not None and nodes >= budget:
            if checkpoint_path and written != nodes:
                write_checkpoint(checkpoint_path, k, p_max, nodes, [r[0] for r in stack], found)
            raise BudgetExceededError(f"node budget {budget} exhausted", nodes=nodes)
        blocks, group, addable = stack.pop()
        nodes += 1
        full, children = _node_step(blocks, k, group, addable)
        if full:
            found.append(blocks)
        else:
            stack.extend(reversed(children))
        since_checkpoint += 1
        if checkpoint_path and since_checkpoint >= checkpoint_every:
            write_checkpoint(checkpoint_path, k, p_max, nodes, [r[0] for r in stack], found)
            since_checkpoint, written = 0, nodes
    return nodes


class SearchResult(_Record, _JsonOut):
    k: int
    universe_bound: int
    families: tuple[Family, ...]
    nodes: int

    @property
    def max_points(self) -> int:
        return max((f.point_count() for f in self.families), default=0)

    @property
    def counts_by_point_count(self) -> dict[int, int]:
        return dict(Counter(f.point_count() for f in self.families))

    def to_json_obj(self) -> dict:
        return {
            "k": self.k,
            "universe_bound": self.universe_bound,
            "max_points": self.max_points,
            "counts_by_point_count": {str(v): c for v, c
                                      in sorted(self.counts_by_point_count.items())},
            "mifs": [[list(b) for b in f.blocks] for f in self.families],
            "nodes": self.nodes,
        }


def _blocks_to_record(blocks: Blocks) -> str:
    return "|".join(",".join(map(str, b)) for b in blocks)


def _record_to_blocks(record: str, k: int, p_max: int) -> Blocks:
    """Parse a record of a node or a result of the search: pairwise
    intersecting, strictly increasing k-sets of points below p_max, in
    strictly increasing order, the first one being the root block
    (0, ..., k-1)."""
    try:
        blocks = tuple(tuple(int(x) for x in part.split(",")) for part in record.split("|"))
    except ValueError as exc:
        raise FormatError(f"bad checkpoint record {record!r}") from exc
    if not (blocks[0] == tuple(range(k))
            and all(len(b) == k and 0 <= b[0] and b[-1] < p_max
                    and all(x < y for x, y in zip(b, b[1:])) for b in blocks)
            and all(a < b for a, b in zip(blocks, blocks[1:]))):
        raise FormatError(
            f"bad checkpoint record {record!r}: want increasing {k}-sets of points "
            f"below {p_max} in increasing order, starting with {list(range(k))}")
    if not Family(blocks, p_max).is_intersecting():
        raise FormatError(f"bad checkpoint record {record!r}: two blocks are disjoint")
    return blocks


def write_checkpoint(path, k: int, p_max: int, nodes: int,
                     pending: list[Blocks], found: list[Blocks]) -> None:
    """Write the checkpoint to a temporary file beside path, sync it, then
    rename it over path, so a crash mid-write leaves the previous one."""
    header = {"k": k, "p_max": p_max, "nodes": nodes}
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(f"{CHECKPOINT_MAGIC} {_dump_json(header)}\n")
            for blocks in pending:
                fh.write("F " + _blocks_to_record(blocks) + "\n")
            for blocks in found:
                fh.write("M " + _blocks_to_record(blocks) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # the write failed before the rename
            os.unlink(tmp)


def _pending_records(pending: list[Blocks], k: int, p_max: int) -> list[Record | None]:
    """The walk's records of pending nodes, each None if it is not in least
    labeling, built as the walk builds children: the root's by _root, then
    one _children call per node on the paths to the pending ones, in length
    order, offered the node's addable blocks that are next blocks of those
    below it.  No node below one that is not least is least, as a prefix of
    a least family is least."""
    below: dict[Blocks, set[tuple[int, ...]]] = {}
    for blocks in pending:
        for j in range(1, len(blocks)):
            below.setdefault(blocks[:j], set()).add(blocks[j])
    root = _root(k, p_max)
    built: dict[Blocks, Record] = {root[0]: root}
    for prefix in sorted(below, key=len):
        record = built.get(prefix)
        if record is not None:
            picks = [i for i, (b, _) in enumerate(record[2]) if b in below[prefix]]
            built.update((child[0], child) for child in _children(*record, picks))
    return [built.get(blocks) for blocks in pending]


def read_checkpoint(path, k: int, p_max: int) -> tuple[int, list[Record], list[Blocks]]:
    """The node count, the records of the pending nodes, built by
    _pending_records, and the maximal families of a checkpoint.  Every
    record must be in least labeling, as the walk writes no other, an M
    record must be a maximal family, and no record may repeat, extend or
    be extended by another, as the walk meets each node once, has met
    nothing below a pending node and finds nothing below a maximal one.
    The first record line that fails, in file order, is reported."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"checkpoint {path} is not UTF-8 text: {exc.reason}") from exc
    if not lines or not lines[0].startswith(CHECKPOINT_MAGIC + " "):
        raise FormatError(f"not a {CHECKPOINT_MAGIC} checkpoint: {path}")
    try:
        header = json.loads(lines[0][len(CHECKPOINT_MAGIC) + 1:])
    except json.JSONDecodeError as exc:
        raise FormatError(f"bad checkpoint header: {exc.msg}") from exc
    if not isinstance(header, dict):
        raise FormatError("bad checkpoint header: expected a JSON object")
    for field in ("k", "p_max", "nodes"):
        if type(header.get(field)) is not int:  # JSON true is no integer
            raise FormatError(f"bad checkpoint header: {field!r} is missing or not an integer")
    if header["nodes"] < 0:
        raise FormatError(f"bad checkpoint header: negative node count {header['nodes']}")
    if header["k"] != k or header["p_max"] != p_max:
        raise FormatError(
            f"checkpoint is for k={header['k']}, p_max={header['p_max']}; "
            f"requested k={k}, p_max={p_max}")
    # the record lines up to the first that does not parse, whose error is
    # raised once the lines before it are checked
    parsed: list[tuple[str, str, Blocks]] = []
    unparsed = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tag, _, rest = line.partition(" ")
        if tag not in ("F", "M"):
            unparsed = FormatError(f"line {lineno}: unknown checkpoint tag {tag!r}")
            break
        try:
            parsed.append((tag, rest, _record_to_blocks(rest, k, p_max)))
        except FormatError as exc:
            unparsed = exc
            break
    pending_blocks = [blocks for tag, _, blocks in parsed if tag == "F"]
    replayed = iter(_pending_records(pending_blocks, k, p_max) if pending_blocks else [])
    pending: list[Record] = []
    found: list[Blocks] = []
    ends: set[Blocks] = set()  # the records so far
    paths: set[Blocks] = set()  # and their prefixes
    for tag, rest, blocks in parsed:
        # an F line's replayed record, or an M line's seedless canonical test
        record = next(replayed) if tag == "F" else is_least_labeling(blocks)
        if not record:
            raise FormatError(f"bad checkpoint record {rest!r}: not in least labeling")
        # a maximal family has no addable block, so the leaf test needs no
        # list, and no group as it builds no child
        if tag == "M" and not _node_step(blocks, k, ((), None), [])[0]:
            raise FormatError(f"bad checkpoint record {rest!r}: not a maximal family")
        if blocks in paths or any(blocks[:j] in ends for j in range(1, len(blocks))):
            raise FormatError(f"bad checkpoint record {rest!r}: it repeats, extends or is "
                              "extended by another pending record or a maximal one")
        ends.add(blocks)
        paths.update(blocks[:j] for j in range(1, len(blocks) + 1))
        if tag == "M":
            found.append(blocks)
        else:
            pending.append(record)
    if unparsed is not None:
        raise unparsed
    return header["nodes"], pending, found


def enumerate_mifs(k: int, p_max: int | None = None, *, budget: int | None = None,
                   checkpoint_path=None, checkpoint_every: int = 50000,
                   resume_path=None) -> SearchResult:
    """All maximal intersecting k-uniform families on at most p_max points,
    one representative per isomorphism class; p_max defaults to the proven
    point cap of k, under which the search finds N(k).

    Budget counts visited tree nodes, and a stop reports exactly the
    budget; a negative budget is refused, and so, before anything is
    built, is a p_max with more than MAX_LIST_ENTRIES k-sets below it.
    The root's list, which every other list filters, is read from the
    leading run of those k-sets, in combinations() order, that start at a
    point of the root block: at most k C(p_max - 1, k - 1) entries, each
    with a p_max-bit mask, so at most k^2 C(p_max, k) bits, where a bound
    on its entries alone would admit masks of any width.  With a
    checkpoint path the pending stack and results are written every
    checkpoint_every nodes and on budget exhaustion; a resume path
    continues such a run, and its result and node count are those of an
    uninterrupted run."""
    _check_int("k", k)
    if k not in (2, 3):
        raise UnsupportedKError(f"exhaustive search supports k in {{2, 3}}, got {k}")
    if p_max is None:
        p_max = proven_point_cap(k)
    _check_int("p_max", p_max)
    if p_max < 2 * k - 1:
        raise ParameterOutOfRangeError(
            f"p_max = {p_max} cannot host a maximal family of {k}-sets (needs {2 * k - 1})")
    _check_count("the node budget", budget)
    if checkpoint_path:
        _check_int("checkpoint_every", checkpoint_every, 1)
    if comb(p_max, k) > MAX_LIST_ENTRIES:  # it bounds the bits of every list, not only entries
        raise UnsupportedParamsError(
            f"p_max = {p_max} is too large for the search: its candidate lists would "
            f"be drawn from C({p_max}, {k}) > {MAX_LIST_ENTRIES} {k}-sets")

    if resume_path:
        nodes, stack, found = read_checkpoint(resume_path, k, p_max)
    else:
        nodes, stack, found = 0, [_root(k, p_max)], []

    nodes = _walk(stack, found, nodes, k, p_max, budget, checkpoint_path, checkpoint_every)

    if len(set(found)) != len(found):
        raise VerificationError("the search found a maximal family twice")
    families = sorted((Family(b, p_max) for b in found),
                      key=lambda f: (f.point_count(), f.blocks))
    return SearchResult(k, p_max, tuple(families), nodes)


def compute_N(k: int) -> int:
    """Maximum point count of a maximal intersecting family of k-sets,
    recomputed by exhaustive search under a proven point cap."""
    return enumerate_mifs(k).max_points


# -- set-pair system search ----------------------------------------------

ISP_WHITELIST = {(2, 1), (3, 1), (2, 2)}


class IspSearchResult(_Record, _JsonOut):
    k: int
    t: int
    max_points: int
    witness: SetPairSystem
    nodes: int

    def to_json_obj(self) -> dict:
        return {"k": self.k, "t": self.t, "max_points": self.max_points,
                "witness": self.witness.to_json_obj(), "nodes": self.nodes}


def _isp_children(k: int, t: int, pairs, u: int, ha, hb):
    """The systems one pair longer, in search order, as (pairs, mask of
    the new A, mask of the new B, next unused id): each new A meets
    every old B, each new B misses its A and meets every old A.  A side
    is its old points below the next unused id plus the fresh ids that
    follow, fresh-rich first.  ha[s] and hb[s] are the s-subsets of
    range(u) that meet every B and every A, with their masks, in
    combinations() order: the old parts of a new A and of a new B."""
    for a_fresh in range(k, -1, -1):
        a_olds = ha[k - a_fresh]
        if not a_olds:
            continue
        ua = u + a_fresh
        a_tail, a_tail_mask = tuple(range(u, ua)), (1 << ua) - (1 << u)
        # the B sides after this A, fresh-rich first: old parts, fresh
        # tail, its mask and the next unused id
        b_sides = [(hb[t - b_fresh], tuple(range(ua, ua + b_fresh)),
                    (1 << ua + b_fresh) - (1 << ua), ua + b_fresh)
                   for b_fresh in range(t, -1, -1) if hb[t - b_fresh]]
        for a_old, a_old_mask in a_olds:
            a, am = a_old + a_tail, a_old_mask | a_tail_mask
            for b_olds, b_tail, b_tail_mask, ub in b_sides:
                for b_old, b_old_mask in b_olds:
                    if not b_old_mask & am:
                        yield (pairs + ((a, b_old + b_tail),), am,
                               b_old_mask | b_tail_mask, ub)


def search_isp(k: int, t: int, *, budget: int | None = None) -> IspSearchResult:
    """Exhaustive maximum-point search over set-pair systems with sides
    (k, t), at most C(k+t,k) pairs, points numbered by first use.  A
    budget stop reports budget + 1 nodes.

    An expanded node holds its candidate lists, and a node one pair below
    the root may use 2(k+t) points; (k, t) is refused with
    UnsupportedParamsError, before anything is built, when the sum over
    s <= k and over s <= t of C(2(k+t), s) exceeds MAX_LIST_ENTRIES."""
    _check_int("k", k, 1)
    _check_int("t", t, 1)
    _check_count("the node budget", budget)
    entries = 0
    for side in (k, t):
        for s in range(side + 1):
            entries += comb(2 * (k + t), s)
            if entries > MAX_LIST_ENTRIES:  # stop early: huge (k, t) stay cheap
                raise UnsupportedParamsError(
                    f"({k}, {t}) is too large for the set-pair search: a node's "
                    f"candidate lists may hold more than {MAX_LIST_ENTRIES} subsets")
    n_max = comb(k + t, k)
    per_pair_gain = k + t - 2  # later pairs must reuse a point on each side
    best_points, best_pairs = 0, ()
    nodes = 0
    # per depth, a lazy iterator of children and the u, ha and hb of their
    # parent; the root is the only child of the empty system, which spans
    # no points
    ha = [[((), 0)]] + [[] for _ in range(k)]
    hb = [[((), 0)]] + [[] for _ in range(t)]
    stack = [(_isp_children(k, t, (), 0, ha, hb), 0, ha, hb)]
    while stack:
        children, pu, pha, phb = stack[-1]
        node = next(children, None)
        if node is None:
            stack.pop()
            continue
        pairs, am, bm, u = node
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(f"set-pair search exceeded {budget} nodes",
                                      nodes=nodes)
        if u > best_points:
            best_points, best_pairs = u, pairs
        depth = len(pairs)
        if depth < n_max and u + (n_max - depth) * per_pair_gain > best_points:
            ha = _extend_hitters(pha, pu, u, bm)
            hb = _extend_hitters(phb, pu, u, am)
            stack.append((_isp_children(k, t, pairs, u, ha, hb), u, ha, hb))
    witness = SetPairSystem(best_pairs, k=k, t=t)
    return IspSearchResult(k, t, best_points, witness, nodes)


def compute_n(k: int, t: int) -> int:
    """Maximum point count of a set-pair system with sides (k, t), by
    exhaustive search.  Parameters outside the desk-scale whitelist are
    refused; search_isp searches any (k, t) under its node budget."""
    _check_int("k", k)
    _check_int("t", t)
    if (k, t) not in ISP_WHITELIST:
        raise UnsupportedParamsError(
            f"({k}, {t}) is outside the whitelist {sorted(ISP_WHITELIST)}")
    return search_isp(k, t).max_points
