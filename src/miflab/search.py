"""Isomorph-free exhaustive search.

Maximal families are enumerated by orderly generation: grow k-uniform
intersecting families one block at a time in ascending block order,
introducing fresh points as the next unused ids, and keep a child only if
its labeling is the least over all point bijections.  Every isomorphism
class of intersecting families then occurs at exactly one tree node, since
deleting the largest block of a least-labeled family leaves a
least-labeled family.

One kernel call per node (``transversal.py``) finds the hitting sets T of
at most k used points for the blocks plus the used parts of the addable
future blocks; T then hits every block of every descendant.  A maximal
family never extends to another, so a node with nothing addable whose
hitting sets have k points and are exactly its blocks is a maximal leaf.
If T has fewer than k points, or is a non-block k-set that can no longer
be added (it precedes the last block), no descendant is maximal and the
node is pruned.

Set-pair systems are searched directly over pair sequences: the pair count
is capped by C(k+t, k), fresh points are introduced in first-use order,
and the first pair is fixed, which quotients out enough symmetry at desk
scale.  One generator, ``_sides``, builds both sides of a new pair,
fresh-rich first.  The walk keeps a stack of lazy child iterators, one
per depth, so a node's children are built only as the walk reaches them.
A node is counted before the budget is checked, so a stop reports
budget + 1 nodes.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

from .bounds import proven_point_cap
from .canonical import is_least_labeling
from .errors import (BudgetExceededError, FormatError, ParameterOutOfRangeError,
                     UnsupportedKError, UnsupportedParamsError)
from .family import Family, bits_of, mask_of
from .isp import SetPairSystem
from .transversal import _hitting_sets

CHECKPOINT_MAGIC = "mifsearch-v1"

Blocks = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _subsets(v: int, size: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All size-subsets of range(v) with their masks."""
    return tuple((c, mask_of(c)) for c in combinations(range(v), size))


def _check_budget(budget: int | None) -> None:
    if budget is not None and budget < 0:
        raise ParameterOutOfRangeError(f"the node budget must not be negative, got {budget}")


def _addable(blocks: Blocks, p_max: int) -> list[tuple[tuple[int, ...], int]]:
    """The blocks a descendant may still add, ascending, with their masks."""
    masks = [mask_of(b) for b in blocks]
    return [(cand, dm) for cand, dm in _subsets(p_max, len(blocks[0]))
            if cand > blocks[-1] and all(dm & bm for bm in masks)]


def _node_step(blocks: Blocks, k: int, p_max: int) -> tuple[bool, list[Blocks]]:
    """Classify one canonical node: (is maximal, canonical children)."""
    last = blocks[-1]
    masks = [mask_of(b) for b in blocks]
    v = max(b[-1] for b in blocks) + 1

    addable = _addable(blocks, p_max)
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

    children: list[Blocks] = []
    for cand, dm in addable:
        fresh = dm >> v
        if fresh & (fresh + 1) == 0:  # its new points are the next unused ids
            child = blocks + (cand,)
            if is_least_labeling(child):
                children.append(child)
    return False, children


def _walk(stack: list[Blocks], found: list[Blocks], nodes: int, k: int, p_max: int,
          budget: int | None, checkpoint_path=None, checkpoint_every: int = 0) -> int:
    """Expand the nodes on stack depth-first, appending the maximal
    families to found; returns the node count, starting from nodes.

    The budget is checked before each node: a stop writes the untouched
    stack as the checkpoint and raises BudgetExceededError with the node
    count, which is the budget unless the walk started beyond it.  With a
    checkpoint path the stack and results are also written every
    checkpoint_every nodes."""
    since_checkpoint = 0
    while stack:
        if budget is not None and nodes >= budget:
            if checkpoint_path:
                write_checkpoint(checkpoint_path, k, p_max, nodes, stack, found)
            raise BudgetExceededError(f"node budget {budget} exhausted", nodes=nodes,
                                      checkpoint_path=checkpoint_path)
        blocks = stack.pop()
        nodes += 1
        full, children = _node_step(blocks, k, p_max)
        if full:
            found.append(blocks)
        else:
            stack.extend(reversed(children))
        since_checkpoint += 1
        if checkpoint_path and since_checkpoint >= checkpoint_every:
            write_checkpoint(checkpoint_path, k, p_max, nodes, stack, found)
            since_checkpoint = 0
    return nodes


@dataclass(frozen=True)
class SearchResult:
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

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))


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
    masks = [mask_of(b) for b in blocks]
    if not all(a & b for a, b in combinations(masks, 2)):
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
            fh.write(f"{CHECKPOINT_MAGIC} {json.dumps(header, separators=(',', ':'))}\n")
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


def read_checkpoint(path, k: int, p_max: int):
    with open(path) as fh:
        lines = fh.read().splitlines()
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
    pending: list[Blocks] = []
    found: list[Blocks] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        tag, _, rest = line.partition(" ")
        if tag not in ("F", "M"):
            raise FormatError(f"line {lineno}: unknown checkpoint tag {tag!r}")
        blocks = _record_to_blocks(rest, k, p_max)
        # a record the leaf test calls maximal joins the result, so it must be
        # least; any other adds nothing if not least, as a least child has a
        # least parent.  Without an addable block the test builds no child
        leaf = not _addable(blocks, p_max) and _node_step(blocks, k, p_max)[0]
        if tag == "M" and not leaf:
            raise FormatError(f"bad checkpoint record {rest!r}: not a maximal family")
        if leaf and not is_least_labeling(blocks):
            raise FormatError(f"bad checkpoint record {rest!r}: not in least labeling")
        (pending if tag == "F" else found).append(blocks)
    return header["nodes"], pending, found


def enumerate_mifs(k: int, p_max: int | None = None, *, budget: int | None = None,
                   checkpoint_path=None, checkpoint_every: int = 50000,
                   resume_path=None) -> SearchResult:
    """All maximal intersecting k-uniform families on at most p_max points,
    one representative per isomorphism class; p_max defaults to the proven
    point cap of k, under which the search finds N(k).

    Budget counts visited tree nodes, and a stop reports exactly the
    budget; a negative budget is refused.  With a checkpoint path the
    pending stack and results are written every checkpoint_every nodes and
    on budget exhaustion; a resume path continues such a run, and the
    resumed result and node count equal those of an uninterrupted run."""
    if k not in (2, 3):
        raise UnsupportedKError(f"exhaustive search supports k in {{2, 3}}, got {k}")
    if p_max is None:
        p_max = proven_point_cap(k)
    if p_max < 2 * k - 1:
        raise ParameterOutOfRangeError(
            f"p_max = {p_max} cannot host a maximal family of {k}-sets (needs {2 * k - 1})")
    _check_budget(budget)

    root: Blocks = (tuple(range(k)),)
    if resume_path:
        nodes, stack, found = read_checkpoint(resume_path, k, p_max)
    else:
        nodes, stack, found = 0, [root], []

    nodes = _walk(stack, found, nodes, k, p_max, budget, checkpoint_path, checkpoint_every)

    families = sorted((Family(b, p_max) for b in set(found)),
                      key=lambda f: (f.point_count(), f.blocks))
    return SearchResult(k, p_max, tuple(families), nodes)


def compute_N(k: int) -> int:
    """Maximum point count of a maximal intersecting family of k-sets,
    recomputed by exhaustive search under a proven point cap."""
    return enumerate_mifs(k).max_points


# -- set-pair system search ----------------------------------------------

ISP_WHITELIST = {(2, 1), (3, 1), (2, 2)}


@dataclass(frozen=True)
class IspSearchResult:
    k: int
    t: int
    max_points: int
    witness: SetPairSystem
    nodes: int

    def to_json_obj(self) -> dict:
        return {"k": self.k, "t": self.t, "max_points": self.max_points,
                "witness": self.witness.to_json_obj(), "nodes": self.nodes}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))


def _sides(v: int, size: int, avoid: int, must_meet):
    """Sides of size points, fresh-rich first: size - fresh old points
    below v that miss avoid, plus the fresh ids v, v+1, ...; yields
    (points, mask, next unused id) for each side meeting every mask in
    must_meet."""
    for fresh in range(size, -1, -1):
        tail = tuple(range(v, v + fresh))
        tail_mask = mask_of(tail)
        for old, old_mask in _subsets(v, size - fresh):
            mask = old_mask | tail_mask
            if not old_mask & avoid and all(mask & m for m in must_meet):
                yield old + tail, mask, v + fresh


def _isp_children(k: int, t: int, pairs, amasks, bmasks, u: int):
    """The systems one pair longer, in search order: each new A meets
    every old B, each new B misses its A and meets every old A."""
    for a, am, ua in _sides(u, k, 0, bmasks):
        for b, bm, ub in _sides(ua, t, am, amasks):
            yield pairs + ((a, b),), amasks + (am,), bmasks + (bm,), ub


def search_isp(k: int, t: int, *, budget: int | None = None) -> IspSearchResult:
    """Exhaustive maximum-point search over set-pair systems with sides
    (k, t), at most C(k+t,k) pairs, points numbered by first use.  A
    budget stop reports budget + 1 nodes."""
    if k < 1 or t < 1:
        raise ParameterOutOfRangeError(f"set-pair search needs k, t >= 1, got ({k}, {t})")
    _check_budget(budget)
    n_max = comb(k + t, k)
    per_pair_gain = k + t - 2  # later pairs must reuse a point on each side
    a, b = tuple(range(k)), tuple(range(k, k + t))
    root = (((a, b),), (mask_of(a),), (mask_of(b),), k + t)
    best_points, best_pairs = k + t, root[0]
    nodes = 0
    stack = [iter([root])]  # one lazy iterator of children per depth
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        pairs, _, _, u = node
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceededError(f"set-pair search exceeded {budget} nodes",
                                      nodes=nodes)
        if u > best_points:
            best_points, best_pairs = u, pairs
        depth = len(pairs)
        if depth < n_max and u + (n_max - depth) * per_pair_gain > best_points:
            stack.append(_isp_children(k, t, *node))
    witness = SetPairSystem(best_pairs, k=k, t=t)
    return IspSearchResult(k, t, best_points, witness, nodes)


def compute_n(k: int, t: int) -> int:
    """Maximum point count of a set-pair system with sides (k, t), by
    exhaustive search.  Parameters outside the desk-scale whitelist are
    refused; search_isp searches any (k, t) under its node budget."""
    if (k, t) not in ISP_WHITELIST:
        raise UnsupportedParamsError(
            f"({k}, {t}) is outside the whitelist {sorted(ISP_WHITELIST)}")
    return search_isp(k, t).max_points
