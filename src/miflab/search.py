"""Isomorph-free exhaustive search.

Maximal families are enumerated by orderly generation: grow k-uniform
intersecting families one block at a time in ascending block order,
introducing fresh points as the next unused ids, and keep a child only if
its labeling is the least over all point bijections.  Every isomorphism
class of intersecting families then occurs at exactly one tree node, since
deleting the largest block of a least-labeled family leaves a
least-labeled family.

Two tests keep the tree small; both ask the kernel of ``transversal.py``
for the hitting sets of at most k used points.  A maximal family can never
extend to another maximal family, so a node whose minimum hitting sets
have k points and are exactly its blocks is a maximal leaf.  Otherwise let
T hit the blocks and the used parts of the addable future blocks (T meets
an addable block exactly when it meets that block's used part); T then
hits every block of every descendant.  If T has fewer than k points, or is
a non-block k-set that can no longer be added (it precedes the last
block), no descendant is maximal and the node is pruned.

Set-pair systems are searched directly over pair sequences: the pair count
is capped by C(k+t, k), fresh points are introduced in first-use order,
and the first pair is fixed, which quotients out enough symmetry at desk
scale.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
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
_FRONTIER_TARGET = 16  # stack size at the parallel split; fixed so results
                       # and node counts ignore the worker count

Blocks = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _subsets(v: int, size: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """All size-subsets of range(v) with their masks."""
    return tuple((c, mask_of(c)) for c in combinations(range(v), size))


def _node_step(blocks: Blocks, k: int, p_max: int) -> tuple[bool, list[Blocks]]:
    """Classify one canonical node: (is maximal, canonical children)."""
    last = blocks[-1]
    masks = [mask_of(b) for b in blocks]
    v = max(b[-1] for b in blocks) + 1

    # the blocks intersect, so at t = k each is a minimum hitting set and
    # equal counts mean the blocks are all of them
    t, hitters, _ = _hitting_sets(masks, True, k)
    if t == k and len(hitters) == len(blocks):
        return True, []  # maximal; and no extension of it can be

    # the blocks any descendant may still add, in ascending order
    addable = [(cand, dm) for cand, dm in _subsets(p_max, k)
               if cand > last and all(dm & bm for bm in masks)]
    # a set of used points meets an addable block iff it meets its used part
    used = (1 << v) - 1
    t, threats, _ = _hitting_sets(masks + [dm & used for _, dm in addable], True, k)
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
          budget: int | None, checkpoint_path=None, checkpoint_every: int = 0,
          split: int | None = None) -> int:
    """Expand the nodes on stack depth-first, appending the maximal
    families to found; returns the node count, starting from nodes.

    The budget is checked before each node: a stop writes the untouched
    stack as the checkpoint and raises BudgetExceededError with the node
    count, which is the budget unless the walk started beyond it.  With a
    checkpoint path the stack and results are also written every
    checkpoint_every nodes.  With split, the walk returns once the stack
    holds that many nodes and leaves them on it."""
    since_checkpoint = 0
    while stack and (split is None or len(stack) < split):
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


def _run_subtree(args) -> tuple[list[Blocks], int]:
    """Pool task: exhaust one subtree; returns (maximal families, nodes)."""
    root, k, p_max, budget = args
    found: list[Blocks] = []
    return found, _walk([root], found, 0, k, p_max, budget)


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
    """Parse a record of a node or a result of the search: strictly
    increasing k-sets of points below p_max, in strictly increasing order,
    the first one being the root block (0, ..., k-1)."""
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
        if tag == "F":
            pending.append(_record_to_blocks(rest, k, p_max))
        elif tag == "M":
            found.append(_record_to_blocks(rest, k, p_max))
        else:
            raise FormatError(f"line {lineno}: unknown checkpoint tag {tag!r}")
    return header["nodes"], pending, found


def enumerate_mifs(k: int, p_max: int, *, budget: int | None = None,
                   checkpoint_path=None, checkpoint_every: int = 50000,
                   resume_path=None, workers: int = 1) -> SearchResult:
    """All maximal intersecting k-uniform families on at most p_max points,
    one representative per isomorphism class.

    Budget counts visited tree nodes, and a stop reports exactly the
    budget.  With a checkpoint path the pending stack and results are
    written every checkpoint_every nodes and on budget exhaustion; a
    resume path continues such a run.  With workers > 1 the depth-first
    walk splits once its stack holds a fixed number of nodes, and the
    subtrees of those nodes are solved in a process pool and merged into
    sorted order, so the result and node count do not depend on the
    worker count.  Checkpointing is serial-only.  The nodes visited before
    the split count against the budget, and each subtree then gets the
    full budget of its own."""
    if k not in (2, 3):
        raise UnsupportedKError(f"exhaustive search supports k in {{2, 3}}, got {k}")
    if p_max < 2 * k - 1:
        raise ParameterOutOfRangeError(
            f"p_max = {p_max} cannot host a maximal family of {k}-sets (needs {2 * k - 1})")
    if workers > 1 and (checkpoint_path or resume_path):
        raise ParameterOutOfRangeError(
            "checkpoint and resume are supported with workers=1 only")

    root: Blocks = (tuple(range(k)),)
    if resume_path:
        nodes, stack, found = read_checkpoint(resume_path, k, p_max)
    else:
        nodes, stack, found = 0, [root], []

    split = _FRONTIER_TARGET if workers > 1 else None
    nodes = _walk(stack, found, nodes, k, p_max, budget,
                  checkpoint_path, checkpoint_every, split)
    if stack:  # a split: the pending subtrees go to the pool
        tasks = [(blocks, k, p_max, budget) for blocks in stack]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for sub_found, sub_nodes in pool.map(_run_subtree, tasks):
                found.extend(sub_found)
                nodes += sub_nodes

    families = sorted((Family(b, p_max) for b in set(found)),
                      key=lambda f: (f.point_count(), f.blocks))
    return SearchResult(k, p_max, tuple(families), nodes)


def compute_N(k: int) -> int:
    """Maximum point count of a maximal intersecting family of k-sets,
    recomputed by exhaustive search under a proven point cap."""
    if k not in (2, 3):
        raise UnsupportedKError(f"exhaustive recomputation supports k in {{2, 3}}, got {k}")
    return enumerate_mifs(k, proven_point_cap(k)).max_points


# -- set-pair system search ----------------------------------------------

ISP_WHITELIST = {(2, 1), (3, 1), (2, 2)}
_ISP_DEFAULT_BUDGET = 50_000_000


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


def search_isp(k: int, t: int, *, budget: int | None = _ISP_DEFAULT_BUDGET) -> IspSearchResult:
    """Exhaustive maximum-point search over set-pair systems with sides
    (k, t), at most C(k+t,k) pairs, points numbered by first use."""
    if k < 1 or t < 1:
        raise ParameterOutOfRangeError(f"set-pair search needs k, t >= 1, got ({k}, {t})")
    n_max = comb(k + t, k)
    first = (tuple(range(k)), tuple(range(k, k + t)))
    first_masks = (mask_of(first[0]), mask_of(first[1]))
    state = [first_masks]
    pair_tuples = [first]
    best = [k + t, list(pair_tuples)]
    nodes = [0]
    per_pair_gain = k + t - 2  # later pairs must reuse a point on each side

    def dfs(u: int) -> None:
        nodes[0] += 1
        if budget is not None and nodes[0] > budget:
            raise BudgetExceededError(f"set-pair search exceeded {budget} nodes",
                                      nodes=nodes[0])
        if u > best[0]:
            best[0] = u
            best[1] = list(pair_tuples)
        depth = len(state)
        if depth == n_max:
            return
        if u + (n_max - depth) * per_pair_gain <= best[0]:
            return
        bmasks = [bm for _, bm in state]
        amasks = [am for am, _ in state]
        for fresh_a in range(k, -1, -1):  # fresh-rich candidates first
            a_tail = tuple(range(u, u + fresh_a))
            a_tail_mask = mask_of(a_tail)
            for a_old, a_old_mask in _subsets(u, k - fresh_a):
                am = a_old_mask | a_tail_mask
                if not all(am & bm for bm in bmasks):
                    continue
                ua = u + fresh_a
                a_tuple = a_old + a_tail
                for fresh_b in range(t, -1, -1):
                    b_tail = tuple(range(ua, ua + fresh_b))
                    b_tail_mask = mask_of(b_tail)
                    pool = tuple(p for p in range(ua) if not am & (1 << p))
                    for b_old in combinations(pool, t - fresh_b):
                        bm = mask_of(b_old) | b_tail_mask
                        if not all(om & bm for om in amasks):
                            continue
                        state.append((am, bm))
                        pair_tuples.append((a_tuple, b_old + b_tail))
                        dfs(ua + fresh_b)
                        state.pop()
                        pair_tuples.pop()

    dfs(k + t)
    witness = SetPairSystem(best[1], k=k, t=t)
    return IspSearchResult(k, t, best[0], witness, nodes[0])


def compute_n(k: int, t: int, *, force: bool = False) -> int:
    """Maximum point count of a set-pair system with sides (k, t), by
    exhaustive search.  Parameters outside the desk-scale whitelist are
    refused unless force=True (the node budget still guards the run)."""
    if (k, t) not in ISP_WHITELIST and not force:
        raise UnsupportedParamsError(
            f"({k}, {t}) is outside the whitelist {sorted(ISP_WHITELIST)}; "
            f"pass force=True to search anyway under the node budget")
    return search_isp(k, t).max_points
