"""The benchmark's three workloads: inputs, timed call lists and checks.

A workload is built from a seed into a list of Op.  The worker times
op.run() and afterwards, outside the timed region, asks op.check(result)
for an error message (None when the answer is right).  Expensive reference
answers (brute-force oracles, a second canonical form) are computed once
per input and cached, so every answer of every pass is checked without
re-running the oracle.

Ops look up miflab functions as module attributes at call time, so the
tracing wrappers apply to them as well as to the package's own calls.

The isomorphism classes of the random families come from POOL_SEED, which
is part of the benchmark's definition; the run seed chooses their point
labelings (and, on `search`, the checkpoint stop points).  Canonical-form
and branch-and-bound costs depend mainly on the class, so runs with
different seeds do comparable work and their times can be compared; the
canonicaliser's cost also depends on the labeling, so canon-k4 cycles
through many labelings per input.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from functools import cache
from itertools import combinations, cycle
from math import comb
from typing import Any, Callable

POOL_SEED = 20140227

# The 8 classes of maximal intersecting 3-uniform families (N(3) = 7);
# the `search` workload re-derives and checks them.
K3_CLASSES = (
    ((0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (0, 3, 4), (1, 2, 3),
     (1, 2, 4), (1, 3, 4), (2, 3, 4)),
    ((0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
     (1, 2, 5), (1, 3, 4), (2, 3, 4)),
    ((0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (0, 3, 5), (1, 2, 3),
     (1, 2, 5), (1, 3, 4), (2, 3, 4)),
    ((0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 4, 5), (1, 2, 4),
     (1, 2, 5), (1, 3, 5), (2, 3, 4)),
    ((0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 5), (0, 3, 5), (0, 4, 5), (1, 2, 5),
     (1, 3, 5), (1, 4, 5), (2, 3, 4)),
    ((0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5), (1, 2, 5), (1, 3, 4),
     (1, 4, 5), (2, 3, 4), (2, 3, 5)),
    ((0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 5), (0, 3, 6), (1, 2, 3),
     (1, 2, 6), (1, 3, 5), (2, 3, 4)),
    ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)),
)

ORACLE_POINTS = 20      # brute-force transversal oracle guard in miflab
ISP32_BUDGET = 3000     # fixed: the ISP(3,2) node rate depends on the budget
CHECKPOINT_EVERY = 16
BIG_UNIVERSE = 512      # bg(k,t) for k <= 7 needs up to 473 points
LABELINGS = 32          # seeded relabelings per random input, used in turn


@dataclass
class Op:
    """One timed call.  tag marks the calls behind search-only metrics."""
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    tag: str = ""


def _expect(condition: bool, message: str) -> str | None:
    return None if condition else message


def _permutation(rng: random.Random, n: int) -> list[int]:
    image = list(range(n))
    rng.shuffle(image)
    return image


def _apply(image, blocks):
    return tuple(sorted(tuple(sorted(image[p] for p in b)) for b in blocks))


def _relabel(rng: random.Random, blocks, universe: int):
    return _apply(_permutation(rng, universe), blocks)


def _random_family(rng: random.Random, k: int, v: int, n_blocks: int):
    """n_blocks distinct k-subsets of range(v)."""
    blocks: set[tuple[int, ...]] = set()
    while len(blocks) < n_blocks:
        blocks.add(tuple(sorted(rng.sample(range(v), k))))
    return tuple(sorted(blocks))


def _random_intersecting(rng: random.Random, k: int, v: int, n_blocks: int):
    """Up to n_blocks pairwise meeting k-subsets of range(v), taken greedily
    from a random order of all k-subsets."""
    pool = list(combinations(range(v), k))
    rng.shuffle(pool)
    chosen: list[tuple[int, ...]] = []
    masks: list[int] = []
    for block in pool:
        mask = sum(1 << p for p in block)
        if all(mask & other for other in masks):
            chosen.append(block)
            masks.append(mask)
            if len(chosen) == n_blocks:
                break
    return tuple(sorted(chosen))


def _pick_removed(rng: random.Random, blocks, removed: int):
    kept = list(blocks)
    for block in rng.sample(kept, removed):
        kept.remove(block)
    return tuple(kept)


# -- search ------------------------------------------------------------------

def build_search(seed: int, tmpdir: str) -> list[Op]:
    from miflab import mif, search
    from miflab.errors import BudgetExceededError
    from miflab.family import Family
    from miflab.isp import validate_isp

    rng = random.Random(seed)
    checkpoint = os.path.join(tmpdir, "search.ckpt")
    k3_counts = {5: 1, 6: 5, 7: 2}

    @cache
    def class_is_mif(blocks) -> bool:
        return bool(mif.is_mif(Family(blocks, 9)))

    def check_k3(result):
        return (_expect(result.max_points == 7, f"N(3) = {result.max_points}, want 7")
                or _expect(len(result.families) == 8,
                           f"{len(result.families)} classes, want 8")
                or _expect(result.counts_by_point_count == k3_counts,
                           f"counts {result.counts_by_point_count}, want {k3_counts}")
                or _expect(all(class_is_mif(f.blocks) for f in result.families),
                           "a k=3 class fails is_mif"))

    plain_json: list[str] = []   # the plain (3, 9) result of the current pass

    def run_k3_9():
        result = search.enumerate_mifs(3, 9)
        plain_json[:] = [result.to_json()]
        return result

    def check_isp(expected):
        def check(result):
            verdict = validate_isp(result.witness)
            return (_expect(result.max_points == expected,
                            f"n({result.k},{result.t}) = {result.max_points}, want {expected}")
                    or _expect(verdict.ok and result.witness.point_count() == expected,
                               f"witness rejected: {verdict.message}"))
        return check

    def budget_stop(call, budget):
        def run():
            try:
                call()
            except BudgetExceededError as stop:
                return stop.nodes
            return None

        def check(nodes):
            return _expect(nodes == budget, f"budget stop at {nodes} nodes, want {budget}")
        return run, check

    ops = [
        Op("enumerate_mifs(2,3)", lambda: search.enumerate_mifs(2, 3),
           lambda r: _expect(r.max_points == 3 and len(r.families) == 1,
                             f"N(2) = {r.max_points} over {len(r.families)} classes")),
        Op("enumerate_mifs(3,7)", lambda: search.enumerate_mifs(3, 7), check_k3),
        Op("enumerate_mifs(3,8)", lambda: search.enumerate_mifs(3, 8), check_k3),
        Op("enumerate_mifs(3,9)", run_k3_9, check_k3, tag="mif_k3"),
        Op("search_isp(2,1)", lambda: search.search_isp(2, 1), check_isp(4)),
        Op("search_isp(3,1)", lambda: search.search_isp(3, 1), check_isp(6)),
        Op("search_isp(2,2)", lambda: search.search_isp(2, 2), check_isp(6)),
    ]
    run, check = budget_stop(lambda: search.search_isp(3, 2, budget=ISP32_BUDGET),
                             ISP32_BUDGET + 1)
    ops.append(Op(f"search_isp(3,2,budget={ISP32_BUDGET})", run, check, tag="isp32"))

    # checkpoint rounds stop near a quarter, a half and three quarters of the
    # 192-node search, jittered by the seed (far-apart stops would move
    # op_p50_ms with the seed), then resume from the file to the end
    for stop in (base + rng.randrange(CHECKPOINT_EVERY) for base in (40, 88, 136)):
        run, check = budget_stop(
            lambda stop=stop: search.enumerate_mifs(
                3, 9, budget=stop, checkpoint_path=checkpoint,
                checkpoint_every=CHECKPOINT_EVERY), stop)
        ops.append(Op(f"enumerate_mifs(3,9,stop={stop})", run, check))
        ops.append(Op(
            f"enumerate_mifs(3,9,resume@{stop})",
            lambda: search.enumerate_mifs(3, 9, resume_path=checkpoint,
                                          checkpoint_path=checkpoint,
                                          checkpoint_every=CHECKPOINT_EVERY),
            lambda r: _expect(plain_json == [r.to_json()],
                              "resumed result differs from the plain run")))
    return ops


# -- canon-k4 ----------------------------------------------------------------

def _canon_pool():
    """Fixed 4-uniform inputs: asymmetric random intersecting families and
    a symmetric tail whose cost grows with its automorphism group."""
    from miflab import constructions

    rng = random.Random(POOL_SEED)
    pool = []
    for v, n_blocks, copies in ((8, 10, 5), (9, 12, 5), (10, 14, 5), (10, 18, 5),
                                (11, 16, 5), (12, 20, 5)):
        for i in range(copies):
            pool.append((f"rand(v={v},b={n_blocks})#{i}", v,
                         _random_intersecting(rng, 4, v, n_blocks)))
    plane = constructions.projective_plane(3).blocks
    for removed in (5, 6, 7, 8):
        pool.append((f"PG(2,3)-{removed}", 13, _pick_removed(rng, plane, removed)))
    pool.append(("K(4)-8", 7, _pick_removed(rng, constructions.complete_family(4).blocks, 8)))
    for t in (2, 3):
        bg = constructions.bg_family(4, t)
        pool.append((f"T(bg(4,{t}))", bg.expected_transversals.universe_size,
                     bg.expected_transversals.blocks))
    return pool


def build_canon_k4(seed: int, tmpdir: str) -> list[Op]:
    from miflab import canonical

    rng = random.Random(seed)
    ops = []
    for label, universe, blocks in _canon_pool():
        # each call takes the next seeded relabeling: the canonicaliser's
        # cost depends on the labeling, and a run then sees many of them
        shown = cycle([_relabel(rng, blocks, universe) for _ in range(LABELINGS)])
        probes = cycle([_relabel(rng, blocks, universe) for _ in range(LABELINGS)])
        least: list = []
        probe: list = []

        @cache
        def reference(blocks=blocks):
            # least form of the pool labeling: must equal that of any relabeling
            return canonical.least_block_list(blocks)

        def run_least(shown=shown, least=least):
            least[:] = [canonical.least_block_list(next(shown))]
            return least[0]

        def run_probe(probes=probes, probe=probe):
            probe[:] = [next(probes)]
            return canonical.is_least_labeling(probe[0])

        ops.append(Op(f"least_block_list({label})", run_least,
                      lambda r, reference=reference: _expect(
                          r == reference(), "least form depends on the labeling")))
        ops.append(Op(f"is_least_labeling(least {label})",
                      lambda least=least: canonical.is_least_labeling(least[0]),
                      lambda r: _expect(r is True, "least form not accepted")))
        ops.append(Op(f"is_least_labeling(relabeled {label})", run_probe,
                      lambda r, probe=probe, reference=reference: _expect(
                          r == (probe[0] == reference()), "wrong least-labeling verdict")))
    return ops


# -- transversal-mif ---------------------------------------------------------

# (k, points, blocks, copies) of the random k-uniform families
_RANDOM_SHAPES = ((3, 12, 20, 3), (3, 16, 30, 3), (4, 20, 20, 3), (4, 20, 30, 3),
                  (5, 22, 25, 3), (5, 22, 35, 3), (6, 18, 30, 3), (6, 24, 30, 3),
                  (6, 24, 40, 3), (6, 24, 45, 3), (6, 24, 50, 2))


def _family_json(universe: int, blocks) -> str:
    return json.dumps({"universe": universe, "blocks": [list(b) for b in blocks]},
                      separators=(",", ":"))


def build_transversal_mif(seed: int, tmpdir: str) -> list[Op]:
    from miflab import constructions, isp, mif, transversal
    from miflab.family import DEFAULT_MAX_UNIVERSE, Family

    rng = random.Random(seed)
    pool_rng = random.Random(POOL_SEED)
    ops = []

    def parse(text, cap=DEFAULT_MAX_UNIVERSE):
        return Family.from_json(text, max_universe=cap)

    @cache
    def maximal(blocks, universe) -> bool:
        return bool(mif.is_mif(Family(blocks, universe)))

    # random k-uniform families; each call takes the next seeded labeling,
    # since the branch and bound's cost depends on the labeling
    for k, v, n_blocks, copies in _RANDOM_SHAPES:
        for i in range(copies):
            base = _random_family(pool_rng, k, v, n_blocks)
            labelings = []
            for _ in range(LABELINGS):
                image = _permutation(rng, v)
                blocks = _apply(image, base)
                labelings.append((image, blocks, _family_json(v, blocks)))
            label = f"rand(k={k},v={v},b={n_blocks})#{i}"

            @cache
            def reference(base=base, v=v):
                # the oracle's answer for the pool labeling; the program's own
                # where the oracle refuses the size
                family = Family(base, v)
                if family.point_count() <= ORACLE_POINTS:
                    report = transversal.brute_force_transversals(family)
                else:
                    report = transversal.transversal_family(family)
                return report.tau, report.transversals.blocks

            shown: list = []

            def run_full(labelings=cycle(labelings), shown=shown):
                shown[:] = [next(labelings)]
                return transversal.transversal_family(parse(shown[0][2]))

            def check_full(report, k=k, shown=shown, reference=reference):
                image, blocks, _ = shown[0]
                tau, sets = reference()
                found = report.transversals.blocks
                masks = [sum(1 << p for p in b) for b in blocks]
                return (_expect((report.tau, found) == (tau, _apply(image, sets)),
                                "transversals differ from the reference")
                        or _expect(len(found) <= k ** tau,
                                   f"{len(found)} transversals exceed {k}^{tau}")
                        or _expect(all(len(t) == tau and all(m & sum(1 << p for p in t)
                                                             for m in masks)
                                       for t in found), "a reported set is not a transversal"))

            ops.append(Op(f"transversal_family({label})", run_full, check_full))
            ops.append(Op(
                f"tau_with_nodes({label})",
                lambda labelings=cycle(labelings): transversal.tau_with_nodes(
                    parse(next(labelings)[2])),
                lambda r, reference=reference: _expect(
                    r[0] == reference()[0], f"tau {r[0]} is wrong")))

    # bg(k,t) against its closed-form transversal family
    for k in range(3, 8):
        for t in range(2, k):
            bg = constructions.bg_family(k, t, max_universe=BIG_UNIVERSE)
            ops.append(Op(
                f"transversal_family(bg({k},{t}))",
                lambda text=_family_json(bg.family.universe_size, bg.family.blocks):
                transversal.transversal_family(
                    parse(text, BIG_UNIVERSE)),
                lambda r, t=t, bg=bg: _expect(
                    r.tau == t and r.transversals.blocks == bg.expected_transversals.blocks
                    and len(r.transversals.blocks) <= bg.k ** t,
                    f"bg({bg.k},{t}) transversals differ from the closed form")))

    # maximality with the cross-check
    verdicts = [(f"K({k})", constructions.complete_family(k), True) for k in range(3, 7)]
    verdicts += [("PG(2,2)", constructions.projective_plane(2), True),
                 ("PG(2,3)", constructions.projective_plane(3), True),
                 ("bg(3,2)", constructions.bg_family(3, 2).family, False)]
    for label, family, expected in verdicts:
        text = _family_json(family.universe_size, family.blocks)
        ops.append(Op(f"is_mif({label})",
                      lambda text=text: mif.is_mif(parse(text), cross_check=True),
                      lambda r, expected=expected: _expect(
                          r.ok is expected, f"is_mif verdict {r.ok}, want {expected}")))

    # merge, collapse and set-pair extraction on maximal families
    hosts = [(f"k3class#{i}", 9, blocks) for i, blocks in enumerate(K3_CLASSES)]
    for label, family in (("PG(2,3)", constructions.projective_plane(3)),
                          ("K(4)", constructions.complete_family(4)),
                          ("K(5)", constructions.complete_family(5))):
        hosts.append((label, family.universe_size, family.blocks))
    for label, universe, blocks in hosts:
        text = _family_json(universe, blocks)
        k = len(blocks[0])
        points = {p for b in blocks for p in b}
        for a, b in combinations(sorted(points), 2):
            if any(a in block and b in block for block in blocks):
                continue
            for alpha, beta in ((a, b), (b, a)):
                ops.append(Op(
                    f"merge({label},{alpha},{beta})",
                    lambda text=text, alpha=alpha, beta=beta: mif.merge(parse(text), alpha, beta),
                    lambda r, want=points - {beta}: _expect(
                        r.point_set() == want and maximal(r.blocks, r.universe_size),
                        "merge result is wrong")))
        for alpha in sorted(points):
            ops.append(Op(f"collapse({label},{alpha})",
                          lambda text=text, alpha=alpha: mif.collapse(parse(text), alpha),
                          lambda r, k=k, n=len(points): _check_collapse(r, k, n)))
        ops.append(Op(f"extract_isp({label})",
                      lambda text=text: isp.extract_isp(parse(text)),
                      lambda r, k=k: _check_extract(r, k)))
    return ops


def _check_collapse(trace, k: int, point_count: int) -> str | None:
    from miflab.isp import validate_isp

    verdict = validate_isp(trace.isp)
    return (_expect(verdict.ok, f"collapse certificate invalid: {verdict.message}")
            or _expect(trace.isp.k == trace.isp.t == k - 1, "certificate sides are not k-1")
            or _expect(2 * trace.n_steps <= comb(2 * k - 2, k - 1), "2N exceeds C(2k-2,k-1)")
            or _expect(point_count == trace.n_steps + trace.g_top_points,
                       "point count is not N + transversal points"))


def _check_extract(system, k: int) -> str | None:
    from miflab.isp import validate_isp

    verdict = validate_isp(system)
    return (_expect(verdict.ok, f"extracted system invalid: {verdict.message}")
            or _expect(system.k == k and system.t == k - 1,
                       f"extracted system is ISP({system.k},{system.t}), want ({k},{k - 1})"))


WORKLOADS = {
    "search": build_search,
    "canon-k4": build_canon_k4,
    "transversal-mif": build_transversal_mif,
}
