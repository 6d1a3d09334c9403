import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from functools import cache
from itertools import combinations, permutations
from math import comb

import pytest

from miflab import canonical, search
from miflab.bounds import (improved_upper, proven_point_cap, tuza_conjecture_value,
                           tuza_nkt_upper)
from miflab.canonical import least_block_list
from miflab.constructions import complete_family, projective_plane
from miflab.errors import (BudgetExceededError, FormatError, ParameterOutOfRangeError,
                           UnsupportedKError, UnsupportedParamsError, VerificationError)
from miflab.family import mask_of
from miflab.isp import SetPairSystem, bollobas_sum, validate_isp
from miflab.mif import is_mif, is_one_critical
from miflab.search import (MAX_LIST_ENTRIES, IspSearchResult, _addable, _extend_hitters,
                           _node_step, _root, compute_n, compute_N, enumerate_mifs,
                           read_checkpoint, search_isp, write_checkpoint)
from test_canonical import automorphisms_by_scan, generated_order


@pytest.fixture(scope="module")
def search39():
    return enumerate_mifs(3, 9)


def oracle_mif_classes(v, k=3):
    """Independent route: maximal cliques of the block-intersection graph on
    exactly v points, filtered to transversal size k, as canonical forms."""
    blocks = list(combinations(range(v), k))
    masks = [mask_of(b) for b in blocks]
    n = len(blocks)
    adj = [set() for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if masks[i] & masks[j]:
                adj[i].add(j)
                adj[j].add(i)
    out = set()
    sys.setrecursionlimit(10000)

    def consider(clique):
        fam = [masks[i] for i in clique]
        pm = 0
        for m in fam:
            pm |= m
        if pm != (1 << v) - 1:
            return
        for size in range(1, k):
            for cand in combinations(range(v), size):
                cm = mask_of(cand)
                if all(cm & bm for bm in fam):
                    return
        out.add(least_block_list([blocks[i] for i in clique]))

    def bron_kerbosch(r, p, x):
        if not p and not x:
            consider(r)
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for u in list(p - adj[pivot]):
            bron_kerbosch(r | {u}, p & adj[u], x & adj[u])
            p.remove(u)
            x.add(u)

    bron_kerbosch(set(), set(range(n)), set())
    return out


def reference_node_step(blocks, k, p_max):
    """Oracle for _node_step: scan every subset of at most k used points
    against every block, with no hitting-set search."""
    last = blocks[-1]
    masks = tuple(mask_of(b) for b in blocks)
    v = max(b[-1] for b in blocks) + 1
    block_masks = set(masks)
    threats = []          # hitting sets every descendant must dodge
    small_hitter = False
    missing_k_hitter = False
    for size in range(1, k + 1):
        for cand in combinations(range(v), size):
            cm = mask_of(cand)
            if all(cm & bm for bm in masks):
                if size < k:
                    small_hitter = True
                    threats.append(cm)
                elif cm not in block_masks:
                    missing_k_hitter = True
                    if cand <= last:
                        threats.append(cm)
    if not small_hitter and not missing_k_hitter:
        return True, []
    addable = [(cand, mask_of(cand)) for cand in combinations(range(p_max), k)
               if cand > last and all(mask_of(cand) & bm for bm in masks)]
    for tm in threats:
        if not any(dm & tm == 0 for _, dm in addable):
            return False, []
    children = []
    for cand, dm in addable:
        fresh = dm >> v
        if fresh & (fresh + 1) == 0:
            child = blocks + (cand,)
            if search.is_least_labeling(child):  # looked up so tests can patch it
                children.append(child)
    return False, children


def record_from_scratch(blocks, p_max):
    """A node's record as the walk holds it, built from scratch: the
    generators of a seedless canonical test, with no stabiliser, and
    _addable's list; None if the blocks are not in least labeling."""
    group = []
    if not canonical.is_least_labeling(blocks, group):
        return None
    return blocks, (group, None), _addable(blocks, p_max)


def walk_with_groups(k, p_max):
    """Every node of the search tree with the generators of the automorphism
    group the walk carries to it, built from its record, in the order _walk
    visits them."""
    stack = [_root(k, p_max)]
    while stack:
        blocks, group, addable = stack.pop()
        yield blocks, canonical._group(*group)
        stack.extend(reversed(_node_step(blocks, k, group, addable)[1]))


@pytest.mark.parametrize("k, p_max, total", [
    (2, 3, 3), (2, 4, 4), (2, 5, 4),
    (3, 5, 20), (3, 6, 97), (3, 7, 158), (3, 8, 182), (3, 9, 192),
    (3, 10, 192), (3, 11, 192), (3, 12, 192),
])
def test_node_step_matches_subset_scan_on_whole_trees(monkeypatch, k, p_max, total):
    # the children of each node, with the group the walk carries, are the
    # scan's; every candidate the orbit check skips fails the seedless test
    skipped = []
    orbit = canonical._orbit

    def recording_orbit(block, gens, w, least=True):
        found = orbit(block, gens, w, least)
        if found is None:
            skipped.append(block)
        return found

    monkeypatch.setattr(canonical, "_orbit", recording_orbit)
    nodes = n_skipped = 0
    for node, group in walk_with_groups(k, p_max):
        nodes += 1
        skipped.clear()
        full, children = _node_step(node, k, (group, None), _addable(node, p_max))
        assert (full, [c[0] for c in children]) == reference_node_step(node, k, p_max), node
        assert not any(canonical.is_least_labeling(node + (cand,)) for cand in skipped), node
        n_skipped += len(skipped)
    assert nodes == total
    assert enumerate_mifs(k, p_max).nodes == total
    assert n_skipped  # the check is exercised on every tree


def test_node_step_matches_subset_scan_on_random_descents(monkeypatch):
    # every fresh-id child is kept, so the descents reach nodes that are
    # not least-labeled, and k = 4, which the search refuses
    monkeypatch.setattr(search, "_least_children",
                        lambda blocks, group, cands: [((), None)] * len(cands))
    monkeypatch.setattr(search, "is_least_labeling", lambda blocks, automorphisms=None: True)
    rng = random.Random(20140)
    steps = 0
    for _ in range(1000):
        k = rng.choice((2, 3, 4))
        p_max = rng.randint(2 * k - 1, 2 * k + 4)
        blocks = (tuple(range(k)),)
        while True:
            full, children = _node_step(blocks, k, ((), None), _addable(blocks, p_max))
            children = [c[0] for c in children]
            assert (full, children) == reference_node_step(blocks, k, p_max), (k, p_max, blocks)
            steps += 1
            if not children:
                break
            blocks = rng.choice(children)
    assert steps > 2500


def fresh_candidates(blocks, p_max):
    """The addable blocks whose points from v on are v, v+1, ...: the
    candidates _node_step offers _least_children."""
    v = max(b[-1] for b in blocks) + 1
    return [c for c, dm in _addable(blocks, p_max) if (dm >> v) & ((dm >> v) + 1) == 0]


def is_automorphism(g, blocks, w):
    """True iff g, a list of point images, permutes range(w) and maps the
    blocks, sorted tuples on those points, onto themselves."""
    as_set = set(blocks)
    return (all(type(q) is int for q in g) and sorted(g) == list(range(w))
            and all(tuple(sorted(g[p] for p in b)) in as_set for b in blocks))


def check_children(blocks, group, cands, check_order=True):
    """Each verdict of _least_children is the seedless canonical test's,
    and each generator built from the form it returns is an automorphism
    of the child.  With check_order they generate its whole group: the
    one a scan of every permutation finds on up to six points, else the
    one the test's own generators generate."""
    verdicts = search._least_children(blocks, group, cands)
    assert len(verdicts) == len(cands)
    for cand, deferred in zip(cands, verdicts):
        gens = None if deferred is None else canonical._group(*deferred)
        child = blocks + (cand,)
        found = []
        assert (gens is not None) == canonical.is_least_labeling(child, found), child
        if gens is None:
            continue
        w = max(b[-1] for b in child) + 1
        assert all(is_automorphism(g, child, w) for g in gens), child
        if check_order:
            order = (len(automorphisms_by_scan(child, w)) if w <= 6
                     else generated_order(found, w))
            assert generated_order(gens, w) == order, child


@pytest.mark.parametrize("k, p_max", [
    (2, 3), (2, 4), (2, 5), (3, 5), (3, 6), (3, 7), (3, 8), (3, 9), (3, 10), (3, 11), (3, 12),
])
def test_least_children_match_the_test_on_whole_trees(k, p_max):
    # every node the walk visits, pruned and maximal ones included, with
    # the group the walk carries to it
    nodes = 0
    for blocks, group in walk_with_groups(k, p_max):
        check_children(blocks, group, fresh_candidates(blocks, p_max))
        nodes += 1
    assert nodes == enumerate_mifs(k, p_max).nodes


def test_least_children_match_the_test_on_the_k4_cap_7_tree(monkeypatch):
    # every call the walk makes, checked after it; verdicts and
    # automorphisms only, as the groups near K(4) are too large to close
    # by enumeration on every child
    calls = []
    least_children = search._least_children

    def recording(blocks, group, cands):
        calls.append((blocks, [g[:] for g in group], cands))
        return least_children(blocks, group, cands)

    monkeypatch.setattr(search, "_least_children", recording)
    assert search._walk([_root(4, 7)], [], 0, 4, 7, None) == 182
    monkeypatch.setattr(search, "_least_children", least_children)
    assert len(calls) == 35
    for blocks, group, cands in calls:
        check_children(blocks, group, cands, check_order=False)


def test_least_children_refuse_a_generator_that_is_no_automorphism():
    # the generators come from the search's own walks, so one that maps a
    # block off the node is a fault of the search, not bad input
    with pytest.raises(VerificationError, match="no automorphism"):
        search._least_children(((0, 1, 2), (0, 1, 3)), [[1, 2, 0, 3]], [(0, 2, 3)])


def test_least_children_match_the_test_on_random_families():
    # random least families, intersecting or not, with their whole group
    # as the test returns it, as a list with products added, or as any
    # part of it (then only the verdicts are exact), and random candidates
    rng = random.Random(2014)
    decided = 0
    for _ in range(300):
        k = rng.choice((2, 3, 3, 4))
        v = rng.randint(k + 1, 2 * k + 2)
        pool = list(combinations(range(v), k))
        rng.shuffle(pool)
        family, size = [], rng.randint(1, 12)
        intersecting = rng.random() < 0.7
        for c in pool:
            if len(family) < size and (not intersecting or all(set(c) & set(b) for b in family)):
                family.append(c)
        blocks = least_block_list(family)
        v = max(b[-1] for b in blocks) + 1
        group = []
        assert canonical.is_least_labeling(blocks, group)
        whole = rng.random() < 0.7
        if not whole:
            group = rng.sample(group, rng.randint(0, len(group)))
        elif group and rng.random() < 0.5:
            group += [[g[h[p]] for p in range(v)]
                      for g, h in zip(rng.choices(group, k=2), rng.choices(group, k=2))]
        cands = [c for c in combinations(range(v + k - 1), k)
                 if c > blocks[-1] and [p for p in c if p >= v] == list(range(v, c[-1] + 1))]
        cands = sorted(rng.sample(cands, min(len(cands), rng.randint(1, 20))))
        if whole:
            check_children(blocks, group, cands)
        else:
            verdicts = search._least_children(blocks, group, cands)
            assert [gens is not None for gens in verdicts] == [
                canonical.is_least_labeling(blocks + (c,)) for c in cands], blocks
        decided += len(cands)
    assert decided > 2000


@pytest.mark.parametrize("k, p_max", [(2, 5), (3, 6)])
def test_carried_groups_are_whole_automorphism_groups(k, p_max):
    # each node's generators are automorphisms, and they generate the group
    # a scan of every permutation of its points finds
    nodes = 0
    for blocks, group in walk_with_groups(k, p_max):
        v = max(b[-1] for b in blocks) + 1
        scanned = automorphisms_by_scan(blocks, v)
        assert all(g in scanned for g in group), blocks
        assert generated_order(group, v) == len(scanned), blocks
        nodes += 1
    assert nodes == enumerate_mifs(k, p_max).nodes


def test_orbit_filter_bounds_the_canonical_tests(monkeypatch):
    # a deterministic work count: without the carried groups this search
    # made 399 canonical tests, 208 of them rejected; with them it decides
    # 214 candidates, and the only whole test left is the root's
    offered, skipped, tests = [], [], []
    least_children, orbit = search._least_children, canonical._orbit
    is_least = search.is_least_labeling

    def counting_least_children(blocks, group, cands):
        offered.extend(cands)
        return least_children(blocks, group, cands)

    def counting_orbit(block, gens, w, least=True):
        found = orbit(block, gens, w, least)
        if found is None:
            skipped.append(block)
        return found

    def counting_tests(blocks, automorphisms=None):
        tests.append(blocks)
        return is_least(blocks, automorphisms)

    monkeypatch.setattr(search, "_least_children", counting_least_children)
    monkeypatch.setattr(canonical, "_orbit", counting_orbit)
    monkeypatch.setattr(search, "is_least_labeling", counting_tests)
    assert enumerate_mifs(3, 9).nodes == 192
    assert len(offered) - len(skipped) == 214
    assert tests == [((0, 1, 2),)]


def count_splits(monkeypatch, run):
    """The cell splits of the canonical kernel while run() runs."""
    calls = []
    split = canonical._split

    def counting_split(*args):
        calls.append(None)
        return split(*args)

    monkeypatch.setattr(canonical, "_split", counting_split)
    result = run()
    monkeypatch.setattr(canonical, "_split", split)
    return result, len(calls)


def test_seeds_bound_the_cell_splits(monkeypatch):
    # a deterministic work count: a seeded test per child made 5328 splits
    # here, and with no seeds at all the search made 7327; one walk of each
    # node's tie tree, with sub-walks where a candidate's orbit ties, 1903
    result, splits = count_splits(monkeypatch, lambda: enumerate_mifs(3, 9))
    assert result.nodes == 192
    assert splits == 1903


def test_seeded_tests_return_the_pinned_generators(monkeypatch):
    # every candidate the node steps of enumerate_mifs(3, 9) offer, as
    # (node, candidate, verdict, generators), pinned by digest: the
    # generators a child gets depend on the walks' trees
    records = []
    least_children = search._least_children

    def recording(blocks, group, cands):
        verdicts = least_children(blocks, group, cands)
        records.extend([blocks, cand, gens is not None, gens and canonical._group(*gens)]
                       for cand, gens in zip(cands, verdicts))
        return verdicts

    monkeypatch.setattr(search, "_least_children", recording)
    assert enumerate_mifs(3, 9).nodes == 192
    assert sum(r[2] for r in records) == 191
    text = json.dumps(records, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == "f963484b01961e58"


def test_groups_are_built_only_for_expanded_nodes(monkeypatch):
    # an accepted child's group is sifted from its parts when the child is
    # expanded: at (3, 9) for 58 of the 191 accepted children, where every
    # accepted child was sifted; the root's group comes from its seedless test
    sifts, expanded = [0], [0]
    sifted, least_children = canonical._sifted, search._least_children

    def counting_sifted(*args):
        sifts[0] += 1
        return sifted(*args)

    def counting_least_children(*args):
        expanded[0] += 1
        return least_children(*args)

    monkeypatch.setattr(canonical, "_sifted", counting_sifted)
    monkeypatch.setattr(search, "_least_children", counting_least_children)
    assert enumerate_mifs(3, 9).nodes == 192
    assert sifts[0] == expanded[0] - 1 == 58
    sifts[0] = expanded[0] = 0
    assert search._walk([_root(4, 7)], [], 0, 4, 7, None) == 182
    assert sifts[0] == expanded[0] - 1 == 34


def test_k4_cap_7_finds_only_the_complete_family(monkeypatch):
    # the k=4 anchor, walked below enumerate_mifs's k guard: 182 nodes and
    # a deterministic work count of 26 398 cell splits (158 106 with a
    # seeded test per child)
    found = []
    nodes, splits = count_splits(monkeypatch, lambda: search._walk(
        [_root(4, 7)], found, 0, 4, 7, None))
    assert nodes == 182
    assert splits == 26398
    assert [least_block_list(f) for f in found] == [
        least_block_list(complete_family(4).blocks)]


def hitters_by_scan(v, size, masks):
    """The size-subsets of range(v) that meet every mask, with their masks,
    by a combinations() scan."""
    return [(c, mask_of(c)) for c in combinations(range(v), size)
            if all(mask_of(c) & m for m in masks)]


def test_hitters_match_combinations_scan():
    # the lists folded from the empty system hold exactly the k-sets that
    # meet every block and follow the last, in order, also for sequences
    # that are not least-labeled or skip points, as checkpoint records may
    rng = random.Random(1402)
    for _ in range(3000):
        k = rng.randint(1, 4)
        p_max = rng.randint(k, 14)
        pool = list(combinations(range(p_max), k))
        blocks = tuple(sorted(rng.sample(pool, rng.randint(1, min(6, len(pool))))))
        masks = [mask_of(b) for b in blocks]
        want = [e for e in hitters_by_scan(p_max, k, masks) if e[0] > blocks[-1]]
        assert _addable(blocks, p_max) == want, (p_max, blocks)


def test_root_list_reads_only_the_k_sets_that_can_meet_the_root(monkeypatch):
    # a 3-set meeting (0, 1, 2) starts at 0, 1 or 2, and those 3-sets lead
    # combinations() order: the read stops one past them, where filtering
    # every 3-set below the cap drew all C(182, 3) = 988 260
    drawn = [0]
    combos = search.combinations

    def counting_combinations(*args):
        for c in combos(*args):
            drawn[0] += 1
            yield c

    monkeypatch.setattr(search, "combinations", counting_combinations)
    record = _root(3, 182)
    assert drawn[0] <= comb(182, 3) - comb(179, 3) + 1
    assert len(record[2]) == comb(182, 3) - comb(179, 3) - 1


def test_extended_hitters_match_hitters():
    # a child's lists, derived from its parent's, equal the lists built
    # from scratch over the child's points and masks
    rng = random.Random(1701)
    for _ in range(3000):
        w = rng.randint(1, 16)
        u = rng.randint(0, w)
        old = [rng.getrandbits(u) for _ in range(rng.randint(0, 4))]
        new = rng.getrandbits(w)
        lists = [hitters_by_scan(u, s, old) for s in range(5)]
        got = _extend_hitters(lists, u, w, new)
        assert got == [hitters_by_scan(w, s, old + [new]) for s in range(5)], (u, w, old, new)


@pytest.mark.parametrize("p_max", range(5, 13))
def test_addable_matches_subset_scan_on_k3_trees(p_max):
    stack = [((0, 1, 2),)]
    while stack:
        blocks = stack.pop()
        masks = [mask_of(b) for b in blocks]
        want = [(c, mask_of(c)) for c in combinations(range(p_max), 3)
                if c > blocks[-1] and all(mask_of(c) & m for m in masks)]
        assert _addable(blocks, p_max) == want, blocks
        stack.extend(c[0] for c in _node_step(blocks, 3, ((), None), _addable(blocks, p_max))[1])


@pytest.mark.parametrize("k, p_max, total", [(2, 5, 4), (3, 7, 158), (3, 9, 192),
                                             (3, 12, 192), (4, 7, 182)])
def test_walk_derives_each_addable_list_from_the_parents(monkeypatch, k, p_max, total):
    # the list each node gets from its parent's equals the one built from
    # scratch, and only the root's is built from scratch
    built, steps = [], [0]
    addable, node_step = search._addable, search._node_step

    def counting_addable(blocks, cap):
        built.append(blocks)
        return addable(blocks, cap)

    def checked_node_step(blocks, k, group, given):
        assert given == addable(blocks, p_max), blocks
        steps[0] += 1
        return node_step(blocks, k, group, given)

    monkeypatch.setattr(search, "_addable", counting_addable)
    monkeypatch.setattr(search, "_node_step", checked_node_step)
    if k == 4:  # below enumerate_mifs's k guard
        assert search._walk([_root(k, p_max)], [], 0, k, p_max, None) == total
    else:
        assert enumerate_mifs(k, p_max).nodes == total
    assert built == [tuple([tuple(range(k))])]
    assert steps[0] == total


def test_node_step_asks_the_kernel_once(monkeypatch):
    # the threat query also decides maximality: a separate maximality
    # query made this search call the kernel 376 times
    calls = [0]
    hitting_sets = search._hitting_sets

    def counting_hitting_sets(*args):
        calls[0] += 1
        return hitting_sets(*args)

    monkeypatch.setattr(search, "_hitting_sets", counting_hitting_sets)
    assert enumerate_mifs(3, 9).nodes == 192
    assert calls[0] == 192


@pytest.mark.parametrize("p_max, kernel_nodes, kernel_calls", [
    (7, 2165, 158), (8, 2172, 182), (9, 2137, 192)])
def test_node_step_kernel_walks_a_fixed_tree(monkeypatch, p_max, kernel_nodes, kernel_calls):
    # the summed kernel nodes of the node steps' limit-k collect calls, on
    # blocks plus the used parts of the addable blocks (mixed sizes); any
    # change to the tree the kernel walks moves them
    totals = [0, 0]
    hitting_sets = search._hitting_sets

    def counting_hitting_sets(*args):
        answer = hitting_sets(*args)
        totals[0] += answer[2]
        totals[1] += 1
        return answer

    monkeypatch.setattr(search, "_hitting_sets", counting_hitting_sets)
    enumerate_mifs(3, p_max)
    assert totals == [kernel_nodes, kernel_calls]


def test_k2_enumeration_is_the_triangle():
    result = enumerate_mifs(2, 4)
    assert len(result.families) == 1
    assert result.families[0].blocks == ((0, 1), (0, 2), (1, 2))
    assert result.max_points == 3


def test_k3_small_cap_contains_complete_family():
    result = enumerate_mifs(3, 5)
    assert [f.blocks for f in result.families] == [complete_family(3).blocks]


def test_k3_full_enumeration(search39):
    assert search39.max_points == 7
    assert search39.universe_bound == 9
    assert search39.counts_by_point_count == {5: 1, 6: 5, 7: 2}
    fano_form = least_block_list(projective_plane(2).blocks)
    assert any(f.blocks == fano_form for f in search39.families)


def test_every_emitted_family_is_maximal_and_critical(search39):
    for fam in search39.families:
        assert is_mif(fam).ok
        assert is_one_critical(fam)


def test_emitted_forms_are_pairwise_distinct(search39):
    forms = [least_block_list(f.blocks) for f in search39.families]
    assert len(set(forms)) == len(forms)
    # and they are emitted already in least labeling
    for fam, form in zip(search39.families, forms):
        assert fam.blocks == form


def test_against_maximal_clique_oracle(search39):
    by_points = {}
    for fam in search39.families:
        by_points.setdefault(fam.point_count(), set()).add(fam.blocks)
    for v in (5, 6, 7, 8):
        assert oracle_mif_classes(v) == by_points.get(v, set()), f"v={v}"


def test_compute_N_values(search39):
    assert compute_N(2) == 3
    assert compute_N(3) == 7
    assert improved_upper(3) == 9  # the cap the k=3 search runs under
    assert search39.max_points <= improved_upper(3)


def test_computed_values_bracketed_by_bounds(search39):
    from miflab.bounds import conjectured_N, el_lower
    assert el_lower(2) <= compute_N(2) == conjectured_N(2)
    assert el_lower(3) <= search39.max_points <= improved_upper(3)
    assert search39.max_points == conjectured_N(3)


def test_unsupported_k():
    with pytest.raises(UnsupportedKError):
        enumerate_mifs(4, 10)
    with pytest.raises(UnsupportedKError):
        enumerate_mifs(4)  # k is checked before the default cap is taken
    with pytest.raises(UnsupportedKError):
        compute_N(4)
    with pytest.raises(ParameterOutOfRangeError):
        enumerate_mifs(3, 4)


def test_default_cap_is_the_proven_point_cap():
    assert enumerate_mifs(2).to_json() == enumerate_mifs(2, proven_point_cap(2)).to_json()


@pytest.mark.parametrize("run", [lambda: enumerate_mifs(3, 9, budget=-4),
                                 lambda: search_isp(2, 1, budget=-4)])
def test_negative_budget_is_refused(run):
    with pytest.raises(ParameterOutOfRangeError, match="budget"):
        run()


@pytest.mark.parametrize("run", [
    lambda ck: search_isp(True, 1),
    lambda ck: search_isp(2, True),
    lambda ck: search_isp(2.0, 1),
    lambda ck: compute_n(2.0, 1),
    lambda ck: compute_n(2, True),
    lambda ck: enumerate_mifs(3.0, 9),
    lambda ck: enumerate_mifs(3, 9.5),
    lambda ck: enumerate_mifs(3, True),
    lambda ck: compute_N(3.0),
    lambda ck: search_isp(2, 1, budget=2.5),
    lambda ck: search_isp(2, 1, budget=True),
    lambda ck: enumerate_mifs(3, 9, budget=2.5),
    lambda ck: enumerate_mifs(3, 9, budget=True),
    lambda ck: enumerate_mifs(3, 9, checkpoint_path=ck, checkpoint_every=0),
    lambda ck: enumerate_mifs(3, 9, checkpoint_path=ck, checkpoint_every=-3),
    lambda ck: enumerate_mifs(3, 9, checkpoint_path=ck, checkpoint_every=2.5),
], ids=["isp-bool-k", "isp-bool-t", "isp-float-k", "compute-n-float-k", "compute-n-bool-t",
        "mif-float-k", "mif-float-cap", "mif-bool-cap", "compute-N-float-k",
        "isp-float-budget", "isp-bool-budget", "mif-float-budget", "mif-bool-budget",
        "checkpoint-every-0", "checkpoint-every-negative", "checkpoint-every-float"])
def test_bad_search_parameter_is_refused(tmp_path, run):
    ck = tmp_path / "search.log"
    with pytest.raises(ParameterOutOfRangeError):
        run(ck)
    assert not ck.exists()


def test_checkpoint_every_needs_no_check_without_a_path():
    assert enumerate_mifs(2, 3, checkpoint_every=0).nodes == 3


def test_budget_checkpoint_resume(tmp_path, search39):
    ck = tmp_path / "search.log"
    with pytest.raises(BudgetExceededError) as info:
        enumerate_mifs(3, 9, budget=40, checkpoint_path=ck)
    assert info.value.nodes == 40
    assert ck.exists()
    header, *records = ck.read_text().splitlines()
    assert header.startswith("mifsearch-v1 ")
    resumed = enumerate_mifs(3, 9, resume_path=ck)
    assert resumed.to_json() == search39.to_json()
    # empty lines and lines of spaces between the records are skipped
    assert any(line.startswith("M ") for line in records)
    ck.write_text("\n".join([header, ""] + [line + "\n  " for line in records]) + "\n")
    assert enumerate_mifs(3, 9, resume_path=ck).to_json() == search39.to_json()


def test_budget_resume_in_two_hops(tmp_path, search39):
    ck1 = tmp_path / "hop1.log"
    ck2 = tmp_path / "hop2.log"
    with pytest.raises(BudgetExceededError):
        enumerate_mifs(3, 9, budget=30, checkpoint_path=ck1)
    with pytest.raises(BudgetExceededError):
        enumerate_mifs(3, 9, budget=100, checkpoint_path=ck2, resume_path=ck1)
    final = enumerate_mifs(3, 9, resume_path=ck2)
    assert final.to_json() == search39.to_json()


def test_periodic_checkpoint_resumes_to_the_same_result(tmp_path, search39):
    # 192 nodes written every 7: the last periodic write is at node 189
    ck = tmp_path / "search.log"
    done = enumerate_mifs(3, 9, checkpoint_path=ck, checkpoint_every=7)
    assert done.to_json() == search39.to_json() and done.nodes == 192
    assert ck.read_text().splitlines()[0] == 'mifsearch-v1 {"k":3,"p_max":9,"nodes":189}'
    resumed = enumerate_mifs(3, 9, resume_path=ck)
    assert resumed.to_json() == search39.to_json() and resumed.nodes == 192


def test_budget_stop_after_a_periodic_write_writes_once(tmp_path, monkeypatch):
    # with a write every 16 nodes a stop at 48 lands on the third write,
    # whose file it would write again byte for byte (4 writes before)
    writes = []
    write = search.write_checkpoint

    def counting_write(path, *args):
        writes.append(os.path.basename(path))
        write(path, *args)

    monkeypatch.setattr(search, "write_checkpoint", counting_write)
    periodic, stop_only, again = (tmp_path / name for name in ("p.log", "s.log", "r.log"))
    for path, every in ((periodic, 16), (stop_only, 1000)):
        with pytest.raises(BudgetExceededError) as info:
            enumerate_mifs(3, 9, budget=48, checkpoint_path=path, checkpoint_every=every)
        assert info.value.nodes == 48
    assert writes == ["p.log"] * 3 + ["s.log"]
    assert periodic.read_bytes() == stop_only.read_bytes()
    # a resumed walk that stops at once has written nothing yet, so it writes
    with pytest.raises(BudgetExceededError):
        enumerate_mifs(3, 9, budget=48, checkpoint_path=again, resume_path=periodic,
                       checkpoint_every=16)
    assert writes[-1] == "r.log" and again.read_bytes() == periodic.read_bytes()


def test_periodic_checkpoint_survives_a_crash(tmp_path, monkeypatch, search39):
    # the walk dies in its 50th node step; the write after node 49 stays
    ck = tmp_path / "search.log"
    node_step, calls = search._node_step, []

    def crash_on_50th(*args):
        calls.append(None)
        if len(calls) == 50:
            raise RuntimeError("simulated crash")
        return node_step(*args)

    with monkeypatch.context() as patch:
        patch.setattr(search, "_node_step", crash_on_50th)
        with pytest.raises(RuntimeError, match="simulated crash"):
            enumerate_mifs(3, 9, checkpoint_path=ck, checkpoint_every=7)
    assert ck.read_text().splitlines()[0] == 'mifsearch-v1 {"k":3,"p_max":9,"nodes":49}'
    resumed = enumerate_mifs(3, 9, resume_path=ck)
    assert resumed.to_json() == search39.to_json() and resumed.nodes == 192


def same_group(gens, others, w):
    """True iff the two lists of permutations of range(w) generate one group."""
    return generated_order(gens, w) == generated_order(others, w) == generated_order(
        list(gens) + list(others), w)


def assert_built_from_scratch(records, p_max):
    """Each record has the blocks and addable list of record_from_scratch,
    and a group that generates the group of its record."""
    for blocks, group, addable in records:
        want = record_from_scratch(blocks, p_max)
        assert (blocks, addable) == (want[0], want[2])
        w = max(b[-1] for b in blocks) + 1
        assert same_group(canonical._group(*group), canonical._group(*want[1]), w), blocks


def test_checkpoint_format_round_trip(tmp_path):
    path = tmp_path / "ck.log"
    pending = [((0, 1, 2), (0, 1, 3)), ((0, 1, 2), (0, 3, 4))]
    found = [complete_family(3).blocks]
    write_checkpoint(path, 3, 9, 123, pending, found)
    nodes, got_pending, got_found = read_checkpoint(path, 3, 9)
    assert (nodes, [r[0] for r in got_pending], got_found) == (123, pending, found)
    assert_built_from_scratch(got_pending, 9)
    with pytest.raises(FormatError):
        read_checkpoint(path, 3, 8)
    path.write_text("bogus\n")
    with pytest.raises(FormatError):
        read_checkpoint(path, 3, 9)


@pytest.mark.parametrize("header", [
    '{"k":3,"p_max":9}',
    '{"k":3,"p_max":9,"nodes":"12"}',
    '{"k":3,"p_max":9,"nodes":true}',
    '{"p_max":9,"nodes":12}',
    '{"k":3,"p_max":9.0,"nodes":12}',
    '[3,9,12]',
    '{"k":3,"p_max":9,"nodes":-500}',
    '{"k":3',  # not JSON
])
def test_checkpoint_bad_header_is_format_error(tmp_path, header):
    path = tmp_path / "ck.log"
    path.write_text(f"mifsearch-v1 {header}\nF 0,1,2\n")
    with pytest.raises(FormatError):
        read_checkpoint(path, 3, 9)


@pytest.mark.parametrize("record", [
    "F 0,1",            # a block that is no 3-set: resumed as 1 node, 0 families
    "F 0,1,2|0,1,99",   # a point beyond p_max: resumed as 0 families
    "M 5,4,3",          # an unsorted block: reported as a family on 3 points
    "F 0,1,2|0,1,2",    # blocks not strictly increasing
    "F 0,1,3",          # first block is not the root block
    "M 0,1,2|0,-1,3",   # a negative point
    "F 0,1,2|0,3,3",    # a repeated point
    "F 0,1,2|3,4,5",    # disjoint blocks: resumed as 0 families
    "M 0,1,2|0,3,4",    # not maximal: reported as a family on 5 points
    # a 6-point class with points 3 and 5 swapped, so not in least labeling:
    # either record adds a ninth class
    "M 0,1,2|0,1,4|0,1,5|0,2,4|0,2,5|0,3,4|0,3,5|1,2,3|1,4,5|2,4,5",
    "F 0,1,2|0,1,4|0,1,5|0,2,4|0,2,5|0,3,4|0,3,5|1,2,3|1,4,5|2,4,5",
    "F 0,1,2|0,3,5",    # not in least labeling: resumed as 1 node, 0 families
    "X 0,1,2",          # an unknown tag
    "F 0,1,a",          # a point that is no integer
])
def test_checkpoint_bad_record_is_format_error(tmp_path, record):
    path = tmp_path / "ck.log"
    path.write_text('mifsearch-v1 {"k":3,"p_max":9,"nodes":0}\n' + record + "\n")
    with pytest.raises(FormatError):
        enumerate_mifs(3, 9, resume_path=path)


def test_resume_builds_each_record_once(tmp_path, monkeypatch, search39):
    # the 23 pending (F) records of a 100-node stop share 5 parents on the
    # walk's path: reading them replays that path with one _least_children
    # call per parent, the root and the 5 maximal (M) records get a seedless
    # test, and only the root an _addable call, where building every record
    # from scratch made 28 of each and building the M records from scratch 6
    # _addable calls.  The walk takes the records as they are, where building
    # the F lists again when it reached them made 51 _addable calls
    ck = tmp_path / "search.log"
    with pytest.raises(BudgetExceededError):
        enumerate_mifs(3, 9, budget=100, checkpoint_path=ck)
    records = ck.read_text().splitlines()[1:]
    calls = Counter()
    for name in ("_addable", "is_least_labeling", "_least_children"):
        def counting(*args, _name=name, _function=getattr(search, name)):
            calls[_name] += 1
            return _function(*args)
        monkeypatch.setattr(search, name, counting)
    _, pending, found = read_checkpoint(ck, 3, 9)
    assert (len(records), len(pending), len(found)) == (28, 23, 5)
    assert calls == {"_addable": 1, "is_least_labeling": 6, "_least_children": 5}
    calls.clear()
    resumed = enumerate_mifs(3, 9, resume_path=ck)
    assert resumed.to_json() == search39.to_json()
    assert (calls["_addable"], calls["is_least_labeling"]) == (1, 6)


def test_replayed_records_match_records_built_from_scratch(tmp_path, search39):
    # every budget stop of the (3, 9) walk writes the same file with a
    # periodic write every 16 nodes as with none; its pending records read
    # back have the blocks and addable lists of record_from_scratch and
    # generate its groups, and the resumed run is the plain one
    plain, periodic = tmp_path / "plain.log", tmp_path / "periodic.log"
    checked: set = set()
    for budget in range(1, 192):
        for ck, every in ((plain, 50000), (periodic, 16)):
            with pytest.raises(BudgetExceededError):
                enumerate_mifs(3, 9, budget=budget, checkpoint_path=ck, checkpoint_every=every)
        assert plain.read_bytes() == periodic.read_bytes(), budget
        _, pending, _ = read_checkpoint(plain, 3, 9)
        assert [r[0] for r in pending] == [search._record_to_blocks(line[2:], 3, 9)
                                           for line in plain.read_text().splitlines()
                                           if line.startswith("F ")]
        fresh = []
        for record in pending:
            key = (record[0], json.dumps(canonical._group(*record[1])))
            if key not in checked:
                checked.add(key)
                fresh.append(record)
        assert_built_from_scratch(fresh, 9)
        assert enumerate_mifs(3, 9, resume_path=plain).to_json() == search39.to_json(), budget


def mutated_checkpoint(rng, lines):
    """A budget-stop checkpoint with one F record mutated: a point swapped,
    a block dropped or added, a fresh id skipped, or a sibling added that
    its parent's group maps below itself."""
    records = [i for i, line in enumerate(lines) if line.startswith("F ")]
    i = rng.choice(records)
    blocks = [list(b) for b in search._record_to_blocks(lines[i][2:], 3, 9)]
    kind = rng.choice(("swap", "drop", "add", "skip", "sibling"))
    if kind == "swap":
        p, q = rng.sample(range(3, 9), 2)
        swap = {p: q, q: p}
        blocks = [sorted(swap.get(x, x) for x in b) for b in blocks]
    elif kind == "drop" and len(blocks) > 1:
        del blocks[rng.randrange(1, len(blocks))]
    elif kind == "add":
        blocks.append(list(rng.choice(list(combinations(range(9), 3)))))
    elif kind == "skip":
        top = max(max(b) for b in blocks)
        blocks = [[x + (x == top and top < 8) for x in b] for b in blocks]
    elif kind == "sibling" and len(blocks) > 1:
        parent = tuple(map(tuple, blocks[:-1]))
        gens = canonical._group(*record_from_scratch(parent, 9)[1])
        images = [sorted(g[x] if x < len(g) else x for x in blocks[-1]) for g in gens]
        above = [b for b in images if b > blocks[-1] and tuple(b) not in parent]
        if above:
            sibling = "F " + search._blocks_to_record(blocks[:-1] + [rng.choice(above)])
            return lines[:i + 1] + [sibling] + lines[i + 1:], kind
    blocks = sorted(map(list, {tuple(b) for b in blocks}))
    return lines[:i] + ["F " + search._blocks_to_record(blocks)] + lines[i + 1:], kind


def test_mutated_checkpoints_are_read_exactly_when_every_record_is_least(tmp_path):
    # a checkpoint is accepted iff every line parses, every F record is in
    # least labeling, and no pending record repeats or lies below another
    rng = random.Random(2611)
    ck = tmp_path / "ck.log"
    stops = {}
    verdicts = Counter()
    for _ in range(320):
        budget = rng.randint(1, 191)
        if budget not in stops:
            with pytest.raises(BudgetExceededError):
                enumerate_mifs(3, 9, budget=budget, checkpoint_path=ck)
            stops[budget] = ck.read_text().splitlines()
        lines, kind = mutated_checkpoint(rng, stops[budget])
        ck.write_text("\n".join(lines) + "\n")
        try:
            pending = [search._record_to_blocks(line[2:], 3, 9)
                       for line in lines[1:] if line.startswith("F ")]
            want = all(canonical.is_least_labeling(b) for b in pending) and not any(
                a[:len(b)] == b for a, b in permutations(pending, 2))
        except FormatError:
            want = False
        verdicts[kind, want] += 1
        if want:
            _, records, _ = read_checkpoint(ck, 3, 9)
            assert [r[0] for r in records] == pending
            assert [r[2] for r in records] == [_addable(b, 9) for b in pending]
        else:
            with pytest.raises(FormatError):
                read_checkpoint(ck, 3, 9)
    assert sum(verdicts.values()) == 320, verdicts
    assert all(verdicts[kind, False] for kind in ("swap", "drop", "add", "skip", "sibling"))
    assert sum(verdicts[kind, True] for kind in ("swap", "drop", "add")) >= 20


def test_repeated_or_nested_pending_records_are_format_errors(tmp_path):
    # the walk never writes a pending record twice, or one below another;
    # resumed, a 100-node stop with its last F line repeated made 204 nodes
    # and one with a pending record's child added 193, against 192
    ck = tmp_path / "ck.log"
    with pytest.raises(BudgetExceededError):
        enumerate_mifs(3, 9, budget=100, checkpoint_path=ck)
    lines = ck.read_text().splitlines()
    last = max(i for i, line in enumerate(lines) if line.startswith("F "))
    child = next(children[0][0] for children in (
        _node_step(blocks, 3, group, addable)[1]
        for blocks, group, addable in read_checkpoint(ck, 3, 9)[1]) if children)
    for extra in (lines[last], "F " + search._blocks_to_record(child)):
        for at in (last, last + 1):
            ck.write_text("\n".join(lines[:at] + [extra] + lines[at:]) + "\n")
            with pytest.raises(FormatError, match="another pending record"):
                enumerate_mifs(3, 9, resume_path=ck)
    write_checkpoint(ck, 3, 9, 0, [((0, 1, 2),), ((0, 1, 2), (0, 3, 4))], [])
    with pytest.raises(FormatError, match="another pending record"):
        read_checkpoint(ck, 3, 9)


def test_non_utf8_checkpoint_is_format_error(tmp_path):
    # the library reports the bad byte itself, not only the command line
    path = tmp_path / "ck.log"
    path.write_bytes(b'mifsearch-v1 {"k":3,"p_max":9,"nodes":0}\nF 0,1,2\xff\n')
    with pytest.raises(FormatError, match="UTF-8"):
        enumerate_mifs(3, 9, resume_path=path)


def test_checkpoint_write_failure_keeps_previous(tmp_path, monkeypatch):
    path = tmp_path / "ck.log"
    write_checkpoint(path, 3, 9, 7, [((0, 1, 2),)], [])
    before = path.read_bytes()

    def failing_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr("miflab.search.os.fsync", failing_fsync)
    with pytest.raises(OSError, match="disk full"):
        write_checkpoint(path, 3, 9, 99, [((0, 1, 2), (0, 3, 4))], [])
    assert path.read_bytes() == before
    assert read_checkpoint(path, 3, 9) == (7, [_root(3, 9)], [])
    assert [p.name for p in tmp_path.iterdir()] == ["ck.log"]


def isp_value_oracle_t1(k, n_pairs_cap):
    """Closed-form check for t=1: with n >= 2 pairs, each left set must
    contain every other right-side point, so points = n + n*(k-n+1) when
    k >= n-1; the best over n is compared against the search."""
    best = k + 1  # single pair
    for n in range(2, n_pairs_cap + 1):
        if k - (n - 1) < 0:
            continue
        best = max(best, n + n * (k - (n - 1)))
    return best


def test_compute_n_values():
    assert compute_n(2, 1) == 4
    assert compute_n(3, 1) == 6
    assert compute_n(2, 2) == 6


def test_compute_n_t1_against_closed_form():
    assert compute_n(2, 1) == isp_value_oracle_t1(2, comb(3, 2))
    assert compute_n(3, 1) == isp_value_oracle_t1(3, comb(4, 3))


def test_n31_matches_conjecture_formula():
    assert compute_n(3, 1) == tuza_conjecture_value(3, 1)


def test_n22_caps():
    # upper bound from the point-count formula, lower bound by the witness
    assert compute_n(2, 2) == tuza_nkt_upper(2, 2) == 6


def test_n21_boundary_discrepancy():
    assert compute_n(2, 1) == 4
    assert tuza_nkt_upper(2, 1) == 3  # flagged boundary case, not asserted as a bound


def test_isp_symmetry():
    assert search_isp(1, 2).max_points == compute_n(2, 1)


def test_isp_witness_is_valid():
    result = search_isp(2, 2)
    assert result.max_points == 6
    verdict = validate_isp(result.witness)
    assert verdict.ok
    assert result.witness.point_count() == 6
    assert bollobas_sum(result.witness) <= 1


def test_isp_pair_count_cap():
    result = search_isp(2, 1)
    assert len(result.witness.pairs) <= comb(3, 2)


def test_compute_n_whitelist():
    with pytest.raises(UnsupportedParamsError):
        compute_n(4, 2)
    # outside the whitelist, search_isp still searches under its budget
    assert search_isp(4, 1).max_points == isp_value_oracle_t1(4, comb(5, 4)) == 9


def reference_search_isp(k, t, *, budget=50_000_000):
    """Oracle for search_isp: the recursive search it replaced, with
    hand-written candidate loops for each side of a new pair."""
    n_max = comb(k + t, k)
    first = (tuple(range(k)), tuple(range(k, k + t)))
    state = [(mask_of(first[0]), mask_of(first[1]))]
    pair_tuples = [first]
    best = [k + t, list(pair_tuples)]
    nodes = [0]
    per_pair_gain = k + t - 2

    def dfs(u):
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
        for fresh_a in range(k, -1, -1):
            a_tail = tuple(range(u, u + fresh_a))
            a_tail_mask = mask_of(a_tail)
            for a_old in combinations(range(u), k - fresh_a):
                am = mask_of(a_old) | a_tail_mask
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


@cache
def subsets_with_masks(u, size):
    """Every size-subset of range(u) in combinations() order, with its mask."""
    return [(c, mask_of(c)) for c in combinations(range(u), size)]


def reference_isp_children(k, t, pairs, u):
    """Oracle for search._isp_children: scan every old part of each side
    once per node, then pair each A with the old parts of B that miss it."""
    amasks = [mask_of(a) for a, _ in pairs]
    bmasks = [mask_of(b) for _, b in pairs]

    def old_parts(size, masks):
        # the size-subsets of the points below u that meet every mask
        parts = subsets_with_masks(u, size)
        for m in masks:
            parts = [part for part in parts if part[1] & m]
        return parts

    # a fresh point lies in no older mask, so a side meets those masks iff
    # its old part does; B's old points lie below u, outside A's fresh ones
    a_olds = [old_parts(s, bmasks) for s in range(k + 1)]
    b_olds = [old_parts(s, amasks) for s in range(t + 1)]
    for fresh_a in range(k, -1, -1):
        ua = u + fresh_a
        a_tail = tuple(range(u, ua))
        for a_old, _ in a_olds[k - fresh_a]:
            a = a_old + a_tail
            am = mask_of(a)
            for fresh_b in range(t, -1, -1):
                ub = ua + fresh_b
                b_tail = tuple(range(ua, ub))
                for b_old, b_old_mask in b_olds[t - fresh_b]:
                    if not b_old_mask & am:
                        yield pairs + ((a, b_old + b_tail),), am, mask_of(b_old + b_tail), ub


@pytest.mark.parametrize("k, t, budget", [(3, 2, 3000), (2, 3, 5000), (3, 3, 5000),
                                          (4, 2, 5000), (4, 3, 2000), (5, 2, 2000),
                                          (1, 4, 3000)])
def test_isp_children_match_subset_scan(monkeypatch, k, t, budget):
    isp_children = search._isp_children
    seen = [0]

    def checked(*node):
        # node is the parent's (k, t, pairs, u) and its lists
        want = reference_isp_children(*node[:4])
        for child in isp_children(*node):
            assert child == next(want, None)
            seen[0] += 1
            yield child
        assert next(want, None) is None

    monkeypatch.setattr(search, "_isp_children", checked)
    try:
        nodes = search_isp(k, t, budget=budget).nodes
    except BudgetExceededError as info:
        nodes = info.nodes
        assert nodes == budget + 1
    else:
        assert (k, t, nodes) == (1, 4, 741)  # the one tree within its budget
    # each node after the root is a child the walk took
    assert nodes == seen[0] + 1


def test_isp_lists_are_built_only_at_the_root(monkeypatch):
    # only the root's two lists start from the empty system, at u = 0;
    # every other node derives its lists from its parent's, whose u > 0.
    # Rebuilding them from scratch at each node was the bulk of the search
    starts = []
    extend_hitters = search._extend_hitters

    def recording_extend_hitters(lists, u, w, mask):
        starts.append(u)
        return extend_hitters(lists, u, w, mask)

    monkeypatch.setattr(search, "_extend_hitters", recording_extend_hitters)
    with pytest.raises(BudgetExceededError) as info:
        search_isp(3, 2, budget=3000)
    assert info.value.nodes == 3001
    assert starts.count(0) == 2 and starts[:2] == [0, 0]
    assert len(starts) > 2


@pytest.mark.parametrize("k, t", [(2, 1), (3, 1), (2, 2), (1, 2), (1, 3), (4, 1)])
def test_search_isp_matches_recursive_reference(k, t):
    assert search_isp(k, t).to_json() == reference_search_isp(k, t).to_json()


@pytest.mark.parametrize("budget", [1, 10, 3000])
def test_search_isp_budget_stop_matches_recursive_reference(budget):
    # a node is counted before the budget is checked: a stop reports budget + 1
    for k, t in [(3, 2), (4, 2), (2, 3)]:
        stops = []
        for run in (search_isp, reference_search_isp):
            with pytest.raises(BudgetExceededError) as info:
                run(k, t, budget=budget)
            stops.append(info.value.nodes)
        assert stops == [budget + 1] * 2, (k, t)


def test_isp_list_guard():
    # refused iff the lists of a node one pair below the root could exceed
    # the limit; a zero budget stops at the root, before anything is built
    refused = set()
    for k in range(1, 13):
        for t in range(1, 13):
            try:
                search_isp(k, t, budget=0)
            except UnsupportedParamsError:
                refused.add((k, t))
            except BudgetExceededError:
                pass

    def entries(k, t):
        return sum(comb(2 * (k + t), s) for side in (k, t) for s in range(side + 1))

    assert refused == {(k, t) for k in range(1, 13) for t in range(1, 13)
                       if entries(k, t) > MAX_LIST_ENTRIES}
    assert (6, 6) not in refused and (7, 7) in refused


ADDRESS_LIMIT = 512 << 20


def run_with_address_limit(*args):
    """Run the interpreter on args in a child process whose address space is
    capped, so a runaway allocation ends there in a MemoryError instead of
    exhausting the host."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))

    src = os.path.dirname(os.path.dirname(search.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=120, preexec_fn=cap, env=dict(os.environ, PYTHONPATH=path))


def test_huge_isp_is_refused_before_allocating():
    code = ("from miflab.errors import UnsupportedParamsError\n"
            "from miflab.search import search_isp\n"
            "try:\n"
            "    search_isp(9, 9, budget=5)\n"
            "except UnsupportedParamsError as exc:\n"
            "    print('refused:', exc)\n")
    run = run_with_address_limit("-c", code)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    assert run.stdout.startswith("refused: (9, 9) is too large")


@pytest.mark.parametrize("k, p_max", [(3, 183), (3, 10**9), (2, 1415)])
def test_huge_cap_is_refused(k, p_max):
    # the bound is on the k-sets below the cap, not on the root's list: that
    # list has fewer entries, C(p_max, k) - C(p_max - k, k) - 1, but each is
    # a p_max-bit mask, and those bits number at most k^2 C(p_max, k)
    assert comb(p_max, k) > MAX_LIST_ENTRIES
    with pytest.raises(UnsupportedParamsError, match="too large"):
        enumerate_mifs(k, p_max, budget=5)


def test_huge_cap_is_refused_before_allocating():
    code = ("from miflab.errors import UnsupportedParamsError\n"
            "from miflab.search import enumerate_mifs\n"
            "try:\n"
            "    enumerate_mifs(3, 1000, budget=5)\n"
            "except UnsupportedParamsError as exc:\n"
            "    print('refused:', exc)\n")
    run = run_with_address_limit("-c", code)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    assert run.stdout.startswith("refused: p_max = 1000 is too large")


def test_isp_budget():
    with pytest.raises(BudgetExceededError):
        search_isp(2, 2, budget=10)


def test_search_result_json_deterministic(search39):
    assert search39.to_json() == enumerate_mifs(3, 9).to_json()
