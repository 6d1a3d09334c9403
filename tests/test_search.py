import random
import sys
from itertools import combinations
from math import comb

import pytest

from miflab import search
from miflab.bounds import (improved_upper, proven_point_cap, tuza_conjecture_value,
                           tuza_nkt_upper)
from miflab.canonical import least_block_list
from miflab.constructions import complete_family, projective_plane
from miflab.errors import (BudgetExceededError, FormatError, ParameterOutOfRangeError,
                           UnsupportedKError, UnsupportedParamsError)
from miflab.family import mask_of
from miflab.isp import SetPairSystem, bollobas_sum, validate_isp
from miflab.mif import is_mif, is_one_critical
from miflab.search import (IspSearchResult, _node_step, _subsets, compute_n, compute_N,
                           enumerate_mifs, read_checkpoint, search_isp, write_checkpoint)


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


@pytest.mark.parametrize("k, p_max, total", [
    (2, 3, 3), (2, 4, 4), (2, 5, 4),
    (3, 5, 20), (3, 6, 97), (3, 7, 158), (3, 8, 182), (3, 9, 192),
])
def test_node_step_matches_subset_scan_on_whole_trees(k, p_max, total):
    stack = [(tuple(range(k)),)]
    nodes = 0
    while stack:
        blocks = stack.pop()
        nodes += 1
        step = _node_step(blocks, k, p_max)
        assert step == reference_node_step(blocks, k, p_max), blocks
        stack.extend(step[1])
    assert nodes == total
    assert enumerate_mifs(k, p_max).nodes == total


def test_node_step_matches_subset_scan_on_random_descents(monkeypatch):
    # every fresh-id child is kept, so the descents reach nodes that are
    # not least-labeled, and k = 4, which the search refuses
    monkeypatch.setattr(search, "is_least_labeling", lambda blocks: True)
    rng = random.Random(20140)
    steps = 0
    for _ in range(1000):
        k = rng.choice((2, 3, 4))
        p_max = rng.randint(2 * k - 1, 2 * k + 4)
        blocks = (tuple(range(k)),)
        while True:
            step = _node_step(blocks, k, p_max)
            assert step == reference_node_step(blocks, k, p_max), (k, p_max, blocks)
            steps += 1
            if not step[1]:
                break
            blocks = rng.choice(step[1])
    assert steps > 2500


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


def test_budget_checkpoint_resume(tmp_path, search39):
    ck = tmp_path / "search.log"
    with pytest.raises(BudgetExceededError) as info:
        enumerate_mifs(3, 9, budget=40, checkpoint_path=ck)
    assert info.value.nodes == 40
    assert ck.exists()
    header = ck.read_text().splitlines()[0]
    assert header.startswith("mifsearch-v1 ")
    resumed = enumerate_mifs(3, 9, resume_path=ck)
    assert resumed.to_json() == search39.to_json()


def test_budget_resume_in_two_hops(tmp_path, search39):
    ck1 = tmp_path / "hop1.log"
    ck2 = tmp_path / "hop2.log"
    with pytest.raises(BudgetExceededError):
        enumerate_mifs(3, 9, budget=30, checkpoint_path=ck1)
    with pytest.raises(BudgetExceededError):
        enumerate_mifs(3, 9, budget=100, checkpoint_path=ck2, resume_path=ck1)
    final = enumerate_mifs(3, 9, resume_path=ck2)
    assert final.to_json() == search39.to_json()


def test_checkpoint_format_round_trip(tmp_path):
    path = tmp_path / "ck.log"
    pending = [((0, 1, 2),), ((0, 1, 2), (0, 3, 4))]
    found = [complete_family(3).blocks]
    write_checkpoint(path, 3, 9, 123, pending, found)
    nodes, got_pending, got_found = read_checkpoint(path, 3, 9)
    assert (nodes, got_pending, got_found) == (123, pending, found)
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
])
def test_checkpoint_bad_record_is_format_error(tmp_path, record):
    path = tmp_path / "ck.log"
    path.write_text('mifsearch-v1 {"k":3,"p_max":9,"nodes":0}\n' + record + "\n")
    with pytest.raises(FormatError):
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
    assert read_checkpoint(path, 3, 9) == (7, [((0, 1, 2),)], [])
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


@pytest.mark.parametrize("k, t", [(2, 1), (3, 1), (2, 2), (1, 2), (1, 3), (4, 1)])
def test_search_isp_matches_recursive_reference(k, t):
    assert search_isp(k, t).to_json() == reference_search_isp(k, t).to_json()


@pytest.mark.parametrize("budget", [1, 10, 3000])
def test_search_isp_budget_stop_matches_recursive_reference(budget):
    # a node is counted before the budget is checked: a stop reports budget + 1
    stops = []
    for run in (search_isp, reference_search_isp):
        with pytest.raises(BudgetExceededError) as info:
            run(3, 2, budget=budget)
        stops.append(info.value.nodes)
    assert stops == [budget + 1] * 2


def test_isp_budget():
    with pytest.raises(BudgetExceededError):
        search_isp(2, 2, budget=10)


def test_search_result_json_deterministic(search39):
    assert search39.to_json() == enumerate_mifs(3, 9).to_json()
