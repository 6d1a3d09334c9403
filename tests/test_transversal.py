import random

import pytest

from miflab import isp, search, transversal
from miflab.constructions import bg_family, complete_family, projective_plane, triangle
from miflab.errors import EmptyBlockError, OracleTooLargeError
from miflab.family import Family, mask_of
from miflab.isp import extract_isp
from miflab.mif import collapse
from miflab.search import enumerate_mifs
from miflab.transversal import (INFINITE_TAU, _hitting_sets, brute_force_transversals,
                                tau, tau_with_nodes, transversal_family)
from miflab.verify import random_uniform_family


def reference_hitting_sets(masks, collect, limit=None):
    """The kernel's branch and bound with every child pushed and popped,
    its last level included, and the packing bound always counted in full:
    a slow oracle for the size, the found list in order and the node count."""
    top = len(masks) if limit is None else limit
    best = top if collect else top + 1
    slack = 0 if collect else 1
    found = []
    nodes = 0
    stack = [(0, 0, list(masks), 0, 0)]
    while stack:
        chosen, depth, parent, bit, forbid = stack.pop()
        nodes += 1
        if depth + slack > best:
            continue
        if forbid:
            keep = ~forbid
            uncovered = [m & keep for m in parent if not m & bit]
            if 0 in uncovered:
                continue
        else:
            uncovered = [m for m in parent if not m & bit]
        if not uncovered:
            if depth < best:
                best, found = depth, [chosen]
            else:
                found.append(chosen)
            continue
        bound = depth + slack
        union = 0
        for m in uncovered:
            if not m & union:
                bound += 1
                union |= m
        if bound > best:
            continue
        block = min(uncovered, key=int.bit_count)
        order = []
        rest = block
        while rest:
            low = rest & -rest
            order.append((-(sum(map(low.__and__, uncovered)) // low), low))
            rest ^= low
        order.sort(reverse=True)
        for _, low in order:
            block ^= low
            stack.append((chosen | low, depth + 1, uncovered, low, block))
    return (best if found else top + 1), found, nodes


def test_tau_single_block():
    for k in (1, 2, 5):
        assert tau(Family([range(k)], k)) == 1


def test_tau_bg_family_is_t():
    assert tau(bg_family(3, 2).family) == 2
    assert tau(bg_family(4, 3).family) == 3


def test_tau_fano_by_brute_force():
    fano = projective_plane(2)
    assert tau(fano) == 3
    assert brute_force_transversals(fano).tau == 3


def test_tau_degenerate():
    assert tau(Family([], 3)) == 0
    assert tau(Family([[], [0]], 2)) == INFINITE_TAU


def test_transversal_family_single_edge():
    rep = transversal_family(Family([[0, 1]], 2))
    assert rep.tau == 1
    assert rep.transversals.blocks == ((0,), (1,))


def test_transversal_family_triangle():
    rep = transversal_family(triangle())
    assert rep.tau == 2
    assert rep.transversals.blocks == ((0, 1), (0, 2), (1, 2))


def test_transversal_family_bg_closed_form():
    bg = bg_family(3, 2)
    rep = transversal_family(bg.family)
    assert rep.transversals.blocks == bg.expected_transversals.blocks
    assert rep.transversals.point_count() == 6
    assert len(rep.transversals) == 6


def test_transversal_family_fano_is_self():
    fano = projective_plane(2)
    rep = transversal_family(fano)
    assert rep.transversals.blocks == fano.blocks
    oracle = brute_force_transversals(fano)
    assert oracle.transversals.blocks == fano.blocks


def test_transversal_family_empty_family():
    rep = transversal_family(Family([], 3))
    assert rep.tau == 0
    assert rep.transversals.blocks == ((),)


def test_empty_block_rejected():
    bad = Family([[], [0]], 2)
    with pytest.raises(EmptyBlockError):
        transversal_family(bad)
    with pytest.raises(EmptyBlockError):
        brute_force_transversals(bad)


def test_brute_force_point_guard():
    fam = Family([range(21)], 21)
    with pytest.raises(OracleTooLargeError):
        brute_force_transversals(fam)


def test_brute_force_single_point():
    rep = brute_force_transversals(Family([[0]], 1))
    assert rep.tau == 1 and rep.transversals.blocks == ((0,),)


def test_differential_against_oracle():
    rng = random.Random(2024)
    for i in range(500):
        k = (2, 3, 4)[i % 3]
        fam = random_uniform_family(rng, k)
        fast = transversal_family(fam)
        slow = brute_force_transversals(fam)
        assert fast.tau == slow.tau
        assert tau(fam) == slow.tau
        assert fast.transversals.blocks == slow.transversals.blocks
        assert len(fast.transversals) <= k ** fast.tau


def test_transversals_are_minimal_blocking_sets():
    rng = random.Random(55)
    from itertools import combinations
    for _ in range(50):
        fam = random_uniform_family(rng, rng.choice((2, 3)), max_points=9)
        rep = transversal_family(fam)
        for t in rep.transversals.blocks:
            assert fam.is_blocking_set(t)
            for smaller in combinations(t, len(t) - 1):
                assert not fam.is_blocking_set(smaller)


def test_tau_monotone_under_subfamilies():
    rng = random.Random(77)
    for _ in range(100):
        fam = random_uniform_family(rng, rng.choice((2, 3)), max_points=10)
        keep = [b for b in fam.blocks if rng.random() < 0.6]
        sub = Family(keep, fam.universe_size)
        if not sub.blocks:
            continue
        assert tau(sub) <= tau(fam)


def test_adding_block_raises_tau_by_at_most_one():
    rng = random.Random(88)
    from itertools import combinations
    for _ in range(60):
        fam = random_uniform_family(rng, 3, max_points=8)
        v = fam.universe_size
        extra = rng.choice(list(combinations(range(v), 3)))
        bigger = Family(list(fam.blocks) + [extra], v)
        assert tau(fam) <= tau(bigger) <= tau(fam) + 1


def test_node_counts_are_deterministic():
    fam = bg_family(4, 2).family
    a = transversal_family(fam)
    b = transversal_family(fam)
    assert a.nodes == b.nodes


@pytest.mark.parametrize("build, collect_nodes, tau_nodes", [
    (lambda: bg_family(4, 2).family, 15, 9),
    (lambda: bg_family(5, 3).family, 56, 25),
    (lambda: projective_plane(3), 133, 17),
    (lambda: complete_family(5), 252, 110),
])
def test_kernel_walks_a_fixed_tree(build, collect_nodes, tau_nodes):
    # node counts of both prune modes; any change to the children's order,
    # the packing bound or the pruning moves them
    fam = build()
    assert transversal_family(fam).nodes == collect_nodes
    assert tau_with_nodes(fam)[1] == tau_nodes


def test_kernel_walks_a_fixed_tree_on_random_families():
    rng = random.Random(2121)
    collect_nodes = tau_nodes = 0
    for i in range(200):
        fam = random_uniform_family(rng, (3, 4, 5, 6)[i % 4], max_points=16)
        collect_nodes += transversal_family(fam).nodes
        tau_nodes += tau_with_nodes(fam)[1]
    assert (collect_nodes, tau_nodes) == (5553, 2507)


def test_differential_non_uniform_families():
    # the operations are defined for mixed block sizes too
    rng = random.Random(555)
    for i in range(300):
        v = rng.randint(1, 10)
        blocks = [rng.sample(range(v), rng.randint(1, min(4, v)))
                  for _ in range(rng.randint(1, 10))]
        fam = Family(blocks, v)
        fast = transversal_family(fam)
        slow = brute_force_transversals(fam)
        assert fast.tau == slow.tau
        assert tau(fam) == slow.tau
        assert fast.transversals.blocks == slow.transversals.blocks


def test_deep_input_has_no_recursion_limit():
    # one branching level per block: 1100 levels, beyond the default recursion limit
    fam = Family([(i,) for i in range(1100)], 1100)
    assert tau(fam) == 1100
    rep = transversal_family(fam)
    assert rep.tau == 1100
    assert rep.transversals.blocks == (tuple(range(1100)),)


def random_masks(rng, uniform):
    """1-40 non-empty masks on up to 24 points, of one size or of sizes
    1-6, with duplicates and, when the sizes are mixed, nested masks."""
    v = rng.randint(1, 24)
    size = rng.randint(1, min(6, v))
    masks = []
    for _ in range(rng.randint(1, 40)):
        roll = rng.random()
        if masks and roll < 0.15:
            masks.append(rng.choice(masks))
        elif masks and roll < 0.3 and not uniform:
            m = rng.choice(masks)
            grow = rng.random() < 0.5 or m.bit_count() == 1
            masks.append(m | 1 << rng.randrange(v) if grow else m & (m - 1))
        else:
            points = rng.sample(range(v), size if uniform else rng.randint(1, min(6, v)))
            masks.append(mask_of(points))
    return masks


def test_kernel_matches_reference_on_random_masks():
    # both modes at every limit the callers use: none, 0, 1, the largest
    # block size k and tau - 1, where no set fits and the answer is limit + 1
    rng = random.Random(2828)
    answers = {"fit": 0, "none fit": 0, "tau mode": 0, "collect mode": 0}
    for i in range(600):
        masks = random_masks(rng, uniform=i % 2 == 0)
        t = reference_hitting_sets(masks, False)[0]
        k = max(map(int.bit_count, masks))
        for limit in (None, 0, 1, k, t - 1):
            for collect in (False, True):
                want = reference_hitting_sets(masks, collect, limit)
                assert _hitting_sets(masks, collect, limit) == want, (masks, collect, limit)
                answers["fit" if want[1] else "none fit"] += 1
                answers["collect mode" if collect else "tau mode"] += 1
    assert min(answers.values()) >= 1000, answers


def record_kernel_calls(monkeypatch, modules, run):
    """Run run() with the kernel, as the modules look it up, recording
    each call's arguments and answer."""
    calls = []

    def recording_hitting_sets(masks, collect, limit=None):
        answer = _hitting_sets(masks, collect, limit)
        calls.append(((list(masks), collect, limit), answer))
        return answer

    for module in modules:
        monkeypatch.setattr(module, "_hitting_sets", recording_hitting_sets)
    run()
    return calls


@pytest.mark.parametrize("k, p_max", [(2, 3), (2, 4), (2, 5), (3, 5), (3, 6), (3, 7),
                                      (3, 8), (3, 9)])
def test_kernel_matches_reference_on_node_steps(monkeypatch, k, p_max):
    # the node step's limit-k collect calls on blocks plus the used parts
    # of the addable blocks, which mix the block sizes
    calls = record_kernel_calls(monkeypatch, [search], lambda: enumerate_mifs(k, p_max))
    assert calls
    for args, answer in calls:
        assert answer == reference_hitting_sets(*args), args


def test_kernel_matches_reference_on_extraction_and_collapse(monkeypatch):
    # set-pair extraction's deletion tests (the tau mode, limit t - 1),
    # which the 8 maximal families of triples and PG(2,3) make, and the
    # transversal families behind extraction (of the input and of the kept
    # blocks), collapse's maximality test, merges and final check, on those
    # families, K(4) and K(5)
    families = list(enumerate_mifs(3).families)
    families += [complete_family(4), complete_family(5), projective_plane(3)]

    def run():
        for fam in families:
            extract_isp(fam)
            collapse(fam, min(fam.point_set()))
            collapse(fam, max(fam.point_set()))

    calls = record_kernel_calls(monkeypatch, [isp, transversal], run)
    assert {(collect, limit is None) for (_, collect, limit), _ in calls} == {
        (True, True), (False, False)}
    for args, answer in calls:
        assert answer == reference_hitting_sets(*args), args
