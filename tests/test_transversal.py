import random

import pytest

from miflab.constructions import bg_family, complete_family, projective_plane, triangle
from miflab.errors import EmptyBlockError, OracleTooLargeError
from miflab.family import Family
from miflab.transversal import (INFINITE_TAU, brute_force_transversals, tau,
                                tau_with_nodes, transversal_family)
from miflab.verify import random_uniform_family


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
