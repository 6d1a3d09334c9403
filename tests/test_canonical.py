import random
from itertools import combinations, permutations

import pytest

from miflab import canonical
from miflab.canonical import is_least_labeling, least_block_list
from miflab.constructions import bg_family, complete_family, projective_plane, triangle
from miflab.errors import FormatError, NotUniformError
from miflab.family import Family


def brute_least(blocks):
    """Oracle: minimum over every bijection of the used points onto 0..v-1."""
    points = sorted({p for b in blocks for p in b})
    best = None
    for perm in permutations(range(len(points))):
        relabel = dict(zip(points, perm))
        cand = tuple(sorted({tuple(sorted(relabel[p] for p in b)) for b in blocks}))
        if best is None or cand < best:
            best = cand
    return best


class _Beaten(Exception):
    """Raised in test mode when a strictly smaller relabeling is found."""


def tie_tree_minimize(blocks, test_only):
    """Reference: the tie-tree lex-least search that the cell-based
    canonicaliser replaced.  It branches over the blocks tied at the least
    key and over every ordering of their fresh points, so its cost grows
    with the automorphism group; it recurses once per block."""
    ident = tuple(sorted({tuple(sorted(b)) for b in blocks}))
    n = len(ident)
    if n == 0:
        return True if test_only else ()

    label = {}
    out = []
    remaining = set(range(n))
    best = list(ident)

    def prefix_cmp(m):
        # compare out + [m] against the same-length prefix of best
        for got, want in zip(out, best):
            if got != want:
                return -1 if got < want else 1
        want = best[len(out)]
        if m != want:
            return -1 if m < want else 1
        return 0

    def dfs():
        nonlocal best
        if not remaining:
            if not test_only and out < best:
                best = list(out)
            return
        nf = len(label)
        m = None
        cands = []
        for bi in remaining:
            b = ident[bi]
            known = sorted(label[p] for p in b if p in label)
            key = tuple(known) + tuple(range(nf, nf + len(b) - len(known)))
            if m is None or key < m:
                m = key
                cands = [bi]
            elif key == m:
                cands.append(bi)
        cmp = prefix_cmp(m)
        if cmp > 0:
            return
        if cmp < 0 and test_only:
            raise _Beaten
        out.append(m)
        for bi in sorted(cands):
            b = ident[bi]
            fresh = [p for p in b if p not in label]
            remaining.discard(bi)
            if fresh:
                for order in permutations(fresh):
                    for i, p in enumerate(order):
                        label[p] = nf + i
                    dfs()
                    for p in order:
                        del label[p]
            else:
                dfs()
            remaining.add(bi)
        out.pop()

    if test_only:
        try:
            dfs()
        except _Beaten:
            return False
        return True
    dfs()
    return tuple(best)


def _reference_split(order, cell, size, block):
    parts = {}
    for p in block:
        parts.setdefault(cell[p], []).append(p)
    for start, inside in parts.items():
        n_in, total = len(inside), size[start]
        if n_in == total:
            continue
        rest = [p for p in order[start:start + total] if p not in inside]
        order[start:start + total] = inside + rest
        size[start] = n_in
        size[start + n_in] = total - n_in
        for p in rest:
            cell[p] = start + n_in


def reference_cell_minimize(blocks, test_only):
    """Reference: the cell search without automorphism pruning.  It walks
    every block tied at the least key, so its cost still grows with the
    automorphism group (K(4) takes seconds)."""
    ident = tuple(sorted({tuple(sorted(set(b))) for b in blocks}))
    if not ident:
        return True if test_only else ()
    points = sorted({p for b in ident for p in b})
    index = {p: i for i, p in enumerate(points)}
    members = tuple(tuple(index[p] for p in b) for b in ident)
    v = len(points)

    out = []
    best = list(ident)
    order, cell, size = list(range(v)), [0] * v, [v] + [0] * (v - 1)
    remaining = list(range(len(ident)))
    levels = []
    while True:
        if not remaining:
            if out < best:
                best = out[:]
        else:
            least = None
            cands = []
            for bi in remaining:
                starts = sorted(cell[p] for p in members[bi])
                if least is None or starts < least:
                    least = starts
                    cands = [bi]
                elif starts == least:
                    cands.append(bi)
            for i in range(1, len(least)):
                if least[i] <= least[i - 1]:
                    least[i] = least[i - 1] + 1
            out.append(tuple(least))
            bound = best[:len(out)]
            if out > bound:
                out.pop()
            elif test_only and out < bound:
                return False
            else:
                cands.reverse()
                levels.append([order, cell, size, remaining, cands])
        while levels and not levels[-1][4]:
            levels.pop()
            out.pop()
        if not levels:
            return True if test_only else tuple(best)
        order, cell, size, remaining, untried = levels[-1]
        emit = untried.pop()
        order, cell, size = order[:], cell[:], size[:]
        _reference_split(order, cell, size, members[emit])
        remaining = [bi for bi in remaining if bi != emit]


def relabel(rng, blocks):
    """The blocks under a seeded bijection of their points onto a shuffled
    range that is wider than needed, so the labels have gaps."""
    points = sorted({p for b in blocks for p in b})
    image = rng.sample(range(len(points) + 3), len(points))
    to = dict(zip(points, image))
    return [tuple(to[p] for p in b) for b in blocks]


def random_intersecting(rng, k, v, n_blocks):
    """Up to n_blocks random k-subsets of range(v) that pairwise meet."""
    cands = list(combinations(range(v), k))
    rng.shuffle(cands)
    chosen = []
    for cand in cands:
        if all(set(cand) & set(b) for b in chosen):
            chosen.append(cand)
            if len(chosen) == n_blocks:
                break
    return chosen


def assert_matches_oracle(blocks):
    least = least_block_list(blocks)
    assert least == tie_tree_minimize(blocks, False), blocks
    assert is_least_labeling(blocks) == tie_tree_minimize(blocks, True), blocks
    assert is_least_labeling(least)


def apply_permutation(fam, perm):
    return Family([[perm[p] for p in b] for b in fam.blocks], fam.universe_size)


def test_relabelings_equal():
    a = Family([[0, 1]], 8)
    b = Family([[5, 7]], 8)
    assert least_block_list(a.blocks) == least_block_list(b.blocks)


def test_non_isomorphic_differ():
    tri = triangle()
    path = Family([[0, 1], [1, 2]], 3)
    assert least_block_list(tri.blocks) == ((0, 1), (0, 2), (1, 2))  # regression pin
    assert least_block_list(tri.blocks) != least_block_list(path.blocks)
    assert (least_block_list(complete_family(3).blocks)
            != least_block_list(projective_plane(2).blocks))


def test_fano_permutation_fuzz():
    fano = projective_plane(2)
    base = least_block_list(fano.blocks)
    rng = random.Random(42)
    for _ in range(100):
        perm = list(range(7))
        rng.shuffle(perm)
        assert least_block_list(apply_permutation(fano, perm).blocks) == base


def test_permutation_fuzz_seed_families():
    rng = random.Random(4242)
    seeds = [
        triangle(),
        complete_family(3),
        Family([[0, 1, 2], [0, 3, 4], [2, 3, 5]], 6),
        Family([[0, 1], [1, 2], [2, 3], [3, 4]], 5),
    ]
    for fam in seeds:
        base = least_block_list(fam.blocks)
        n = fam.universe_size
        for _ in range(100):
            perm = list(range(n))
            rng.shuffle(perm)
            assert least_block_list(apply_permutation(fam, perm).blocks) == base


def test_least_block_list_matches_brute_force():
    rng = random.Random(99)
    for _ in range(60):
        v = rng.randint(1, 6)
        n_blocks = rng.randint(1, 6)
        size = rng.randint(1, v)
        blocks = [tuple(sorted(rng.sample(range(v), size))) for _ in range(n_blocks)]
        assert least_block_list(blocks) == brute_least(blocks)


def test_is_least_labeling_agrees():
    rng = random.Random(123)
    for _ in range(80):
        v = rng.randint(1, 6)
        size = rng.randint(1, v)
        blocks = [tuple(sorted(rng.sample(range(v), size)))
                  for _ in range(rng.randint(1, 5))]
        canon = least_block_list(blocks)
        ident = tuple(sorted(set(blocks)))
        assert is_least_labeling(blocks) == (canon == ident)
        assert is_least_labeling(canon)


def test_empty_and_degenerate():
    assert least_block_list([]) == ()
    assert least_block_list([()]) == ((),)
    assert is_least_labeling([])


@pytest.mark.parametrize("blocks", [
    [(0,), (0, 1)],                       # a block and its one-point prefix
    [(2,), (1, 2), (0,), (0, 1)],         # (0) < (0, 1) but (1, 2) < (2)
    [(), (0, 1), (1, 2), (2,)],           # a size-0 block among others
    [(0,), (1, 2), (0, 3, 4), (1, 3, 4, 5), (0, 2, 4, 5, 6), (0, 1, 2, 3, 4, 5)],
    [(3,), (0, 3), (0, 1, 2), (2, 4, 5, 6), (1, 3, 5, 6), (0, 1, 2, 3, 4, 5)],
    [(2, 5), (1, 2, 5), (0,)],
])
def test_blocks_of_several_sizes_are_refused(blocks):
    # the integer keys rank blocks of one size only, so a family whose
    # blocks have several sizes is refused, and the output list is left as
    # it was, whatever it holds
    v = len({p for b in blocks for p in b})
    for seed in ([], [list(range(v))], [[7]]):
        given = [g[:] for g in seed]
        with pytest.raises(NotUniformError):
            is_least_labeling(blocks, given)
        assert given == seed
    with pytest.raises(NotUniformError):
        is_least_labeling(blocks)
    with pytest.raises(NotUniformError):
        least_block_list(blocks)


@pytest.mark.parametrize("blocks", [
    [[0, 1], [1, "a"]],          # points that do not sort
    [5],                         # a block that is no iterable
    5,                           # nor are the blocks
    [[0, 1.5], [1, 2]],          # a float point
    [[0, 1], [1.0, 2]],          # one that equals an int point
    [[True, 2], [0, 2]],         # a bool point
    [[0, 1, True], [1, 2]],      # one that a set would merge into 1
])
def test_points_that_are_not_ints_are_refused(blocks):
    gens = []
    with pytest.raises(FormatError):
        least_block_list(blocks)
    with pytest.raises(FormatError):
        is_least_labeling(blocks, gens)
    assert gens == []


def test_any_iterables_of_int_points_are_read():
    # negative and huge ints are points, which the least form relabels, and
    # the blocks, and each block, may be read only once
    assert least_block_list([[-3, 10**30], [10**30, 7]]) == ((0, 1), (0, 2))
    assert least_block_list(iter([iter([2, 3]), (p for p in (3, 4))])) == ((0, 1), (0, 2))
    assert is_least_labeling(iter([iter([0, 1]), (p for p in (0, 2))]))


def test_blocks_of_sizes_one_to_six_match_brute_force():
    rng = random.Random(1606)
    for i in range(30):
        size = 1 + i % 6
        v = rng.randint(6, 7)
        blocks = [tuple(rng.sample(range(v), size)) for _ in range(rng.randint(3, 9))]
        assert least_block_list(blocks) == brute_least(blocks), blocks


def test_uniform_family_on_many_points_matches_reference():
    # on 40 points the keys of 3-sets outgrow a machine word
    rng = random.Random(4040)
    blocks = [(i, (i + 1) % 40, (i + 3 + i % 5) % 40) for i in range(40)]
    blocks += [tuple(rng.sample(range(40), 3)) for _ in range(10)]
    expected = reference_cell_minimize(blocks, False)
    assert least_block_list(blocks) == expected
    assert is_least_labeling(expected)
    for _ in range(2):
        shown = shuffle_points(rng, blocks)
        assert least_block_list(shown) == expected
        as_labeled = tuple(sorted({tuple(sorted(b)) for b in shown}))
        assert is_least_labeling(shown) == (as_labeled == expected)


def test_differential_random_uniform():
    rng = random.Random(2014)
    for _ in range(400):
        v = rng.randint(1, 8)
        size = rng.randint(0, v)
        blocks = [tuple(rng.sample(range(v), size)) for _ in range(rng.randint(1, 9))]
        assert_matches_oracle(blocks)


def test_differential_random_intersecting_4_uniform():
    rng = random.Random(7158)
    for v, n_blocks in ((8, 10), (9, 12), (10, 14), (11, 16)):
        base = random_intersecting(rng, 4, v, n_blocks)
        for _ in range(6):
            assert_matches_oracle(relabel(rng, base))


def test_differential_symmetric():
    rng = random.Random(27)
    plane = list(projective_plane(3).blocks)
    k4 = list(complete_family(4).blocks)
    inputs = [list(projective_plane(2).blocks),
              list(bg_family(4, 2).expected_transversals.blocks),
              rng.sample(k4, len(k4) - 8)]
    inputs += [rng.sample(plane, len(plane) - removed) for removed in (6, 7, 8)]
    for blocks in inputs:
        for _ in range(2):
            assert_matches_oracle(relabel(rng, blocks))


def forked_path(v):
    """A path of 2-sets on the points 0..v-1 whose end forks: the path
    2, 0, 1, 4, 5, ..., v-1 with the leaf 3 at 0, labeled least."""
    return [(0, 1), (0, 2), (0, 3), (1, 4)] + [(i, i + 1) for i in range(4, v - 1)]


def test_deep_input_has_no_recursion_limit():
    # 1199 blocks: one branch of 1199 levels, beyond the default recursion
    # limit of a per-block recursive search.  Every block of a 2-uniform
    # family ties at the first level; the fork makes the other branches
    # leave the least list by its third entry, while on a plain path a
    # branch follows it for twice its distance to the nearer end
    assert all(brute_least(forked_path(v)) == tuple(forked_path(v)) for v in (6, 7))
    path = forked_path(1200)
    perm = list(range(1200))
    random.Random(1200).shuffle(perm)
    shuffled = [tuple(perm[p] for p in b) for b in path]
    least = tuple(path)
    assert least_block_list(shuffled) == least
    assert not is_least_labeling(shuffled)
    assert is_least_labeling(least)


def shuffle_points(rng, blocks):
    """The blocks under a seeded permutation of their points onto 0..v-1."""
    points = sorted({p for b in blocks for p in b})
    to = dict(zip(points, rng.sample(range(len(points)), len(points))))
    return [tuple(to[p] for p in b) for b in blocks]


def test_differential_symmetric_relabelings():
    # families with large automorphism groups, where the orbit pruning
    # skips most tied blocks; the reference walks every one of them, so it
    # runs once per family, and a labeling is least iff it gives that list
    rng = random.Random(1402)
    plane = list(projective_plane(3).blocks)
    bases = [list(complete_family(3).blocks), list(projective_plane(2).blocks), plane]
    bases += [rng.sample(plane, len(plane) - removed) for removed in (1, 2, 3, 4)]
    bases += [list(complete_family(4).blocks),
              list(bg_family(4, 2).expected_transversals.blocks),
              list(bg_family(4, 3).expected_transversals.blocks)]
    for base in bases:
        v = len({p for b in base for p in b})
        shown = [relabel(rng, base)] + [shuffle_points(rng, base) for _ in range(3)]
        expected = reference_cell_minimize(shown[0], False)
        assert is_least_labeling(expected)
        # the least form with two points swapped, which may or may not be
        # least again
        a, b = rng.sample(range(v), 2)
        shown.append([tuple({a: b, b: a}.get(p, p) for p in blk) for blk in expected])
        for blocks in shown:
            assert least_block_list(blocks) == expected, blocks
            as_labeled = tuple(sorted({tuple(sorted(b)) for b in blocks}))
            assert is_least_labeling(blocks) == (as_labeled == expected), blocks


def test_key_decisions_match_reference_on_relabelings():
    # after the first complete branch a level whose prefix equals best's is
    # decided by its top key against the top key of best's branch there;
    # on these relabelings least_block_list sets best 2 to 23 times per
    # call (median 7), so a call compares keys against several branches
    rng = random.Random(1919)
    bases = [random_intersecting(rng, k, v, n_blocks)
             for k, v, n_blocks in ((3, 7, 6), (3, 9, 10), (3, 12, 14),
                                    (4, 8, 10), (4, 10, 14), (4, 12, 18))]
    plane = list(projective_plane(3).blocks)
    k4 = list(complete_family(4).blocks)
    bases += [rng.sample(plane, len(plane) - removed) for removed in (5, 8)]
    bases += [rng.sample(k4, len(k4) - 8),
              list(bg_family(4, 2).expected_transversals.blocks),
              list(bg_family(4, 3).expected_transversals.blocks)]
    for base in bases:
        expected = reference_cell_minimize(base, False)
        for _ in range(6):
            assert least_block_list(relabel(rng, base)) == expected, base
            shown = shuffle_points(rng, base)
            as_labeled = tuple(sorted({tuple(sorted(b)) for b in shown}))
            assert is_least_labeling(shown) == (as_labeled == expected), shown


def test_rejections_past_the_first_branch_match_brute_force(monkeypatch):
    # the first branch of a test is the identity labeling's; a test that
    # rejects only after it made one split per block rejected on a later
    # branch, whose top key exceeded best's at a level
    calls = [0]
    split = canonical._split

    def counting_split(*args):
        calls[0] += 1
        split(*args)

    monkeypatch.setattr(canonical, "_split", counting_split)
    rng = random.Random(1907)
    late = 0
    for _ in range(60):
        v, k = rng.randint(4, 7), rng.randint(2, 3)
        cands = list(combinations(range(v), k))
        rng.shuffle(cands)
        base = cands[:rng.randint(3, min(len(cands), 12))]
        least = brute_least(base)
        assert is_least_labeling(least)
        for _ in range(4):
            shown = shuffle_points(rng, base)
            as_labeled = tuple(sorted({tuple(sorted(b)) for b in shown}))
            calls[0] = 0
            verdict = is_least_labeling(shown)
            assert verdict == (as_labeled == least), shown
            late += not verdict and calls[0] >= len(as_labeled)
    assert late >= 30


def test_complete_family_5_least_form():
    rng = random.Random(5)
    k5 = list(complete_family(5).blocks)
    forms = {least_block_list(shuffle_points(rng, k5)) for _ in range(3)}
    assert len(forms) == 1
    (form,) = forms
    assert len(form) == 126 and is_least_labeling(form)


def test_orbit_pruning_bounds_work_on_complete_family_4(monkeypatch):
    # a deterministic work count: without the pruning this call splits
    # cells 143 255 times
    calls = [0]
    split = canonical._split

    def counting_split(*args):
        calls[0] += 1
        split(*args)

    monkeypatch.setattr(canonical, "_split", counting_split)
    least = least_block_list(complete_family(4).blocks)
    assert calls[0] <= 2000
    assert least == tuple(sorted(complete_family(4).blocks))


def test_repeated_point_in_a_block_is_read_as_a_set():
    assert least_block_list([(0, 0, 1), (1, 2)]) == least_block_list([(0, 1), (1, 2)])
    assert is_least_labeling([(0, 0, 1), (1, 2)]) == is_least_labeling([(0, 1), (1, 2)])
    # sizes are judged after the repeats are dropped
    with pytest.raises(NotUniformError):
        least_block_list([(0, 0, 1), (1, 2, 3)])
    with pytest.raises(NotUniformError):
        is_least_labeling([(0, 0, 1), (1, 2, 3)])


def automorphisms_by_scan(blocks, v):
    """Every permutation of range(v), as a list of images, that maps the
    blocks onto themselves."""
    as_set = {tuple(sorted(set(b))) for b in blocks}
    return [list(perm) for perm in permutations(range(v))
            if all(tuple(sorted(perm[p] for p in b)) in as_set for b in as_set)]


def generated_order(gens, v):
    identity = tuple(range(v))
    seen, frontier = {identity}, [identity]
    for h in frontier:
        for g in gens:
            gh = tuple(g[p] for p in h)
            if gh not in seen:
                seen.add(gh)
                frontier.append(gh)
    return len(seen)


def test_seeded_test_agrees_and_returns_the_whole_group():
    # the list is output only: on True the test appends automorphisms that
    # generate the group a scan finds, and on False it leaves the list as
    # it was; entries already in it, automorphisms or not, are never read
    rng = random.Random(1414)
    accepted = 0
    for _ in range(150):
        v = rng.randint(1, 6)
        size = rng.randint(1, v)
        base = [tuple(sorted(rng.sample(range(v), size)))
                for _ in range(rng.randint(1, 7))]
        # every point is used: the points the blocks miss are dropped
        used = sorted({p for b in base for p in b})
        base = [tuple(map(used.index, b)) for b in base]
        v = len(used)
        for blocks in (base, list(least_block_list(base)), shuffle_points(rng, base)):
            group = automorphisms_by_scan(blocks, v)
            found = []
            result = is_least_labeling(blocks, found)
            assert result == is_least_labeling(blocks), blocks
            # no permutation, and a permutation outside the group if any
            strangers = [[7]] + [g for g in map(list, permutations(range(v)))
                                 if g not in group][:1]
            given = [g[:] for g in strangers]
            assert is_least_labeling(blocks, given) == result, blocks
            if not result:
                assert found == [] and given == strangers
                continue
            accepted += 1
            assert given == strangers + found
            assert all(g in group for g in found)
            assert generated_order(found, v) == len(group), blocks
    assert accepted > 150


def test_symmetric_families_return_their_whole_group():
    # K(3): S5 of order 120; Fano: order 168; both from an empty seed
    for blocks, order in ((complete_family(3).blocks, 120),
                          (least_block_list(projective_plane(2).blocks), 168)):
        gens = []
        assert is_least_labeling(blocks, gens)
        assert generated_order(gens, max(b[-1] for b in blocks) + 1) == order


def test_seed_on_points_other_than_0_to_v_minus_1_is_refused():
    gens = []
    assert not is_least_labeling([(0, 2), (2, 5)], gens) and gens == []


def test_seeded_test_on_a_huge_point_id_allocates_nothing():
    # the points are checked before any list over them is built: masks over
    # the raw ids ended in a MemoryError under the cap
    from test_search import run_with_address_limit
    code = ("from miflab.canonical import is_least_labeling\n"
            "print(is_least_labeling([[0, 10**11]], []))\n")
    run = run_with_address_limit("-c", code)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    assert run.stdout == "False\n"
