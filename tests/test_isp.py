import json
import random
from fractions import Fraction
from math import comb

import pytest

from miflab import isp
from miflab.constructions import bg_family, complete_family, projective_plane
from miflab.errors import (EmptyBlockError, EmptyFamilyError, FormatError,
                           InvalidIspError, MiflabError, NotUniformError, VerificationError)
from miflab.family import Family, bits_of
from miflab.isp import SetPairSystem, bollobas_sum, extract_isp, validate_isp
from miflab.search import enumerate_mifs
from miflab.transversal import _hitting_sets, brute_force_transversals, tau, transversal_family
from miflab.verify import random_uniform_family


def test_validate_tight_pair_system():
    sys_ = SetPairSystem([((0,), (1,)), ((1,), (0,))], k=1, t=1)
    verdict = validate_isp(sys_)
    assert verdict.ok and verdict.n_pairs == 2 and verdict.point_count == 2


def test_validate_reports_first_violation():
    bad = SetPairSystem([((0,), (1,)), ((2,), (3,))])
    verdict = validate_isp(bad)
    assert not verdict.ok
    assert verdict.violation == (0, 1, "disjoint")


def test_validate_overlap_violation():
    verdict = validate_isp(SetPairSystem([((0, 1), (1, 2))]))
    assert not verdict.ok and verdict.violation == (0, 0, "overlap")


def test_validate_declared_sizes():
    verdict = validate_isp(SetPairSystem([((0, 1), (2,))], k=3, t=1))
    assert not verdict.ok and verdict.violation == (0, -1, "size")
    verdict = validate_isp(SetPairSystem([((0, 1), (2,))], k=2, t=2))
    assert not verdict.ok and verdict.violation == (0, -1, "size")
    assert "declared t = 2" in verdict.message


def test_validate_rejects_repeated_left_sets():
    # repeated A-sides cannot satisfy the cross condition
    dup = SetPairSystem([((0, 1), (2,)), ((0, 1), (3,))])
    assert not validate_isp(dup).ok


def test_validate_empty_b_side():
    # an empty right side is disjoint from everything: one pair at most
    assert validate_isp(SetPairSystem([((0, 1), ())], k=2, t=0)).ok
    assert not validate_isp(SetPairSystem([((0, 1), ()), ((2, 3), ())])).ok


def test_validate_large_point_ids_allocates_nothing():
    # masks over the raw ids took 12.5 GB each here; over the points'
    # ranks they fit in the child's capped address space
    from test_search import run_with_address_limit
    code = ("from miflab.isp import SetPairSystem, validate_isp\n"
            "big = 10**11\n"
            "for pairs in ([((big,), (big + 1,)), ((big + 1,), (big,))],\n"
            "              [((big,), (big + 1,)), ((big + 2,), (big + 3,))]):\n"
            "    verdict = validate_isp(SetPairSystem(pairs))\n"
            "    print(verdict.ok, verdict.point_count, verdict.violation)\n")
    run = run_with_address_limit("-c", code)
    assert run.returncode == 0 and run.stderr == "", run.stderr
    assert run.stdout == "True 2 None\nFalse 4 (0, 1, 'disjoint')\n"


def matrix_scan_validation(system: SetPairSystem) -> isp.IspValidation:
    """validate_isp spelled out: sizes first, then every (i, j) in row order."""
    n = len(system.pairs)
    pts = system.point_count()
    for i, (a, b) in enumerate(system.pairs):
        if system.k is not None and len(a) != system.k:
            return isp.IspValidation(False, n, pts, (i, -1, "size"),
                                     f"#A_{i} = {len(a)} != declared k = {system.k}")
        if system.t is not None and len(b) != system.t:
            return isp.IspValidation(False, n, pts, (i, -1, "size"),
                                     f"#B_{i} = {len(b)} != declared t = {system.t}")
    for i, (a, _) in enumerate(system.pairs):
        for j, (_, b) in enumerate(system.pairs):
            meets = bool(set(a) & set(b))
            if i == j and meets:
                return isp.IspValidation(False, n, pts, (i, j, "overlap"),
                                         f"A_{i} intersects B_{i}")
            if i != j and not meets:
                return isp.IspValidation(False, n, pts, (i, j, "disjoint"),
                                         f"A_{i} is disjoint from B_{j} with {i} != {j}")
    return isp.IspValidation(True, n, pts, None, "valid")


def test_validate_matches_matrix_scan():
    # extracted systems (valid), then each with one point moved, two pairs
    # swapped sides or a declared size changed, and random small systems
    rng = random.Random(77)
    systems = [extract_isp(fam) for fam in enumerate_mifs(3).families]
    systems += [extract_isp(complete_family(4)), extract_isp(projective_plane(3))]
    for system in list(systems):
        pairs = [list(map(list, pair)) for pair in system.pairs]
        i = rng.randrange(len(pairs))
        side = pairs[i][rng.randrange(2)]
        side[rng.randrange(len(side))] = 40 + rng.randrange(3)
        systems.append(SetPairSystem([(a, sorted(set(b))) for a, b in pairs]))
        j = rng.randrange(len(pairs))
        pairs[i], pairs[j] = [pairs[i][0], pairs[j][1]], [pairs[j][0], pairs[i][1]]
        systems.append(SetPairSystem([(a, sorted(set(b))) for a, b in pairs]))
        systems.append(SetPairSystem(system.pairs, k=system.k, t=(system.t or 0) + 1))
    for _ in range(300):
        v = rng.randint(1, 7)
        systems.append(SetPairSystem(
            [(rng.sample(range(v), rng.randint(0, v)), rng.sample(range(v), rng.randint(0, v)))
             for _ in range(rng.randint(0, 5))]))
    kinds = set()
    for system in systems:
        verdict = validate_isp(system)
        assert verdict == matrix_scan_validation(system), system
        kinds.add(verdict.violation and verdict.violation[2])
    assert kinds == {None, "overlap", "disjoint", "size"}


def test_bollobas_sum_tight():
    sys_ = SetPairSystem([((0,), (1,)), ((1,), (0,))])
    assert bollobas_sum(sys_) == 1


def test_bollobas_sum_single_pair_empty_b():
    assert bollobas_sum(SetPairSystem([((0, 1, 2), ())])) == 1


def test_bollobas_sum_rejects_invalid():
    with pytest.raises(InvalidIspError):
        bollobas_sum(SetPairSystem([((0,), (1,)), ((2,), (3,))]))


def test_bollobas_sum_mixed_sizes_exact_rational():
    sys_ = SetPairSystem([((0, 1), (2,)), ((2, 3), (0,))])
    assert validate_isp(sys_).ok
    assert bollobas_sum(sys_) == Fraction(2, 3)


def test_extract_single_block_family():
    system = extract_isp(Family([[0, 1, 2]], 3))
    assert system.pairs == (((0, 1, 2), ()),)
    assert system.k == 3 and system.t == 0
    assert validate_isp(system).ok


def test_extract_bg_family():
    bg = bg_family(3, 2)
    system = extract_isp(bg.family)
    assert system.k == 3 and system.t == 1
    assert validate_isp(system).ok
    top_points = transversal_family(bg.family).transversals.point_set()
    assert top_points <= system.point_set()
    assert len(top_points) == 6


def test_extract_fano():
    fano = projective_plane(2)
    system = extract_isp(fano)
    assert system.k == 3 and system.t == 2
    assert validate_isp(system).ok
    assert transversal_family(fano).transversals.point_set() <= system.point_set()
    assert bollobas_sum(system) <= 1
    assert len(system.pairs) <= comb(3 + 2, 3)


def test_extract_minimality():
    # dropping any kept block must lower the transversal size to exactly t-1
    bg = bg_family(3, 2)
    system = extract_isp(bg.family)
    kept = [a for a, _ in system.pairs]
    t = tau(bg.family)
    for b in kept:
        rest = Family([x for x in kept if x != b], bg.family.universe_size)
        assert tau(rest) == t - 1


def test_extract_errors():
    with pytest.raises(EmptyFamilyError):
        extract_isp(Family([], 2))
    with pytest.raises(EmptyBlockError):
        extract_isp(Family([[], [0]], 1))
    with pytest.raises(NotUniformError):
        extract_isp(Family([[0], [0, 1]], 2))


def test_json_round_trip():
    sys_ = SetPairSystem([((0, 2), (1,)), ((1, 3), (0,))], k=2, t=1)
    text = sys_.to_json()
    again = SetPairSystem.from_json(text)
    assert again == sys_
    assert again.to_json() == text
    obj = json.loads(text)
    assert obj["pairs"][0] == {"A": [0, 2], "B": [1]}


def test_json_rejects_malformed():
    with pytest.raises(FormatError):
        SetPairSystem.from_json('{"pairs": [{"A": [0]}]}')
    with pytest.raises(FormatError, match="line"):
        SetPairSystem.from_json('{"pairs": [')
    with pytest.raises(FormatError):
        SetPairSystem.from_json('{"pairs": [{"A": 0, "B": [1]}]}')
    with pytest.raises(FormatError):
        SetPairSystem.from_json('{"pairs": 3}')


@pytest.mark.parametrize("text", [
    '{"pairs": [{"A": [true], "B": [2]}]}',
    '{"pairs": [{"A": [0], "B": [false]}]}',
    '{"pairs": [{"A": [0], "B": [1]}], "k": true}',
    '{"pairs": [{"A": [0], "B": [1]}], "t": false}',
])
def test_json_rejects_bool_as_integer(text):
    with pytest.raises(FormatError):
        SetPairSystem.from_json(text)


@pytest.mark.parametrize("pairs", [
    [((-1,), (2,)), ((2,), (-1,))],
    [((0,), (True,))],
    [((0, "1"), (2,))],
    [((0, 0), (1,))],
    [((0,), (1,)), ((1,), (2, 2))],
])
def test_constructor_rejects_bad_point_ids(pairs):
    with pytest.raises(FormatError):
        SetPairSystem(pairs)


def reference_extract_isp(family: Family) -> SetPairSystem:
    """The greedy deletion and pairing of extract_isp, spelled out on
    Family objects and the subset-scan oracle (at most 20 points)."""
    def oracle(blocks):
        return brute_force_transversals(Family(blocks, family.universe_size))

    t = oracle(family.blocks).tau
    current = list(family.blocks)
    for b in family.blocks:
        trial = [x for x in current if x != b]
        if oracle(trial).tau == t:
            current = trial
    pairs = []
    for b in current:
        rep = oracle([x for x in current if x != b])
        assert rep.tau == t - 1
        pairs.append((b, rep.transversals.blocks[0]))
    return SetPairSystem(pairs, k=len(family.blocks[0]), t=t - 1)


def test_extract_matches_reference():
    # bg(5,3) and bg(5,4) have 21 and 42 points, beyond the oracle's guard
    families = [complete_family(k) for k in (3, 4, 5)]
    families += [projective_plane(2), projective_plane(3)]
    families += [bg_family(k, t).family for k, t in ((3, 2), (4, 2), (4, 3), (5, 2))]
    rng = random.Random(4242)
    families += [random_uniform_family(rng, (2, 3, 4)[i % 3], max_points=10)
                 for i in range(100)]
    for fam in families:
        assert extract_isp(fam).to_json() == reference_extract_isp(fam).to_json()


def per_block_extract_isp(family: Family) -> SetPairSystem:
    """Set-pair extraction with two kernel searches per block: the greedy
    deletion tests every block, and the pairing collects each kept block's
    (t-1)-sets from a search of the rest without that block's points."""
    if not family.blocks:
        raise EmptyFamilyError("cannot extract a set-pair system from an empty family")
    if family.has_empty_block():
        raise EmptyBlockError("family contains the empty block")
    k = family.uniform_block_size()
    if k is None:
        raise NotUniformError("set-pair extraction needs a uniform family")
    full_report = transversal_family(family)
    t = full_report.tau
    current = list(family.masks)
    for m in family.masks:
        if _hitting_sets([x & ~m for x in current if x != m], False, t - 1)[0] == t:
            current = [x for x in current if x != m]
    pairs = []
    for m in current:
        rest_tau, found, _ = _hitting_sets([x & ~m for x in current if x != m], True, t - 1)
        if rest_tau != t - 1:
            raise VerificationError(
                f"minimal subfamily violated: dropping a block gave tau {rest_tau}, want {t - 1}")
        pairs.append((bits_of(m), min(bits_of(x) for x in found)))
    system = SetPairSystem(pairs, k=k, t=t - 1)
    verdict = validate_isp(system)
    if not verdict:
        raise VerificationError(f"extracted system invalid: {verdict.message}")
    if not full_report.transversals.point_set() <= system.point_set():
        raise VerificationError("a transversal point escaped the extracted system")
    return system


def extraction_outcome(extract, family):
    try:
        system = extract(family)
    except MiflabError as exc:
        return type(exc), str(exc)
    return system.pairs, system.k, system.t


def seeded_extraction_inputs(count):
    """Random uniform families with k = 2-5; every 9th gets a block of
    another size, every 13th an empty block and every 29th loses all its
    blocks, so that those extractions raise."""
    rng = random.Random(3030)
    for i in range(count):
        fam = random_uniform_family(rng, 2 + i % 4, max_points=11)
        blocks = list(fam.blocks)
        if i % 9 == 4:
            blocks.append(blocks[0][1:])
        if i % 13 == 6:
            blocks.append(())
        if i % 29 == 11:
            blocks = []
        yield Family(blocks, fam.universe_size)


def test_extract_matches_per_block_extraction():
    # beyond the subset-scan oracle's 20 points: K(6) on 11, bg(5,3) on 21
    # and bg(5,4) on 42; then the 8 maximal families of triples, stars
    # (tau = 1) and seeded random families
    families = [complete_family(6), bg_family(5, 3).family, bg_family(5, 4).family]
    families += enumerate_mifs(3).families
    families += [Family([[0, p] for p in range(1, n + 1)], n + 1) for n in (1, 2, 5)]
    families += [Family([[0, p, p + 1] for p in range(1, 2 * n, 2)], 2 * n + 1)
                 for n in (1, 3)]
    families += seeded_extraction_inputs(320)
    raised = 0
    for fam in families:
        want = extraction_outcome(per_block_extract_isp, fam)
        assert extraction_outcome(extract_isp, fam) == want, fam
        raised += isinstance(want[0], type)
    assert raised >= 40


def count_extraction_work(monkeypatch, family):
    """Calls and nodes of extract_isp(family) through isp._hitting_sets and
    through isp.transversal_family."""
    work = {"_hitting_sets": [0, 0], "transversal_family": [0, 0]}
    hitting_sets = isp._hitting_sets
    report = isp.transversal_family

    def counting_hitting_sets(*args):
        answer = hitting_sets(*args)
        work["_hitting_sets"][0] += 1
        work["_hitting_sets"][1] += answer[2]
        return answer

    def counting_transversal_family(fam):
        answer = report(fam)
        work["transversal_family"][0] += 1
        work["transversal_family"][1] += answer.nodes
        return answer

    monkeypatch.setattr(isp, "_hitting_sets", counting_hitting_sets)
    monkeypatch.setattr(isp, "transversal_family", counting_transversal_family)
    extract_isp(family)
    return work


def test_extract_isp_bounds_work_on_complete_family_5(monkeypatch):
    # a deterministic work count: the minimum transversals of K(5) take 252
    # kernel nodes, and the 126 blocks are all critical, so nothing else is
    # searched; two searches per block walked 1260 more nodes
    work = count_extraction_work(monkeypatch, complete_family(5))
    assert work["_hitting_sets"][1] + work["transversal_family"][1] <= 2000


def test_extract_isp_kernel_nodes_on_complete_family_5(monkeypatch):
    # the exact work: one search for the minimum transversals and no other
    work = count_extraction_work(monkeypatch, complete_family(5))
    assert work == {"_hitting_sets": [0, 0], "transversal_family": [1, 252]}


def test_extract_isp_kernel_nodes_on_plane_of_order_3(monkeypatch):
    # no line of PG(2,3) is critical: 13 deletion tests, then one search for
    # the minimum transversals of the 10 lines kept
    work = count_extraction_work(monkeypatch, projective_plane(3))
    assert work == {"_hitting_sets": [14, 269], "transversal_family": [1, 133]}
