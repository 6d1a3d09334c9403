import json
import random
from fractions import Fraction
from math import comb

import pytest

from miflab import isp
from miflab.constructions import bg_family, complete_family, projective_plane
from miflab.errors import (EmptyBlockError, EmptyFamilyError, FormatError,
                           InvalidIspError, NotUniformError)
from miflab.family import Family
from miflab.isp import SetPairSystem, bollobas_sum, extract_isp, validate_isp
from miflab.transversal import brute_force_transversals, tau, transversal_family
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


def test_validate_rejects_repeated_left_sets():
    # repeated A-sides cannot satisfy the cross condition
    dup = SetPairSystem([((0, 1), (2,)), ((0, 1), (3,))])
    assert not validate_isp(dup).ok


def test_validate_empty_b_side():
    # an empty right side is disjoint from everything: one pair at most
    assert validate_isp(SetPairSystem([((0, 1), ())], k=2, t=0)).ok
    assert not validate_isp(SetPairSystem([((0, 1), ()), ((2, 3), ())])).ok


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


def test_extract_isp_bounds_work_on_complete_family_5(monkeypatch):
    # a deterministic work count: searching the dropped block's points too,
    # this extraction visits 19 152 kernel nodes
    nodes = [0]
    hitting_sets = isp._hitting_sets

    def counting_hitting_sets(*args):
        answer = hitting_sets(*args)
        nodes[0] += answer[2]
        return answer

    monkeypatch.setattr(isp, "_hitting_sets", counting_hitting_sets)
    extract_isp(complete_family(5))
    assert nodes[0] <= 2000
