import json
import random
from itertools import combinations

import pytest

from miflab.constructions import bg_family, complete_family, projective_plane, triangle
from miflab.errors import FormatError, UniverseOverflowError, VerificationError
from miflab.family import Family, bits_of


def test_point_set_union():
    fam = Family([[0, 1], [1, 2]], 3)
    assert fam.point_set() == {0, 1, 2}


def test_point_set_empty_family():
    assert Family([], 4).point_set() == set()


def test_point_set_bg_family():
    # three original symbols plus one new symbol per 2-subset
    assert bg_family(3, 2).family.point_count() == 6


def test_uniform_block_size():
    assert Family([[0, 1], [1, 2], [0, 2]], 3).uniform_block_size() == 2
    assert Family([[0, 1], [0, 1, 2]], 3).uniform_block_size() is None
    assert Family([], 3).uniform_block_size() is None
    assert projective_plane(2).uniform_block_size() == 3


def test_is_intersecting():
    assert triangle().is_intersecting()
    assert not Family([[0, 1], [2, 3]], 4).is_intersecting()
    # 3-subsets of a 5-set: sizes force intersection; cross-check by hand
    blocks = list(combinations(range(5), 3))
    fam = Family(blocks, 5)
    assert fam.is_intersecting()
    for a in blocks:
        for b in blocks:
            assert set(a) & set(b)
    rng = random.Random(12)
    for _ in range(200):
        v = rng.randint(2, 7)
        blocks = [rng.sample(range(v), rng.randint(1, min(3, v)))
                  for _ in range(rng.randint(1, 6))]
        fam = Family(blocks, v)
        assert fam.is_intersecting() == pairwise_intersecting(fam)


def pairwise_intersecting(fam):
    return all(set(a) & set(b) for a, b in combinations(fam.blocks, 2))


def test_is_intersecting_lone_empty_block():
    # no pair to test: the lone empty block meets no block but itself
    assert Family([[]], 1).is_intersecting()
    assert Family([], 1).is_intersecting()
    assert not Family([[], [0]], 1).is_intersecting()


def test_is_intersecting_complete_family_6():
    fam = complete_family(6)
    assert fam.is_intersecting() and pairwise_intersecting(fam)
    # one block disjoint from a single block of K(6) breaks it
    wider = Family(list(fam.blocks) + [tuple(range(11, 17))], 17)
    assert not wider.is_intersecting() and not pairwise_intersecting(wider)
    apart = Family(list(fam.blocks) + [(0, 1, 2, 3, 4, 11)], 12)
    assert not apart.is_intersecting() and not pairwise_intersecting(apart)


def test_is_blocking_set():
    fam = Family([[0, 1], [1, 2]], 3)
    assert fam.is_blocking_set({1})
    assert not fam.is_blocking_set({0})
    assert Family([], 3).is_blocking_set(set())  # vacuous
    fano = projective_plane(2)
    for line in fano.blocks:
        assert fano.is_blocking_set(line)


def test_blocking_set_with_empty_block_never_blocks():
    fam = Family([[], [0]], 2)
    assert not fam.is_blocking_set({0, 1})


def test_point_set_is_blocking_for_nonempty_blocks():
    rng = random.Random(7)
    for _ in range(50):
        v = rng.randint(1, 10)
        blocks = [rng.sample(range(v), rng.randint(1, v)) for _ in range(rng.randint(1, 8))]
        fam = Family(blocks, v)
        assert fam.is_blocking_set(fam.point_set())


def test_uncovered_pairs_fano_and_triangle():
    assert projective_plane(2).uncovered_pairs() == []
    assert triangle().uncovered_pairs() == []


def test_uncovered_pairs_explicit():
    fam = Family([[0, 1, 2], [0, 3, 4], [2, 3, 5]], 6)
    pairs = fam.uncovered_pairs()
    assert (1, 3) in pairs
    assert pairs == [(0, 5), (1, 3), (1, 4), (1, 5), (2, 4), (4, 5)]


def test_uncovered_pairs_oracle():
    rng = random.Random(11)
    for _ in range(30):
        v = rng.randint(2, 9)
        blocks = [rng.sample(range(v), rng.randint(1, min(4, v)))
                  for _ in range(rng.randint(1, 10))]
        fam = Family(blocks, v)
        pts = sorted(fam.point_set())
        expected = [(a, b) for i, a in enumerate(pts) for b in pts[i + 1:]
                    if not any(a in blk and b in blk for blk in fam.blocks)]
        assert fam.uncovered_pairs() == expected


def test_normalization_and_equality():
    a = Family([[2, 1], [0, 1]], 3)
    b = Family([(0, 1), (1, 2), (1, 2)], 3)
    assert a == b
    assert a.blocks == ((0, 1), (1, 2))
    assert hash(a) == hash(b)


def test_iteration_membership_and_repr():
    fam = Family([[2, 1], [0, 1]], 3)
    assert list(fam) == [(0, 1), (1, 2)]
    # membership reads a block's points in any order, repeats ignored, as
    # the constructor does
    assert (1, 0) in fam and [2, 1] in fam
    assert (0, 0, 1) in Family([[0, 0, 1], [1, 2]], 3)
    assert (0, 2) not in fam and (0, 1, 2) not in fam
    assert repr(fam) == "Family([[0, 1], [1, 2]], universe_size=3)"
    assert repr(Family([], 0)) == "Family([], universe_size=0)"


def test_point_set_invariant_under_block_order():
    rng = random.Random(3)
    blocks = [[0, 2, 4], [1, 3], [2, 5]]
    fam = Family(blocks, 6)
    for _ in range(10):
        rng.shuffle(blocks)
        assert Family(blocks, 6) == fam
        assert Family(blocks, 6).point_set() == fam.point_set()


def test_out_of_universe_rejected():
    with pytest.raises(FormatError):
        Family([[0, 5]], 3)
    with pytest.raises(FormatError):
        Family([[-1]], 3)


def test_labels_validation():
    fam = Family([[0, 1]], 2, labels=["a", "b"])
    assert fam.labels == ("a", "b")
    with pytest.raises(FormatError):
        Family([[0]], 2, labels=["a"])
    with pytest.raises(FormatError):
        Family([[0]], 2, labels=["a", "a"])


def test_json_round_trip_bit_exact():
    fam = Family([[0, 1, 3], [2, 5]], 8, labels=list("abcdefgh"))
    text = fam.to_json()
    again = Family.from_json(text)
    assert again == fam and again.labels == fam.labels
    assert again.to_json() == text
    obj = json.loads(text)
    assert list(obj) == ["universe", "labels", "blocks"]


def test_text_round_trip_bit_exact():
    fam = Family([[0, 1, 3], [2, 5]], 6)
    text = fam.to_text()
    assert text == "b 0 1 3\nb 2 5\n"
    again = Family.from_text(text)
    assert again == fam
    assert again.to_text() == text


def test_text_parse_errors_carry_position():
    with pytest.raises(FormatError, match="line 2"):
        Family.from_text("b 0 1\nx 2\n")
    with pytest.raises(FormatError, match="line 1.*column 3"):
        Family.from_text("b zz\n")
    # each token's own column, not that of an earlier equal token
    with pytest.raises(FormatError, match="line 1, column 5: 'b' is not"):
        Family.from_text("b 1 b\n")
    with pytest.raises(FormatError, match="line 2, column 3: expected 'b'"):
        Family.from_text("b 0 1\n  x 2\n")
    with pytest.raises(FormatError, match="line 1, column 3: negative point id -1"):
        Family.from_text("b -1 2\n")
    # blank lines are skipped, and still counted
    with pytest.raises(FormatError, match="line 4, column 1: expected 'b'"):
        Family.from_text("\nb 0 1\n \nx 2\n")
    assert Family.from_text("\nb 0 1\n\n  \nb 1 2\n") == Family([[0, 1], [1, 2]], 3)


def test_json_parse_errors_carry_position():
    with pytest.raises(FormatError, match="line"):
        Family.from_json('{"universe": 3, "blocks": [[0, 1]')
    with pytest.raises(FormatError):
        Family.from_json('{"universe": 3}')
    with pytest.raises(FormatError):
        Family.from_json('{"universe": 3, "blocks": [[0, "x"]]}')


@pytest.mark.parametrize("text, message", [
    ('[1]', "must be an object"),
    ('{"universe": 3, "blocks": 5}', '"blocks" must be a list'),
    ('{"universe": 3, "blocks": [5]}', "bad block 5"),
    ('{"universe": 3, "blocks": [[0]], "labels": [0, 1, 2]}', '"labels" must be a list of strings'),
    ('{"universe": -1, "blocks": []}', "non-negative"),
], ids=["not-an-object", "blocks-not-a-list", "block-not-a-list", "labels-not-strings",
        "negative-universe"])
def test_json_refuses_malformed_families(text, message):
    with pytest.raises(FormatError, match=message):
        Family.from_json(text)


def test_json_rejects_bool_as_integer():
    # JSON true is a Python bool, which is an int subclass; it is no point id
    with pytest.raises(FormatError):
        Family.from_json('{"universe": 3, "blocks": [[0, true]]}')
    with pytest.raises(FormatError):
        Family.from_json('{"universe": true, "blocks": [[0]]}')


@pytest.mark.parametrize("blocks", [[(0, True)], [(1, True)], [(0, 1.5)], [(0, "1")]],
                         ids=["bool", "bool-equal-to-a-point", "float", "str"])
def test_constructor_rejects_non_integer_points(blocks):
    # a bool point would serialise as JSON true, which from_json refuses
    with pytest.raises(FormatError, match="expected a list of integers"):
        Family(blocks, 3)


def test_universe_cap():
    big = json.dumps({"universe": 200, "blocks": [[0, 1]]})
    with pytest.raises(UniverseOverflowError):
        Family.from_json(big)
    assert Family.from_json(big, max_universe=256).universe_size == 200
    assert Family.from_json(big, max_universe=None).universe_size == 200


def test_from_masks_matches_the_validating_constructor():
    rng = random.Random(909)
    for i in range(300):
        universe = rng.randint(0, 12)
        masks = rng.sample(range(1 << universe), rng.randint(0, min(12, 1 << universe)))
        labels = tuple(f"p{j}" for j in range(universe)) if i % 3 == 0 else None
        fast = Family._from_masks(masks, universe, labels)
        slow = Family([bits_of(m) for m in masks], universe, labels)
        assert fast.blocks == slow.blocks
        assert fast.masks == slow.masks
        assert fast.point_mask == slow.point_mask
        assert fast.labels == slow.labels
        assert fast == slow and hash(fast) == hash(slow)


@pytest.mark.parametrize("masks, universe", [
    ([0b011, 0b110, 0b011], 3),
    ([0, 0], 2),
    ([0b1000], 3),
    ([0b001, 1 << 40], 8),
    ([-1], 4),
])
def test_from_masks_refuses_duplicates_and_out_of_range_points(masks, universe):
    with pytest.raises(VerificationError):
        Family._from_masks(masks, universe, None)
