import hashlib
from itertools import combinations
from math import comb

import pytest

from miflab.constructions import bg_family, complete_family, projective_plane, triangle
from miflab.errors import (ParameterOutOfRangeError, UniverseOverflowError,
                           UnsupportedOrderError)
from miflab.mif import chromatic_class, is_mif
from miflab.transversal import transversal_family


def test_bg_3_2_structure():
    bg = bg_family(3, 2)
    # S = {0, 1, 2}; the x points 3, 4, 5 extend the pairs 01, 02, 12
    assert bg.family.blocks == ((0, 1, 2), (0, 1, 3), (0, 2, 4), (1, 2, 5))
    assert len(bg.expected_transversals) == 6
    assert bg.expected_transversals.point_count() == 6


def test_bg_4_2_transversal_points():
    bg = bg_family(4, 2)
    assert bg.expected_transversals.point_count() == 4 + comb(4, 1)
    rep = transversal_family(bg.family)
    assert rep.transversals.blocks == bg.expected_transversals.blocks


def test_bg_parameter_range():
    with pytest.raises(ParameterOutOfRangeError):
        bg_family(3, 3)
    with pytest.raises(ParameterOutOfRangeError):
        bg_family(3, 1)


def test_bg_universe_cap():
    # k=6, t=5 needs 9 + C(9,5) = 135 points
    with pytest.raises(UniverseOverflowError):
        bg_family(6, 5)
    bg = bg_family(6, 5, max_universe=256)
    assert bg.family.point_count() == 135
    assert bg_family(6, 5, max_universe=None).family == bg.family  # None: no cap


def test_bg_identities_small():
    for k in range(3, 6):
        for t in range(2, k):
            bg = bg_family(k, t)
            rep = transversal_family(bg.family)
            assert rep.tau == t
            assert rep.transversals.blocks == bg.expected_transversals.blocks
            assert (bg.expected_transversals.point_count()
                    == k + t - 2 + comb(k + t - 2, t - 1))


def test_fano():
    fano = projective_plane(2)
    assert fano.universe_size == 7
    assert len(fano) == 7
    assert fano.uniform_block_size() == 3
    for i in range(7):
        for j in range(i + 1, 7):
            shared = set(fano.blocks[i]) & set(fano.blocks[j])
            assert len(shared) == 1
    assert fano.uncovered_pairs() == []
    assert is_mif(fano).ok


def test_pg23():
    plane = projective_plane(3)
    assert plane.universe_size == 13
    assert len(plane) == 13
    assert plane.uniform_block_size() == 4
    for i in range(13):
        for j in range(i + 1, 13):
            assert len(set(plane.blocks[i]) & set(plane.blocks[j])) == 1
    assert plane.uncovered_pairs() == []
    cert = is_mif(plane)
    assert cert.ok and cert.k == 4
    assert chromatic_class(plane) == 2


def test_unsupported_plane_order():
    with pytest.raises(UnsupportedOrderError):
        projective_plane(4)


def test_complete_family():
    assert complete_family(2) == triangle()
    c3 = complete_family(3)
    assert len(c3) == comb(5, 3) and is_mif(c3).ok
    c4 = complete_family(4)
    assert len(c4) == 35 and c4.point_count() == 7
    assert is_mif(c4).ok
    with pytest.raises(ParameterOutOfRangeError):
        complete_family(1)
    # K(3) needs 5 points; K(65) needs 129, one over the default cap
    assert complete_family(3, max_universe=5) == c3
    with pytest.raises(UniverseOverflowError):
        complete_family(3, max_universe=4)
    with pytest.raises(UniverseOverflowError):
        complete_family(65)


def test_complete_family_blocks_are_all_subsets():
    c3 = complete_family(3)
    assert c3.blocks == tuple(combinations(range(5), 3))


@pytest.mark.parametrize("build, digest", [
    (lambda: complete_family(2),
     "22f24229f790ab5b82368004666db3808e17098c4547fda696be779656655c7e"),
    (lambda: complete_family(3),
     "b256f270638836f41b21a2ccb068d13b096053d18ca91cf0095432565f53decb"),
    (lambda: complete_family(4),
     "d6671e24ea1b803b23a19d98cac3f99596806cf956b3a1e9f2ee0a69757c5120"),
    (lambda: projective_plane(2),
     "cb048907a505fe2200011a28b9859918fb9239c831d4a2efd836026c73306b4c"),
    (lambda: projective_plane(3),
     "0d1f60fc7494a3b6c728df73b46744772b81486b7e3446f789f52fdce226b752"),
    (lambda: bg_family(3, 2).family,
     "0863e8ea5e519bd2008ead28086ca2c0569ea3cf1420fe5a69346f56353a421b"),
], ids=["triangle", "complete_3", "complete_4", "fano", "pg23", "bg_3_2"])
def test_construction_bytes_are_pinned(build, digest):
    # a construction's JSON output, plus a newline, keeps its bytes
    assert hashlib.sha256((build().to_json() + "\n").encode()).hexdigest() == digest
