"""Generators for the concrete families used throughout: the bg(k,t)
family with its closed-form transversal family, small projective planes
from cyclic difference sets, and the complete k-subsets family."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .errors import (ParameterOutOfRangeError, UnsupportedOrderError, _check_count,
                     _check_int, _check_universe)
from .family import DEFAULT_MAX_UNIVERSE, Family

# order q -> (modulus q^2+q+1, difference set)
_DIFFERENCE_SETS = {
    2: (7, (1, 2, 4)),
    3: (13, (0, 1, 3, 9)),
}


@dataclass(frozen=True)
class BgFamily:
    """bg(k,t): k-subsets of a (k+t-2)-set S plus one block {x_A} | A per
    (k-1)-subset A of S.  Its transversal family has a closed form and
    witnesses the lower bound k+t-2+C(k+t-2,t-1) on transversal points."""
    k: int
    t: int
    family: Family
    expected_transversals: Family


def bg_family(k: int, t: int, max_universe: int | None = DEFAULT_MAX_UNIVERSE) -> BgFamily:
    """bg(k,t) on k+t-2+C(k+t-2,k-1) points; max_universe None means no cap."""
    _check_int("k", k)
    _check_int("t", t)
    _check_count("max_universe", max_universe)
    if not 2 <= t <= k - 1:
        raise ParameterOutOfRangeError(f"bg(k,t) needs 2 <= t <= k-1, got k={k}, t={t}")
    s_size = k + t - 2
    universe = s_size + comb(s_size, k - 1)
    _check_universe(universe, max_universe, f"bg({k},{t})")
    s_points = tuple(range(s_size))
    x_points = {a: s_size + i for i, a in enumerate(combinations(s_points, k - 1))}
    blocks = [c for c in combinations(s_points, k)]
    blocks += [(x,) + a for a, x in x_points.items()]
    family = Family(blocks, universe)
    s_set = set(s_points)
    expected = [c for c in combinations(s_points, t)]
    expected += [(x,) + tuple(sorted(s_set - set(a))) for a, x in x_points.items()]
    expected_transversals = Family(expected, universe)
    return BgFamily(k, t, family, expected_transversals)


def projective_plane(q: int) -> Family:
    """Plane of order q from a cyclic difference set: q^2+q+1 points and
    lines, any two lines meeting in exactly one point."""
    _check_int("q", q)
    if q not in _DIFFERENCE_SETS:
        raise UnsupportedOrderError(f"projective plane of order {q} is not generated here")
    n, dset = _DIFFERENCE_SETS[q]
    blocks = [[(d + i) % n for d in dset] for i in range(n)]
    return Family(blocks, n)


def complete_family(k: int, max_universe: int | None = DEFAULT_MAX_UNIVERSE) -> Family:
    """All k-subsets of a (2k-1)-set; intersecting by counting.  max_universe
    None means no cap."""
    _check_int("k", k, 2)
    _check_count("max_universe", max_universe)
    universe = 2 * k - 1
    _check_universe(universe, max_universe, f"complete family for k={k}")
    return Family(combinations(range(universe), k), universe)


def triangle() -> Family:
    return complete_family(2)
