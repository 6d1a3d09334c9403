"""Exact evaluation of the closed-form bounds and conjectured values.

Everything here is integer arithmetic; binomials with an out-of-range
lower index evaluate to 0, and every halving is checked to divide
exactly (central binomial coefficients are even from C(2,1) on).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import comb

from .errors import ParameterOutOfRangeError, VerificationError, _check_int


def binom(n: int, k: int) -> int:
    """C(n, k) with the convention that out-of-domain values are 0."""
    if k < 0 or k > n or n < 0:
        return 0
    return comb(n, k)


def _exact_half(value: int, what: str) -> int:
    if value % 2:
        raise VerificationError(f"{what} = {value} is odd; halving must be exact")
    return value // 2


def half_central_binomial(k: int) -> int:
    """C(2k-2, k-1) / 2, exact for k >= 2."""
    _check_int("k", k, 2)
    return _exact_half(comb(2 * k - 2, k - 1), f"C({2 * k - 2},{k - 1})")


def el_lower(k: int) -> int:
    """Erdos-Lovasz lower bound on the maximum point count: 2k-2 + C(2k-2,k-1)/2."""
    _check_int("k", k, 2)
    return 2 * k - 2 + half_central_binomial(k)


def conjectured_N(k: int) -> int:
    """Conjectured exact maximum point count; equals the lower bound."""
    return el_lower(k)


def central_binomial_sum(upper: int) -> int:
    """sum_{i=1}^{upper} C(2i, i); even whenever upper >= 1."""
    return sum(comb(2 * i, i) for i in range(1, upper + 1))


def tuza_nk_upper(k: int) -> int:
    """Tuza's upper bound on the maximum point count: (3/2) sum_{i=1}^{k-1} C(2i,i)."""
    _check_int("k", k, 2)
    s = central_binomial_sum(k - 1)
    return 3 * _exact_half(s, f"sum of central binomials up to i={k - 1}")


def improved_upper(k: int) -> int:
    """The sharpened upper bound: Tuza's bound minus C(2k-2,k-1)/2.

    Note this expansion is not a valid bound at k=2, where it evaluates to
    2 while the triangle has 3 points; callers needing a proven search cap
    at k=2 should fall back to tuza_nk_upper."""
    return tuza_nk_upper(k) - half_central_binomial(k)


def proven_point_cap(k: int) -> int:
    """A proven upper bound on the point count of a maximal intersecting
    family of k-sets, for capping an exhaustive search: the sharpened bound,
    or Tuza's bound where the sharpened expansion is invalid (k=2)."""
    cap = improved_upper(k)
    if cap < el_lower(k):
        cap = tuza_nk_upper(k)
    return cap


def bollobas_pair_bound(k: int, t: int) -> int:
    """Maximum number of pairs in a set-pair system with sides (k, t)."""
    _check_int("k", k, 0)
    _check_int("t", t, 0)
    return comb(k + t, k)


def tuza_nkt_upper(k: int, t: int) -> int:
    """Tuza's bound on the point count of a set-pair system with sides (k, t):
    C(k+t, t+1) - C(2t-1, t+1) + (3/2) sum_{i=1}^{t-1} C(2i, i), for k >= t >= 1."""
    _check_int("k", k)
    _check_int("t", t)
    if not k >= t >= 1:
        raise ParameterOutOfRangeError(f"needs k >= t >= 1, got k={k}, t={t}")
    s = central_binomial_sum(t - 1)
    return binom(k + t, t + 1) - binom(2 * t - 1, t + 1) + _exact_half(3 * s, f"3 * {s}")


#: Explicit 4-point witness showing the (k,t) = (2,1) evaluation of the
#: simplified sum (value 3) is below the true maximum; its validity range
#: at that boundary is unclear, so both values are reported side by side.
TUZA_NKT_BOUNDARY_CASES = {(2, 1): 4}


def tuza_conjecture_value(k: int, t: int) -> int:
    """Conjectured exact maximum point count of a set-pair system:
    ceil(k/(t+1)) * C(floor(kt/(t+1)) + t, t) + floor(kt/(t+1)) + t, for k >= t+2."""
    _check_int("k", k)
    _check_int("t", t)
    if k < t + 2:
        raise ParameterOutOfRangeError(f"conjectured value needs k >= t+2, got k={k}, t={t}")
    q = -(-k // (t + 1))  # ceil
    f = (k * t) // (t + 1)
    return q * comb(f + t, t) + f + t


@dataclass(frozen=True)
class BoundsTable:
    """All per-k values, plus the symbolic form of the main upper bound
    (its set-pair term has no closed form, so it stays a slot)."""
    k: int
    el_lower: int
    tuza_nk_upper: int
    improved_upper: int
    half_central_binomial: int
    conjectured_N: int
    main_upper_n_params: tuple[int, int]

    @property
    def main_upper_expr(self) -> str:
        a, b = self.main_upper_n_params
        return f"{self.half_central_binomial} + n({a},{b})"

    def to_json_obj(self) -> dict:
        return {
            "k": self.k,
            "el_lower": self.el_lower,
            "tuza_Nk_upper": self.tuza_nk_upper,
            "improved_upper": self.improved_upper,
            "half_central_binomial": self.half_central_binomial,
            "conjectured_N": self.conjectured_N,
            "main_upper": {
                "expr": self.main_upper_expr,
                "half_term": self.half_central_binomial,
                "n_params": list(self.main_upper_n_params),
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))


def eval_bounds(k: int) -> BoundsTable:
    return BoundsTable(
        k=k,
        el_lower=el_lower(k),
        tuza_nk_upper=tuza_nk_upper(k),
        improved_upper=improved_upper(k),
        half_central_binomial=half_central_binomial(k),
        conjectured_N=conjectured_N(k),
        main_upper_n_params=(k, k - 2),
    )
