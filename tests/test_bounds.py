import json
from math import comb

import pytest

from miflab.bounds import (binom, bollobas_pair_bound, central_binomial_sum,
                           conjectured_N, el_lower, eval_bounds, half_central_binomial,
                           improved_upper, proven_point_cap, tuza_conjecture_value,
                           tuza_nk_upper, tuza_nkt_upper, TUZA_NKT_BOUNDARY_CASES)
from miflab.errors import ParameterOutOfRangeError


def test_binom_out_of_domain_is_zero():
    assert binom(-1, 1) == 0
    assert binom(3, 5) == 0
    assert binom(3, -1) == 0
    assert binom(5, 2) == comb(5, 2)


def test_eval_bounds_k3():
    table = eval_bounds(3)
    assert table.el_lower == 7
    assert table.tuza_nk_upper == 12
    assert table.improved_upper == 9
    assert table.conjectured_N == 7
    assert table.main_upper_expr == "3 + n(3,1)"


def test_eval_bounds_k4():
    table = eval_bounds(4)
    assert table.el_lower == 16
    assert table.conjectured_N == 16


def test_eval_bounds_k2():
    table = eval_bounds(2)
    assert table.el_lower == 2 + comb(2, 1) // 2 == 3
    # the expanded upper bound is degenerate at k=2 (below the lower bound)
    assert table.improved_upper == 2
    assert table.tuza_nk_upper == 3


def test_identities_k2_to_k12():
    for k in range(2, 13):
        table = eval_bounds(k)
        assert table.improved_upper == table.tuza_nk_upper - half_central_binomial(k)
        assert table.el_lower == table.conjectured_N
        assert comb(2 * k - 2, k - 1) % 2 == 0
        assert central_binomial_sum(k - 1) % 2 == 0


def test_large_k_exact_integers():
    # C(2k-2, k-1) overflows 64 bits near k=34; everything must stay exact
    table = eval_bounds(40)
    assert table.improved_upper == table.tuza_nk_upper - half_central_binomial(40)
    assert 2 * half_central_binomial(40) == comb(78, 39)
    assert isinstance(table.el_lower, int)


def test_tuza_nkt_upper_values():
    assert tuza_nkt_upper(3, 1) == 6
    assert tuza_nkt_upper(3, 2) == 12
    assert tuza_nkt_upper(2, 1) == 3
    assert tuza_nkt_upper(2, 2) == 6


def test_tuza_nkt_upper_range():
    with pytest.raises(ParameterOutOfRangeError):
        tuza_nkt_upper(2, 3)
    with pytest.raises(ParameterOutOfRangeError):
        tuza_nkt_upper(3, 0)


def test_boundary_case_flag():
    assert TUZA_NKT_BOUNDARY_CASES == {(2, 1): 4}
    assert tuza_nkt_upper(2, 1) < TUZA_NKT_BOUNDARY_CASES[(2, 1)]


def test_tuza_conjecture_values():
    assert tuza_conjecture_value(3, 1) == 6
    assert tuza_conjecture_value(4, 2) == 16
    with pytest.raises(ParameterOutOfRangeError):
        tuza_conjecture_value(3, 2)


def test_bollobas_pair_bound():
    assert bollobas_pair_bound(2, 2) == 6
    assert bollobas_pair_bound(3, 1) == 4
    assert bollobas_pair_bound(2, 0) == 1


def test_lower_bound_equals_conjecture_by_definition():
    for k in range(2, 20):
        assert el_lower(k) == conjectured_N(k)


def test_k_below_two_rejected():
    for fn in (eval_bounds, el_lower, tuza_nk_upper, improved_upper):
        with pytest.raises(ParameterOutOfRangeError):
            fn(1)


def test_table_json_shape():
    obj = json.loads(eval_bounds(3).to_json())
    assert obj["k"] == 3
    assert obj["el_lower"] == 7
    assert obj["tuza_Nk_upper"] == 12
    assert obj["improved_upper"] == 9
    assert obj["main_upper"]["n_params"] == [3, 1]


def test_point_bound_at_t_k_minus_1_equals_simplified_sum():
    # substituting t = k-1 into the set-pair point bound collapses to the
    # simplified central-binomial sum; this is how the coarser bound arises
    for k in range(2, 13):
        assert tuza_nkt_upper(k, k - 1) == tuza_nk_upper(k)


def test_improved_upper_matches_main_result_for_k3():
    # with the searched value n(3,1) = 6, the symbolic main bound evaluates
    # to the same number as the expanded form
    table = eval_bounds(3)
    assert table.half_central_binomial + 6 == table.improved_upper == 9


def test_proven_point_cap():
    # the sharpened bound is invalid at k=2 (2 < 3 points of the triangle)
    assert proven_point_cap(2) == tuza_nk_upper(2) == 3
    for k in range(3, 9):
        assert proven_point_cap(k) == improved_upper(k) >= el_lower(k)
    with pytest.raises(ParameterOutOfRangeError):
        proven_point_cap(1)
