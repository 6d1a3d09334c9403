import random
from fractions import Fraction
from itertools import combinations, product
from math import comb

import pytest

from miflab import transversal
from miflab.bounds import (bollobas_pair_bound, el_lower, eval_bounds, half_central_binomial,
                           tuza_conjecture_value, tuza_nkt_upper)
from miflab.canonical import least_block_list
from miflab.constructions import bg_family, complete_family, projective_plane, triangle
from miflab.errors import (CoveredPairError, EmptyBlockError, EmptyFamilyError,
                           NotIntersectingError, NotMifError, NotUniformError,
                           ParameterOutOfRangeError, SamePointError, VerificationError)
from miflab.family import Family
from miflab.isp import SetPairSystem, bollobas_sum, validate_isp
from miflab.mif import (MifCertificate, _merge, chromatic_class, collapse, is_mif,
                        is_one_critical, merge)
from miflab.search import enumerate_mifs
from miflab.transversal import _hitting_sets as hitting_sets
from miflab.transversal import brute_force_transversals
from miflab.verify import random_uniform_family

# a maximal family of triples on 6 points whose pair {4,5} lies in no block;
# found by the exhaustive search and confirmed by the maximal-clique oracle
MIF6 = Family([(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4),
               (0, 3, 5), (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 3, 4)], 6)


def test_is_mif_positive_fixtures():
    assert is_mif(triangle()).ok
    assert is_mif(complete_family(3)).ok
    cert = is_mif(projective_plane(2))
    assert cert.ok and cert.k == 3 and cert.tau == 3 and cert.transversal_match


def test_is_mif_negative_bg():
    cert = is_mif(bg_family(3, 2).family)
    assert not cert and cert.tau == 2 and "tau=2 != k=3" in cert.reason


def test_is_mif_negative_non_maximal():
    # a star of triples: tau = 1
    star = Family([[0, 1, 2], [0, 3, 4], [0, 1, 4]], 5)
    cert = is_mif(star)
    assert not cert.ok and cert.tau == 1


def test_is_mif_errors():
    with pytest.raises(EmptyFamilyError):
        is_mif(Family([], 3))
    with pytest.raises(EmptyBlockError):
        is_mif(Family([[], [0]], 2))


def test_is_mif_mixed_sizes_is_a_negative_verdict():
    cert = is_mif(Family([[0, 1], [0, 1, 2]], 3))
    assert not cert.ok and cert.k is None and "mixed" in cert.reason


def test_is_mif_negative_when_the_transversals_are_not_the_blocks():
    # Fano minus one line keeps tau = 3, but the removed line is a minimum
    # transversal that is no block
    fano = projective_plane(2)
    cert = is_mif(Family(fano.blocks[:-1], fano.universe_size))
    assert cert == MifCertificate(False, 3, 3, False,
                                  "transversal family differs from the blocks")


def test_is_mif_raises_on_a_repeated_kernel_answer(monkeypatch):
    # a faulty kernel that finds one minimum transversal twice
    def repeating_kernel(masks, collect, limit=None):
        t, found, nodes = hitting_sets(masks, collect, limit)
        return t, found + found[:1], nodes

    monkeypatch.setattr(transversal, "_hitting_sets", repeating_kernel)
    with pytest.raises(VerificationError, match="^two masks name the same block$"):
        is_mif(projective_plane(2))


def test_cross_check_raises_on_a_missing_blocking_set(monkeypatch):
    # a faulty kernel that reports a family as its own transversal family:
    # Fano minus one line then passes tau = k and the comparison, and only
    # the cross-check finds a blocking 3-subset that is no block (the
    # removed line is one, and (0, 1, 2) comes first)
    fano = projective_plane(2)
    fam = Family(fano.blocks[:-1], fano.universe_size)
    monkeypatch.setattr("miflab.mif._minimum_transversals",
                        lambda masks, k: (3, list(masks), 0))
    with pytest.raises(VerificationError,
                       match=r"^blocking 3-subset \(0, 1, 2\) missing"):
        is_mif(fam)


def characterization_oracle(fam):
    """Independent route: intersecting, tau = k by subset scan, and every
    blocking k-subset of the point set is a block."""
    k = fam.uniform_block_size()
    pts = sorted(fam.point_set())
    if not fam.is_intersecting():
        return False
    for s in range(1, k):
        for cand in combinations(pts, s):
            if fam.is_blocking_set(cand):
                return False
    for cand in combinations(pts, k):
        if fam.is_blocking_set(cand) and cand not in fam.blocks:
            return False
    return True


def test_is_mif_matches_characterization():
    rng = random.Random(321)
    seen_positive = 0
    for _ in range(150):
        fam = random_uniform_family(rng, rng.choice((2, 3)), max_points=7)
        verdict = is_mif(fam).ok
        assert verdict == characterization_oracle(fam)
        seen_positive += verdict
    assert is_mif(MIF6).ok and characterization_oracle(MIF6)


def test_is_one_critical():
    assert is_one_critical(triangle())
    assert not is_one_critical(Family([[0, 1], [0, 2]], 3))
    assert is_one_critical(projective_plane(2))
    assert is_one_critical(MIF6)


def chromatic_oracle(fam):
    pts = sorted(fam.point_set())
    for coloring in product((0, 1), repeat=len(pts)):
        colors = dict(zip(pts, coloring))
        if all(len({colors[p] for p in b}) > 1 for b in fam.blocks):
            return 2
    return 3


def test_chromatic_fano_exhaustive():
    fano = projective_plane(2)
    assert chromatic_class(fano) == 3 == chromatic_oracle(fano)


def test_chromatic_pg23():
    plane = projective_plane(3)
    assert chromatic_class(plane) == 2 == chromatic_oracle(plane)


def test_chromatic_single_block():
    assert chromatic_class(Family([[0, 1, 2]], 3)) == 2


def test_chromatic_random_matches_oracle():
    rng = random.Random(9)
    checked = 0
    while checked < 40:
        fam = random_uniform_family(rng, rng.choice((2, 3)), max_points=8)
        if not fam.is_intersecting():
            continue
        assert chromatic_class(fam) == chromatic_oracle(fam)
        checked += 1


def test_chromatic_large_star_needs_no_recursion():
    # the pairs {0, i} on 1100 points: 2-colourable, one point per search level
    star = Family([(0, i) for i in range(1, 1100)], 1100)
    assert chromatic_class(star) == 2


def test_chromatic_errors():
    with pytest.raises(NotUniformError):
        chromatic_class(Family([[0, 1], [0, 1, 2]], 3))
    with pytest.raises(NotIntersectingError):
        chromatic_class(Family([[0, 1], [2, 3]], 4))
    with pytest.raises(ParameterOutOfRangeError):
        chromatic_class(Family([[0]], 1))


def test_merge_covered_pair_rejected():
    fano = projective_plane(2)
    for a, b in [(0, 1), (2, 5)]:
        with pytest.raises(CoveredPairError):
            merge(fano, a, b)
    with pytest.raises(CoveredPairError):
        merge(triangle(), 0, 1)


def test_merge_usage_errors():
    with pytest.raises(SamePointError):
        merge(triangle(), 1, 1)
    with pytest.raises(NotMifError):
        merge(bg_family(3, 2).family, 0, 1)
    with pytest.raises(ParameterOutOfRangeError):
        merge(triangle(), 0, 9)
    # a huge point must not build a huge mask, nor a negative one a bad shift
    for alpha in (10**12, -1):
        with pytest.raises(ParameterOutOfRangeError):
            merge(MIF6, alpha, 5)


@pytest.mark.parametrize("call", [
    lambda: el_lower(3.0),
    lambda: eval_bounds(3.0),
    lambda: half_central_binomial(1),
    lambda: tuza_nkt_upper(3, 1.0),
    lambda: tuza_conjecture_value(4, True),
    lambda: bollobas_pair_bound(2.0, 1),
    lambda: complete_family(3.0),
    lambda: complete_family(3, max_universe=True),
    lambda: complete_family(3, max_universe=-1),
    lambda: bg_family(4.0, 2),
    lambda: bg_family(4, 2, max_universe=12.5),
    lambda: projective_plane(2.0),
    lambda: merge(MIF6, 4.0, 5),
    lambda: merge(MIF6, True, 5),
    lambda: collapse(MIF6, 1.0),
    lambda: Family([(0, 1)], 3.0),
    lambda: SetPairSystem([((0,), (1,))], k=True, t=1),
], ids=["el_lower-float", "eval_bounds-float", "half_central_binomial-1",
        "tuza_nkt_upper-float", "tuza_conjecture_value-bool", "bollobas_pair_bound-float",
        "complete_family-float", "complete_family-bool-cap", "complete_family-negative-cap",
        "bg_family-float", "bg_family-float-cap", "projective_plane-float", "merge-float",
        "merge-bool", "collapse-float", "family-float-universe", "set-pair-system-bool-k"])
def test_library_refuses_bad_integer_parameters(call):
    # every layer applies the search's rule: a bool or a non-int is refused
    with pytest.raises(ParameterOutOfRangeError):
        call()


def test_merge_removes_one_point():
    for alpha, beta in [(4, 5), (5, 4)]:
        result = merge(MIF6, alpha, beta)
        cert = is_mif(result)
        assert cert.ok and cert.k == 3
        assert result.point_set() == MIF6.point_set() - {beta}
        assert result.point_count() == 5
        # the only 5-point class is the complete family of triples
        assert least_block_list(result.blocks) == least_block_list(complete_family(3).blocks)


def test_merge_keeps_beta_free_blocks_and_rewrites_beta_blocks():
    alpha, beta = 4, 5
    result = merge(MIF6, alpha, beta)
    for b in MIF6.blocks:
        if beta not in b:
            assert b in result.blocks
        else:
            rewritten = tuple(sorted(set(b) - {beta} | {alpha}))
            assert rewritten in result.blocks


def test_merge_step_faults_on_families_that_are_not_maximal():
    # the step's own checks, reached past merge's maximality test: the
    # kernel finds the transversals (5, 8) and (3, 5) of the blocks
    # avoiding {0, 4} in that order, both meet every transversal, and the
    # error names the first in block order
    fam = Family([(0, 1, 7), (0, 2, 7), (0, 2, 8), (0, 4, 5), (0, 5, 7), (0, 5, 8),
                  (1, 3, 8), (2, 3, 5), (2, 4, 8), (2, 5, 7), (2, 5, 8), (3, 4, 6),
                  (3, 5, 6), (3, 7, 8), (4, 5, 7), (4, 6, 8), (5, 6, 8), (5, 7, 8)], 9)
    with pytest.raises(VerificationError,
                       match=r"^transversal \(3, 5\) of the reduced family meets all others$"):
        _merge(fam, 3, 0, 4)
    with pytest.raises(VerificationError,
                       match="^blocks avoiding the pair have transversal size 0, want 1$"):
        _merge(Family([(0, 1), (2, 3)], 4), 2, 1, 2)


def test_collapse_triangle():
    trace = collapse(triangle(), 0)
    assert trace.betas == (0,)
    assert trace.n_steps == 1
    assert trace.g_top_points == 2
    assert trace.chain == (triangle(),)
    assert trace.isp.pairs == (((1,), (2,)), ((2,), (1,)))
    assert bollobas_sum(trace.isp) == 1
    assert triangle().point_count() == trace.n_steps + trace.g_top_points


def test_collapse_fano_every_alpha():
    fano = projective_plane(2)
    for alpha in range(7):
        trace = collapse(fano, alpha)
        assert trace.n_steps == 1
        assert trace.g_top_points == 6
        assert len(trace.isp.pairs) == 2
        assert validate_isp(trace.isp).ok
        assert bollobas_sum(trace.isp) == Fraction(2, comb(4, 2))
        assert 2 * trace.n_steps <= comb(4, 2)


def test_collapse_chain_with_merges():
    trace = collapse(MIF6, 0)
    assert trace.betas[0] == 0
    assert trace.n_steps == len(trace.chain)
    # every chain step is the merge of its predecessor
    for i in range(1, len(trace.chain)):
        assert trace.chain[i] == merge(trace.chain[i - 1], 0, trace.betas[i])
    assert validate_isp(trace.isp).ok
    assert trace.isp.k == trace.isp.t == 2
    assert len(trace.isp.pairs) == 2 * trace.n_steps
    assert MIF6.point_count() == trace.n_steps + trace.g_top_points
    # witness pairs meet exactly in their beta
    for (b1, b2), beta in zip(trace.pairs, trace.betas):
        assert set(b1) & set(b2) == {beta}


def test_collapse_errors():
    with pytest.raises(NotMifError):
        collapse(bg_family(3, 2).family, 0)
    with pytest.raises(ParameterOutOfRangeError):
        collapse(triangle(), 7)
    for alpha in (10**12, -1):
        with pytest.raises(ParameterOutOfRangeError):
            collapse(MIF6, alpha)


def test_collapse_proves_each_chain_family_maximal_once(monkeypatch):
    # the input is checked once and each merge step checks its result once;
    # calling the public merge per step checked every later family twice
    calls = [0]

    def counting_is_mif(family, cross_check=True):
        calls[0] += 1
        return is_mif(family, cross_check)

    classes = enumerate_mifs(3, 9).families
    assert len(classes) == 8
    monkeypatch.setattr("miflab.mif.is_mif", counting_is_mif)
    merged = 0
    for family in classes:
        for alpha in sorted(family.point_set()):
            calls[0] = 0
            trace = collapse(family, alpha)
            assert calls[0] == len(trace.chain), (family.blocks, alpha)
            merged += len(trace.chain) - 1
    assert merged > 0  # some chains merge, where the counts differed


def test_collapse_trace_json_round_trip_fields():
    import json
    trace = collapse(MIF6, 0)
    obj = json.loads(trace.to_json())
    assert obj["alpha"] == 0
    assert obj["betas"] == list(trace.betas)
    assert len(obj["chain"]) == trace.n_steps
    assert obj["g_top_points"] == trace.g_top_points
    assert len(obj["isp"]["pairs"]) == 2 * trace.n_steps


def test_mif_transversal_match_against_oracle():
    # the family of transversals of a maximal family is the family itself
    for fam in (triangle(), complete_family(3), projective_plane(2), MIF6):
        rep = brute_force_transversals(fam)
        assert rep.transversals.blocks == fam.blocks
