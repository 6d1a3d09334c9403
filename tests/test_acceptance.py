"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion is exact (integer equality, set equality, byte equality);
there are no numeric tolerances.  Criteria 4-6 share one exhaustive
enumeration via a module fixture; the full-report test deliberately
recomputes everything twice to test determinism for real.
"""

import pytest

from miflab import verify
from miflab.constructions import projective_plane
from miflab.family import Family
from miflab.search import enumerate_mifs
from miflab.verify import (build_report, criterion_1_oracle_equivalence,
                           criterion_2_bg_identity, criterion_3_mif_fixtures,
                           criterion_4_merge, criterion_5_collapse,
                           criterion_6_search_values, criterion_7_isp_values,
                           criterion_8_bounds_identities, criterion_9_chromatic,
                           criterion_10_determinism, render_json, render_text)


@pytest.fixture(scope="module")
def search39():
    return enumerate_mifs(3, 9)


def report(index, detail):
    print(f"PASS criterion {index}: {detail}")


def test_criterion_01_oracle_equivalence():
    report(1, criterion_1_oracle_equivalence())


def test_criterion_02_bg_identity():
    report(2, criterion_2_bg_identity())


def test_criterion_03_mif_fixtures():
    report(3, criterion_3_mif_fixtures())


def test_criterion_03_negative_control(monkeypatch):
    # Fano minus one block is not maximal, so the fixtures item must fail
    fano_less_one = Family(projective_plane(2).blocks[1:], 7)
    broken = [(name, lambda: fano_less_one, k, ok) if name == "fano" else (name, build, k, ok)
              for name, build, k, ok in verify.FIXTURE_EXPECTATIONS]
    monkeypatch.setattr(verify, "FIXTURE_EXPECTATIONS", broken)
    with pytest.raises(AssertionError):
        criterion_3_mif_fixtures()
    rep = build_report(skip_search=True)
    statuses = {item.name: item.status for item in rep.items}
    assert statuses["mif-fixtures"] == "FAIL"
    assert not rep.all_pass
    print("PASS criterion 3 negative control: a non-maximal family fails the item")


def test_criterion_04_merge(search39):
    report(4, criterion_4_merge(search39))


def test_criterion_05_collapse(search39):
    report(5, criterion_5_collapse(search39))


def test_criterion_06_search_values(search39):
    report(6, criterion_6_search_values(search39))


def test_criterion_07_isp_values():
    report(7, criterion_7_isp_values())


def test_criterion_08_bounds_identities():
    report(8, criterion_8_bounds_identities())


def test_criterion_09_chromatic():
    report(9, criterion_9_chromatic())


def test_criterion_10_determinism(search39):
    report(10, criterion_10_determinism(search39))


def test_criterion_10_full_reports_byte_identical():
    # two complete verify-paper runs
    rep1 = build_report()
    rep2 = build_report()
    text1, text2 = render_text(rep1), render_text(rep2)
    assert text1 == text2
    assert render_json(rep1) == render_json(rep2)
    assert rep1.all_pass and rep2.all_pass
    print("PASS criterion 10: verify-paper reports byte-identical across runs "
          "(text and JSON)")


def test_skip_search_marks_items_skipped():
    rep = build_report(skip_search=True)
    statuses = {item.index: item.status for item in rep.items}
    assert statuses[4] == statuses[5] == statuses[6] == statuses[7] == statuses[10] == "SKIPPED"
    assert rep.all_pass
    print("PASS: --skip search leaves the suite green with search items SKIPPED")


def test_shared_search_failure_fails_only_the_criteria_that_read_it(monkeypatch):
    def failing_search(*args, **kwargs):
        raise RuntimeError("no search")

    monkeypatch.setattr(verify, "enumerate_mifs", failing_search)
    rep = build_report()
    items = {item.index: item for item in rep.items}
    for index in (4, 5, 6, 10):
        assert items[index].status == "FAIL"
        assert items[index].detail == "shared search failed: RuntimeError: no search"
    # criterion 7 runs set-pair searches of its own
    assert [items[i].status for i in (1, 2, 3, 7, 8, 9)] == ["PASS"] * 6
    assert not rep.all_pass
    print("PASS: a failed shared search fails criteria 4-6 and 10 only")
