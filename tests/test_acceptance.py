"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every criterion is exact (integer equality, set equality, byte equality);
there are no numeric tolerances.  Criteria 4-6 share one exhaustive
enumeration via a module fixture; the full-report test deliberately
recomputes everything twice to test determinism for real.
"""

import json

import pytest

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


def test_criterion_03_negative_control(tmp_path):
    # removing one line from the Fano fixture must fail the fixtures item
    from miflab.verify import default_fixtures_dir
    src = default_fixtures_dir()
    for path in src.glob("*.json"):
        (tmp_path / path.name).write_text(path.read_text())
    fano = json.loads((tmp_path / "fano.json").read_text())
    fano["blocks"] = fano["blocks"][1:]
    (tmp_path / "fano.json").write_text(json.dumps(fano))
    with pytest.raises(AssertionError):
        criterion_3_mif_fixtures(tmp_path)
    rep = build_report(skip_search=True, fixtures_dir=tmp_path)
    statuses = {item.name: item.status for item in rep.items}
    assert statuses["mif-fixtures"] == "FAIL"
    assert not rep.all_pass
    print("PASS criterion 3 negative control: corrupted fixture fails the item")


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
