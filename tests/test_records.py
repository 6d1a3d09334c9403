"""The result records (errors._Record) keep the contract of frozen
dataclasses, and importing the package loads no dataclasses
machinery."""

import os
import subprocess
import sys

import pytest

import miflab
from miflab import (BgFamily, BoundsTable, CollapseTrace, IspValidation, MifCertificate,
                    SetPairSystem, TransversalReport)
from miflab.family import Family
from miflab.search import IspSearchResult, SearchResult
from miflab.verify import VerifyItem, VerifyReport

FAM = Family([[0, 1], [0, 2], [1, 2]], 3)
FAM_TEXT = "Family([[0, 1], [0, 2], [1, 2]], universe_size=3)"
ISP = SetPairSystem([((0,), (1,)), ((1,), (0,))], k=1, t=1)
ISP_TEXT = "SetPairSystem([((0,), (1,)), ((1,), (0,))], k=1, t=1)"

# (class, field names in order, one value per field, repr of the record of
# those values as the dataclass printed it)
RECORDS = [
    (TransversalReport, ("tau", "transversals", "nodes"), (2, FAM, 7),
     f"TransversalReport(tau=2, transversals={FAM_TEXT}, nodes=7)"),
    (MifCertificate, ("ok", "k", "tau", "transversal_match", "reason"),
     (False, None, None, False, "not intersecting"),
     "MifCertificate(ok=False, k=None, tau=None, transversal_match=False, "
     "reason='not intersecting')"),
    (CollapseTrace, ("alpha", "betas", "chain", "pairs", "isp", "g_top_points"),
     (0, (0,), (FAM,), (((1,), (2,)),), ISP, 3),
     f"CollapseTrace(alpha=0, betas=(0,), chain=({FAM_TEXT},), pairs=(((1,), (2,)),), "
     f"isp={ISP_TEXT}, g_top_points=3)"),
    (IspValidation, ("ok", "n_pairs", "point_count", "violation", "message"),
     (False, 2, 2, (0, 1, "disjoint"), "A_0 misses B_1"),
     "IspValidation(ok=False, n_pairs=2, point_count=2, violation=(0, 1, 'disjoint'), "
     "message='A_0 misses B_1')"),
    (SearchResult, ("k", "universe_bound", "families", "nodes"), (2, 4, (FAM,), 5),
     f"SearchResult(k=2, universe_bound=4, families=({FAM_TEXT},), nodes=5)"),
    (IspSearchResult, ("k", "t", "max_points", "witness", "nodes"), (1, 1, 2, ISP, 3),
     f"IspSearchResult(k=1, t=1, max_points=2, witness={ISP_TEXT}, nodes=3)"),
    (BgFamily, ("k", "t", "family", "expected_transversals"), (3, 2, FAM, FAM),
     f"BgFamily(k=3, t=2, family={FAM_TEXT}, expected_transversals={FAM_TEXT})"),
    (BoundsTable, ("k", "el_lower", "tuza_nk_upper", "improved_upper", "half_central_binomial",
                   "conjectured_N", "main_upper_n_params"), (3, 6, 10, 9, 10, 10, (3, 1)),
     "BoundsTable(k=3, el_lower=6, tuza_nk_upper=10, improved_upper=9, "
     "half_central_binomial=10, conjectured_N=10, main_upper_n_params=(3, 1))"),
    (VerifyItem, ("index", "name", "status", "detail"), (1, "oracle", "PASS", "ok"),
     "VerifyItem(index=1, name='oracle', status='PASS', detail='ok')"),
    (VerifyReport, ("items",), ([VerifyItem(2, "bg", "FAIL", "x")],),
     "VerifyReport(items=[VerifyItem(index=2, name='bg', status='FAIL', detail='x')])"),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_construction_fields_and_repr(cls, names, values, text):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    mixed = cls(values[0], **dict(zip(names[1:], values[1:])))
    for record in (by_position, by_keyword, mixed):
        assert tuple(getattr(record, name) for name in names) == values
        assert repr(record) == text
    assert cls.__match_args__ == names


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_equality_and_hash_follow_type_and_fields(cls, names, values, text):
    record = cls(*values)
    assert record == cls(*values) and not record != cls(*values)
    changed = cls(*values[:-1], "other")
    assert record != changed
    assert record != values and record != dict(zip(names, values))
    others = [other(*vals) for other, _, vals, _ in RECORDS if other is not cls]
    assert all(record != other for other in others)
    if cls is VerifyReport:
        with pytest.raises(TypeError, match="unhashable type: 'list'"):
            hash(record)
    elif cls in (CollapseTrace, IspSearchResult):
        # a SetPairSystem has no hash, so neither has a record that holds one
        with pytest.raises(TypeError, match="unhashable type: 'SetPairSystem'"):
            hash(record)
    else:
        assert hash(record) == hash(cls(*values)) == hash(values)
        assert len({record, cls(*values), changed}) == 2


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_records_refuse_assignment_and_deletion(cls, names, values, text):
    record = cls(*values)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert cls(*values) == record


@pytest.mark.parametrize("cls, names, values, text", RECORDS, ids=IDS)
def test_bad_calls_raise_type_error(cls, names, values, text):
    # too many positional values, an unknown keyword, a field given twice;
    # and, but for VerifyReport whose one field has a default, no fields
    # and a field given twice while another is missing
    calls = [((*values, None), {}), (values, {"extra": 1}), (values, {names[0]: values[0]})]
    if cls is not VerifyReport:
        calls += [((), {}), (values[1:], {names[0]: values[0]})]
    for args, kwargs in calls:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_defaults():
    cert = MifCertificate(True, 2, 2, True)
    assert cert.reason == "" and cert == MifCertificate(True, 2, 2, True, "")
    assert repr(cert) == "MifCertificate(ok=True, k=2, tau=2, transversal_match=True, reason='')"
    first, second = VerifyReport(), VerifyReport()
    first.items.append(VerifyItem(1, "oracle", "PASS", "ok"))
    assert second.items == [] and VerifyReport().items == []
    assert repr(second) == "VerifyReport(items=[])"
    assert VerifyReport(items=first.items).items is first.items


def test_import_loads_no_dataclasses_machinery():
    # A fresh isolated interpreter; only the modules that the import adds
    # count, so a site hook that preloads one of them does not hide a
    # regression or fake one.
    src = os.path.dirname(os.path.dirname(miflab.__file__))
    code = ("import sys\n"
            f"sys.path.insert(0, {src!r})\n"
            "before = set(sys.modules)\n"
            "import miflab, miflab.cli\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    out = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True,
                         check=True, timeout=60).stdout.split()
    assert "miflab.cli" in out
    assert not {"dataclasses", "inspect"} & set(out)
