import json

import pytest

from miflab.cli import main
from miflab.constructions import bg_family, projective_plane
from miflab.family import Family


@pytest.fixture()
def fano_path(tmp_path):
    path = tmp_path / "fano.json"
    path.write_text(projective_plane(2).to_json() + "\n")
    return str(path)


@pytest.fixture()
def bg_path(tmp_path):
    path = tmp_path / "bg.json"
    path.write_text(bg_family(3, 2).family.to_json() + "\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_plane(capsys):
    code, out, _ = run(capsys, "gen", "--construction", "plane", "--q", "2",
                       "--format", "json")
    assert code == 0
    assert Family.from_json(out) == projective_plane(2)


def test_gen_defaults_to_json(capsys):
    code, out, _ = run(capsys, "gen", "--construction", "complete", "--k", "2")
    assert code == 0
    assert json.loads(out) == {"universe": 3, "blocks": [[0, 1], [0, 2], [1, 2]]}


def test_gen_complete_text_format(capsys):
    code, out, _ = run(capsys, "gen", "--construction", "complete", "--k", "2",
                       "--format", "text")
    assert code == 0
    assert out == "b 0 1\nb 0 2\nb 1 2\n"


def test_gen_bg_overflow_is_usage_error(capsys):
    code, _, err = run(capsys, "gen", "--construction", "bg", "--k", "6", "--t", "5")
    assert code == 2 and "cap" in err


def test_gen_bg_with_raised_cap(capsys):
    code, out, _ = run(capsys, "gen", "--construction", "bg", "--k", "6", "--t", "5",
                       "--max-universe", "256", "--format", "json")
    assert code == 0
    assert json.loads(out)["universe"] == 135


def test_tau_and_transversals(capsys, bg_path):
    code, out, _ = run(capsys, "tau", bg_path)  # JSON by default
    obj = json.loads(out)
    assert code == 0 and obj["tau"] == 2 and obj["nodes"] > 0
    code, out, _ = run(capsys, "transversals", bg_path)
    obj = json.loads(out)
    assert obj["tau"] == 2
    assert obj["transversals"] == [[0, 1], [0, 2], [0, 5], [1, 2], [1, 4], [2, 3]]
    assert obj["nodes"] > 0


def test_tau_text_format(capsys, bg_path):
    code, out, _ = run(capsys, "tau", bg_path, "--format", "text")
    assert code == 0 and out.strip() == "tau 2"


def test_tau_infinite_marker(capsys, tmp_path):
    path = tmp_path / "empty_block.json"
    path.write_text('{"universe":2,"blocks":[[],[0]]}')
    code, out, _ = run(capsys, "tau", str(path))
    assert code == 0 and json.loads(out)["tau"] == "infinity"


def test_check_mif_exit_codes(capsys, fano_path, bg_path):
    code, out, _ = run(capsys, "check-mif", fano_path)
    assert code == 0 and "k=3" in out
    code, out, _ = run(capsys, "check-mif", bg_path)
    assert code == 1 and "tau=2 != k=3" in out


def test_check_mif_json(capsys, fano_path):
    code, out, _ = run(capsys, "check-mif", fano_path, "--format", "json")
    obj = json.loads(out)
    assert obj == {"ok": True, "k": 3, "tau": 3, "transversal_match": True, "reason": ""}


def test_merge_covered_pair_exits_1(capsys, fano_path):
    code, _, err = run(capsys, "merge", fano_path, "--alpha", "0", "--beta", "1")
    assert code == 1 and "block contains both" in err


def test_merge_same_point_is_usage(capsys, fano_path):
    code, _, err = run(capsys, "merge", fano_path, "--alpha", "0", "--beta", "0")
    assert code == 2


def test_merge_positive(capsys, tmp_path):
    mif6 = Family([(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4),
                   (0, 3, 5), (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 3, 4)], 6)
    path = tmp_path / "mif6.json"
    path.write_text(mif6.to_json())
    code, out, _ = run(capsys, "merge", str(path), "--alpha", "4", "--beta", "5",
                       "--format", "json")
    assert code == 0
    merged = Family.from_json(out)
    assert merged.point_count() == 5


def test_collapse_json(capsys, fano_path):
    code, out, _ = run(capsys, "collapse", fano_path, "--alpha", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["alpha"] == 3 and obj["betas"] == [3] and obj["g_top_points"] == 6
    assert len(obj["isp"]["pairs"]) == 2


def test_chromatic(capsys, fano_path):
    code, out, _ = run(capsys, "chromatic", fano_path)
    assert code == 0 and out.strip() == "chromatic 3"


def test_isp_validate_and_extract(capsys, fano_path, tmp_path):
    code, out, _ = run(capsys, "isp-extract", fano_path)
    assert code == 0
    isp_path = tmp_path / "isp.json"
    isp_path.write_text(out)
    code, out, _ = run(capsys, "isp-validate", str(isp_path), "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["ok"] is True and obj["points"] == 7


def test_isp_validate_negative(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"pairs":[{"A":[0],"B":[1]},{"A":[2],"B":[3]}]}')
    code, out, _ = run(capsys, "isp-validate", str(path), "--format", "json")
    assert code == 1
    assert json.loads(out)["violation"] == [0, 1, "disjoint"]


def test_isp_validate_negative_point_is_usage_error(capsys, tmp_path):
    path = tmp_path / "neg.json"
    path.write_text('{"pairs":[{"A":[-1],"B":[2]},{"A":[2],"B":[-1]}]}')
    code, _, err = run(capsys, "isp-validate", str(path))
    assert code == 2 and "error" in err


def test_isp_validate_repeated_point_is_usage_error(capsys, tmp_path):
    # A = [0, 0] is the set {0}: counting it as two points gave sum 1/3
    path = tmp_path / "repeat.json"
    path.write_text('{"pairs":[{"A":[0,0],"B":[1]}]}')
    code, out, err = run(capsys, "isp-validate", str(path))
    assert code == 2 and "repeats" in err and out == ""


def test_bounds_text_table(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "3")
    assert code == 0
    for token in ("7", "12", "9"):
        assert token in out


def test_bounds_format_json(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert (obj["el_lower"], obj["tuza_Nk_upper"], obj["improved_upper"]) == (7, 12, 9)


def test_bounds_format_json_boundary_witness(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "2", "--t", "1", "--format", "json")
    assert code == 0
    assert json.loads(out)["t_section"]["boundary_witness_points"] == 4


def test_bounds_boundary_note(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "2", "--t", "1")
    assert code == 0 and "note:" in out


def test_search_mif_json(capsys):
    code, out, _ = run(capsys, "search", "mif", "--k", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["max_points"] == 3 and obj["universe_bound"] == 3


def test_search_mif_budget_exit(capsys, tmp_path):
    ck = tmp_path / "ck.log"
    code, _, err = run(capsys, "search", "mif", "--k", "3", "--budget", "10",
                       "--checkpoint", str(ck))
    assert code == 3 and ck.exists()
    code, out, _ = run(capsys, "search", "mif", "--k", "3", "--resume", str(ck),
                       "--format", "json")
    assert code == 0 and json.loads(out)["max_points"] == 7
    code, _, err = run(capsys, "search", "mif", "--k", "3", "--budget", "-4")
    assert code == 2 and "budget" in err


def test_search_mif_bad_checkpoint_record_exit(capsys, tmp_path):
    ck = tmp_path / "ck.log"
    run(capsys, "search", "mif", "--k", "3", "--budget", "10", "--checkpoint", str(ck))
    header = ck.read_text().splitlines()[0]
    ck.write_text(header + "\nF 0,1\n")
    code, _, err = run(capsys, "search", "mif", "--k", "3", "--resume", str(ck))
    assert code == 2 and "checkpoint record" in err


def test_bool_point_id_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text('{"universe": 3, "blocks": [[0, true], [1, 2]]}')
    code, _, err = run(capsys, "tau", str(path))
    assert code == 2 and "error" in err


def test_search_isp(capsys):
    code, out, _ = run(capsys, "search", "isp", "--k", "3", "--t", "1",
                       "--format", "json")
    assert code == 0 and json.loads(out)["max_points"] == 6


@pytest.mark.parametrize("argv", [
    ("search", "isp", "--k", "2", "--t", "1", "--checkpoint", "ck.log", "--workers", "4",
     "--max-points", "3"),
    ("search", "mif", "--k", "2", "--t", "5"),
    ("search", "isp", "--k", "2"),
])
def test_search_rejects_flags_of_the_other_search(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    assert code == 2 and "error" in capsys.readouterr().err
    assert not (tmp_path / "ck.log").exists()


def test_parse_error_reports_position(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"universe":3,"blocks":[[0,1]')
    code, _, err = run(capsys, "tau", str(path))
    assert code == 2 and "line" in err and "column" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run(capsys, "tau", "/nonexistent/family.json")
    assert code == 2


def test_directory_as_family_is_usage_error(capsys, tmp_path):
    code, _, err = run(capsys, "tau", str(tmp_path))
    assert code == 2 and err.startswith("error: ")


def test_non_utf8_family_is_usage_error(capsys, tmp_path):
    path = tmp_path / "family.txt"
    path.write_bytes(b"\xffb 0 1\n")
    code, _, err = run(capsys, "tau", str(path))
    assert code == 2 and err.startswith("error: ")


def test_non_utf8_checkpoint_is_usage_error(capsys, tmp_path):
    ck = tmp_path / "ck.log"
    ck.write_bytes(b'mifsearch-v1 {"k":3,"p_max":9,"nodes":0}\nF 0,1,2\xff\n')
    code, _, err = run(capsys, "search", "mif", "--k", "3", "--resume", str(ck))
    assert code == 2 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ("search", "mif", "--k", "3", "--workers", "2"),
    ("verify-paper", "--workers", "2"),
])
def test_workers_flag_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 2 and "--workers" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("bounds", "--k", "3", "--json"),
    ("isp-extract", "{fano}", "--format", "text"),  # isp-extract prints JSON only
    ("verify-paper", "--fixtures", "x"),  # criterion 3 builds its families
])
def test_removed_flags_are_usage_errors(capsys, fano_path, argv):
    with pytest.raises(SystemExit) as info:
        main([a.format(fano=fano_path) for a in argv])
    assert info.value.code == 2 and "unrecognized arguments" in capsys.readouterr().err


def test_text_family_input_accepted(capsys, tmp_path):
    path = tmp_path / "fam.txt"
    path.write_text("b 0 1\nb 1 2\nb 0 2\n")
    code, out, _ = run(capsys, "check-mif", str(path))
    assert code == 0 and "k=2" in out


def test_transversals_text_mode(capsys, bg_path):
    code, out, _ = run(capsys, "transversals", bg_path, "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "tau 2"
    assert lines[1:7] == ["b 0 1", "b 0 2", "b 0 5", "b 1 2", "b 1 4", "b 2 3"]
    assert lines[7].startswith("nodes ")


def test_collapse_text_mode(capsys, fano_path):
    code, out, _ = run(capsys, "collapse", fano_path, "--alpha", "0", "--format", "text")
    assert code == 0
    assert "steps 1" in out and "g_top_points 6" in out


def test_search_text_mode(capsys):
    code, out, _ = run(capsys, "search", "mif", "--k", "3", "--format", "text")
    assert code == 0
    assert "classes 8" in out and "max_points 7" in out and "on 7 points: 2" in out


def test_gen_writes_file(capsys, tmp_path):
    dest = tmp_path / "fam.json"
    code, _, _ = run(capsys, "gen", "--construction", "plane", "--q", "3",
                     "-o", str(dest))
    assert code == 0
    assert Family.from_json(dest.read_text()) == projective_plane(3)


def test_verify_paper_json_cli(capsys):
    code, out, _ = run(capsys, "verify-paper", "--skip", "search", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["all_pass"] is True
    skipped = [i for i in obj["items"] if i["status"] == "SKIPPED"]
    assert {i["index"] for i in skipped} == {4, 5, 6, 7, 10}


@pytest.mark.parametrize("fmt, passed", [
    ("text", b"RESULT  all criteria passed"),
    ("json", b'"all_pass":true'),
], ids=["text", "json"])
def test_verify_paper_process_level_determinism(fmt, passed):
    # two fresh processes must emit identical bytes
    import subprocess
    import sys
    cmd = [sys.executable, "-m", "miflab.cli", "verify-paper", "--skip", "search",
           "--format", fmt]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert passed in first.stdout
