import json
from pathlib import Path

import pytest

from miflab.cli import main
from miflab.constructions import bg_family, projective_plane
from miflab.family import Family
from miflab.isp import extract_isp


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


@pytest.mark.parametrize("argv, name", [
    (("bg", "--t", "2"), "k"),
    (("bg", "--k", "3"), "t"),
    (("plane",), "q"),
    (("complete",), "k"),
])
def test_gen_missing_parameter_is_usage_error(capsys, argv, name):
    # the constructions refuse the missing value themselves
    code, out, err = run(capsys, "gen", "--construction", *argv)
    assert code == 2 and out == ""
    assert f"error: {name} must be an integer, got None" in err


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


def test_isp_validate_large_point_ids(tmp_path):
    # masks over the raw ids ended in a MemoryError under the cap
    from test_search import run_with_address_limit
    path = tmp_path / "big.json"
    path.write_text('{"pairs":[{"A":[100000000000],"B":[100000000001]},'
                    '{"A":[100000000001],"B":[100000000000]}]}')
    run = run_with_address_limit("-m", "miflab.cli", "isp-validate", str(path))
    assert run.returncode == 0 and run.stderr == "", run.stderr
    assert run.stdout == "valid: 2 pairs, 2 points, sum 1\n"


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


def test_search_mif_repeated_pending_record_exit(capsys, tmp_path):
    # the walk writes no pending record twice; one repeated is a usage error
    ck = tmp_path / "ck.log"
    run(capsys, "search", "mif", "--k", "3", "--budget", "100", "--checkpoint", str(ck))
    lines = ck.read_text().splitlines()
    last = max(i for i, line in enumerate(lines) if line.startswith("F "))
    ck.write_text("\n".join(lines[:last + 1] + lines[last:]) + "\n")
    code, _, err = run(capsys, "search", "mif", "--k", "3", "--resume", str(ck))
    assert code == 2 and "another pending record" in err


def test_bool_point_id_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bool.json"
    path.write_text('{"universe": 3, "blocks": [[0, true], [1, 2]]}')
    code, _, err = run(capsys, "tau", str(path))
    assert code == 2 and "error" in err


def test_search_isp(capsys):
    code, out, _ = run(capsys, "search", "isp", "--k", "3", "--t", "1",
                       "--format", "json")
    assert code == 0 and json.loads(out)["max_points"] == 6


def test_search_isp_too_large_is_a_usage_error():
    # refused before the search allocates anything: without the refusal the
    # child process dies of MemoryError under its address-space cap
    from test_search import run_with_address_limit
    run = run_with_address_limit("-m", "miflab.cli", "search", "isp", "--k", "9", "--t", "9",
                                 "--budget", "5")
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("error: (9, 9) is too large") and run.stderr.count("\n") == 1


def test_search_mif_huge_cap_is_a_usage_error():
    # refused before the root's candidate list is built
    from test_search import run_with_address_limit
    run = run_with_address_limit("-m", "miflab.cli", "search", "mif", "--k", "3",
                                 "--max-points", "1000", "--budget", "5")
    assert run.returncode == 2 and run.stdout == ""
    assert run.stderr.startswith("error: p_max = 1000 is too large") and run.stderr.count("\n") == 1


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


# Exact exit code and output bytes of every subcommand in both formats, as
# the CLI printed them before its handlers shared one output path.  With -o
# FILE the bytes are the file's and stdout stays empty.
PINNED = [
    (("gen", "--construction", "complete", "--k", "2"), 0,
     '{"universe":3,"blocks":[[0,1],[0,2],[1,2]]}\n'),
    (("gen", "--construction", "complete", "--k", "2", "--format", "text"), 0,
     ('b 0 1\n'
      'b 0 2\n'
      'b 1 2\n')),
    (("gen", "--construction", "plane", "--q", "2", "-o", "{out}"), 0,
     ('{"universe":7,"blocks":[[0,1,3],[0,2,6],[0,4,5],[1,2,4],[1,5,6],[2,3,5],'
      '[3,4,6]]}\n')),
    (("tau", "{bg}"), 0,
     '{"tau":2,"nodes":7}\n'),
    (("tau", "{bg}", "--format", "text"), 0,
     'tau 2\n'),
    (("transversals", "{bg}"), 0,
     ('{"tau":2,"transversals":[[0,1],[0,2],[0,5],[1,2],[1,4],[2,3]],'
      '"nodes":10}\n')),
    (("transversals", "{bg}", "--format", "text"), 0,
     ('tau 2\n'
      'b 0 1\n'
      'b 0 2\n'
      'b 0 5\n'
      'b 1 2\n'
      'b 1 4\n'
      'b 2 3\n'
      'nodes 10\n')),
    (("check-mif", "{fano}"), 0,
     'maximal intersecting family, k=3\n'),
    (("check-mif", "{bg}", "--format", "json"), 1,
     ('{"ok":false,"k":3,"tau":2,"transversal_match":false,'
      '"reason":"tau=2 != k=3"}\n')),
    (("merge", "{mif6}", "--alpha", "4", "--beta", "5"), 0,
     ('{"universe":6,"labels":["a","b","c","d","e","f"],"blocks":[[0,1,2],[0,1,'
      '3],[0,1,4],[0,2,3],[0,2,4],[0,3,4],[1,2,3],[1,2,4],[1,3,4],[2,3,4]]}\n')),
    (("merge", "{mif6}", "--alpha", "4", "--beta", "5", "--format", "text"), 0,
     ('b 0 1 2\n'
      'b 0 1 3\n'
      'b 0 1 4\n'
      'b 0 2 3\n'
      'b 0 2 4\n'
      'b 0 3 4\n'
      'b 1 2 3\n'
      'b 1 2 4\n'
      'b 1 3 4\n'
      'b 2 3 4\n')),
    (("merge", "{mif6}", "--alpha", "4", "--beta", "5", "-o", "{out}"), 0,
     ('{"universe":6,"labels":["a","b","c","d","e","f"],"blocks":[[0,1,2],[0,1,'
      '3],[0,1,4],[0,2,3],[0,2,4],[0,3,4],[1,2,3],[1,2,4],[1,3,4],[2,3,4]]}\n')),
    (("collapse", "{fano}", "--alpha", "3"), 0,
     ('{"alpha":3,"betas":[3],"chain":[{"universe":7,"blocks":[[0,1,3],[0,2,6],'
      '[0,4,5],[1,2,4],[1,5,6],[2,3,5],[3,4,6]]}],"pairs":[[[0,1,3],[2,3,5]]],'
      '"isp":{"pairs":[{"A":[0,1],"B":[2,5]},{"A":[2,5],"B":[0,1]}],"k":2,'
      '"t":2},"g_top_points":6}\n')),
    (("collapse", "{fano}", "--alpha", "3", "--format", "text"), 0,
     ('alpha 3\n'
      'betas 3\n'
      'steps 1\n'
      'g_top_points 6\n'
      'isp_pairs 2\n')),
    (("chromatic", "{fano}"), 0,
     'chromatic 3\n'),
    (("chromatic", "{fano}", "--format", "json"), 0,
     '{"chromatic_class":3}\n'),
    (("isp-validate", "{isp}"), 0,
     'valid: 6 pairs, 7 points, sum 3/5\n'),
    (("isp-validate", "{isp}", "--format", "json"), 0,
     ('{"ok":true,"n_pairs":6,"points":7,"violation":null,"message":"valid",'
      '"bollobas_sum":"3/5"}\n')),
    (("isp-extract", "{fano}"), 0,
     ('{"pairs":[{"A":[0,2,6],"B":[4,5]},{"A":[0,4,5],"B":[2,6]},{"A":[1,2,4],'
      '"B":[5,6]},{"A":[1,5,6],"B":[2,4]},{"A":[2,3,5],"B":[4,6]},{"A":[3,4,6],'
      '"B":[2,5]}],"k":3,"t":2}\n')),
    (("isp-extract", "{fano}", "-o", "{out}"), 0,
     ('{"pairs":[{"A":[0,2,6],"B":[4,5]},{"A":[0,4,5],"B":[2,6]},{"A":[1,2,4],'
      '"B":[5,6]},{"A":[1,5,6],"B":[2,4]},{"A":[2,3,5],"B":[4,6]},{"A":[3,4,6],'
      '"B":[2,5]}],"k":3,"t":2}\n')),
    (("isp-extract", "{fano}", "-o", "-"), 0,
     ('{"pairs":[{"A":[0,2,6],"B":[4,5]},{"A":[0,4,5],"B":[2,6]},{"A":[1,2,4],'
      '"B":[5,6]},{"A":[1,5,6],"B":[2,4]},{"A":[2,3,5],"B":[4,6]},{"A":[3,4,6],'
      '"B":[2,5]}],"k":3,"t":2}\n')),
    (("bounds", "--k", "2", "--t", "1"), 0,
     ('k = 2\n'
      '  el_lower                 3\n'
      '  tuza_Nk_upper            3\n'
      '  improved_upper           2\n'
      '  half_central_binomial    1\n'
      '  conjectured_N            3\n'
      '  main_upper               1 + n(2,0)\n'
      't = 1\n'
      '  bollobas_pair_bound      3\n'
      '  tuza_nkt_upper           3\n'
      '  note: an explicit system with 4 points exists at (2,'
      '1); the simplified sum is below it at this boundary\n')),
    (("bounds", "--k", "2", "--t", "1", "--format", "json"), 0,
     ('{"k":2,"el_lower":3,"tuza_Nk_upper":3,"improved_upper":2,'
      '"half_central_binomial":1,"conjectured_N":3,'
      '"main_upper":{"expr":"1 + n(2,0)","half_term":1,"n_params":[2,0]},'
      '"t_section":{"t":1,"bollobas_pair_bound":3,"tuza_nkt_upper":3,'
      '"boundary_witness_points":4}}\n')),
    # the one t-section here with the conjectured value: k >= t + 2
    (("bounds", "--k", "4", "--t", "2"), 0,
     ('k = 4\n'
      '  el_lower                 16\n'
      '  tuza_Nk_upper            42\n'
      '  improved_upper           32\n'
      '  half_central_binomial    10\n'
      '  conjectured_N            16\n'
      '  main_upper               10 + n(4,2)\n'
      't = 2\n'
      '  bollobas_pair_bound      15\n'
      '  tuza_nkt_upper           22\n'
      '  tuza_conjecture          16\n')),
    (("bounds", "--k", "4", "--t", "2", "--format", "json"), 0,
     ('{"k":4,"el_lower":16,"tuza_Nk_upper":42,"improved_upper":32,'
      '"half_central_binomial":10,"conjectured_N":16,'
      '"main_upper":{"expr":"10 + n(4,2)","half_term":10,"n_params":[4,2]},'
      '"t_section":{"t":2,"bollobas_pair_bound":15,"tuza_nkt_upper":22,'
      '"tuza_conjecture":16}}\n')),
    (("search", "mif", "--k", "2"), 0,
     ('{"k":2,"universe_bound":3,"max_points":3,'
      '"counts_by_point_count":{"3":1},"mifs":[[[0,1],[0,2],[1,2]]],"nodes":3}\n')),
    (("search", "mif", "--k", "2", "--format", "text"), 0,
     ('k 2\n'
      'universe_bound 3\n'
      'classes 1\n'
      'max_points 3\n'
      '  on 3 points: 1\n'
      'nodes 3\n')),
    (("search", "isp", "--k", "2", "--t", "1"), 0,
     ('{"k":2,"t":1,"max_points":4,"witness":{"pairs":[{"A":[0,1],"B":[2]},'
      '{"A":[2,3],"B":[0]}],"k":2,"t":1},"nodes":5}\n')),
    (("search", "isp", "--k", "2", "--t", "1", "--format", "text"), 0,
     ('n(2,1) 4\n'
      'witness_pairs 2\n'
      'nodes 5\n')),
    (("verify-paper", "--skip", "search"), 0,
     ('PASS     1 oracle-equivalence: 500 random uniform families (k in 2..4,'
      ' <=12 points): solver == oracle; count <= k^tau throughout (worst fill '
      '1.000)\n'
      'PASS     2 bg-construction-identity: 10 parameter pairs (2 <= t <= k-1 '
      '<= 5): tau = t and the enumerated transversal family equals the closed '
      'form on k+t-2+C(k+t-2,t-1) points\n'
      'PASS     3 mif-fixtures: triangle:maximal; complete_3:maximal; '
      'complete_4:maximal; fano:maximal; pg23:maximal; bg_3_2:tau=2 != k=3\n'
      'SKIPPED  4 merge-rewrite: skipped: search\n'
      'SKIPPED  5 collapse-certificates: skipped: search\n'
      'SKIPPED  6 search-max-points: skipped: search\n'
      'SKIPPED  7 isp-brute-force: skipped: search\n'
      'PASS     8 bounds-identities: k = 2..12: improved_upper = tuza_Nk_upper '
      '- C(2k-2,k-1)/2, el_lower = conjectured_N, all halvings exact\n'
      'PASS     9 chromatic-classes: Fano plane -> 3; order-3 plane -> 2\n'
      'SKIPPED 10 determinism: skipped: search\n'
      'RESULT  all criteria passed\n')),
    (("verify-paper", "--skip", "search", "--format", "json"), 0,
     ('{"items":[{"index":1,"name":"oracle-equivalence","status":"PASS",'
      '"detail":"500 random uniform families (k in 2..4,'
      ' <=12 points): solver == oracle; count <= k^tau throughout (worst fill '
      '1.000)"},{"index":2,"name":"bg-construction-identity","status":"PASS",'
      '"detail":"10 parameter pairs (2 <= t <= k-1 <= 5): tau = t and the '
      'enumerated transversal family equals the closed form on k+t-2+C(k+t-2,'
      't-1) points"},{"index":3,"name":"mif-fixtures","status":"PASS",'
      '"detail":"triangle:maximal; complete_3:maximal; complete_4:maximal; '
      'fano:maximal; pg23:maximal; bg_3_2:tau=2 != k=3"},{"index":4,'
      '"name":"merge-rewrite","status":"SKIPPED","detail":"skipped: search"},'
      '{"index":5,"name":"collapse-certificates","status":"SKIPPED",'
      '"detail":"skipped: search"},{"index":6,"name":"search-max-points",'
      '"status":"SKIPPED","detail":"skipped: search"},{"index":7,'
      '"name":"isp-brute-force","status":"SKIPPED","detail":"skipped: search"},'
      '{"index":8,"name":"bounds-identities","status":"PASS",'
      '"detail":"k = 2..12: improved_upper = tuza_Nk_upper - C(2k-2,k-1)/2,'
      ' el_lower = conjectured_N, all halvings exact"},{"index":9,'
      '"name":"chromatic-classes","status":"PASS",'
      '"detail":"Fano plane -> 3; order-3 plane -> 2"},{"index":10,'
      '"name":"determinism","status":"SKIPPED","detail":"skipped: search"}],'
      '"all_pass":true}\n')),
]


@pytest.fixture()
def pinned_inputs(tmp_path):
    mif6 = Family([(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4),
                   (0, 3, 5), (1, 2, 3), (1, 2, 5), (1, 3, 4), (2, 3, 4)], 6,
                  labels=list("abcdef"))
    files = {"fano": projective_plane(2).to_json() + "\n",
             "bg": bg_family(3, 2).family.to_json() + "\n",
             "mif6": mif6.to_json(),
             "isp": extract_isp(projective_plane(2)).to_json()}
    paths = {"out": str(tmp_path / "out")}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    return paths


@pytest.mark.parametrize("argv, code, expected", PINNED,
                         ids=[" ".join(argv) for argv, _, _ in PINNED])
def test_cli_output_bytes_pinned(capsys, pinned_inputs, argv, code, expected):
    got_code, out, err = run(capsys, *[a.format(**pinned_inputs) for a in argv])
    if "{out}" in argv:
        assert out == ""
        out = Path(pinned_inputs["out"]).read_text()
    assert (got_code, out, err) == (code, expected, "")
