"""End-to-end checks of the command line: exit codes, first-line verdicts,
stats documents, bench CSV shape.  Most tests drive ``main`` in-process;
a few shell out to exercise the real entry point.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from importlib import resources

import pytest

from coverlib import PetriNet, ingest, parse_native
from coverlib.cli import main

from conftest import PUMP_TEXT, STUCK_TEXT

GATE_SPEC = """\
vars
  x y
rules
  x >= 1 ->
    x' = x - 1,
    y' = y + 2;
  y >= 3 ->
    y' = y - 3;
init
  x = 2, y = 0
target
  y >= 4
"""


@pytest.fixture
def pump_file(tmp_path):
    path = tmp_path / "pump.cover"
    path.write_text(PUMP_TEXT)
    return str(path)


@pytest.fixture
def stuck_file(tmp_path):
    path = tmp_path / "stuck.cover"
    path.write_text(STUCK_TEXT)
    return str(path)


@pytest.fixture
def gate_file(tmp_path):
    path = tmp_path / "gate.spec"
    path.write_text(GATE_SPEC)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


# -- solve ---------------------------------------------------------------

def test_solve_coverable(capsys, pump_file):
    code, out, err = run_cli(capsys, "solve", "--net", pump_file, "--witness")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "COVERABLE"
    assert lines[1] == "witness: t1 t2 t3"


def test_solve_scans_tokens_only_to_place_an_error(capsys, monkeypatch, pump_file,
                                                   tmp_path):
    """A valid native file is read from its words; the regex token scanner
    runs once for a file with a syntax error, to place it."""
    built = []

    class Counted(ingest._Tokens):
        __slots__ = ()

        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(ingest, "_Tokens", Counted)
    code, out, _ = run_cli(capsys, "solve", "--net", pump_file)
    assert (code, out, built) == (0, "COVERABLE\n", [])
    bad = tmp_path / "bad.cover"
    bad.write_text(PUMP_TEXT.replace(";", "@", 1))
    code, _, err = run_cli(capsys, "solve", "--net", str(bad))
    assert code == 2 and len(built) == 1
    assert err == f"error: {bad}: line 4, column 18: unexpected character '@'\n"


def test_solve_uncoverable(capsys, pump_file):
    code, out, _ = run_cli(capsys, "solve", "--net", pump_file,
                           "--target-index", "1")
    assert code == 1
    assert out.splitlines()[0] == "UNCOVERABLE"


def test_solve_inconclusive_budget(capsys, pump_file):
    for steps in ("0", "1"):
        code, out, _ = run_cli(capsys, "solve", "--net", pump_file,
                               "--budget-steps", steps)
        assert code == 3
        assert out.splitlines()[0] == "INCONCLUSIVE"


def test_solve_stats_json_matches_schema(capsys, pump_file):
    jsonschema = pytest.importorskip("jsonschema")
    code, out, _ = run_cli(capsys, "solve", "--net", pump_file,
                           "--stats", "json", "--witness")
    assert code == 0
    body = out.split("\n", 2)[2]
    doc = json.loads(body)
    schema = json.loads(
        resources.files("coverlib").joinpath("stats_schema.json").read_text())
    jsonschema.validate(doc, schema)
    assert doc["verdict"] == "COVERABLE"
    assert doc["witness"] == ["t1", "t2", "t3"]
    assert doc["invariant"] == "sign,state"
    assert doc["totals"]["iterations"] == 3
    assert doc["totals"]["pruned_by_invariant"] == 1
    assert doc["totals"]["lp_calls"] == 10
    assert doc["preprocess"]["mode"] == "fixpoint"


def test_solve_stats_json_deterministic(capsys, pump_file):
    outs = []
    for _ in range(2):
        _, out, _ = run_cli(capsys, "solve", "--net", pump_file,
                            "--stats", "json")
        outs.append("\n".join(l for l in out.splitlines()
                              if "wall_ms" not in l))
    assert outs[0] == outs[1]


def test_solve_stats_csv(capsys, pump_file):
    code, out, _ = run_cli(capsys, "solve", "--net", pump_file,
                           "--stats", "csv")
    lines = out.splitlines()
    assert lines[0] == "COVERABLE"
    assert lines[1].startswith("index,basis_size,")
    blank = lines.index("")
    assert [l.split(",")[0] for l in lines[2:blank]] == ["0", "1", "2"]
    assert lines[blank + 1].startswith("iterations,")
    assert lines[blank + 2].split(",")[0] == "3"


def test_solve_from_stdin(capsys, monkeypatch):
    stdin = io.TextIOWrapper(io.BytesIO(PUMP_TEXT.encode()), encoding="utf-8")
    monkeypatch.setattr(sys, "stdin", stdin)
    code, out, _ = run_cli(capsys, "solve", "--net", "-", "--stats", "json")
    assert code == 0
    assert '"problem": "<stdin>"' in out


def test_solve_invariant_selection(capsys, pump_file):
    code, out, _ = run_cli(capsys, "solve", "--net", pump_file,
                           "--target-index", "1", "--invariant", "state",
                           "--stats", "json")
    assert code == 1
    doc = json.loads(out.split("\n", 1)[1])
    assert doc["target_in_invariant"] is False
    assert doc["totals"]["final_basis_size"] == 0
    assert doc["totals"]["pruned_including_target"] == 1


def test_solve_mist_auto_format(capsys, gate_file):
    code, out, _ = run_cli(capsys, "solve", "--net", gate_file, "--witness")
    assert code == 0
    assert out.splitlines()[1] == "witness: r0 r0"


def test_solve_forced_format_mismatch(capsys, gate_file):
    code, _, err = run_cli(capsys, "solve", "--net", gate_file,
                           "--format", "native")
    assert code == 2
    assert "error:" in err


def test_solve_usage_errors(capsys, pump_file, tmp_path):
    code, _, err = run_cli(capsys, "solve", "--net", str(tmp_path / "no.cover"))
    assert code == 2 and "cannot read" in err
    code, _, err = run_cli(capsys, "solve", "--net", pump_file,
                           "--target-index", "7")
    assert code == 2 and "out of range" in err
    code, _, err = run_cli(capsys, "solve", "--net", pump_file,
                           "--invariant", "magic")
    assert code == 2 and "unknown invariant" in err
    code, _, err = run_cli(capsys, "solve", "--net", pump_file,
                           "--invariant", "sign,sign")
    assert code == 2 and "duplicate invariant" in err
    code, _, err = run_cli(capsys, "solve", "--net", pump_file,
                           "--invariant", " , ")
    assert code == 2 and "empty invariant" in err
    code, _, err = run_cli(capsys, "solve", "--net", pump_file,
                           "--budget-steps", "-1")
    assert code == 2 and "--budget-steps" in err
    for bad in ("nan", "-1", "inf", "-0.5"):
        code, out, err = run_cli(capsys, "bench", "--dir", str(tmp_path),
                                 "--invariants", "trivial",
                                 "--timeout-secs", bad)
        assert code == 2 and "--timeout-secs" in err, bad
        assert out == ""
    latin1 = tmp_path / "latin1.cover"
    latin1.write_bytes(PUMP_TEXT.encode() + b"# caf\xe9\n")
    code, _, err = run_cli(capsys, "solve", "--net", str(latin1))
    assert code == 2 and "latin1.cover: line 10, column 6: not valid UTF-8" in err
    assert "Traceback" not in err


def test_unreplayable_witness_is_internal_error(capsys, pump_file, monkeypatch):
    monkeypatch.setattr(PetriNet, "fire_sequence", lambda self, m, ts: None)
    code, out, err = run_cli(capsys, "solve", "--net", pump_file, "--witness")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error:") and "replay" in err
    assert "Traceback" not in err


def test_solve_replays_without_witness_flag(capsys, pump_file, monkeypatch):
    monkeypatch.setattr(PetriNet, "fire_sequence", lambda self, m, ts: None)
    code, out, err = run_cli(capsys, "solve", "--net", pump_file)
    assert code == 4 and out == ""
    assert err.startswith("internal error:") and "replay" in err


def test_bench_replays_witnesses(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(PetriNet, "fire_sequence", lambda self, m, ts: None)
    (tmp_path / "pump.cover").write_text(PUMP_TEXT)
    code, _, err = run_cli(capsys, "bench", "--dir", str(tmp_path))
    assert code == 4
    assert err.startswith("internal error:") and "replay" in err
    assert "Traceback" not in err


def test_parse_error_is_positioned(capsys, tmp_path):
    bad = tmp_path / "bad.cover"
    bad.write_text("places: a\ntransitions:\nt: in zzz ;\ntarget: a>=1\n")
    code, _, err = run_cli(capsys, "solve", "--net", str(bad))
    assert code == 2
    assert "line 3" in err and "zzz" in err


BAD_NUMBERS = [
    ("sup.cover", "places: a\ninit: a=\u00b2\ntarget: a>=1\n", "line 2, column 9"),
    ("arc.cover", "places: a\ntransitions:\nt: in a*\u00b9 ;\ntarget: a>=1\n",
     "line 3, column 9"),
    ("long.cover", "places: a\ninit: a=" + "7" * 5000 + "\ntarget: a>=1\n",
     "line 2, column 9"),
    ("sup.spec", GATE_SPEC.replace("x = 2,", "x = \u00b2,"), "line 10, column 7"),
    ("long.spec", GATE_SPEC.replace("y >= 4", "y >= " + "7" * 5000), "line 12, column 8"),
]


@pytest.mark.parametrize("name, text, where", BAD_NUMBERS,
                         ids=[name for name, _, _ in BAD_NUMBERS])
def test_bad_number_is_positioned(capsys, tmp_path, name, text, where):
    bad = tmp_path / name
    bad.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "solve", "--net", str(bad))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad}: {where}: ")
    assert "internal error" not in err and "Traceback" not in err


# -- preprocess -----------------------------------------------------------

def test_preprocess_emits_reduced_net(capsys, stuck_file):
    code, out, err = run_cli(capsys, "preprocess", "--net", stuck_file)
    assert code == 0
    reduced = parse_native(out)
    assert reduced.net.transitions == ()
    assert reduced.net.places == ("p1", "p2")
    report = json.loads(err)
    assert report["transitions_removed"] == ["t"]
    assert report["rounds"][0]["always_empty"] == ["p2"]


def test_preprocess_pump_is_identity(capsys, pump_file):
    code, out, err = run_cli(capsys, "preprocess", "--net", pump_file)
    assert code == 0
    again = parse_native(out)
    assert again.net == parse_native(PUMP_TEXT).net
    assert json.loads(err)["transitions_removed"] == []


def test_preprocess_to_files(capsys, stuck_file, tmp_path):
    out_path = tmp_path / "reduced.cover"
    rep_path = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "preprocess", "--net", stuck_file,
                             "--out", str(out_path), "--report", str(rep_path))
    assert code == 0 and out == "" and err == ""
    assert parse_native(out_path.read_text()).net.transitions == ()
    assert json.loads(rep_path.read_text())["transitions_removed"] == ["t"]


@pytest.mark.parametrize("flag", ["--out", "--report"])
def test_preprocess_unwritable_output(capsys, stuck_file, tmp_path, flag):
    # a missing directory is bad usage, not an internal error
    target = tmp_path / "missing" / "file"
    code, out, err = run_cli(capsys, "preprocess", "--net", stuck_file,
                             flag, str(target))
    assert code == 2
    assert f"error: cannot write {target}" in err
    assert "internal error" not in err


def test_preprocess_leaves_no_partial_result(capsys, stuck_file, tmp_path):
    out_path = tmp_path / "reduced.cover"
    for out in (str(out_path), "-"):
        code, stdout, err = run_cli(capsys, "preprocess", "--net", stuck_file,
                                    "--out", out,
                                    "--report", str(tmp_path / "no" / "r.json"))
        assert code == 2 and "cannot write" in err
        assert stdout == "" and not out_path.exists()


def test_preprocess_out_and_report_same_file(capsys, stuck_file, tmp_path,
                                             monkeypatch):
    monkeypatch.chdir(tmp_path)
    same = tmp_path / "same.txt"
    (tmp_path / "link.txt").symlink_to(same)
    # the same file under any spelling is refused before anything is written
    for report in ("same.txt", str(same), "./sub/../same.txt", "link.txt"):
        code, out, err = run_cli(capsys, "preprocess", "--net", stuck_file,
                                 "--out", "same.txt", "--report", report)
        assert code == 2
        assert err == "error: --out and --report name the same file\n"
        assert out == "" and not same.exists()


def test_preprocess_drop_places(capsys, tmp_path):
    path = tmp_path / "stuck.cover"
    path.write_text(
        "places: p1 p2\ntransitions:\nt: in p2 out p1 ;\ninit: p1=1\ntarget: p1>=2\n")
    code, out, err = run_cli(capsys, "preprocess", "--net", str(path),
                             "--drop-places")
    assert code == 0
    assert parse_native(out).net.places == ("p1",)
    assert json.loads(err)["places_dropped"] == ["p2"]


def test_preprocess_refuses_names_native_cannot_hold(capsys, tmp_path):
    # MIST accepts a variable named like a native keyword; the reduced
    # problem could not be read back, so nothing is written.
    spec = tmp_path / "io.spec"
    spec.write_text("vars in out\nrules in >= 1 -> in' = in - 1, out' = out + 1;\n"
                    "init in = 1\ntarget out >= 1\n")
    out_path, rep_path = tmp_path / "reduced.cover", tmp_path / "report.json"
    code, out, err = run_cli(capsys, "preprocess", "--net", str(spec),
                             "--out", str(out_path), "--report", str(rep_path))
    assert code == 2 and out == ""
    assert err == f"error: {spec}: the native format cannot hold the place name 'in'\n"
    assert not out_path.exists() and not rep_path.exists()


# -- oracle ----------------------------------------------------------------

def test_oracle_coverable(capsys, pump_file):
    code, out, _ = run_cli(capsys, "oracle", "--net", pump_file,
                           "--place-cap", "8", "--witness")
    assert code == 0
    assert out.splitlines() == ["COVERABLE depth=3", "witness: t1 t2 t3"]


def test_oracle_uncoverable(capsys, stuck_file):
    code, out, _ = run_cli(capsys, "oracle", "--net", stuck_file)
    assert code == 1
    assert out.strip() == "UNCOVERABLE"


def test_oracle_bound_hit(capsys, tmp_path):
    path = tmp_path / "deep.cover"
    path.write_text(PUMP_TEXT.replace("target: p2>=2 p3>=1", "target: p2>=9 p3>=9"))
    code, out, _ = run_cli(capsys, "oracle", "--net", str(path),
                           "--place-cap", "4")
    assert code == 3
    assert out.strip() == "INCONCLUSIVE bound-hit"


def test_oracle_rejects_bad_caps(capsys, pump_file):
    code, _, err = run_cli(capsys, "oracle", "--net", pump_file,
                           "--place-cap", "0")
    assert code == 2 and "positive" in err


# -- bench -------------------------------------------------------------------

def test_bench_csv_shape(capsys, tmp_path):
    (tmp_path / "pump.cover").write_text(PUMP_TEXT)
    (tmp_path / "stuck.cover").write_text(STUCK_TEXT)
    code, out, _ = run_cli(capsys, "bench", "--dir", str(tmp_path),
                           "--invariants", "trivial;sign,state")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ("name,invariant,verdict,iterations,basis_final_size,"
                        "candidates,pruned,lp_calls,millis")
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    assert len(rows) == 6  # (2 pump targets + 1 stuck target) x 2 configs
    assert [r[0] for r in rows] == ["pump[0]", "pump[0]", "pump[1]", "pump[1]",
                                    "stuck", "stuck"]
    assert {r[1] for r in rows} == {"trivial", "sign,state"}
    # the flow cut discards the impossible pump target outright
    by_key = {(r[0], r[1]): r for r in rows}
    assert int(by_key[("pump[1]", "sign,state")][6]) == 1
    assert int(by_key[("pump[1]", "trivial")][6]) == 0
    assert int(by_key[("pump[1]", "sign,state")][6]) > int(
        by_key[("pump[1]", "trivial")][6])


def test_bench_empty_dir(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "bench", "--dir", str(tmp_path))
    assert code == 0
    assert out.strip() == ("name,invariant,verdict,iterations,basis_final_size,"
                           "candidates,pruned,lp_calls,millis")


def test_bench_rejects_missing_dir(capsys, tmp_path):
    code, _, err = run_cli(capsys, "bench", "--dir", str(tmp_path / "nope"))
    assert code == 2 and "not a directory" in err
    code, out, err = run_cli(capsys, "bench", "--dir", str(tmp_path), "--invariants", ";")
    assert (code, out, err) == (2, "", "error: no invariant configurations given\n")


def test_bench_timeout_rows(capsys, tmp_path):
    (tmp_path / "pump.cover").write_text(PUMP_TEXT)
    code, out, _ = run_cli(capsys, "bench", "--dir", str(tmp_path),
                           "--invariants", "trivial", "--timeout-secs", "0")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[2] for r in rows] == ["TIMEOUT", "TIMEOUT"]


def test_bench_error_rows(capsys, tmp_path):
    (tmp_path / "pump.cover").write_text(PUMP_TEXT)
    (tmp_path / "latin1.cover").write_bytes(PUMP_TEXT.encode() + b"# caf\xe9\n")
    code, out, err = run_cli(capsys, "bench", "--dir", str(tmp_path),
                             "--invariants", "trivial;sign,state")
    assert code == 2
    rows = list(csv.reader(io.StringIO(out)))[1:]
    assert [r[:3] for r in rows] == [
        ["latin1", "trivial", "ERROR"], ["latin1", "sign,state", "ERROR"],
        ["pump[0]", "trivial", "COVERABLE"], ["pump[0]", "sign,state", "COVERABLE"],
        ["pump[1]", "trivial", "UNCOVERABLE"],
        ["pump[1]", "sign,state", "UNCOVERABLE"],
    ]
    assert rows[0][3:] == rows[1][3:] == [""] * 6
    assert err.count("error:") == 1
    assert "latin1.cover: line 10, column 6: not valid UTF-8" in err


# -- subprocess end to end ---------------------------------------------------

def module_cmd(*args):
    return [sys.executable, "-m", "coverlib", *args]


def test_module_entry_point(pump_file):
    proc = subprocess.run(module_cmd("solve", "--net", pump_file, "--witness"),
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "COVERABLE"


def test_stdin_is_decoded_strictly_under_c_locale():
    env = dict(os.environ, LC_ALL="C")
    env.pop("PYTHONUTF8", None)
    env.pop("PYTHONIOENCODING", None)
    proc = subprocess.run(module_cmd("solve", "--net", "-"),
                          input=PUMP_TEXT.encode() + b"# caf\xe9\n",
                          capture_output=True, env=env)
    assert proc.returncode == 2
    assert proc.stdout == b""
    assert b"-: line 10, column 6: not valid UTF-8" in proc.stderr
    proc = subprocess.run(module_cmd("solve", "--net", "-"),
                          input=PUMP_TEXT.encode(), capture_output=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == b"COVERABLE"


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("command", ["solve --stats json --net {file}", "bench --dir {dir}"])
def test_closed_pipe_exits_141_silently(capsys, monkeypatch, pump_file, command):
    # 128 + SIGPIPE, never a verdict, a usage error or an internal error
    argv = command.format(file=pump_file, dir=os.path.dirname(pump_file)).split()
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = main(argv)
    sys.stdout.close()  # the devnull stream main put in place
    assert code == 141
    assert capsys.readouterr().err == ""


def test_missing_required_flag_exits_2():
    proc = subprocess.run(module_cmd("solve"), capture_output=True, text=True)
    assert proc.returncode == 2


# -- golden outputs ----------------------------------------------------------

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")


def write_golden_files(root, files):
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(exist_ok=True)
        # The texts are ASCII but for one "é", which must be a lone
        # 0xE9 byte so that its file is not UTF-8.
        path.write_bytes(text.encode("latin-1"))


def mask_timing(argv, text):
    """The output ``text`` of ``argv`` with its timings masked: the
    ``wall_ms`` value of the JSON stats, the last field of the CSV totals
    row and the bench ``millis`` column, which ``ERROR`` rows leave empty."""
    text = re.sub(r'("wall_ms": )[^\n]+', r"\1<ms>", text)
    lines = text.split("\n")
    for i in range(1, len(lines)):
        bench_row = argv[0] == "bench" and lines[i] and not lines[i].endswith(",")
        if bench_row or lines[i - 1].startswith("iterations,"):
            lines[i] = lines[i].rsplit(",", 1)[0] + ",<ms>"
    return "\n".join(lines)


def golden_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code,
            "stdout": mask_timing(argv, out.getvalue()), "stderr": err.getvalue()}


def test_cli_golden(tmp_path, monkeypatch):
    """Every command line in ``data/cli_golden.json`` (written by
    ``data/make_cli_golden.py``) prints what it printed when the fixture
    was made, timings aside."""
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    write_golden_files(tmp_path, golden["files"])
    monkeypatch.chdir(tmp_path)
    for case in golden["cases"]:
        assert golden_run(case["argv"]) == case
