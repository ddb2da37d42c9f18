"""Command line behavior: formats, exit codes, determinism."""

import hashlib
import importlib.resources as res
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from alp.cli import main

TINY = "domain v == 1..3.\nabducible pick(v).\npick(1) ; pick(2) <- true.\nfalse <- pick(V1), pick(V2), V1 < V2.\n"


@pytest.fixture
def tiny(tmp_path):
    path = tmp_path / "tiny.alp"
    path.write_text(TINY, encoding="utf-8")
    return str(path)


@pytest.fixture
def queens(tmp_path):
    src = (res.files("alp") / "programs" / "queens.alp").read_text(encoding="utf-8")
    path = tmp_path / "queens.alp"
    path.write_text(src, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_prints_solution_blocks(tiny, capsys):
    code, out, _err = run(capsys, "solve", tiny, "--all")
    assert code == 0
    assert out.startswith("% solution 1\n")
    blocks = [b for b in out.strip().split("\n\n") if b]
    assert len(blocks) == 2
    assert "pick(1).\n" in out and "pick(2).\n" in out


def test_solve_default_stops_at_one_model(tiny, capsys):
    code, out, _err = run(capsys, "solve", tiny)
    assert code == 0
    assert out.count("% solution") == 1


def test_solve_rejects_max_models_below_one(queens, capsys):
    for n in ("0", "-1"):
        code, out, err = run(capsys, "solve", queens, "--max-models", n)
        assert code == 2
        assert out == ""
        assert "--max-models" in err


def test_solve_all_and_max_models_exclude_each_other(queens, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", queens, "-c", "size=6", "--all", "--max-models", "2"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "[--all | --max-models N]" in err
    assert "not allowed with argument --all" in err


def test_solve_json_and_trace_exclude_each_other(queens, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", queens, "-c", "size=4", "--all", "--json", "--trace"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "[--json | --trace]" in err
    assert "not allowed with argument --json" in err


def test_solve_reports_no_solutions(queens, capsys):
    code, out, _err = run(capsys, "solve", queens, "-c", "size=2")
    assert code == 1
    assert out == "no solutions\n"


def test_solve_json_lines_round_trip(tiny, tmp_path, capsys):
    code, out, _err = run(capsys, "solve", tiny, "--all", "--json")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        parsed = json.loads(line)
        assert all(set(obj) == {"pred", "args"} for obj in parsed)
    # every emitted line is accepted back by check
    for i, line in enumerate(lines):
        delta_file = tmp_path / f"delta{i}.json"
        delta_file.write_text(line, encoding="utf-8")
        code, out, _err = run(capsys, "check", tiny, "--delta", str(delta_file))
        assert code == 0
        assert out == "Sat\n"


def test_solve_minimal_cap_counts_only_minimal_solutions(tmp_path, capsys):
    path = tmp_path / "picks.alp"
    path.write_text(
        "abducible pick(item). domain item == 1..3. ok :- pick(1). ok :- pick(2). ok <- true.",
        encoding="utf-8",
    )
    code, out, _err = run(capsys, "solve", str(path), "--max-models", "2", "--minimal")
    assert code == 0
    assert out == "% solution 1\npick(2).\n\n% solution 2\npick(1).\n\n"


def test_solve_finds_a_solution_1200_decisions_deep(tmp_path, capsys):
    path = tmp_path / "deep.alp"
    path.write_text("abducible p/1.\nn(X) :- X in 1..1200.\nn(X) <- p(X).\n", encoding="utf-8")
    code, out, err = run(capsys, "solve", str(path))
    assert (code, out, err) == (0, "% solution 1\n\n", "")


def test_solve_stats_footer(tiny, capsys):
    code, out, _err = run(capsys, "solve", tiny, "--all", "--stats")
    assert code == 0
    assert "% stats: nodes=" in out


def test_solve_trace_lines(tiny, capsys):
    code, out, _err = run(capsys, "solve", tiny, "--trace")
    assert code == 0
    assert "% trace solution 1:" in out


def test_solve_is_deterministic(queens, capsys):
    code1, out1, _ = run(capsys, "solve", queens, "-c", "size=6", "--all")
    code2, out2, _ = run(capsys, "solve", queens, "-c", "size=6", "--all")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.count("% solution") == 4


def test_check_violated(queens, tmp_path, capsys):
    delta_file = tmp_path / "delta.json"
    delta_file.write_text("[]", encoding="utf-8")
    code, out, _err = run(capsys, "check", queens, "--delta", str(delta_file))
    assert code == 1
    assert out == "violated: row_has_queen(1) <- row(1).\n"


def test_check_undefined(tmp_path, capsys):
    prog = tmp_path / "odd.alp"
    prog.write_text("abducible a/0.\np :- not p, a.\nfalse <- not a.\n", encoding="utf-8")
    delta_file = tmp_path / "delta.json"
    delta_file.write_text('[{"pred": "a", "args": []}]', encoding="utf-8")
    code, out, _err = run(capsys, "check", str(prog), "--delta", str(delta_file))
    assert code == 1
    assert out.startswith("undefined: p")


def test_check_rejects_stray_atoms(tiny, tmp_path, capsys):
    delta_file = tmp_path / "delta.json"
    delta_file.write_text('[{"pred": "pick", "args": [9]}]', encoding="utf-8")
    code, _out, err = run(capsys, "check", tiny, "--delta", str(delta_file))
    assert code == 2
    assert "universe" in err


def test_check_rejects_malformed_delta(tiny, tmp_path, capsys):
    delta_file = tmp_path / "delta.json"
    delta_file.write_text('[{"pred": "pick"}]', encoding="utf-8")
    code, _out, err = run(capsys, "check", tiny, "--delta", str(delta_file))
    assert code == 2
    assert "entry 0" in err


def test_ground_dump_shape(tiny, capsys):
    code, out, _err = run(capsys, "ground", tiny)
    assert code == 0
    first = out.splitlines()[0]
    assert first.startswith("% atoms=")
    assert "% universe (3)" in out
    assert "pick(1)." in out


def test_ground_is_deterministic(queens, capsys):
    _, out1, _ = run(capsys, "ground", queens, "-c", "size=5")
    _, out2, _ = run(capsys, "ground", queens, "-c", "size=5")
    assert out1 == out2


def test_oracle_queens(capsys):
    code, out, _err = run(capsys, "oracle", "queens", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "2"
    assert lines[1:] == ["2 4 1 3", "3 1 4 2"]


def test_oracle_plan_reaches_goal(tmp_path, capsys):
    plan = {
        "initial": [[1, 2], [2, "table"], [3, 4], [4, "table"], [5, 6], [6, "table"]],
        "moves": [
            [1, "table", 0],
            [3, "table", 0],
            [2, 1, 1],
            [5, 4, 1],
            [3, 2, 2],
            [6, 5, 2],
        ],
        "horizon": 3,
        "goal": [[1, "table"], [2, 1], [3, 2], [4, "table"], [5, 4], [6, 5]],
    }
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    code, out, _err = run(capsys, "oracle", "plan", str(path))
    assert code == 0
    assert "on(2,1)" in out
    assert out.strip().endswith("goal reached")


def test_oracle_plan_detects_violation(tmp_path, capsys):
    plan = {"initial": [[1, 2], [2, "table"]], "moves": [[2, "table", 0]], "horizon": 1}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    code, out, _err = run(capsys, "oracle", "plan", str(path))
    assert code == 1
    assert out.startswith("violation at t=0")


@pytest.mark.parametrize(
    "change, message",
    [
        ({"moves": [[2, "table", 7]]}, "move of block 2 at time 7 is outside the horizon 3"),
        ({"moves": [[2, "table", -1]]}, "move of block 2 at time -1 is outside the horizon 3"),
        ({"moves": [[3, 2, 0]]}, "move of block 3 names block 3, not in initial"),
        ({"moves": [[2, 9, 0]]}, "move of block 2 names block 9, not in initial"),
        ({"horizon": -1, "moves": []}, "horizon must be at least 0, got -1"),
        ({"moves": [[2.7, "table", 0]]}, "malformed plan file (block 2.7 is not an integer)"),
        ({"moves": [[2, "table", True]]}, "malformed plan file (time true is not an integer)"),
        ({"moves": [[2, "table", "0"]]}, 'malformed plan file (time "0" is not an integer)'),
        ({"moves": [[2, 1.0, 0]]}, "malformed plan file (location 1.0 is not an integer)"),
        ({"horizon": 3.0, "moves": []}, "malformed plan file (horizon 3.0 is not an integer)"),
        ({"horizon": False, "moves": []}, "malformed plan file (horizon false is not an integer)"),
        ({"moves": [[1, "floor", 0]]}, 'malformed plan file (location "floor" is neither a block nor "table")'),
        ({"initial": [[1, "Table"], [2, "table"]], "moves": []},
         'malformed plan file (location "Table" is neither a block nor "table")'),
        ({"initial": [[1, "table"], [1, 2], [2, "table"]], "moves": []},
         "malformed plan file (block 1 is listed twice in initial)"),
        ({"goal": [[1, 2], [2, "table"], [2, 1]], "moves": []},
         "malformed plan file (block 2 is listed twice in goal)"),
    ],
)
def test_oracle_plan_rejects_what_it_cannot_simulate(tmp_path, capsys, change, message):
    # Without the checks, each of these exits 0: a move outside the
    # horizon is dropped, a block not in initial appears from nowhere, a
    # float or bool is read as the integer it rounds to, an unknown
    # location string is taken as a place, and a block listed twice
    # keeps its last location.
    plan = {"initial": [[1, 2], [2, "table"]], "horizon": 3, "goal": [[1, 2], [2, "table"]]}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan | change), encoding="utf-8")
    code, out, err = run(capsys, "oracle", "plan", str(path))
    assert code == 2
    assert out == ""
    assert err == f"{path}: {message}\n"


def test_readme_plan_example_reaches_its_goal(tmp_path, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("A plan file for `oracle plan`", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "plan.json"
    path.write_text(block, encoding="utf-8")
    code, out, _err = run(capsys, "oracle", "plan", str(path))
    assert (code, out) == (0, "on(1,table)\non(2,1)\ngoal reached\n")


def test_oracle_queens_rejects_a_negative_size(capsys):
    code, out, err = run(capsys, "oracle", "queens", "-2")
    assert (code, out, err) == (2, "", "N must be at least 0, got -2\n")
    code, out, _err = run(capsys, "oracle", "queens", "0")
    assert (code, out) == (0, "1\n\n")  # one board, the empty one


def test_override_must_be_integer(tiny, capsys):
    code, _out, err = run(capsys, "solve", tiny, "-c", "v=big")
    assert code == 2
    assert "integer" in err


def test_override_outside_the_integer_range_exits_2(tmp_path, capsys):
    path = tmp_path / "k.alp"
    path.write_text("abducible p(d). domain d == 1..3. k(5). false <- p(X), k(K), X > K.\n", encoding="utf-8")
    value = 99999999999999999999
    code, out, err = run(capsys, "solve", str(path), "-c", f"k={value}", "--all")
    assert (code, out) == (2, "")
    assert err == f"override k={value} is outside the range -9223372036854775808..9223372036854775807\n"
    # at the ends of the range: no p(X) exceeds k, or every one does
    for value, count in (("9223372036854775807", 8), ("-9223372036854775808", 1)):
        code, out, _err = run(capsys, "solve", str(path), "-c", f"k={value}", "--all")
        assert (code, out.count("% solution")) == (0, count)


def test_missing_file_is_an_error(capsys):
    code, _out, err = run(capsys, "solve", "/no/such/file.alp")
    assert code == 2
    assert err


def test_parse_errors_go_to_stderr(tmp_path, capsys):
    path = tmp_path / "bad.alp"
    path.write_text("p :- q r.\n", encoding="utf-8")
    code, _out, err = run(capsys, "solve", str(path))
    assert code == 2
    assert "bad.alp:1:8" in err


NOT_UTF8 = b"abducible p/0.\n% caf\xc3\xa9 \xff\np <- true.\n"


@pytest.mark.parametrize("command", ["solve", "ground", "check"])
def test_a_program_that_is_not_utf8_is_an_error_at_its_first_bad_byte(tmp_path, capsys, command):
    path = tmp_path / "latin1.alp"
    path.write_bytes(NOT_UTF8)
    delta = tmp_path / "delta.json"
    delta.write_text("[]", encoding="utf-8")
    extra = ["--delta", str(delta)] if command == "check" else []
    code, out, err = run(capsys, command, str(path), *extra)
    assert (code, out) == (2, "")
    assert err == f"{path}:2:8: not valid UTF-8: byte 0xff\n"


def test_a_delta_file_that_is_not_utf8_is_an_error(tiny, tmp_path, capsys):
    delta = tmp_path / "delta.json"
    delta.write_bytes(b'[{"pred": "pick", "args": [1]}, "\xff"]')
    code, out, err = run(capsys, "check", tiny, "--delta", str(delta))
    assert (code, out) == (2, "")
    assert err == f"{delta}:1:34: not valid UTF-8: byte 0xff\n"


def test_a_plan_file_that_is_not_utf8_is_an_error(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_bytes(b'{"initial": [[1, "table"]],\r\n "moves": [], "horizon": "\xe9"}')
    code, out, err = run(capsys, "oracle", "plan", str(plan))
    assert (code, out) == (2, "")
    assert err == f"{plan}:2:27: not valid UTF-8: byte 0xe9\n"


def test_line_ends_read_as_in_text_mode(tmp_path, capsys):
    # a carriage return ends a line, as it does in a file opened as text
    path = tmp_path / "cr.alp"
    path.write_bytes(b"abducible p/0.\r% a comment\rp <- true.\r\n")
    code, out, _err = run(capsys, "solve", str(path))
    assert (code, out) == (0, "% solution 1\np.\n\n")


def test_readme_solve_example_is_the_cli_output(queens, monkeypatch, capsys):
    # The README's first console block: a command, then the head of its
    # output up to a "..." line.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```console\n", 1)[1].split("```", 1)[0]
    command, *shown = block.splitlines()
    argv = shlex.split(command)
    assert argv[:3] == ["$", "alp", "solve"]
    shown = shown[: shown.index("...")]
    monkeypatch.chdir(Path(queens).parent)
    code, out, _err = run(capsys, *argv[2:])
    assert code == 0
    assert out.splitlines()[: len(shown)] == shown


def test_a_reader_that_closes_early_ends_the_output_quietly(queens):
    # As in `alp solve queens.alp -c size=10 --all | head -1`: the output
    # is larger than a pipe's buffer, so writing it fails once the reader
    # has gone.  The command still ends with its own status, silently.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    argv = [sys.executable, "-m", "alp.cli", "solve", queens, "-c", "size=10", "--all"]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert first == b"% solution 1\n"
    assert err == b""
    assert code == 0


SOLVE_SHA256 = [
    (["queens.alp", "-c", "size=6", "--all"], "1090756b9e0276c869c3697c362367335351ced4e2d9193bb0fa70980a472aa9"),
    (["queens.alp", "-c", "size=8", "--all"], "0d834c47f0f50bddc10b695819074cf3f5fce9f852570665452438dd13bc7181"),
    (["blocks.alp", "--all"], "3bfddfcd5c78357ea56177231ea89cc8b1ee318da797766c864ba305f6c7611c"),
    (["blocks.alp", "--all", "--minimal"], "3a453bc347fa41c8e85b047d890b9cc58f8f727ebe51e845bb14886207a74aa0"),
    (["queens.alp", "-c", "size=6", "--all", "--json"], "82039ae07ddede2cd5e8bc1ebf003f05cc8d6ba26fcc8dbcc6faa6ed41ebe00a"),
]


@pytest.mark.parametrize("argv, digest", SOLVE_SHA256)
def test_solve_output_is_pinned(capsys, argv, digest):
    # The solutions and the order they come in: a change to the search
    # that changes either has to be made on purpose.
    name, *extra = argv
    code, out, _err = run(capsys, "solve", str(res.files("alp") / "programs" / name), *extra)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
