"""End-to-end command-line behavior through main(argv).

Exit-code policy under test: 0 means the run completed (mismatched claims
included), 2 means an operational failure, 1 is reserved for a consumer
closing the pipe early.
"""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from kmatchlab.cli import main
from kmatchlab.harness import report_from_json


def test_count_text_output(capsys):
    assert main(["count", "--graph", "gen:complete:4", "--k", "2"]) == 0
    assert capsys.readouterr().out == "9 (integral)\n"


def test_count_text_non_integral(capsys):
    assert main(["count", "--graph", "gen:path:3", "--k", "2"]) == 0
    assert capsys.readouterr().out == "1/4 (non-integral)\n"


def test_count_json_is_canonical(capsys):
    code = main(
        ["count", "--graph", "graph6:Bg", "--k", "2", "--gmode", "corrected",
         "--index", "paper", "--format", "json"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert out == (
        '{"is_integral":false,"k":2,"n":3,'
        '"options":{"gmode":"corrected","index_convention":"paper"},'
        '"value":"-5/4"}\n'
    )


def test_oracle_variants(capsys):
    assert main(["oracle", "--graph", "gen:cycle:4", "--k", "2"]) == 0
    assert main(["oracle", "--graph", "gen:cycle:4", "--k", "2", "--what", "directed"]) == 0
    assert main(["oracle", "--graph", "graph6:Bg", "--k", "2", "--what", "rooks"]) == 0
    assert main(["oracle", "--graph", "graph6:Bg", "--k", "2", "--what", "lemma1"]) == 0
    assert capsys.readouterr().out == "2\n8\n4\n1\n"


def test_coeffs_g_exact_json(capsys):
    assert main(["coeffs", "--k", "3", "--gmode", "corrected"]) == 0
    out = capsys.readouterr().out
    assert out == '{"g":{"1":"2","2":"-3","3":"1"},"k":3,"mode":"corrected"}\n'


def test_coeffs_g_paper_mode(capsys):
    assert main(["coeffs", "--k", "2", "--gmode", "paper"]) == 0
    assert capsys.readouterr().out == '{"g":{"1":"1","2":"1"},"k":2,"mode":"paper"}\n'


def test_coeffs_f_json(capsys):
    assert main(["coeffs", "--k", "3", "--what", "f"]) == 0
    out = capsys.readouterr().out
    obj = json.loads(out)
    assert obj["m"] == 3
    assert obj["f"]["{1,2,3}"] == "2"
    assert obj["f"]["{1,2|3}"] == "-1"
    assert obj["f"]["{1|2|3}"] == "1"
    assert len(obj["f"]) == 5


def test_verify_stdout_json(capsys):
    code = main(["verify", "--claim", "LEMMA1_VS_ORACLE", "--nmax", "3", "--kmax", "2"])
    assert code == 0
    rep = report_from_json(capsys.readouterr().out)
    assert len(rep.records) == 22
    assert rep.summary["LEMMA1_VS_ORACLE"]["mismatch"] > 0


def test_verify_out_file(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(
        ["verify", "--claim", "THM1_VS_LEMMA1", "--nmax", "3", "--kmax", "2",
         "--out", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    rep = report_from_json(out.read_text())
    assert rep.summary["THM1_VS_LEMMA1"]["match"] > 0


def test_verify_all_small_budget(capsys):
    assert main(["verify", "--claim", "all", "--nmax", "3", "--kmax", "2"]) == 0
    rep = report_from_json(capsys.readouterr().out)
    assert set(rep.summary) == {
        "LEMMA2", "LEMMA3", "LEMMA4", "LEMMA6", "LEMMA1_VS_ORACLE",
        "THM1_VS_LEMMA1", "THM2_VS_THM1", "LEMMA7_VS_THM2", "THM3_VS_LEMMA7",
        "THM4_FACTORIZATION", "END_TO_END",
    }


def test_verify_csv_format(capsys):
    code = main(["verify", "--claim", "LEMMA3", "--nmax", "2", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "claim,instance,lhs,rhs,verdict"
    assert len(lines) == 7


def test_search_stdout(capsys):
    assert main(["search", "--nmax", "3", "--kmax", "2"]) == 0
    rep = report_from_json(capsys.readouterr().out)
    assert len(rep.records) == 88


def test_search_stdout_bytes_equal_file_bytes(tmp_path, capsys):
    # 13,188 records: several chunks, streamed to stdout and to a file
    out = tmp_path / "search.json"
    assert main(["search", "--nmax", "5", "--kmax", "3", "--out", str(out)]) == 0
    assert main(["search", "--nmax", "5", "--kmax", "3"]) == 0
    assert capsys.readouterr().out == out.read_text(encoding="ascii")


def test_graph_file_edge_list(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("3 2\n1 2\n2 3\n")
    assert main(["oracle", "--graph", str(path), "--k", "1"]) == 0
    assert capsys.readouterr().out == "2\n"


def test_graph_file_graph6_with_header(tmp_path, capsys):
    path = tmp_path / "g.g6"
    path.write_text(">>graph6<<Bw\n")
    assert main(["oracle", "--graph", str(path), "--k", "1"]) == 0
    assert capsys.readouterr().out == "3\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--graph", "gen:path:3", "--k", "200"],
        ["count", "--graph", "graph6:B", "--k", "1"],
        ["count", "--graph", "gen:random:5", "--k", "1"],
        ["count", "--graph", "/nonexistent/graph.g6", "--k", "1"],
        ["oracle", "--graph", "gen:complete:12", "--k", "2"],
        ["verify", "--claim", "LEMMA2", "--nmax", "11"],
        ["search", "--nmax", "9", "--kmax", "2"],
    ],
)
def test_operational_errors_exit_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")


def test_mismatches_still_exit_0(capsys):
    code = main(["verify", "--claim", "END_TO_END", "--nmax", "3", "--kmax", "2"])
    assert code == 0
    rep = report_from_json(capsys.readouterr().out)
    assert rep.summary["END_TO_END"]["mismatch"] > 0


def test_broken_pipe_exits_1():
    # Run the CLI from the interpreter and source tree under test, so no
    # installed `kmatch` script is needed.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    # Buffered stdout, as it is by default.
    env.pop("PYTHONUNBUFFERED", None)
    script = (
        f"{shlex.quote(sys.executable)} -m kmatchlab.cli verify --claim LEMMA4"
        " | head -c 10 >/dev/null; "
        'echo "${PIPESTATUS[0]}"'
    )
    proc = subprocess.run(
        ["bash", "-c", script], capture_output=True, text=True, timeout=120,
        env=env,
    )
    assert proc.stdout.strip() in {"0", "1"}
    assert "Traceback" not in proc.stderr

    # Unbuffered stdout: a raw write may take only part of the report. The
    # report (about 360 KB) cannot fit in the pipe once `head` has gone, so
    # writing the rest must reach the BrokenPipeError handler.
    proc = subprocess.run(
        ["bash", "-c", script], capture_output=True, text=True, timeout=120,
        env={**env, "PYTHONUNBUFFERED": "1"},
    )
    assert proc.stdout.strip() == "1"
    assert "Traceback" not in proc.stderr

    # The search report (about 1.6 MB) goes to stdout a chunk of records at a
    # time; a write after `head` has gone must reach the same handler.
    search = (
        f"{shlex.quote(sys.executable)} -m kmatchlab.cli search --nmax 5 --kmax 3"
        " | head -c 10 >/dev/null; "
        'echo "${PIPESTATUS[0]}"'
    )
    proc = subprocess.run(
        ["bash", "-c", search], capture_output=True, text=True, timeout=120,
        env={**env, "PYTHONUNBUFFERED": "1"},
    )
    assert proc.stdout.strip() == "1"
    assert "Traceback" not in proc.stderr
