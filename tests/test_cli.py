"""End-to-end command-line behavior through main(argv).

Exit-code policy under test: 0 means the run completed (mismatched claims
included), 2 means an operational failure, 1 is reserved for a consumer
closing the pipe early.
"""

import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from kmatchlab import harness
from kmatchlab.cli import main
from kmatchlab.coeffs import MAX_GPRIME_K
from kmatchlab.harness import report_from_json
from kmatchlab.oracle import matching_counts
from kmatchlab.partitions import MAX_ENUM_M


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


# SHA-256 of `kmatch coeffs` stdout: --what g --gmode MODE --k K for K <= 12,
# and --what f --k K for K <= 7 and K = 10, the first level whose keys sort a
# two-digit element; refactors of the tables must leave them as they are
COEFFS_DIGESTS = {
    ("g", "paper", 1): "362b70d484bf6059914073093b89c29a6e9a0daab8cd96ead963d6eba5957b4b",
    ("g", "paper", 2): "ceb798cfc8d049d27beb16f3a6104825c41905c1f1a6933da842bbd3b085a5bd",
    ("g", "paper", 3): "4851769dfd2596935340fa4026c45b80970432bb8a55b38100b510b040c0f71b",
    ("g", "paper", 4): "1967789bbb99e774af516c79d1e16867e226ec4da76373a41f0a86af1e1a700f",
    ("g", "paper", 5): "48105163eac7f20e3bf7b5dd2b3dde805e63ca77e572bec2fbf70b6a6f9dfbab",
    ("g", "paper", 6): "f487db3a1280e6ffaf45825a89e12f19e5b8c32f4bf0084d798e06d36081c2ed",
    ("g", "paper", 7): "3346f8af3aa4231216413c7257e4d83f25f70d745de6816a61d75991ee6986d7",
    ("g", "paper", 8): "4435540f9dab753de6b72f380dc717d084edd39ad8aa43a37683d4d32cadc926",
    ("g", "paper", 9): "824e6165f3fd93eee0d2eb003752d83571a85c2d54511826e2a53b69540f0e2a",
    ("g", "paper", 10): "038ab9e70eefcf6e0ca47c16d27d850cbb7c59f9181cc1df7bb3bac9fd00f6d5",
    ("g", "paper", 11): "251903e77a9a0d7faf38ad180df1e12eef70c2ce18b417f1ba0af921dd78381f",
    ("g", "paper", 12): "e87a4fcba08f275d0b3a87ab57874eb9244105d3930f2f3c70ef1a8ab4f97881",
    ("g", "corrected", 1): "abe0240d3f09ac7b97778f2b5fb55467d117e0b3dc840462fffae243d31da219",
    ("g", "corrected", 2): "c2fd2f6197ea30106db4ce8c182154876c0ecb6eb2821a0caff22deb47921569",
    ("g", "corrected", 3): "fa3498d6b45d2bdce4dc769424a9e05217fc837256988b76bef5fab3d8fb5dcc",
    ("g", "corrected", 4): "87ee7c25c3cc8c545de447e66527e6575975539f138f076073c023ae3f2fc9bb",
    ("g", "corrected", 5): "9794491c66deb5f36f7123a48b152ea04ae5c4158275f057aae59a2837f1dfd4",
    ("g", "corrected", 6): "7b9d900930ee51f12b717ecf70b09d531528b565788c62655ba95b7840fb7770",
    ("g", "corrected", 7): "87477f31afea12013a82e14e036bd58caee115809f43f3af7830c1b01e81e40c",
    ("g", "corrected", 8): "c688616b23dc7b58b93ebb68d384317e15d5bfc7b8a86295e31c10ef29b9d44f",
    ("g", "corrected", 9): "9105a34dc15ea996cfdba8d88c52255e91a68f51bca1c14068f4e295d333c1e9",
    ("g", "corrected", 10): "ab1a2840b18cfb11e6bf346983ee0577b98073fbeeec68f58ec954ae43ec9901",
    ("g", "corrected", 11): "bfdb3aa0c9e38d3fc53665d88f1248479de2882bef45c931c4897c82c8374776",
    ("g", "corrected", 12): "f76fa9a2e20f3807770aeef7d95c9d7f0c8814c0914bfc2d1ee1f4786116795b",
    ("f", None, 1): "bb0d721163347f721a326bc283858e78a99ef7887a3deee2d228f5811bdc24c1",
    ("f", None, 2): "253f683f32a4df197e7132fff53d0c96e6333fdc3ee8b6f15764884b6b724700",
    ("f", None, 3): "c85d1adfd14a534996e42cc6c7af755221d92f40cd1632fb5414234bf7674134",
    ("f", None, 4): "89caf9ffd09ee5c17bc4628bb70c77106ca17ce26faf09660b949b247f74b152",
    ("f", None, 5): "b6ac1fc2be6c60535d7bc3541e2db533d6d4106d86abb1eef671b03fe6bdf147",
    ("f", None, 6): "c56a28fb18ca8d3a58c79f46b7e5587a3379082ec282662a89e692e3ffb6d09d",
    ("f", None, 7): "cc38d7d314cf0a5c8c542b9d0e5f1010832eed801dab2f42739e23503e2fc9b9",
    ("f", None, 10): "9eac01ff0db3712477f27e9f7df81ba231ecad6da77963a06ec09c3aa3fcdc92",
}


@pytest.mark.parametrize("what, mode, k", COEFFS_DIGESTS,
                         ids=["-".join(str(v) for v in key if v) for key in COEFFS_DIGESTS])
def test_coeffs_golden_digest(capsys, what, mode, k):
    argv = ["coeffs", "--what", what, "--k", str(k)] + (["--gmode", mode] if mode else [])
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == COEFFS_DIGESTS[what, mode, k]


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


class _Trickle(io.RawIOBase):
    """A raw file that takes at most 7 bytes per write, as a pipe may take part of one."""

    def __init__(self):
        self.received = bytearray()

    def writable(self):
        return True

    def write(self, data):
        taken = bytes(data[:7])
        self.received += taken
        return len(taken)


def test_report_to_stdout_survives_partial_raw_writes(tmp_path, monkeypatch):
    # the layering of `python -u`: the text layer writes straight to the raw
    # file and silently drops what one raw write does not take
    raw = _Trickle()
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(raw, encoding="ascii", write_through=True))
    out = tmp_path / "rep.json"
    argv = ["verify", "--claim", "LEMMA3", "--nmax", "2"]
    assert main(argv) == 0
    assert main(argv + ["--out", str(out)]) == 0
    assert bytes(raw.received) == out.read_bytes()


# each report command: the search, and verify in each format; CSV has no
# head, so it too must spill its rows before the output is opened
_REPORT_COMMANDS = {"search": ["search"], **{
    f"verify-{format}": ["verify", "--claim", "END_TO_END", "--format", format] for format in ("json", "csv", "text")}}
_REFUSED = [(command, n_max, k_max) for command in _REPORT_COMMANDS for n_max, k_max in [(7, 1), (1, 9)]]


@pytest.mark.parametrize("command, n_max, k_max", _REFUSED,
                         ids=[f"{c}-{n}-{k}".removeprefix("search-") for c, n, k in _REFUSED])
def test_refused_search_makes_no_file(tmp_path, capsys, command, n_max, k_max):
    # the guard refuses before the walk, so before the output is opened
    out = tmp_path / "search.json"
    argv = _REPORT_COMMANDS[command] + ["--nmax", str(n_max), "--kmax", str(k_max), "--out", str(out)]
    assert main(argv) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize("command", list(_REPORT_COMMANDS))
def test_failed_search_walk_makes_no_file(tmp_path, capsys, monkeypatch, command):
    # the output is opened only once the walk is done; a walk that fails
    # after several chunks have been spilled leaves no file behind
    def refuse_n5(g, k_max):
        if g.n == 5:
            raise ValueError("refused at n = 5")
        return matching_counts(g, k_max)

    monkeypatch.setattr(harness, "matching_counts", refuse_n5)
    out = tmp_path / "search.json"
    assert main(_REPORT_COMMANDS[command] + ["--nmax", "5", "--kmax", "3", "--out", str(out)]) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: refused at n = 5\n"


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


def _cli_env():
    """The environment that runs the CLI from the interpreter and source tree
    under test, so no installed `kmatch` script is needed."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    return env


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--graph", "gen:complete:40", "--k", "4", "--what", "rooks"],
        ["oracle", "--graph", "gen:random:2000:0.01:1", "--k", "2", "--what", "matchings"],
        ["oracle", "--graph", "gen:random:2000:0.01:1", "--k", "2", "--what", "directed"],
        ["coeffs", "--k", str(MAX_GPRIME_K + 1)],
        ["coeffs", "--what", "f", "--k", str(MAX_ENUM_M + 1)],
        ["verify", "--claim", "END_TO_END", "--nmax", "7", "--kmax", "1"],
        ["verify", "--claim", "LEMMA1_VS_ORACLE", "--nmax", "7", "--kmax", "1"],
        ["verify", "--claim", "THM1_VS_LEMMA1", "--nmax", "7", "--kmax", "1"],
        ["verify", "--claim", "THM2_VS_THM1", "--nmax", "7", "--kmax", "1"],
        ["verify", "--claim", "LEMMA7_VS_THM2", "--nmax", "6", "--kmax", "1"],
        ["verify", "--claim", "THM3_VS_LEMMA7", "--nmax", "6", "--kmax", "1"],
        ["verify", "--claim", "THM4_FACTORIZATION", "--nmax", "7", "--kmax", "1"],
        ["verify", "--claim", "LEMMA4", "--nmax", "11", "--kmax", "2"],
        ["verify", "--claim", "LEMMA6", "--nmax", "11", "--kmax", "2"],
        # END_TO_END, walked first, admits n = 6; LEMMA7_VS_THM2 does not
        ["verify", "--claim", "all", "--nmax", "6", "--kmax", "1"],
    ],
    ids=["rooks-K40", "matchings-G2000", "directed-G2000", "coeffs-past-guard", "coeffs-f-past-guard",
         "verify-END_TO_END-n7", "verify-LEMMA1_VS_ORACLE-n7", "verify-THM1_VS_LEMMA1-n7",
         "verify-THM2_VS_THM1-n7", "verify-LEMMA7_VS_THM2-n6", "verify-THM3_VS_LEMMA7-n6",
         "verify-THM4_FACTORIZATION-n7", "verify-LEMMA4-n11", "verify-LEMMA6-n11", "verify-all-n6"],
)
def test_guards_refuse_before_work_exit_2(argv):
    # a guard refuses at once with exit 2 and one error line, no traceback
    proc = subprocess.run(
        [sys.executable, "-m", "kmatchlab.cli", *argv], capture_output=True,
        text=True, timeout=20, env=_cli_env(),
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_broken_pipe_exits_1():
    env = _cli_env()
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

    # The search report (about 1.6 MB) is spilled to a temporary file while
    # the search walks, then copied to stdout a block at a time; a write
    # after `head` has gone must reach the same handler.
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
