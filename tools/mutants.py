"""Known mutants of kmatchlab, each of which some Tier-1 test must kill.

Each entry of MUTANTS is (file, old text, new text, tests): the file's old
text, found exactly once, is replaced by the new text in a temporary copy
of the repository, and the entry's tests (pytest node ids) are run there.
The script fails if the old text is not found exactly once, if the tests
cannot run, or if every test passes, that is if the mutant survives.

    python tools/mutants.py

It runs every entry and prints one line each.  It needs only the standard
library and pytest, and runs the tests with PYTHONPATH=src, as Tier-1 does.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

HARNESS = "src/kmatchlab/harness.py"
T = "tests/test_harness.py::"

# name: (file, old text, new text, tests)
MUTANTS = {
    # JSON and text rows come from one loop, _rows: a claim opening that is
    # never reset must be caught in each format
    "json-claim-not-reset": (
        HARNESS,
        "        if c is not claim:\n            claim, opening = c, opening_of(c)",
        "        if claim is None:\n            claim, opening = c, opening_of(c)",
        [T + "test_a_block_shared_by_two_claims_is_spelled_for_each[json]"],
    ),
    "text-claim-not-reset": (
        HARNESS,
        "        if c is not claim:\n            claim, opening = c, opening_of(c)",
        "        if claim is None:\n            claim, opening = c, opening_of(c)",
        [T + "test_a_block_shared_by_two_claims_is_spelled_for_each[text]"],
    ),
    "variant-firsts-never-set": (
        HARNESS,
        'vt["mismatch"], firsts.get(v))',
        'vt["mismatch"], None)',
        [T + "test_tallies_resume_across_chunks"],
    ),
    "no-tail-order-check": (
        HARNESS,
        "        if last_tail is not None and tail <= last_tail:\n"
        "            raise _out_of_order(claim, head + tail, comps[0][0])\n",
        "",
        [T + "test_streamed_tallies_refuse_a_broken_block_at_its_first_graph[tails]",
         T + "test_build_report_refuses_records_out_of_order[head]"],
    ),
    "no-variant-order-check": (
        HARNESS,
        "            if variant < last_variant:\n"
        "                raise _out_of_order(claim, head + tail, variant)\n",
        "",
        [T + "test_streamed_tallies_refuse_a_broken_block_at_its_first_graph[variants]",
         T + "test_build_report_refuses_records_out_of_order[variant]"],
    ),
    "verify-claim-drops-last-comparison": (
        HARNESS,
        "for variant, l, r, verdict in comps]",
        "for variant, l, r, verdict in comps[:-1]]",
        [T + "test_verify_claim_returns_records_in_canonical_order"],
    ),
    "claims-do-not-share-memo": (
        HARNESS,
        "_SPECS[c].walk(b, memo)",
        "_SPECS[c].walk(b, {})",
        [T + "test_claims_of_one_run_share_each_side"],
    ),
    "stdout-write-not-retried": (
        "src/kmatchlab/cli.py",
        "    def write(self, text: str) -> None:\n        _write_stdout(text)",
        "    def write(self, text: str) -> None:\n        sys.stdout.write(text)",
        ["tests/test_cli.py::test_report_to_stdout_survives_partial_raw_writes"],
    ),
    "lemma1-skips-vertex-0": (
        "src/kmatchlab/oracle.py",
        "hits = [v for v in range(n) if adj[v][phi[v]]]",
        "hits = [v for v in range(1, n) if adj[v][phi[v]]]",
        [T + "test_every_side_is_label_invariant"],
    ),
    "end-to-end-fast-vs-fast": (
        HARNESS,
        "_graph_walker(_fast, _oracle)",
        "_graph_walker(_fast, _fast)",
        [T + "test_search_report_golden_digest"],
    ),
}


def _copy(dest: Path) -> None:
    shutil.copytree(ROOT, dest, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".pytest_cache", ".hypothesis", "_out"))


def run(name: str) -> str | None:
    """None if the mutant is killed, else why the entry fails."""
    file, old, new, tests = MUTANTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        _copy(copy)
        path = copy / file
        text = path.read_text()
        if text.count(old) != 1:
            return f"old text found {text.count(old)} times in {file}, not once"
        path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH="src")
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                              cwd=copy, env=env, capture_output=True, text=True)
    if done.returncode == 0:
        return "survived: every test passed"
    if done.returncode != 1:  # not "tests failed": no test ran, or pytest broke
        return f"pytest exited with {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"
    return None


def main() -> int:
    failed = 0
    for name in MUTANTS:
        why = run(name)
        print(f"{name}: {'killed' if why is None else 'FAILED: ' + why}", flush=True)
        failed += why is not None
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
