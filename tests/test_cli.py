import contextlib
import csv
import hashlib
import io
import json
import os
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gracetree
from gracetree import build, evaluate_sequence
from gracetree.cli import main
from gracetree.construct import ConstructionTrace
from gracetree.labelling import Labelling
from gracetree.model import to_general, tree_to_json


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_label_path_golden(capsys):
    code, out, _ = run(capsys, "label", "--path", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"] == [0, 4, 1, 3, 2]
    assert doc["method"] == "theorem1"
    assert doc["graceful"] is True
    assert "trace" not in doc


def test_label_explain_and_files(capsys, tmp_path):
    out_file = tmp_path / "lab.json"
    dot_file = tmp_path / "lab.dot"
    code, out, _ = run(
        capsys,
        "label", "--rst", "2,2", "--method", "lemma1", "--explain",
        "--out", str(out_file), "--dot", str(dot_file),
    )
    assert code == 0
    assert out == ""
    doc = json.loads(out_file.read_text())
    assert doc["labels"] == [2, 6, 5, 1, 0, 4, 3]
    assert doc["trace"]["method"] == "lemma1"
    assert doc["trace"]["steps"][0]["op"] == "theorem1"
    dot = dot_file.read_text()
    assert dot.startswith("graph") and "--" in dot


def test_label_theorem2_explain_golden(capsys):
    # A theorem2 trace: the decompose step (h_degrees, p_map, h_map), the
    # broom, the reflected subtree, the merge and the automorphism that
    # carries 0 onto leaf 5, byte for byte.
    code, out, _ = run(capsys, "label", "--rst", "2,1,2", "--zero-at", "5", "--explain")
    assert code == 0
    golden = Path(__file__).parent / "golden" / "label_rst_2-1-2_zero_at_5_explain.json"
    assert out == golden.read_text()


@pytest.mark.parametrize(
    "argv, name",
    [
        # the composition, its complement, then the automorphism
        (["--rst", "3,1,2", "--zero-at", "12", "--desired", "top"], "3-1-2_zero_at_12_top"),
        # the direct formula, its complement, then the automorphism
        (["--rst", "2,3", "--zero-at", "2"], "2-3_zero_at_2"),
    ],
)
def test_label_complement_explain_goldens(capsys, argv, name):
    code, out, _ = run(capsys, "label", *argv, "--explain")
    assert code == 0
    golden = Path(__file__).parent / "golden" / f"label_rst_{name}_explain.json"
    assert out == golden.read_text()


def test_label_zero_at(capsys):
    code, out, _ = run(capsys, "label", "--rst", "2,1,1", "--zero-at", "6")
    assert code == 0
    doc = json.loads(out)
    assert doc["labels"][6] == 0
    assert doc["method"] == "theorem2_even"

    code, out, _ = run(capsys, "label", "--rst", "2,2", "--zero-at", "2", "--desired", "top")
    doc = json.loads(out)
    assert code == 0
    assert doc["labels"][2] == 6


def test_label_usage_errors(capsys, tmp_path):
    code, _, err = run(capsys, "label", "--rst", "2,1,1", "--method", "lemma1")
    assert code == 1
    assert "WrongLevelCount" in err

    code, _, err = run(capsys, "label", "--rst", "not-numbers")
    assert code == 1

    gen = tmp_path / "gen.json"
    gen.write_text('{"kind": "general", "n": 3, "edges": [[0, 1], [1, 2]]}')
    code, _, err = run(capsys, "label", "--tree", str(gen))
    assert code == 1
    assert "rooted symmetric" in err


@pytest.mark.parametrize("name, method", [("compose_theorem2", "theorem2"), ("lemma1_label", "lemma1")])
def test_label_method_is_verified_by_the_cli(capsys, monkeypatch, name, method):
    # The constructions prove their labelling a permutation only; the
    # CLI's own check is what stands behind --method.
    bad = Labelling(range(7))  # index order: differences 1, 2, 2, 3, 3, 4 on (2,2)
    monkeypatch.setattr(f"gracetree.cli.{name}", lambda t: (bad, ConstructionTrace(method, ())))
    code, out, err = run(capsys, "label", "--rst", "2,2", "--method", method)
    assert code == 2
    assert out == ""
    assert "produced labelling failed verification" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--desired", "top"], "--desired only applies with --zero-at"),
        (["--method", "lemma1", "--zero-at", "3"], "--zero-at chooses the construction"),
    ],
    ids=["desired-without-zero-at", "method-with-zero-at"],
)
def test_label_refuses_flags_that_cannot_act(capsys, argv, message):
    code, out, err = run(capsys, "label", "--rst", "2,2", *argv)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["rst_all", "--nmax", "5", "--legs", "4"], "family rst_all does not take legs"),
        (["q3", "--nmax", "5", "--branches", "2"], "family q3 does not take branches"),
        (["symmetric_banana", "--branches", "3.."], "cannot parse --branches '3..'"),
        (["symmetric_banana", "--branches", "x"], "cannot parse --branches 'x'"),
    ],
)
def test_sweep_refuses_flags_it_cannot_use(capsys, argv, message):
    code, out, err = run(capsys, "sweep", "--family", *argv)
    assert code == 1
    assert out == ""
    assert message in err


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    # Every `gracetree ...` line of the README's CLI block must run as
    # written; f.json, which `verify` reads, is made first.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    commands = [shlex.split(line)[1:] for line in lines if line.startswith("gracetree ")]
    assert len(commands) >= 5
    monkeypatch.chdir(tmp_path)
    assert main(["label", "--rst", "3,4", "--out", "f.json"]) == 0
    for argv in commands:
        assert main(argv) == 0, argv
    capsys.readouterr()


def test_no_arguments_is_usage_error(capsys):
    assert main([]) == 1
    assert main(["sweep"]) == 1
    assert main(["label"]) == 1
    capsys.readouterr()


def test_verify_roundtrip(capsys, tmp_path):
    lab = tmp_path / "f.json"
    code, out, _ = run(capsys, "label", "--rst", "3,4", "--out", str(lab))
    assert code == 0
    code, out, _ = run(capsys, "verify", "--rst", "3,4", "--labels", str(lab))
    assert code == 0
    assert out.strip() == "graceful"


def test_verify_failures(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"labels": [0, 2, 1, 3]}')
    code, out, _ = run(capsys, "verify", "--path", "4", "--labels", str(bad))
    assert code == 2
    assert "not graceful" in out

    bad.write_text("[0, 0, 1, 2]")
    code, out, _ = run(capsys, "verify", "--path", "4", "--labels", str(bad))
    assert code == 2
    assert "permutation" in out

    bad.write_text("[0, 1]")
    code, _, err = run(capsys, "verify", "--path", "4", "--labels", str(bad))
    assert code == 1


def test_verify_failure_message_stays_short(capsys, tmp_path):
    # The identity labelling of a long path repeats difference 1 on every
    # edge; the message names one repeat and one gap, not all 3,000.
    lab = tmp_path / "f.json"
    lab.write_text(json.dumps(list(range(3001))))
    code, out, _ = run(capsys, "verify", "--path", "3001", "--labels", str(lab))
    assert code == 2
    assert out == "not graceful: edge difference 1 repeats and 2 is missing\n"
    assert len(out) < 200


def test_verify_without_labels_key(capsys, tmp_path):
    doc = tmp_path / "lab.json"
    doc.write_text('{"lab": [0, 1, 2]}')
    code, out, err = run(capsys, "verify", "--rst", "2", "--labels", str(doc))
    assert code == 1
    assert out == ""
    assert err == "error: labelling document has no 'labels' key\n"


@pytest.mark.parametrize("doc", [{"labels": 5}, "0,1,2", 7])
def test_verify_refuses_a_document_without_a_labels_list(capsys, tmp_path, doc):
    lab = tmp_path / "lab.json"
    lab.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify", "--rst", "2", "--labels", str(lab))
    assert code == 1
    assert out == ""
    assert err == "error: labelling document must be a list or carry a 'labels' list\n"


def test_rotate0_yes_and_outputs(capsys, tmp_path):
    csv_file = tmp_path / "r.csv"
    json_file = tmp_path / "r.json"
    code, out, _ = run(
        capsys,
        "rotate0", "--rst", "2,2", "--csv", str(csv_file), "--json", str(json_file),
        "--no-timing",
    )
    assert code == 0
    assert "tree 2,2: yes" in out
    lines = csv_file.read_text().strip().split("\n")
    assert len(lines) == 4
    assert lines[1].startswith("gracetree.rotate0/1")
    report = json.loads(json_file.read_text())
    assert report["verdict"] == "yes"


def test_rotate0_json_byte_stable_without_timing(capsys, tmp_path):
    texts = []
    for name in ("a.json", "b.json"):
        json_file = tmp_path / name
        code, _, _ = run(capsys, "rotate0", "--rst", "2,2", "--json", str(json_file), "--no-timing")
        assert code == 0
        texts.append(json_file.read_text())
    assert texts[0] == texts[1]
    assert all(o["elapsed"] is None for o in json.loads(texts[0])["orbits"])


def test_rotate0_counterexample_exit(capsys):
    code, out, _ = run(capsys, "rotate0", "--rst", "1,1,1,2")
    assert code == 3
    assert "verdict=no" in out


def _rotate0_orbits(out: str) -> list[tuple[int, str, str]]:
    """(representative, verdict, method) of each orbit line rotate0 printed."""
    found = re.findall(r"^orbit rep=(\d+) size=\d+ verdict=(\w+) \[(\w+)\]$", out, re.M)
    return [(int(rep), verdict, method) for rep, verdict, method in found]


@pytest.mark.parametrize(
    "seq, constructed",
    [
        ("12,2,1", [(0, "yes", "theorem1"), (1, "yes", "complement_of")]),
        ("5,1,1,1,8", [(16, "yes", "theorem2_even"), (21, "yes", "complement_of")]),
    ],
)
def test_rotate0_constructs_a_rooted_symmetric_tree_like_the_sweep(
    capsys, tmp_path, seq, constructed
):
    # The paper's constructions settle the levels they reach, and the
    # rest is searched: rotate0 prints the sweep's row, orbit for orbit,
    # whether the tree comes from --rst or from an "rst" tree file.
    budget = ("--budget-nodes", "1000", "--budget-secs", "0")
    row = evaluate_sequence(tuple(map(int, seq.split(","))), "", 1000, None)
    want = list(zip(row.orbit_reps, row.verdicts, row.methods))
    tree_file = tmp_path / "t.json"
    assert run(capsys, "tree", "--rst", seq, "--json", str(tree_file))[0] == 0
    for source in (("--rst", seq), ("--tree", str(tree_file))):
        code, out, _ = run(capsys, "rotate0", *source, *budget)
        assert code == {"yes": 0, "timeout": 4}[row.verdict]
        assert _rotate0_orbits(out) == want
        assert set(constructed) <= set(want)


def test_rotate0_searches_every_orbit_of_a_general_tree(capsys, tmp_path):
    tree_file = tmp_path / "t.json"
    tree_file.write_text(tree_to_json(to_general(build((12, 2, 1)))))
    code, out, _ = run(
        capsys, "rotate0", "--tree", str(tree_file), "--budget-nodes", "1000", "--budget-secs", "0"
    )
    orbits = _rotate0_orbits(out)
    assert code == 4 and [rep for rep, _, _ in orbits] == [0, 1, 13, 37]
    assert {method for _, _, method in orbits} <= {"search_fallback", "complement_of"}
    assert orbits[0] == (0, "timeout", "search_fallback")


def test_rotate0_timeout_exit_and_env(capsys, monkeypatch):
    monkeypatch.setenv("GRACEFUL_BUDGET_NODES", "1")
    code, out, _ = run(capsys, "rotate0", "--rst", "2,2,2")
    assert code == 4
    # a flag beats the environment
    monkeypatch.setenv("GRACEFUL_BUDGET_NODES", "1")
    code, _, _ = run(capsys, "rotate0", "--rst", "2,2", "--budget-nodes", "0")
    assert code == 0


def test_nan_time_budget_is_an_error(capsys, monkeypatch):
    # NaN never compares greater, so it used to mean "no time limit".
    for argv in (
        ("rotate0", "--rst", "2,2", "--budget-secs", "nan"),
        ("sweep", "--family", "q3", "--nmax", "8", "--budget-secs", "nan"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: time budget must be positive")
    monkeypatch.setenv("GRACEFUL_BUDGET_SECS", "nan")
    code, _, err = run(capsys, "rotate0", "--rst", "2,2")
    assert code == 1
    assert err.startswith("error: time budget must be positive")


@pytest.mark.parametrize("name, value", [("GRACEFUL_BUDGET_NODES", "1e6"), ("GRACEFUL_BUDGET_SECS", "abc")])
def test_malformed_budget_variable_is_named(capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    code, out, err = run(capsys, "rotate0", "--rst", "2,2")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {name}={value!r} ")


def test_deep_or_oversized_tree_is_an_error_not_a_traceback(capsys, monkeypatch):
    # The search recurses once per vertex and raises the recursion limit
    # to match, so a path deeper than the default limit is searched.
    code, out, err = run(
        capsys, "rotate0", "--path", "1200", "--budget-nodes", "5", "--budget-secs", "0"
    )
    assert code == 4
    assert out.endswith(": timeout\n")
    assert err == ""

    def too_deep(*args, **kwargs):
        raise RecursionError

    monkeypatch.setattr("gracetree.cli.is_zero_rotatable", too_deep)
    code, out, err = run(capsys, "rotate0", "--rst", "2,2")
    assert code == 1
    assert out == ""
    assert err.startswith("error: recursion limit reached")

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("gracetree.cli.is_zero_rotatable", out_of_memory)
    code, _, err = run(capsys, "rotate0", "--rst", "2,2")
    assert code == 1
    assert err == "error: out of memory\n"


@pytest.mark.parametrize(
    "argv, n",
    [
        (["label", "--rst", "99999999999999999999"], 100000000000000000000),
        (["rotate0", "--path", "100000000000"], 100000000000),
        (["tree", "--rst", "10000000"], 10000001),
    ],
    ids=["label-rst", "rotate0-path", "one-over"],
)
def test_a_tree_above_the_size_limit_is_refused_before_it_is_built(capsys, argv, n):
    # The first two would fill n-sized lists until memory ran out.
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: tree has {n} vertices; gracetree handles at most 10000000\n"
    code, out, _ = run(capsys, "tree", "--rst", "9999999")
    assert (code, out) == (0, '{"kind": "rst", "degrees": [9999999]}\n')


def test_sweep_cli(capsys, tmp_path):
    csv_file = tmp_path / "s.csv"
    wit_dir = tmp_path / "wit"
    code, out, _ = run(
        capsys,
        "sweep", "--family", "q3", "--nmax", "8",
        "--csv", str(csv_file), "--witnesses", str(wit_dir), "--no-timing",
    )
    assert code == 0
    assert "swept" in out
    lines = csv_file.read_text().strip().split("\n")
    assert lines[0].startswith("schema,")
    assert len(lines) > 2
    bundle = json.loads((wit_dir / "2-2.json").read_text())
    assert bundle["tree"]["degrees"] == [2, 2]
    for rep, labels in bundle["witnesses"].items():
        assert labels[int(rep)] == 0


@pytest.mark.parametrize(
    "family, files, digest",
    [
        (
            ["q3", "--nmax", "130"],
            520,
            "1d93d6bf8e0288ba284766cb4fe75ea32e8b5214f65758f1051a00d911d60a91",
        ),
        (
            ["rst_all", "--nmax", "14", "--budget-nodes", "50000", "--budget-secs", "0"],
            207,
            "6d4880d6ac4f02dc8189a8a3cac2501ca7e0652ba6a2274b964f9503b8f5554f",
        ),
    ],
    ids=["q3-130", "rst_all-14"],
)
def test_sweep_csv_and_witnesses_are_pinned_byte_for_byte(capsys, tmp_path, family, files, digest):
    # One digest over the CSV and every witness file, named, in name
    # order: the constructed sweep and the search-bound one.
    csv_file = tmp_path / "s.csv"
    wit_dir = tmp_path / "wit"
    run(
        capsys, "sweep", "--family", *family, "--no-timing",
        "--csv", str(csv_file), "--witnesses", str(wit_dir),
    )
    h = hashlib.sha256(csv_file.read_bytes())
    witnesses = sorted(wit_dir.iterdir())
    assert len(witnesses) == files
    for path in witnesses:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    assert h.hexdigest() == digest


def test_sweep_counterexample_exit(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "rst_all", "--nmax", "6")
    assert code == 3
    assert "no" in out
    assert out.splitlines()[-1] == (
        "swept 17 trees from family rst_all: 45 orbits (44 yes, 1 no, 0 timeout), "
        "4 searched, 44 nodes"
    )


def _sweep_rst_all(capsys, tmp_path, nmax):
    """``sweep --family rst_all`` to ``nmax`` under 50,000 nodes per orbit
    and no time budget: the exit code, the last line of stdout and the
    CSV rows."""
    csv_file = tmp_path / "s.csv"
    code, out, _ = run(
        capsys,
        "sweep", "--family", "rst_all", "--nmax", str(nmax), "--budget-nodes", "50000",
        "--budget-secs", "0", "--no-timing", "--csv", str(csv_file),
    )
    return code, out.splitlines()[-1], list(csv.DictReader(io.StringIO(csv_file.read_text())))


def _assert_verdict_ledger(rows, name):
    # Search order decides which orbits a complement settles, never a
    # verdict: the golden pins every orbit's verdict.
    verdicts = io.StringIO()
    writer = csv.writer(verdicts, lineterminator="\n")
    writer.writerow(["tree", "orbit_reps", "verdicts"])
    writer.writerows((row["tree"], row["orbit_reps"], row["verdicts"]) for row in rows)
    golden = Path(__file__).parent / "golden" / name
    assert verdicts.getvalue().encode() == golden.read_bytes()


def _undecided(rows):
    return {
        (row["tree"], rep)
        for row in rows
        for rep, verdict in zip(row["orbit_reps"].split(), row["verdicts"].split())
        if verdict == "timeout"
    }


def test_sweep_node_budget_tally(capsys, tmp_path):
    # Under a node budget alone the tally does not depend on machine speed.
    # The orbits left undecided are vertex 2 of the brooms (1,1,1,k) for
    # k = 7, 8 and 10, which can never carry 0 (k mod 12 is not one of
    # 0, 1, 3, 5, 6, 9).
    code, last, rows = _sweep_rst_all(capsys, tmp_path, 14)
    assert code == 3
    assert last == (
        "swept 207 trees from family rst_all: 1164 orbits (1159 yes, 2 no, 3 timeout), "
        "338 searched, 161696 nodes"
    )
    assert _undecided(rows) == {("1,1,1,7", "2"), ("1,1,1,8", "2"), ("1,1,1,10", "2")}
    _assert_verdict_ledger(rows, "sweep_rst_all_nmax14_50k_verdicts.csv")


def test_sweep_verdict_ledger_nmax20(capsys, tmp_path):
    # Every orbit of every rooted symmetric tree on up to 20 vertices.  A
    # change to the search order may turn a timeout into a yes; any other
    # move of a verdict is a fault.  Six of the eleven orbits left
    # undecided are the brooms (1,1,1,k) at vertex 2 that can never carry
    # 0: k = 7, 8, 10, 11, 14 and 16.
    code, last, rows = _sweep_rst_all(capsys, tmp_path, 20)
    assert code == 3
    assert last == (
        "swept 685 trees from family rst_all: 5263 orbits (5250 yes, 2 no, 11 timeout), "
        "1914 searched, 818900 nodes"
    )
    brooms = {(f"1,1,1,{k}", "2") for k in (7, 8, 10, 11, 12, 14, 15, 16)}
    assert _undecided(rows) == brooms | {
        ("1,1,1,2,6", "2"), ("1,1,1,2,7", "2"), ("1,1,2,7", "5")
    }
    _assert_verdict_ledger(rows, "sweep_rst_all_nmax20_50k_verdicts.csv")


@pytest.mark.parametrize(
    "family, jobs, trees, workers",
    [
        (["symmetric_banana", "--branches", "2..3"], "2", 4, [2]),
        (["symmetric_spider", "--legs", "2", "--branches", "1..2"], "3", 2, [2]),
        # one tree, or none, runs without a pool
        (["symmetric_banana", "--branches", "2..2"], "2", 1, []),
        (["rst_all", "--nmax", "1"], "2", 0, []),
    ],
    ids=["4-trees", "2-trees", "1-tree", "0-trees"],
)
def test_sweep_jobs(capsys, monkeypatch, family, jobs, trees, workers):
    import concurrent.futures

    pools = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    code, out, _ = run(capsys, "sweep", "--jobs", jobs, "--family", *family)
    assert code == 0
    assert f"swept {trees} trees" in out
    assert pools == workers


def test_tree_command(capsys, tmp_path):
    code, out, _ = run(capsys, "tree", "--rst", "2,1")
    assert code == 0
    assert json.loads(out) == {"kind": "rst", "degrees": [2, 1]}

    dot_file = tmp_path / "t.dot"
    code, out, _ = run(capsys, "tree", "--path", "3", "--dot", str(dot_file))
    assert code == 0
    assert "0 -- 1" in dot_file.read_text()

    # round-trip: exported JSON loads back in
    json_file = tmp_path / "t.json"
    code, _, _ = run(capsys, "tree", "--rst", "2,2", "--json", str(json_file))
    assert code == 0
    code, out, _ = run(capsys, "label", "--tree", str(json_file))
    assert code == 0
    assert json.loads(out)["n"] == 7


@pytest.mark.parametrize(
    "doc, code, out, err",
    [
        ({"kind": "rst", "degrees": [2, 1]}, 0, '{"kind": "rst", "degrees": [2, 1]}\n', ""),
        ({"kind": "general", "n": 4, "edges": [[0, 1], [1, 2], [0, 2]]}, 1, "", "error: edge (1,2) closes a cycle\n"),
        ({"kind": "general", "edges": [[0, 1]]}, 1, "", 'error: general document needs "n" and "edges"\n'),
    ],
    ids=["rst", "cycle", "general-without-n"],
)
def test_tree_reads_its_document_from_stdin(capsys, monkeypatch, doc, code, out, err):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    assert run(capsys, "tree", "--tree", "-") == (code, out, err)


def test_missing_file_is_io_error(capsys, tmp_path):
    code, _, err = run(capsys, "verify", "--path", "3", "--labels", str(tmp_path / "nope.json"))
    assert code == 1
    assert "error" in err.lower() or err


@pytest.mark.parametrize("entries", ["[0, 1.7, 2]", "[0, true, 2]", "[0, null, 2]", "[0, [1], 2]"])
def test_verify_rejects_non_integer_labels(capsys, tmp_path, entries):
    labels = tmp_path / "l.json"
    labels.write_text('{"labels": %s}' % entries)
    code, out, err = run(capsys, "verify", "--rst", "2", "--labels", str(labels))
    assert code == 1
    assert out == ""
    assert err.startswith("error: labelling entry ") and "not an integer" in err


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "general", "n": 3, "edges": [[0, 1], [1]]},
        {"kind": "general", "n": 3, "edges": [5, 6]},
        {"kind": "general", "n": 3, "edges": None},
        {"kind": "general", "n": 3, "edges": [[0, 1], [1, 2.0]]},
        {"kind": "general", "n": None, "edges": [[0, 1], [1, 2]]},
        {"kind": "rst", "degrees": [None]},
        {"kind": "rst", "degrees": [2.5, 1]},
        {"kind": "rst", "degrees": [True, 1]},
    ],
)
def test_malformed_tree_file_is_an_error_not_a_traceback(capsys, tmp_path, doc):
    tree = tmp_path / "t.json"
    tree.write_text(json.dumps(doc))
    code, out, err = run(capsys, "tree", "--tree", str(tree))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def _source_env() -> dict:
    """The environment for a child interpreter that imports this gracetree."""
    src = str(Path(gracetree.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_module_entry_point_runs_the_command():
    proc = subprocess.run(
        [sys.executable, "-m", "gracetree.cli", "rotate0", "--rst", "2,2", "--budget-secs", "nan"],
        capture_output=True, text=True, env=_source_env(), timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: time budget must be positive")


def test_import_loads_no_process_pool():
    # Only sweep --jobs > 1 starts a pool, so only it pays for loading
    # concurrent.futures and multiprocessing (and logging, socket, pickle).
    # No module loads dataclasses (which pulls in inspect, ast and dis),
    # and only the functions that serialise load json or csv; the CLI
    # needs json.
    heavy = {"concurrent", "multiprocessing", "dataclasses", "inspect", "json", "csv"}
    src = str(Path(gracetree.__file__).resolve().parents[1])
    for module, unwanted in (("gracetree", heavy), ("gracetree.cli", heavy - {"json"})):
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import {module}; "
            f"print(sorted(m for m in sys.modules if m.partition('.')[0] in {sorted(unwanted)!r}))"
        )
        proc = subprocess.run(
            [sys.executable, "-I", "-S", "-B", "-c", code],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", module


@contextlib.contextmanager
def _sweep_in_own_group(*args):
    """``sweep --jobs 2 ARGS`` in a new process group, killed on the way out."""
    argv = [sys.executable, "-m", "gracetree.cli", "sweep", "--jobs", "2", *args]
    proc = subprocess.Popen(
        argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=_source_env(), start_new_session=True,
    )
    try:
        yield proc
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()


def _assert_ends_alone(proc, returncode: int) -> str:
    """Wait for ``proc``: it exits ``returncode`` within 10 s, prints no
    traceback and leaves no process in its group, zombies included."""
    _, err = proc.communicate(timeout=10)
    assert proc.returncode == returncode
    assert "Traceback" not in err
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    return err


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
@pytest.mark.parametrize("target", ["group", "parent"])
@pytest.mark.parametrize(
    "family",
    [
        # many short trees: both workers are busy when Ctrl-C comes
        ["rst_all", "--nmax", "30", "--budget-nodes", "50000", "--budget-secs", "0"],
        # a short tree and a long one: one worker waits idle for work
        ["symmetric_spider", "--legs", "4", "--branches", "17..18", "--budget-nodes", "0",
         "--budget-secs", "60"],
        # long trees: each worker has more queued, which it must not start
        ["symmetric_spider", "--legs", "4", "--branches", "20..40", "--budget-nodes", "0",
         "--budget-secs", "60"],
    ],
    ids=["busy", "idle", "queued"],
)
def test_ctrl_c_under_jobs_exits_130(family, target):
    # Ctrl-C signals the terminal's whole process group: the parent and
    # every pool worker.  A supervisor may signal the parent alone.  Either
    # way the sweep must stop quietly and leave no worker.
    with _sweep_in_own_group("--family", *family) as proc:
        time.sleep(1.0)
        (os.killpg if target == "group" else os.kill)(proc.pid, signal.SIGINT)
        _assert_ends_alone(proc, 130)


def _children(pid: int) -> list[int]:
    """The pids whose parent is ``pid``, read from /proc/<pid>/stat."""
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rpartition(")")[2].split()
        except OSError:  # the process has gone
            continue
        if int(fields[1]) == pid:
            kids.append(int(stat.parent.name))
    return kids


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="finds the workers in /proc")
def test_dead_worker_ends_the_sweep_with_an_error():
    # A worker killed from outside, or for lack of memory, breaks the pool.
    with _sweep_in_own_group(
        "--family", "symmetric_spider", "--legs", "4", "--branches", "20..24",
        "--budget-nodes", "0", "--budget-secs", "3",
    ) as proc:
        time.sleep(1.0)
        os.kill(_children(proc.pid)[0], signal.SIGKILL)
        err = _assert_ends_alone(proc, 1)
        assert err == "error: a sweep worker process died\n"
