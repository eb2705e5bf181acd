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
from gracetree import ZeroAtRequest, build, evaluate_sequence, theorem1_label, zero_at
from gracetree.cli import _tree_to_dict, entrypoint, main
from gracetree.construct import compose_theorem2, lemma1_label
from gracetree.model import to_general
from oracles import check_trace, graceful_on_rst


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
    # broom, the reflected subtree and the merge, which puts 0 on leaf 5,
    # the first of its level, byte for byte.
    code, out, _ = run(capsys, "label", "--rst", "2,1,2", "--zero-at", "5", "--explain")
    assert code == 0
    golden = Path(__file__).parent / "golden" / "label_rst_2-1-2_zero_at_5_explain.json"
    assert out == golden.read_text()
    doc = json.loads(out)
    assert check_trace(doc["tree"]["degrees"], doc["trace"]) == doc["labels"]


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
    doc = json.loads(out)
    assert check_trace(doc["tree"]["degrees"], doc["trace"]) == doc["labels"]


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
    assert err == "error: the swap product needs exactly 3 levels, tree has 4\n"

    code, _, err = run(capsys, "label", "--rst", "not-numbers")
    assert code == 1

    gen = tmp_path / "gen.json"
    gen.write_text('{"kind": "general", "n": 3, "edges": [[0, 1], [1, 2]]}')
    code, _, err = run(capsys, "label", "--tree", str(gen))
    assert code == 1
    assert "rooted symmetric" in err


@pytest.mark.parametrize(
    "degrees, level, q",
    [("2,1,1,1", 3, 5), ("2,3,2", 3, 4)],
    ids=["middle-level", "deep-level-of-no-broom"],
)
def test_label_refuses_a_level_no_construction_reaches(capsys, degrees, level, q):
    # Vertex 3 sits on level 3: a middle level of a five-level tree, and
    # the level above the leaves of a tree whose root branches are no brooms.
    code, out, err = run(capsys, "label", "--rst", degrees, "--zero-at", "3")
    assert (code, out) == (1, "")
    assert err == f"error: no constructive placement for level {level} of a {q}-level tree\n"


@pytest.mark.parametrize(
    "construct, argv",
    [
        (theorem1_label, []),
        (lemma1_label, ["--method", "lemma1"]),
        (compose_theorem2, ["--method", "theorem2"]),
        (lambda t: zero_at(ZeroAtRequest(t, 5, 0)), ["--zero-at", "5"]),
    ],
    ids=["theorem1", "lemma1", "theorem2", "zero-at"],
)
def test_label_ends_with_the_bug_report_of_a_construction(capsys, monkeypatch, construct, argv):
    # The direct formula's core, patched to number (2,2) in index order,
    # hands each construction a permutation that is not graceful.  Each
    # proves its labelling where it hands it out and raises; label prints
    # only what a construction proved, so it ends with that error.
    assert not graceful_on_rst((2, 2), range(7))
    monkeypatch.setattr(gracetree.construct, "_theorem1_labels", lambda t: list(range(t.n)))
    bug = "^a labelling handed out is not graceful or misses a pin; this is a bug$"
    with pytest.raises(RuntimeError, match=bug):
        construct(build((2, 2)))
    with pytest.raises(RuntimeError, match=bug):
        main(["label", "--rst", "2,2", *argv])
    assert capsys.readouterr().out == ""


def _rst_levels(nmax: int) -> list[tuple[tuple[int, ...], list[range]]]:
    """(degrees, vertices of each level) of every rooted symmetric tree
    on at most ``nmax`` vertices, (0,) being the single vertex."""
    out = [((0,), [range(1)])]

    def grow(degrees: tuple[int, ...], levels: list[range]) -> None:
        last, k = levels[-1], 1
        while last.stop + k * len(last) <= nmax:
            below = levels + [range(last.stop, last.stop + k * len(last))]
            out.append((degrees + (k,), below))
            grow(degrees + (k,), below)
            k += 1

    grow((), [range(1)])
    return out


@pytest.mark.parametrize("mode", ["theorem1", "lemma1", "theorem2", "zero-at-0", "zero-at-top"])
def test_every_labelling_label_prints_is_graceful(capsys, mode):
    # label prints "graceful": true on the constructions' word alone; an
    # oracle that builds its own edges checks every labelling of every
    # tree on at most 14 vertices that the mode accepts.
    for degrees, levels in _rst_levels(14):
        q, n = len(levels), levels[-1].stop
        brooms = all(k == 1 for k in degrees[1:-1])
        requests = []  # (argv, vertex, label)
        if mode == "theorem1":
            requests.append(([], 0, 0))
        elif mode == "lemma1" and q == 3 or mode == "theorem2" and q >= 3 and brooms:
            requests.append((["--method", mode], levels[-1], 0))
        elif mode.startswith("zero-at"):
            desired, label = ("0", 0) if mode == "zero-at-0" else ("top", n - 1)
            reached = ({1, 2, q - 1, q} if brooms else {1, 2}) & set(range(1, q + 1))
            for r in sorted(reached):
                for v in sorted({levels[r - 1][0], levels[r - 1][-1]}):
                    requests.append((["--zero-at", str(v), "--desired", desired], v, label))
        for argv, where, label in requests:
            code, out, _ = run(capsys, "label", "--rst", ",".join(map(str, degrees)), *argv)
            assert code == 0, (degrees, argv)
            doc = json.loads(out)
            assert doc["graceful"] is True, (degrees, argv)
            assert graceful_on_rst(degrees, doc["labels"]), (degrees, argv)
            if isinstance(where, int):
                assert doc["labels"][where] == label, (degrees, argv)
            else:
                assert doc["labels"].index(label) in where, (degrees, argv)


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


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("rotate0", "--tree", "FILE"), "--tree"),
        (("verify", "--rst", "2", "--labels", "FILE"), "--labels"),
    ],
    ids=["tree", "labels"],
)
@pytest.mark.parametrize("text", ["", '{"kind": '], ids=["empty", "cut-off"])
@pytest.mark.parametrize("from_stdin", [False, True], ids=["file", "stdin"])
def test_a_document_that_is_not_json_names_its_flag_and_file(
    capsys, monkeypatch, tmp_path, argv, flag, text, from_stdin
):
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    path = "-" if from_stdin else str(doc)
    if from_stdin:
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code, out, err = run(capsys, *(path if arg == "FILE" else arg for arg in argv))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {flag} {path} is not JSON: Expecting value: line 1 column ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "entry, message",
    [
        (lambda t: t.level_of_index(7), "vertex index 7 out of range"),
        (lambda t: t.level_of_index(-1), "vertex index -1 out of range"),
        (lambda t: gracetree.model.automorphism_mapping(to_general(t), 7, 1), "vertex index 7 out of range"),
        (lambda t: t.level_of_index(2.0), "vertex index 2.0 is not an integer"),
        (lambda t: gracetree.model.automorphism_mapping(t, 1, 7), "vertex index 7 out of range"),
        (lambda t: gracetree.model.automorphism_mapping(t, "1", 2), "vertex index '1' is not an integer"),
        (lambda t: gracetree.labelling.edge_labels(t, (0, 1)), "labelling has 2 entries for a 7-vertex tree"),
        (lambda t: gracetree.is_graceful(t, range(8)), "labelling has 8 entries for a 7-vertex tree"),
        ("verify", "labelling has 2 entries for a 7-vertex tree"),
    ],
    ids=[
        "level_of_index", "level_of_index-negative", "automorphism_mapping-general", "level_of_index-float",
        "automorphism_mapping", "automorphism_mapping-str", "edge_labels", "is_graceful", "verify",
    ],
)
def test_each_entry_keeps_its_refusal(capsys, tmp_path, entry, message):
    # One check serves several entries: model._vertex a vertex index,
    # labelling._sized a labelling's length.  Each entry refuses with the
    # ValueError it gave when it had a copy of the check of its own.
    t = build((2, 2))
    if entry == "verify":
        lab = tmp_path / "lab.json"
        lab.write_text("[0, 1]")
        code, out, err = run(capsys, "verify", "--rst", "2,2", "--labels", str(lab))
        assert (code, out, err) == (1, "", f"error: {message}\n")
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            entry(t)


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
    tree_file.write_text(json.dumps(_tree_to_dict(to_general(build((12, 2, 1))))))
    code, out, _ = run(
        capsys, "rotate0", "--tree", str(tree_file), "--budget-nodes", "1000", "--budget-secs", "0"
    )
    orbits = _rotate0_orbits(out)
    assert code == 4 and [rep for rep, _, _ in orbits] == [0, 1, 13, 37]
    assert {method for _, _, method in orbits} <= {"search_fallback", "complement_of"}
    assert orbits[0] == (0, "timeout", "search_fallback")


@pytest.mark.parametrize(
    "argv, code, golden",
    [
        # constructed, complement and searched orbits of a named tree
        (
            ["rotate0", "--rst", "2,2,2", "--csv", "-", "--json", "-", "--no-timing"],
            0,
            "rotate0_rst_2-2-2_csv_json.txt",
        ),
        # a general tree is named n7, and its root orbit has no witness
        (["rotate0", "--tree", "{tree}", "--json", "-", "--no-timing"], 3, "rotate0_tree_n7_json.txt"),
        (["tree", "--rst", "2,3"], 0, "tree_rst_2-3.json"),
    ],
)
def test_cli_stdout_is_pinned_byte_for_byte(capsys, tmp_path, argv, code, golden):
    tree_file = tmp_path / "t.json"
    edges = [[0, 1], [1, 2], [2, 3], [1, 4], [4, 5], [4, 6]]
    tree_file.write_text(json.dumps({"kind": "general", "n": 7, "edges": edges}))
    argv = [arg.replace("{tree}", str(tree_file)) for arg in argv]
    expected = (Path(__file__).parent / "golden" / golden).read_text()
    assert run(capsys, *argv) == (code, expected, "")


def test_rotate0_timeout_exit_and_env(capsys, monkeypatch):
    code, out, _ = run(capsys, "rotate0", "--rst", "2,2,2", "--budget-nodes", "1")
    assert code == 4
    # Only the flags set a budget: with none given, the default decides
    # the tree whatever these environment variables hold.
    monkeypatch.setenv("GRACEFUL_BUDGET_NODES", "1")
    monkeypatch.setenv("GRACEFUL_BUDGET_SECS", "abc")
    code, _, _ = run(capsys, "rotate0", "--rst", "2,2,2")
    assert code == 0


@pytest.mark.parametrize("flag", ["--budget-nodes", "--budget-secs"])
def test_a_negative_budget_is_unlimited(capsys, flag):
    # A negative budget reaching the search would be refused there.
    argv = ["rotate0", "--rst", "2,2,2", "--budget-nodes", "0", "--budget-secs", "0"]
    unlimited = run(capsys, *argv)
    assert unlimited[0] == 0
    assert run(capsys, *argv, flag, "-1") == unlimited


def test_a_key_error_is_a_bug_with_a_traceback(monkeypatch):
    # No input reaches one, so main does not turn it into an error line.
    def broken(*args, **kwargs):
        raise KeyError("labels")

    monkeypatch.setattr("gracetree.cli.is_zero_rotatable", broken)
    with pytest.raises(KeyError, match="labels"):
        main(["rotate0", "--rst", "2,2"])


def test_nan_time_budget_is_an_error(capsys):
    # NaN never compares greater, so it used to mean "no time limit".
    for argv in (
        ("rotate0", "--rst", "2,2", "--budget-secs", "nan"),
        ("sweep", "--family", "q3", "--nmax", "8", "--budget-secs", "nan"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: time budget must be positive")


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


@pytest.mark.parametrize(
    "family, n, trees",
    [
        (["symmetric_spider", "--legs", "20000000", "--branches", "1..1"], 20000001, 0),
        (["symmetric_spider", "--legs", "3", "--branches", "1..3333334"], 10000003, 0),
        (["symmetric_banana", "--branches", "1..3162"], 10004569, 0),
        (["rst_all", "--nmax", "10000001"], 10000001, 0),
        (["q3", "--nmax", "10000001"], 10000001, 0),
        (["symmetric_spider", "--legs", "9999999", "--branches", "1..1"], 10000000, 0),
        (["symmetric_banana", "--branches", "1..3161"], 9998244, 0),
        (["rst_all", "--nmax", "10000000"], 10000000, 0),
        (["q3"], 60, 0),
        (["symmetric_spider", "--legs", "3", "--branches", "1..4000000", "--nmax", "100"], 100, 33),
        (["symmetric_banana", "--branches", "1..4000", "--nmax", "60"], 60, 161),
    ],
    ids=["spider-legs", "spider-branches", "banana", "rst_all", "q3", "spider-at-limit",
         "banana-at-limit", "rst_all-at-limit", "q3-default", "spider-nmax", "banana-nmax"],
)
def test_a_sweep_above_the_size_limit_is_refused_before_it_enumerates(
    capsys, monkeypatch, family, n, trees
):
    # The largest tree comes from the family's parameters; the spider with
    # 20 million levels would have been built and searched.  --nmax bounds
    # a branch range too wide to sweep whole, and the cases with trees are
    # swept for real.
    enumerated = []
    real = gracetree.sweep.enumerate_family

    def enumerate_family(spec):
        enumerated.append(spec)
        return real(spec) if trees else []

    monkeypatch.setattr(gracetree.sweep, "enumerate_family", enumerate_family)
    code, out, err = run(capsys, "sweep", "--family", *family)
    if n > 10_000_000:
        assert (code, out, enumerated) == (1, "", [])
        assert err == f"error: tree has {n} vertices; gracetree handles at most 10000000\n"
    else:
        assert (code, err, len(enumerated)) == (0, "", 1)
        assert out.splitlines()[-1].startswith(f"swept {trees} trees")


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


def test_sweep_witness_names_fit_in_a_file_name(capsys, tmp_path):
    # A spider with 126 levels made a 256-byte name, and the sweep exited
    # 1 with "File name too long" after the whole run.  A name that fits
    # is kept; a longer one is cut, with the SHA-256 of the whole name
    # after a "." that no kept name has.
    names = []
    for legs in (125, 126):
        wit_dir = tmp_path / str(legs)
        code, _, err = run(
            capsys, "sweep", "--family", "symmetric_spider", "--legs", str(legs),
            "--branches", "1..1", "--budget-nodes", "1", "--witnesses", str(wit_dir),
        )
        assert (code, err) == (4, "")  # one node leaves the path's middle orbits timed out
        (path,) = wit_dir.iterdir()
        names.append(path.name)
    kept = "-".join(["1"] * 125)
    assert names[0] == kept + ".json" and len(names[0]) == 254
    cut = "-".join(["1"] * 126)
    assert names[1] == cut[:185] + "." + hashlib.sha256(cut.encode()).hexdigest() + ".json"
    assert len(names[1]) == 255


def test_the_json_writer_matches_json_dumps_on_every_document_kind(capsys, tmp_path, monkeypatch):
    # Every document the CLI writes goes through _indented_json; each
    # must come out as json.dumps(doc, indent=2) would write it, and the
    # file or stdout must hold exactly that text.
    from gracetree import cli

    writer, kinds = cli._indented_json, set()

    def checked(doc, pad="\n"):
        text = writer(doc, pad)
        if pad == "\n":  # a whole document, not a value the writer recursed into
            assert text == json.dumps(doc, indent=2)
            kinds.add(argv[0] + (" --explain" if "trace" in doc else ""))
        return text

    monkeypatch.setattr(cli, "_indented_json", checked)
    out_file = tmp_path / "out.json"
    for argv in (
        ["label", "--rst", "2,1,2", "--zero-at", "5"],
        ["label", "--rst", "2,1,2", "--zero-at", "5", "--explain"],
        ["label", "--rst", "2,2", "--method", "lemma1", "--explain"],
        ["rotate0", "--rst", "1,1,1,2", "--json", str(out_file)],
        ["rotate0", "--rst", "1,1,1,2", "--json", str(out_file), "--no-timing"],
        ["sweep", "--family", "rst_all", "--nmax", "6", "--witnesses", str(tmp_path / "wit")],
    ):
        code, out, _ = run(capsys, *argv)
        assert code in (0, 3)
        if argv[0] == "label":
            assert out == json.dumps(json.loads(out), indent=2) + "\n"
        elif argv[0] == "rotate0":
            text = out_file.read_text()
            assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert sorted(kinds) == ["label", "label --explain", "rotate0", "sweep"]
    for path in (tmp_path / "wit").iterdir():
        text = path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
    # Scalars, empty and nested containers, and strings that hold the
    # list separator or brackets.
    for doc in (
        0, None, "a, b", [], {}, [[]], [1.5, True, None, -2], (3, 4),
        ["a, b", "[", 1], [[1, 2], [], {"k": [3, "x"]}], {"é": {"": []}},
    ):
        assert writer(doc) == json.dumps(doc, indent=2), doc


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
    "family, jobs, cpus, trees, workers",
    [
        (["symmetric_banana", "--branches", "2..3"], "2", 4, 4, [2]),
        (["symmetric_spider", "--legs", "2", "--branches", "1..2"], "3", 4, 2, [2]),
        # one tree, or none, runs without a pool
        (["symmetric_banana", "--branches", "2..2"], "2", 4, 1, []),
        (["rst_all", "--nmax", "1"], "2", 4, 0, []),
        # a pool forks all its workers at once, so never more than the CPUs
        (["symmetric_banana", "--branches", "2..3"], "3000", 2, 4, [2]),
        (["symmetric_banana", "--branches", "2..3"], "3000", 1, 4, []),
    ],
    ids=["4-trees", "2-trees", "1-tree", "0-trees", "2-cpus", "1-cpu"],
)
def test_sweep_jobs(capsys, monkeypatch, family, jobs, cpus, trees, workers):
    import concurrent.futures

    pools = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            # More workers than CPUs fails here, before any process starts.
            assert max_workers <= cpus
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    code, out, _ = run(capsys, "sweep", "--jobs", jobs, "--family", *family)
    assert code == 0
    assert f"swept {trees} trees" in out
    assert pools == workers


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_sweep_refuses_fewer_than_one_job(capsys, jobs):
    code, out, err = run(capsys, "sweep", "--jobs", jobs, "--family", "symmetric_banana", "--branches", "2..2")
    assert code == 1
    assert out == ""
    assert f"error: jobs must be at least 1, got {jobs}" in err


def test_ctrl_c_in_a_command_exits_130(capsys, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr("gracetree.cli.cmd_tree", interrupted)
    assert run(capsys, "tree", "--rst", "2") == (130, "", "")


def test_entrypoint_exits_with_the_code_of_main(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["gracetree", "tree", "--rst", "2"])
    with pytest.raises(SystemExit) as exc:
        entrypoint()
    assert exc.value.code == 0
    assert json.loads(capsys.readouterr().out) == {"kind": "rst", "degrees": [2]}


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
    # No module loads dataclasses (which pulls in inspect, ast and dis).
    # Only the CLI writes file formats: it needs json, and loads csv in
    # its CSV writer alone.
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


# The CLI with two usable CPUs, so that --jobs 2 starts a pool on any host,
# and with Ctrl-C raising KeyboardInterrupt as in a foreground command, also
# where the suite runs with SIGINT ignored (a non-interactive shell ignores
# it in a background job, and an ignored SIGINT is inherited).
_ON_TWO_CPUS = (
    "import os, signal; os.sched_getaffinity = lambda pid: {0, 1}; "
    "signal.signal(signal.SIGINT, signal.default_int_handler); "
    "from gracetree.cli import entrypoint; entrypoint()"
)


@contextlib.contextmanager
def _sweep_in_own_group(*args):
    """``sweep --jobs 2 ARGS`` in a new process group, killed on the way out.
    The sweep sees two usable CPUs whatever the host has."""
    argv = [sys.executable, "-c", _ON_TWO_CPUS, "sweep", "--jobs", "2", *args]
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


def _workers(proc) -> list[int]:
    """The sweep's two pool workers, once both have started; the test
    fails if they have not within 10 s."""
    deadline = time.monotonic() + 10
    while len(kids := _children(proc.pid)) < 2:
        assert proc.poll() is None and time.monotonic() < deadline, "the sweep started no pool"
        time.sleep(0.02)
    return kids


_POOL_HOST = pytest.mark.skipif(
    not (hasattr(os, "killpg") and Path("/proc/self/stat").exists()),
    reason="needs POSIX process groups, and /proc to find the workers",
)


@_POOL_HOST
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
        _workers(proc)
        time.sleep(1.0)
        (os.killpg if target == "group" else os.kill)(proc.pid, signal.SIGINT)
        _assert_ends_alone(proc, 130)


@_POOL_HOST
def test_dead_worker_ends_the_sweep_with_an_error():
    # A worker killed from outside, or for lack of memory, breaks the pool.
    with _sweep_in_own_group(
        "--family", "symmetric_spider", "--legs", "4", "--branches", "20..24",
        "--budget-nodes", "0", "--budget-secs", "3",
    ) as proc:
        os.kill(_workers(proc)[0], signal.SIGKILL)
        err = _assert_ends_alone(proc, 1)
        assert err == "error: a sweep worker process died\n"
