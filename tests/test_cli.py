import json

import pytest

from gracetree.cli import main


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


def test_rotate0_timeout_exit_and_env(capsys, monkeypatch):
    monkeypatch.setenv("GRACEFUL_BUDGET_NODES", "1")
    code, out, _ = run(capsys, "rotate0", "--rst", "2,2,2")
    assert code == 4
    # a flag beats the environment
    monkeypatch.setenv("GRACEFUL_BUDGET_NODES", "1")
    code, _, _ = run(capsys, "rotate0", "--rst", "2,2", "--budget-nodes", "0")
    assert code == 0


def test_deep_or_oversized_tree_is_an_error_not_a_traceback(capsys, monkeypatch):
    # Orbits of the path are computed without recursion; the search
    # still recurses once per vertex and runs out of stack.
    code, out, err = run(
        capsys, "rotate0", "--path", "1200", "--budget-nodes", "5000", "--budget-secs", "0"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error: recursion limit reached")

    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("gracetree.cli.is_zero_rotatable", out_of_memory)
    code, _, err = run(capsys, "rotate0", "--rst", "2,2")
    assert code == 1
    assert err == "error: out of memory\n"


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


def test_sweep_counterexample_exit(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "rst_all", "--nmax", "6")
    assert code == 3
    assert "no" in out


def test_sweep_jobs(capsys):
    code, out, _ = run(capsys, "sweep", "--family", "symmetric_banana", "--branches", "2..3", "--jobs", "2")
    assert code == 0


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
