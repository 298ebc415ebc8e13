"""scripts/compare_outputs.py: the same tree prints the same bytes for every
docs6 op, and a tree whose output differs is caught and named."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "compare_outputs", ROOT / "scripts" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_docs6_against_itself_has_no_differing_op():
    counts, diffs = compare_outputs.compare(str(ROOT), str(ROOT), ("docs6",), seed=3)
    assert counts == {"docs6": 685} and diffs == []


def test_a_changed_output_is_reported(tmp_path, monkeypatch, capsys):
    for part in ("src", "perfbench"):
        shutil.copytree(ROOT / part, tmp_path / part, ignore=shutil.ignore_patterns("_work"))
    cli = tmp_path / "src" / "hamfano" / "cli.py"
    text = cli.read_text()
    assert "poly.render()" in text
    cli.write_text(text.replace("poly.render()", 'poly.render() + " "'))
    monkeypatch.setattr(compare_outputs, "WORKLOADS", ("docs6",))
    assert compare_outputs.main([str(ROOT), str(tmp_path), "--seed", "3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    # every chi-y op and nothing else: the 60 products and the 45 A/B/C rows
    assert lines[0] == "docs6: 685 ops" and lines[-1] == "105 differing ops"
    shown = lines[1:-1]
    assert len(shown) == compare_outputs.SHOWN
    assert all(" chi-y " in d and d.endswith("exit 0 -> 0, output differs") for d in shown)
