"""tools/same_outputs.py: the repository against itself, and the file comparison."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "tools" / "same_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("same_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_repository_has_the_same_outputs_as_itself(tmp_path):
    run = subprocess.run([sys.executable, str(SCRIPT), "--parent", str(ROOT), "--change",
                          str(ROOT), "--work", str(tmp_path)], capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.endswith(" files differ\n") and run.stdout.startswith("0 of ")
    codes = json.loads((tmp_path / "change" / "exit_codes.json").read_text())
    assert len(codes) == 16 and set(codes.values()) == {0}
    report = json.loads((tmp_path / "change" / "decompose-admm3-nuc-masked" / "report.json")
                        .read_text())
    assert report["config"]["masked"] and report["iterations"]


def test_differing_ignores_elapsed_ms_and_names_every_other_difference(tmp_path):
    tool = load_tool()
    parent, change = tmp_path / "parent", tmp_path / "change"
    for side, elapsed, err in ((parent, 1.5, 0.25), (change, 2.5, 0.25)):
        (side / "run").mkdir(parents=True)
        (side / "run" / "report.json").write_text(json.dumps(
            {"iterations": [{"iter": 1, "err_rec": err, "elapsed_ms": elapsed}]}))
        (side / "L.rkt").write_bytes(b"same")
    (change / "only.rkt").write_bytes(b"")
    every, diffs = tool.differing(parent, change)
    assert len(every) == 3 and diffs == [Path("only.rkt")]
    (change / "L.rkt").write_bytes(b"other")
    (change / "run" / "report.json").write_text(json.dumps(
        {"iterations": [{"iter": 1, "err_rec": 0.5, "elapsed_ms": 2.5}]}))
    assert tool.differing(parent, change)[1] == [Path("L.rkt"), Path("only.rkt"),
                                                 Path("run/report.json")]
