"""Guard: nothing outside the engine drives it one ``step()`` at a time.

Run-until-these-processes-finish goes through :meth:`Engine.run_all`
(or :meth:`Engine.run_process` / :meth:`Engine.run`), whose fused
dispatch loop checks one ``done`` flag per event.  The retired idiom,
``while not all(p.done for p in procs): engine.step()``, rescanned every
process after every event and bypassed the fused loop.  This test
AST-scans ``src/repro`` and fails on any argument-less ``.step()`` call
outside ``src/repro/sim/``, naming the file and line.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
ENGINE_PACKAGE = SRC / "sim"


def step_calls(path: Path):
    """Line numbers of ``<expr>.step()`` calls in one source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "step"
            and not node.args and not node.keywords]


def test_no_engine_step_calls_outside_sim():
    offenders = [f"{path.relative_to(SRC.parent.parent)}:{line}"
                 for path in sorted(SRC.rglob("*.py"))
                 if ENGINE_PACKAGE not in path.parents
                 for line in step_calls(path)]
    assert not offenders, (
        "drive engines with Engine.run_all/run_process/run, not step(): "
        + ", ".join(offenders))


def test_scanner_finds_the_retired_idiom(tmp_path):
    sample = tmp_path / "driver.py"
    sample.write_text(
        "while not all(p.done for p in procs):\n"
        "    if not engine.step():\n"
        "        raise RuntimeError\n", encoding="utf-8")
    assert step_calls(sample) == [2]
