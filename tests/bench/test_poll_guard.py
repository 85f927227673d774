"""Guard: flag words are waited on with ``HostMemory.wait_u32``.

A hand-written spin loop, ``while word != expect: yield poll_ps``, costs
one engine event per poll interval; :meth:`HostMemory.wait_u32` resumes
on the same poll tick without them and turns a lost flag into a named
deadlock instead of an endless spin.  This test AST-scans ``src/repro``
and fails on any ``cpu_read_u32``/``read_u32`` call inside a ``while``
loop that yields, outside ``src/repro/hw/`` (which implements the wait)
and ``src/repro/faults/`` (whose polls have side effects or deadlines).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
EXEMPT = (SRC / "hw", SRC / "faults")
WORD_LOADS = ("cpu_read_u32", "read_u32")


def _walk_body(node):
    """``ast.walk`` that does not descend into nested functions."""
    stack = [node]
    while stack:
        current = stack.pop()
        yield current
        for child in ast.iter_child_nodes(current):
            if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.Lambda)):
                stack.append(child)


def polling_loops(path: Path):
    """Line numbers of yielding ``while`` loops that load a flag word."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for loop in ast.walk(tree):
        if not isinstance(loop, ast.While):
            continue
        nodes = list(_walk_body(loop))
        yields = any(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in nodes)
        loads = any(isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Attribute)
                    and n.func.attr in WORD_LOADS for n in nodes)
        if yields and loads:
            found.append(loop.lineno)
    return found


def test_no_word_poll_loops_outside_hw_and_faults():
    offenders = [f"{path.relative_to(SRC.parent.parent)}:{line}"
                 for path in sorted(SRC.rglob("*.py"))
                 if not any(root in path.parents for root in EXEMPT)
                 for line in polling_loops(path)]
    assert not offenders, (
        "wait on flag words with HostMemory.wait_u32, not a polling "
        "loop: " + ", ".join(offenders))


def test_scanner_finds_the_retired_idiom(tmp_path):
    sample = tmp_path / "waiter.py"
    sample.write_text(
        "def wait(dram, address, expect):\n"
        "    while dram.cpu_read_u32(address) != expect:\n"
        "        yield 20_000\n"
        "    while True:\n"
        "        if store.read_u32(0) >= 3:\n"
        "            return\n"
        "        yield 100\n"
        "    while dram.cpu_read_u32(address) != expect:\n"
        "        pass  # no yield: not a simulated poll\n",
        encoding="utf-8")
    assert polling_loops(sample) == [2, 4]
