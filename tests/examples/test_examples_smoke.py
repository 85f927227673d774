"""Every example must import cleanly and run end to end in tiny mode.

Each ``examples/*.py`` exposes ``main(tiny: bool = False)``; ``tiny=True``
shrinks node counts, sizes and iteration budgets so the whole directory
runs in seconds. The examples self-verify (asserts / verified= lines),
so "ran to completion and printed something" is a real check, not a
smoke-and-mirrors import test.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[2] / "examples"
EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.py"))


def load(path: Path):
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_directory_is_populated():
    assert len(EXAMPLE_FILES) >= 5, [p.name for p in EXAMPLE_FILES]


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_has_tiny_main(path):
    module = load(path)
    assert hasattr(module, "main"), f"{path.name} has no main()"
    params = inspect.signature(module.main).parameters
    assert "tiny" in params, f"{path.name} main() lacks tiny= parameter"
    assert params["tiny"].default is False


@pytest.mark.parametrize("path", EXAMPLE_FILES, ids=lambda p: p.stem)
def test_example_runs_tiny(path, capsys):
    module = load(path)
    module.main(tiny=True)
    out = capsys.readouterr().out
    assert out.strip(), f"{path.name} printed nothing"
    assert "verified=False" not in out
