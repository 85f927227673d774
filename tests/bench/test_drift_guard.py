"""Drift guard: the documentation and the CLI grammar stay in sync.

Every ``python -m repro.bench <command>`` or ``tca-bench <command>`` the
documentation names must be a subcommand of the CLI parser, every
registry entry must be documented in EXPERIMENTS.md, and every table the
suite can regenerate must have its marker block — so docs drift (a
retired or misspelt command included) fails tier-1 instead of rotting
quietly.
"""

import re
from pathlib import Path

from repro.bench.cli import build_parser, command_names
from repro.bench.experiments import EXPERIMENT_IDS, REGISTRY
from repro.bench.suite import MD_RENDERERS

ROOT = Path(__file__).resolve().parents[2]
DOC = ROOT / "EXPERIMENTS.md"
SCANNED = [DOC, ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
           ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
COMMAND = re.compile(
    r"(?:python -m repro\.bench|tca-bench) ([a-z0-9][a-z0-9-]*)")


def documented_names(path=DOC):
    return set(COMMAND.findall(path.read_text(encoding="utf-8")))


def test_every_documented_command_resolves():
    commands = set(command_names(build_parser()))
    unknown = {f"{path.relative_to(ROOT)}: {name}"
               for path in SCANNED
               for name in documented_names(path) - commands}
    assert not unknown, f"docs name unknown commands: {sorted(unknown)}"


def test_every_registry_entry_is_documented():
    missing = set(REGISTRY) - documented_names()
    assert not missing, f"registry entries missing from EXPERIMENTS.md: " \
                        f"{sorted(missing)}"


def test_registry_covers_e1_to_e23():
    assert list(EXPERIMENT_IDS) == [f"E{i}" for i in range(1, 24)]


def test_every_renderer_has_marker_block():
    text = DOC.read_text(encoding="utf-8")
    for name in MD_RENDERERS:
        assert f"<!-- suite:{name} -->" in text, name
        assert f"<!-- /suite:{name} -->" in text, name


def test_every_renderer_targets_a_registry_entry():
    assert set(MD_RENDERERS) <= set(REGISTRY)
