"""Every import in the package, the tests and the demos is read: an AST
walk over each module (no linter needed). ``__init__.py`` imports only to
re-export, and a statement marked ``noqa`` binds a name on purpose. The
package reads a tactic as its action index, never through
``env.ACTION_INDEX``, and nothing reads ``RewardSpec``: a reward is a
function of the trajectory and the reward model alone. Nor does anything
pass ``nodes=`` (a trajectory's nodes are read from its tree) or call
``.kind(`` (an outcome is stored, not inferred from a node). Names that
are gone from the package are read nowhere: ``old_policy_terms`` (PPO's old
policy is its first epoch's forward), ``best_first_search``, ``init_mlp``,
``PROVED_FINGERPRINT`` and ``_enc_less`` (a node keeps only its HISTORY
encoding); nor does anything call ``.names(`` or ``tape.sum(`` (a loss
graph reduces rows with ``tape.mean``). The settings no run set are
constants: nothing reads or passes ``OptimConfig``, ``RM_OPTIM``,
``.optim``, ``run_training``'s ``val_cfg`` or the removed ``TrainConfig``
fields (``clip_norm``, ``weight_decay``, ``n_sampled``, ``buffer_capacity``,
``temper_low``, ``temper_high``)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "flowprover"
SCRIPTS = sorted(f"{d}/{p.name}" for d in ("tests", "demos") for p in (ROOT / d).glob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each name an import statement binds that the module
    never reads, outside statements with ``noqa`` on one of their lines."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for line, name in bound if name not in read)


def test_the_check_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "import numpy as np\n"
              "from json import dumps, loads  # noqa: F401\n"
              "from math import (\n"
              "    pi,\n"
              "    tau,\n"
              ")\n"
              "print(os.path.sep, pi)\n")
    assert unused_imports(source) == [(3, "np"), (5, "tau")]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")
                                          if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("script", SCRIPTS)
def test_no_unused_imports_in_tests_and_demos(script):
    assert unused_imports((ROOT / script).read_text()) == []


def name_reads(source: str, name: str) -> list[int]:
    """Lines that import ``name`` or read it, by name or as an attribute;
    binding it (a definition) is no read."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Name) and node.id == name
                  and isinstance(node.ctx, ast.Load)
                  or isinstance(node, ast.Attribute) and node.attr == name
                  or isinstance(node, (ast.Import, ast.ImportFrom))
                  and any(alias.name == name for alias in node.names))


def planted(name: str) -> str:
    """A module that binds ``name`` on line 2 and reads it on lines 1, 3, 4."""
    return (f"from .env import {name}\n"
            f"{name}: dict = {{}}\n"
            f"a = env.{name}[t]\n"
            f"b = {name}[t]\n")


def test_the_check_finds_an_action_index_read():
    assert name_reads(planted("ACTION_INDEX"), "ACTION_INDEX") == [1, 3, 4]


def test_the_check_finds_a_reward_spec_read():
    assert name_reads(planted("RewardSpec"), "RewardSpec") == [1, 3, 4]


GONE_SETTINGS = ("clip_norm", "weight_decay", "n_sampled", "buffer_capacity", "temper_low",
                 "temper_high", "val_cfg")
GONE_NAMES = ("old_policy_terms", "best_first_search", "init_mlp", "PROVED_FINGERPRINT",
              "_enc_less", "OptimConfig", "RM_OPTIM", "optim", "formula_atoms",
              *GONE_SETTINGS)


@pytest.mark.parametrize("name", GONE_NAMES)
def test_the_check_finds_a_gone_name_read(name):
    assert name_reads(planted(name), name) == [1, 3, 4]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_the_package_reads_no_action_index(module):
    assert name_reads((PACKAGE / module).read_text(), "ACTION_INDEX") == []


@pytest.mark.parametrize("path", [f"src/flowprover/{p.name}"
                                  for p in sorted(PACKAGE.glob("*.py"))] + SCRIPTS)
def test_nothing_reads_reward_spec(path):
    assert name_reads((ROOT / path).read_text(), "RewardSpec") == []


@pytest.mark.parametrize("path", [f"src/flowprover/{p.name}"
                                  for p in sorted(PACKAGE.glob("*.py"))] + SCRIPTS)
def test_nothing_reads_a_gone_name(path):
    source = (ROOT / path).read_text()
    assert [(name, line) for name in GONE_NAMES for line in name_reads(source, name)] == []


def call_marks(source: str) -> list[tuple[int, str]]:
    """(line, mark) of each keyword argument of a call, marked ``name=``,
    and each attribute called, marked ``.name(``, and also ``obj.name(``
    when it is called on a plain name ``obj``."""
    marks = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute):
                marks.append((node.lineno, f".{node.func.attr}("))
                if isinstance(node.func.value, ast.Name):
                    marks.append((node.lineno, f"{node.func.value.id}.{node.func.attr}("))
            marks += [(kw.lineno, f"{kw.arg}=") for kw in node.keywords if kw.arg]
    return sorted(marks)


GONE_CALLS = ("nodes=", ".kind(", ".names(", "tape.sum(", "tape.neg(",
              *(f"{name}=" for name in GONE_SETTINGS))


def test_the_check_finds_a_nodes_keyword_and_a_kind_call():
    source = ("traj = Trajectory(name, tactics, PROVED, 0.0, nodes=path)\n"
              "kind = leaf.kind(action)\n"
              "again = dataclasses.replace(traj,\n"
              "                            nodes=())\n"
              "kind, nodes = result.kind, traj.nodes\n"
              "order = logits.argsort(kind='stable')\n")
    assert [mark for mark in call_marks(source) if mark[1] in GONE_CALLS] == \
        [(1, "nodes="), (2, ".kind("), (4, "nodes=")]


def test_the_check_finds_a_names_call_and_a_tape_sum():
    source = ("for name in store.names():\n"
              "    loss = tape.sum(tape.square(rows))\n"
              "total = probs.sum() + tape.mean(rows).value.sum()\n"
              "names = store.arrays\n")
    assert [mark for mark in call_marks(source) if mark[1] in GONE_CALLS] == \
        [(1, ".names("), (2, "tape.sum(")]


def test_the_check_finds_a_tape_neg():
    source = ("loss = tape.neg(tape.mean(picked))\n"
              "loss = tape.scale(tape.mean(picked), -1.0)\n"
              "flipped = np.negative(x)\n")
    assert [mark for mark in call_marks(source) if mark[1] in GONE_CALLS] == [(1, "tape.neg(")]


def test_the_check_finds_a_removed_setting_passed():
    source = ("cfg = TrainConfig(lr=1e-3, n_sampled=3)\n"
              "run_training('gfn', corpus, 0, 2, out, val_cfg=SearchConfig(),\n"
              "             clock='off')\n"
              "optim_step(store, grads, OptimConfig(clip_norm=1.0, weight_decay=0.0))\n"
              "text = 'n_sampled = 3'\n")
    assert [mark for mark in call_marks(source) if mark[1] in GONE_CALLS] == \
        [(1, "n_sampled="), (2, "val_cfg="), (4, "clip_norm="), (4, "weight_decay=")]


@pytest.mark.parametrize("path", [f"src/flowprover/{p.name}"
                                  for p in sorted(PACKAGE.glob("*.py"))] + SCRIPTS)
def test_nothing_passes_nodes_or_calls_kind(path):
    assert [mark for mark in call_marks((ROOT / path).read_text())
            if mark[1] in GONE_CALLS] == []
