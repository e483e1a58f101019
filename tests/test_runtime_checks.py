"""Runtime checks in the package raise typed exceptions, so they still hold
under ``python -O``, which strips ``assert`` statements."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

MISUSES = {
    "Tactic(EXACT, 9)": "ValueError",
    "Tactic(INTRO, 3)": "ValueError",
    "apply_tactic(initial_state(parse_formula('a -> a')), hypless)": "ValueError",
    "store.add('w', np.zeros(2))": "ValueError",
    "store.__setitem__('w', np.zeros(5))": "ValueError",
    "store.__setitem__('u', np.zeros(2))": "KeyError",
    "optim_step(store, {'w': np.zeros(1)})": "ValueError",
    "optim_step(store, {'u': np.zeros(2)})": "KeyError",
    "mlp_forward(PolicyNet.create(seed=0).store, np.zeros(5))": "ValueError",
    # a rollout tree refuses another theorem, net or action set, and a net updated since
    "sample_trajectory(other_thm, net, cfg, rng, tree=tree)": "ValueError",
    "sample_trajectory(thm, PolicyNet.create(seed=0), cfg, rng, tree=tree)": "ValueError",
    "sample_trajectory(thm, net, replace(cfg, action_set=(0, 1)), rng, tree=tree)": "ValueError",
    "sample_trajectory(thm, stale.net, cfg, rng, tree=stale)": "ValueError",
    "enumerate_trajectories(thm, max_depth=0)": "ValueError",
}


def test_no_assert_statements_in_the_package():
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((SRC / "flowprover").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_misuse_raises_typed_exceptions(flags):
    script = "\n".join([
        "import numpy as np",
        "from flowprover.env import Tactic, TacticKind, apply_tactic, initial_state",
        "from flowprover.formulas import parse_formula",
        "from flowprover.nn import ParamStore, mlp_forward, optim_step",
        "from flowprover.policy import PolicyNet",
        "EXACT, INTRO = TacticKind.EXACT, TacticKind.INTRO",
        "hypless = object.__new__(Tactic)  # skips the constructor's own check",
        "object.__setattr__(hypless, 'kind', EXACT)",
        "object.__setattr__(hypless, 'arg', None)",
        "store = ParamStore()",
        "store.add('w', np.zeros(2))",
        "from dataclasses import replace",
        "from flowprover.corpus import Theorem",
        "from flowprover.gfn import RolloutTree, TrainConfig, sample_trajectory",
        "from flowprover.oracle import enumerate_trajectories",
        "thm = Theorem('t', initial_state(parse_formula('a -> a')), ())",
        "other_thm = Theorem('u', initial_state(parse_formula('b -> b')), ())",
        "net, cfg = PolicyNet.create(seed=0), TrainConfig(mode='gfn_br_oo')",
        "rng = None  # a tree is checked before the first draw",
        "tree = RolloutTree(thm, net)",
        "stale = RolloutTree(thm, PolicyNet.create(seed=1))",
        "optim_step(stale.net.store, {'b3': np.ones(36)})",
        f"for call in {list(MISUSES)!r}:",
        "    try:",
        "        eval(call)",
        "        print('accepted')",
        "    except (ValueError, KeyError) as exc:",
        "        print(type(exc).__name__)",
    ])
    if flags:
        script = "assert False, 'asserts are live'\n" + script
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == list(MISUSES.values())
