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
    # only the 36 actions can be made: a bool is not a hypothesis position
    "Tactic(EXACT, True)": "ValueError",
    "store.add('w', np.zeros(2))": "ValueError",
    "store.__setitem__('w', np.zeros(5))": "ValueError",
    "store.__setitem__('u', np.zeros(2))": "KeyError",
    "optim_step(store, {'w': np.zeros(1)})": "ValueError",
    "optim_step(store, {'u': np.zeros(2)})": "KeyError",
    "mlp_forward(PolicyNet.create(seed=0).store, np.zeros(5))": "ValueError",
    # the taped forward takes stacked rows only, never a single vector
    "mlp_forward(PolicyNet.create(seed=0).store, np.zeros(164))": "ValueError",
    # a checkpoint whose layers do not fit is refused at load, not at first use
    "PolicyNet.load(io.BytesIO(five_inputs))": "CheckpointError",
    # a policy checkpoint holds more than a reward model's parameters
    "RewardModel.load(io.BytesIO(policy_checkpoint))": "CheckpointError",
    # nor may a policy checkpoint hold a parameter beyond the MLP and its z/v heads
    "PolicyNet.load(io.BytesIO(extra_parameter))": "CheckpointError",
    # nor half a head: a value head without its bias would fail at PPO's first step
    "PolicyNet.load(io.BytesIO(half_value_head))": "CheckpointError",
    # an update from step -1 would divide by 1 - beta**0 = 0
    "ParamStore.load(io.BytesIO(negative_step))": "CheckpointError",
    "enumerate_trajectories(thm, max_depth=0)": "ValueError",
    # an action set must be distinct indices in [0, 36), checked before the walk
    "enumerate_trajectories(thm, action_set=(0, 0, 1, 2, 3, 4))": "ValueError",
    "enumerate_trajectories(thm, action_set=(-1, 0, 1, 2, 3))": "ValueError",
    "enumerate_trajectories(thm, action_set=(0, 36))": "ValueError",
    "oracle_report(net, thm, action_set=(0, 0, 1, 2, 3, 4))": "ValueError",
    "oracle_report(net, thm, action_set=(-1, 0, 1, 2, 3))": "ValueError",
    "oracle_report(net, thm, action_set=(0, 36))": "ValueError",
    # an index is an integer: a float is not truncated to one, and a bool is refused
    "enumerate_trajectories(thm, action_set=(0.7, 1, 2, 4))": "ValueError",
    "oracle_report(net, thm, action_set=(0.7, 1, 2, 4))": "ValueError",
    "TrainConfig(action_set=(0.5, 1, 2, 4))": "ValueError",
    "TrainConfig(action_set=(True, 2))": "ValueError",
    # every field has its annotation's type: a config.txt it writes is one --config reads
    "TrainConfig(max_depth=2.5)": "ValueError",
    "TrainConfig(max_depth=2.0)": "ValueError",
    "TrainConfig(max_depth=True)": "ValueError",
    "TrainConfig(lr=True)": "ValueError",
    "TrainConfig(inject_gt='no')": "ValueError",
    # an action set is a collection of indices, not one number
    "TrainConfig(action_set=5)": "ValueError",
    # so does every search setting: a float branching would fail at the first slice
    "SearchConfig(branching=2.5)": "ValueError",
    "SearchConfig(branching=True)": "ValueError",
    "SearchConfig(expansion_budget=2.5)": "ValueError",
    "SearchConfig(max_depth=2.5)": "ValueError",
    "SearchConfig(dedupe='no')": "ValueError",
    # negative counts, and an empty train split, are refused before any work
    "build_corpus(-1, 1, 1)": "ValueError",
    "build_corpus(0, -1, 1)": "ValueError",
    "build_corpus(0, 1, -1)": "ValueError",
    "rm_train(CorpusSplit([thm]), seed=-1)": "ValueError",
    "rm_train(CorpusSplit([thm]), epochs=-1)": "ValueError",
    "rm_train(CorpusSplit())": "ValueError",
    "run_training('sft', CorpusSplit([thm]), -1, 1, out)": "ValueError",
    "run_training('sft', CorpusSplit([thm]), 0, -1, out)": "ValueError",
    "run_training('sft', CorpusSplit([thm]), 0, 1, out, val_every=-1)": "ValueError",
    "run_training('sft', CorpusSplit([thm]), 0, 1, out, checkpoint_every=-1)": "ValueError",
    "run_training('sft', CorpusSplit(), 0, 1, out)": "ValueError",
    # an injected ground truth longer than any rollout is refused when the trainer is made
    "GFNTrainer([thm3], net, TrainConfig(mode='gfn_br_oo', max_depth=2))": "ValueError",
    "mine_hard_negatives(net, thm, 4, seed=-1)": "ValueError",
    "mine_hard_negatives(net, thm, 4, n_rollouts=-1)": "ValueError",
    # a parameter name bound on a tape keeps its store
    "tape.param(ParamStore({'w': np.array([10., 20.])}), 'w')": "ValueError",
    # an outcome is the env.StepKind of the last step, never its name
    "Trajectory('t', gt, 'proved', 0.0, proof_states=(thm.initial_state,) * 3)": "ValueError",
    # a trajectory's nodes are read from its tree: its tactics may not leave it
    "Trajectory('t', gt[::-1], PROVED, 0.0, root=ProofTree(thm).root)": "ValueError",
    # the full reward scores with a reward model: none is refused before any draw
    "sample_trajectories(ProofTree(thm), net, TrainConfig(), np.random.default_rng(0), 1)":
        "ValueError",
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
        "import io",
        "import os",
        "import numpy as np",
        "from flowprover.env import Tactic, TacticKind, initial_state",
        "from flowprover.formulas import parse_formula",
        "from flowprover.nn import ParamStore, mlp_forward, optim_step",
        "from flowprover.policy import PolicyNet",
        "EXACT, INTRO = TacticKind.EXACT, TacticKind.INTRO",
        "store = ParamStore()",
        "store.add('w', np.zeros(2))",
        "buf = io.BytesIO()",
        "ParamStore({**PolicyNet.create(seed=0, hidden=8).store.arrays,",
        "            'w1': np.zeros((5, 8))}).save(buf)",
        "five_inputs = buf.getvalue()",
        "buf = io.BytesIO()",
        "PolicyNet.create(seed=0, hidden=8).store.save(buf)",
        "policy_checkpoint = buf.getvalue()",
        "buf = io.BytesIO()",
        "ParamStore({**PolicyNet.create(seed=0, hidden=8).store.arrays,",
        "            'junk': np.zeros(3)}).save(buf)",
        "extra_parameter = buf.getvalue()",
        "buf = io.BytesIO()",
        "ParamStore({**PolicyNet.create(seed=0, hidden=8).store.arrays,",
        "            'wv': np.zeros(8)}).save(buf)",
        "half_value_head = buf.getvalue()",
        "at_minus_1 = ParamStore({'w': np.zeros(2)})",
        "at_minus_1.step_count = -1",
        "buf = io.BytesIO()",
        "at_minus_1.save(buf)",
        "negative_step = buf.getvalue()",
        "from flowprover.corpus import CorpusSplit, Theorem, build_corpus",
        "from flowprover.env import parse_tactic",
        "from flowprover.oracle import enumerate_trajectories, oracle_report",
        "from flowprover.reward_model import RewardModel, mine_hard_negatives, rm_train",
        "from flowprover.runs import run_training",
        "from flowprover.search import SearchConfig",
        "gt = (parse_tactic('intro'), parse_tactic('exact h1'))",
        "thm = Theorem('t', initial_state(parse_formula('a -> a')), gt)",
        "thm3 = Theorem('t3', initial_state(parse_formula('a -> b -> a')),",
        "               tuple(map(parse_tactic, ('intro', 'intro', 'exact h1'))))",
        "from flowprover.gfn import (PROVED, GFNTrainer, ProofTree, TrainConfig, Trajectory,",
        "                            sample_trajectories)",
        "net = PolicyNet.create(seed=0)",
        "from flowprover.nn import Tape",
        "tape = Tape()",
        "tape.param(ParamStore({'w': np.array([1., 2.])}), 'w')",
        "out = os.path.join(os.devnull, 'run')  # a run that wrote anything would fail here",
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
