"""One walk over a known tactic list: ``env.replay`` and every reader of a
ground truth (trajectories, the GFN and SFT trainers, the corpus filter and
the reward model's pairs) give one answer on the same proof."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowprover.corpus as corpus
import flowprover.env as env
import flowprover.gfn as gfn
from flowprover.baselines import SFTTrainer
from flowprover.corpus import Theorem, build_corpus, filter_theorem, generate_theorem
from flowprover.env import ErrorReason, ProofState, StepKind, parse_tactic, replay
from flowprover.gfn import (
    DEPTH_EXHAUSTED,
    ENV_ERROR,
    PROVED,
    GFNTrainer,
    InvalidGroundTruth,
    ProofTree,
    TrainConfig,
    ground_truth,
    trajectory_from_tactics,
)
from flowprover.policy import PolicyNet
from flowprover.reward_model import gt_pairs

from conftest import identity_theorem

# Four proofs of a -> a: (tactics, replay kind, trajectory outcome, states visited).
CASES = {
    "closing": (("intro", "exact h1"), StepKind.PROVED, PROVED, 3),
    "trailing": (("intro", "exact h1", "intro"), StepKind.ERROR, ENV_ERROR, 3),
    "failing": (("intro", "split"), StepKind.ERROR, ENV_ERROR, 2),
    "open": (("intro",), StepKind.OK, DEPTH_EXHAUSTED, 2),
}


def theorem(case: str) -> Theorem:
    base = identity_theorem("a -> a")
    return Theorem("thm", base.initial_state, tuple(parse_tactic(t) for t in CASES[case][0]))


def _refused(fn) -> bool:
    try:
        fn()
    except InvalidGroundTruth:
        return True
    return False


def answers(case: str) -> dict[str, bool]:
    """Whether each reader of the case's ground truth takes it as a proof."""
    thm = theorem(case)
    cfg = TrainConfig(mode="gfn_br_oo")
    return {
        "replay": replay(thm.initial_state, thm.gt_proof).proved,
        "trajectory_from_tactics": trajectory_from_tactics(thm, thm.gt_proof).outcome == PROVED,
        "ground_truth": not _refused(lambda: ground_truth(ProofTree(thm))),
        "GFNTrainer": not _refused(lambda: GFNTrainer([thm], PolicyNet.create(seed=0), cfg)),
        "SFTTrainer": not _refused(lambda: SFTTrainer([thm], PolicyNet.create(seed=0), cfg)),
        "filter_theorem": filter_theorem(thm),
        "gt_pairs": not _refused(lambda: gt_pairs([thm])),
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_reader_gives_one_answer(case):
    _, kind, outcome, n_states = CASES[case]
    thm = theorem(case)
    got = answers(case)
    assert set(got.values()) == {case == "closing"}, got

    walk = replay(thm.initial_state, thm.gt_proof)
    assert walk.kind is kind
    assert len(walk.states) == n_states and walk.states[0] == thm.initial_state
    traj = trajectory_from_tactics(thm, thm.gt_proof)
    assert traj.outcome == outcome
    assert tuple(node.state for node in traj.nodes) == walk.states[:len(traj.tactics)]
    # every applied tactic is kept: a failing one ends the trajectory
    assert len(traj.tactics) == (n_states if walk.failed else n_states - 1)
    # its fresh tree records one apply_tactic result per applied tactic
    recorded, stack = [], [traj.root]
    while stack:
        node = stack.pop()
        recorded += [(node.history, t, r) for t, r in node.results.items()]
        stack.extend(node.children.values())
    assert recorded == [(traj.tactics[:i], t, env.apply_tactic(s, t))
                        for i, (t, s) in enumerate(zip(traj.tactics, walk.states))]
    if case == "closing":
        assert walk.states[-1] == ProofState(())
        assert traj.tactics == thm.gt_proof
        x, y = gt_pairs([thm])
        assert x.shape[0] == len(y) == len(thm.gt_proof)
    if case == "trailing":
        # the tactic after the close is applied to the proved state
        assert walk.error is ErrorReason.NO_GOALS and walk.states[-1] == ProofState(())
        # ... which the proved action's child node holds, with the NO_GOALS result
        closed = traj.nodes[1].children[traj.tactics[1]]
        assert closed is traj.nodes[2] and closed.state == ProofState(())
        assert closed.results[traj.tactics[2]].error is ErrorReason.NO_GOALS


def test_bad_ground_truths_fail_under_optimized_python():
    # the refusals must hold with asserts stripped (python -O)
    script = "\n".join([
        "import json",
        "from test_ground_truth import CASES, answers",
        "assert False, 'asserts are live'",
        "print(json.dumps({case: answers(case) for case in CASES}))",
    ])
    tests_dir = Path(__file__).resolve().parent
    src_dir = tests_dir.parent / "src"
    env_vars = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src_dir), str(tests_dir), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env_vars,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.strip().splitlines()[-1])
    for case, readers in got.items():
        assert set(readers.values()) == {case == "closing"}, (case, readers)


def test_first_try_theorem_walks_its_proof_once(monkeypatch):
    calls = []
    real = env.apply_tactic

    def spy(state, tactic):
        calls.append(tactic)
        return real(state, tactic)

    # every binding a walk could call through, so a second walk is seen too
    monkeypatch.setattr(env, "apply_tactic", spy)
    monkeypatch.setattr(corpus, "apply_tactic", spy, raising=False)
    for seed in range(5):
        calls.clear()
        thm = generate_theorem(np.random.default_rng(seed), 3)
        assert calls == list(thm.gt_proof)


def test_every_result_in_a_trainer_tree_is_apply_tactics(monkeypatch):
    # the ground truth enters the run's trees through ProofNode.apply like
    # every rollout: no result in a tree is made anywhere else
    returned = []
    real = gfn.apply_tactic

    def spy(state, tactic):
        returned.append(real(state, tactic))
        return returned[-1]

    monkeypatch.setattr(gfn, "apply_tactic", spy)
    thms = build_corpus(1, 12, 0).train
    trainer = GFNTrainer(thms, PolicyNet.create(seed=0), TrainConfig(mode="gfn_br_oo"))
    assert len(returned) == sum(len(thm.gt_proof) for thm in thms)
    for i in range(6):
        trainer.train_step(thms[i])
    made = {id(result) for result in returned}
    stack = [tree.root for tree in trainer._trees.values()]
    n_results = 0
    while stack:
        node = stack.pop()
        assert all(id(result) in made for result in node.results.values())
        n_results += len(node.results)
        stack.extend(node.children.values())
    assert n_results == len(returned)  # each call's result is recorded once
