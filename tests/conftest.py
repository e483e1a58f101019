import numpy as np
import pytest

from flowprover.corpus import Theorem, build_corpus
from flowprover.env import ACTION_INDEX, Goal, ProofState, initial_state, parse_tactic
from flowprover.formulas import And, Atom, Implies, Or, parse_formula
from flowprover.nn import log_softmax_np
from flowprover.policy import action_logits, action_mask

# restricted action subset used by micro-suite convergence tests:
# intro, split, left, right, exact h1, apply h1
MICRO_ACTION_SET = (0, 1, 2, 3, 4, 12)


def action_log_probs(net, encoded: np.ndarray, action_set=None) -> np.ndarray:
    """Reference: log probabilities over the 36 actions at temperature 1 of
    one encoded state, from a single-row forward. With a restricted
    ``action_set`` the subset is renormalised and every action outside it
    gets -inf."""
    logits = action_logits(net, encoded)
    mask = action_mask(action_set)
    return log_softmax_np(logits if mask is None else logits + mask)


def replay_forward(net, traj, action_set=None) -> float:
    """Reference: a trajectory's log P_F under the current policy at T=1,
    one single-row forward per step over its encodings; no environment
    calls."""
    total = 0.0
    for enc, t in zip(traj.encoding_rows(), traj.tactics):
        total += action_log_probs(net, enc, action_set)[ACTION_INDEX[t]]
    return float(total)


def random_formula(rng: np.random.Generator, depth: int):
    if depth <= 1 or rng.random() < 0.35:
        name = "abcdpqrs"[int(rng.integers(8))]
        return Atom(name)
    ctor = (Implies, And, Or)[int(rng.integers(3))]
    return ctor(random_formula(rng, depth - 1), random_formula(rng, depth - 1))


def random_proof_state(rng: np.random.Generator) -> ProofState:
    n_goals = int(rng.integers(1, 3))
    goals = []
    for _ in range(n_goals):
        n_hyps = int(rng.integers(0, 4))
        hyps = tuple((f"h{i + 1}", random_formula(rng, 3)) for i in range(n_hyps))
        goals.append(Goal(hyps, random_formula(rng, 3)))
    return ProofState(tuple(goals))


def identity_theorem(goal_text: str, name: str = "thm") -> Theorem:
    return Theorem(
        name=name,
        initial_state=initial_state(parse_formula(goal_text)),
        gt_proof=(parse_tactic("intro"), parse_tactic("exact h1")),
    )


def micro_theorems() -> list[Theorem]:
    goals = ["a -> a", "b -> b", "a & b -> a & b", "a | b -> a | b", "(a -> b) -> (a -> b)"]
    return [identity_theorem(g, name=f"micro{i}") for i, g in enumerate(goals)]


def biased_net(jitter_seed: int | None = None):
    """Policy whose output bias favors structurally valid tactics; rollouts
    then mix proved, failed, and errored outcomes instead of erroring on the
    first step almost surely."""
    from flowprover.policy import PolicyNet

    net = PolicyNet.create(seed=0, scale=0.0)
    b3 = np.zeros(36)
    b3[:5] = 2.0  # intro, split, left, right, exact h1
    if jitter_seed is not None:
        b3 += np.random.default_rng(jitter_seed).normal(scale=0.3, size=36)
    net.store["b3"] = b3
    return net


@pytest.fixture(scope="session")
def small_corpus():
    return build_corpus(3, train_size=60, valid_size=10)
