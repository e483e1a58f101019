"""Partial-reward scorer: a separate policy-shaped network fit by maximum
likelihood on ground-truth (state, tactic) pairs over the history-less
encoding, then frozen. Also the hard-negative mining pipeline that labels
tactics from failed rollouts by exploring their child states with
best-first search.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import CorpusSplit, Theorem
from .env import (
    ACTION_INDEX,
    ProofState,
    StepKind,
    Tactic,
    apply_tactic,
    state_fingerprint,
)
from .gfn import PROVED, TrainConfig, ground_truth, sample_trajectory
from .nn import (
    MLP_PARAMS,
    OptimConfig,
    ParamStore,
    Tape,
    init_mlp,
    log_softmax_np,
    mlp_forward_np,
    update,
)
from .policy import ENC_DIM, HISTORY_LESS, encode_from_parts, rows_graph

logger = logging.getLogger(__name__)

POSITIVE = "positive"
NEGATIVE = "negative"
UNCERTAIN = "uncertain"


@dataclass
class RewardModel:
    """Frozen scorer over the history-less state encoding."""

    store: ParamStore
    hidden: int = 128
    epoch_losses: list[float] | None = None

    @classmethod
    def create(cls, seed: int, hidden: int = 128, scale: float | None = None) -> "RewardModel":
        rng = np.random.default_rng(seed)
        return cls(store=init_mlp(rng, ENC_DIM, hidden, len(ACTION_INDEX), scale=scale),
                   hidden=hidden)

    def encode(self, state: ProofState) -> np.ndarray:
        return encode_from_parts(state, (), state, HISTORY_LESS)

    def log_probs(self, state: ProofState) -> np.ndarray:
        logits, _ = mlp_forward_np(self.store, self.encode(state))
        return log_softmax_np(logits)

    def score(self, state: ProofState, tactic: Tactic) -> float:
        """Log-probability of the tactic given only the current state."""
        return float(self.log_probs(state)[ACTION_INDEX[tactic]])

    def fingerprint(self) -> str:
        return self.store.fingerprint()

    def save(self, path: str | Path) -> None:
        self.store.save(path)

    @classmethod
    def load(cls, path: str | Path) -> "RewardModel":
        store = ParamStore.load(path, required=MLP_PARAMS)
        return cls(store=store, hidden=store["w2"].shape[0])


def gt_pairs(theorems: list[Theorem]) -> tuple[np.ndarray, np.ndarray]:
    """All (history-less encoded state, ground-truth action index) pairs;
    raises gfn.InvalidGroundTruth on a ground truth that does not prove."""
    xs, ys = [], []
    for thm in theorems:
        gt = ground_truth(thm)
        for state, t in zip(gt.proof_states, gt.tactics):
            xs.append(encode_from_parts(state, (), state, HISTORY_LESS))
            ys.append(ACTION_INDEX[t])
    return np.stack(xs), np.asarray(ys, dtype=np.intp)


def cross_entropy_graph(tape: Tape, store: ParamStore, x: np.ndarray, y: np.ndarray):
    """Mean negative log-likelihood over a batch of encoded states."""
    picked, _ = rows_graph(tape, store, x, y)
    return tape.neg(tape.mean(picked))


def rm_train(corpus: CorpusSplit, epochs: int = 20, seed: int = 0,
             batch_size: int = 64, optim: OptimConfig = OptimConfig()) -> RewardModel:
    """Cross-entropy training on the train split's ground-truth pairs."""
    rm = RewardModel.create(seed=seed)
    x, y = gt_pairs(corpus.train)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    n = len(y)
    rm.epoch_losses = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, batch_size):
            take = order[start:start + batch_size]
            tape = Tape()
            loss = cross_entropy_graph(tape, rm.store, x[take], y[take])
            losses.append(update(rm.store, tape, loss, optim)[0])
        rm.epoch_losses.append(float(np.mean(losses)))
        logger.debug("rm epoch %d: mean loss %.4f", epoch, rm.epoch_losses[-1])
    return rm


def rm_accuracy(rm: RewardModel, theorems: list[Theorem]) -> float:
    """Top-1 accuracy of the scorer on ground-truth pairs."""
    x, y = gt_pairs(theorems)
    logits, _ = mlp_forward_np(rm.store, x)
    return float(np.mean(logits.argmax(axis=-1) == y))


@dataclass(frozen=True)
class LabeledTactic:
    state: ProofState
    tactic: Tactic
    label: str  # positive | negative | uncertain

    def to_json(self) -> str:
        return json.dumps({"state": self.state.render(), "tactic": self.tactic.render(),
                           "label": self.label}, separators=(", ", ": "))


def save_labeled(pairs: list[LabeledTactic], path: str | Path) -> None:
    Path(path).write_text("".join(p.to_json() + "\n" for p in pairs))


def mine_hard_negatives(net, thm: Theorem, explore_budget: int,
                        n_rollouts: int = 16, seed: int = 0,
                        rm: RewardModel | None = None) -> list[LabeledTactic]:
    """Label tactics from sampled rollouts of one theorem.

    Tactics on proved rollouts are positive. On failed rollouts each
    syntactically valid tactic's child state is explored with best-first
    search under ``explore_budget`` expansions: a found proof marks the
    tactic positive, unless the proof's first step leads straight back to
    the pre-tactic state (those are uncertain, since the tactic plainly
    contributed nothing); no proof marks it negative. Error tactics are not
    labelable and are skipped.
    """
    from .search import SearchConfig, search_from_state

    cfg = TrainConfig(mode="gfn_br_oo")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # exhaustive per-node branching: labels should reflect provability, not
    # the sampler's action ranking
    search_cfg = SearchConfig(expansion_budget=explore_budget, branching=36)
    out: list[LabeledTactic] = []
    for _ in range(n_rollouts):
        traj = sample_trajectory(thm, net, cfg, rng, rm=rm)
        if traj.outcome == PROVED:
            for i, t in enumerate(traj.tactics):
                out.append(LabeledTactic(traj.proof_states[i], t, POSITIVE))
            continue
        n_valid = len(traj.proof_states) - 1  # error tactic (if any) has no child
        for i in range(n_valid):
            t = traj.tactics[i]
            parent = traj.proof_states[i]
            child = traj.proof_states[i + 1]
            outcome = search_from_state(net, child, search_cfg)
            if not outcome.proved:
                out.append(LabeledTactic(parent, t, NEGATIVE))
            else:
                out.append(LabeledTactic(parent, t, classify_found_proof(parent, child,
                                                                         outcome.proof)))
    return out


def classify_found_proof(parent: ProofState, child: ProofState, proof) -> str:
    """Positive unless the found proof's first step leads straight back to
    the pre-tactic state, in which case the tactic's contribution is moot."""
    if proof:
        first = apply_tactic(child, proof[0])
        if first.kind is StepKind.OK and \
                state_fingerprint(first.state) == state_fingerprint(parent):
            return UNCERTAIN
    return POSITIVE
