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

from .corpus import CorpusSplit, Theorem, check_non_negative
from .env import (
    N_ACTIONS,
    ProofState,
    StepKind,
    Tactic,
    apply_tactic,
    state_fingerprint,
)
from .gfn import ProofTree, TrainConfig, ground_truth, sample_trajectories
from .nn import (
    MLP_PARAMS,
    ParamStore,
    Tape,
    log_softmax_np,
    mlp_forward_np,
    mlp_params,
    update,
)
from .policy import ENC_DIM, HISTORY_LESS, checked_hidden, encode_from_parts, rows_graph
from .search import SearchConfig, search_from_state

logger = logging.getLogger(__name__)

RM_BATCH_SIZE = 64
RM_HIDDEN = 128
RM_LR = 1e-4

POSITIVE = "positive"
NEGATIVE = "negative"
UNCERTAIN = "uncertain"


@dataclass
class RewardModel:
    """Frozen scorer over the history-less state encoding."""

    store: ParamStore
    epoch_losses: list[float] | None = None

    @classmethod
    def create(cls, seed: int, scale: float | None = None) -> "RewardModel":
        rng = np.random.default_rng(seed)
        return cls(store=ParamStore(mlp_params(rng, ENC_DIM, RM_HIDDEN, N_ACTIONS, scale)))

    def log_probs(self, state: ProofState) -> np.ndarray:
        logits, _ = mlp_forward_np(self.store, encode_from_parts(state, (), state, HISTORY_LESS))
        return log_softmax_np(logits)

    def score(self, state: ProofState, tactic: Tactic) -> float:
        """Log-probability of the tactic given only the current state."""
        return float(self.log_probs(state)[tactic])

    def fingerprint(self) -> str:
        return self.store.fingerprint()

    def save(self, path: str | Path) -> None:
        self.store.save(path)

    @classmethod
    def load(cls, path: str | Path) -> "RewardModel":
        """The reward model ``save`` wrote; CheckpointError for any other
        checkpoint, a policy's among them (it holds more parameters)."""
        store = ParamStore.load(path, required=MLP_PARAMS)
        checked_hidden(store, path, "reward model")
        return cls(store=store)


def gt_pairs(theorems: list[Theorem],
             mode: str = HISTORY_LESS) -> tuple[np.ndarray, np.ndarray]:
    """The stacked (encoded state, ground-truth action index) pairs of every
    ground-truth step, in theorem order, under encoding ``mode``: the reward
    model's rows under HISTORY_LESS, SFT's under HISTORY. Raises
    gfn.InvalidGroundTruth on a ground truth that does not prove."""
    xs, ys = [], []
    for thm in theorems:
        gt = ground_truth(ProofTree(thm))
        xs += (node.encoding(mode) for node in gt.nodes)
        ys += gt.tactics
    return np.stack(xs), np.asarray(ys, dtype=np.intp)


def cross_entropy_graph(tape: Tape, store: ParamStore, x: np.ndarray, y: np.ndarray):
    """Mean negative log-likelihood over a batch of encoded states."""
    picked, _ = rows_graph(tape, store, x, y)
    return tape.scale(tape.mean(picked), -1.0)


def rm_train(corpus: CorpusSplit, epochs: int = 20, seed: int = 0) -> RewardModel:
    """Cross-entropy training on the train split's ground-truth pairs.
    ValueError for a negative seed or epoch count, or an empty train split."""
    check_non_negative(seed=seed, epochs=epochs)
    if not corpus.train:
        raise ValueError("the corpus has no train theorems to fit the reward model on")
    rm = RewardModel.create(seed=seed)
    x, y = gt_pairs(corpus.train)
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    n = len(y)
    rm.epoch_losses = []
    for epoch in range(epochs):
        order = rng.permutation(n)
        losses = []
        for start in range(0, n, RM_BATCH_SIZE):
            take = order[start:start + RM_BATCH_SIZE]
            tape = Tape()
            loss = cross_entropy_graph(tape, rm.store, x[take], y[take])
            losses.append(update(rm.store, tape, loss, RM_LR)[0])
        rm.epoch_losses.append(float(np.mean(losses)))
        logger.debug("rm epoch %d: mean loss %.4f", epoch, rm.epoch_losses[-1])
    return rm


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
                        n_rollouts: int = 16, seed: int = 0) -> list[LabeledTactic]:
    """Label tactics from sampled rollouts of one theorem.

    Tactics on proved rollouts are positive. On failed rollouts each
    syntactically valid tactic's child state is explored with best-first
    search under ``explore_budget`` expansions: a found proof marks the
    tactic positive, unless the proof's first step leads straight back to
    the pre-tactic state (those are uncertain, since the tactic plainly
    contributed nothing); no proof marks it negative. Error tactics are not
    labelable and are skipped. ValueError for a negative seed or rollout
    count.
    """
    check_non_negative(seed=seed, n_rollouts=n_rollouts)
    cfg = TrainConfig(mode="gfn_br_oo")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # exhaustive per-node branching: labels should reflect provability, not
    # the sampler's action ranking
    search_cfg = SearchConfig(expansion_budget=explore_budget, branching=36)
    out: list[LabeledTactic] = []
    for traj in sample_trajectories(ProofTree(thm), net, cfg, rng, n_rollouts):
        if traj.outcome is StepKind.PROVED:
            for node, t in zip(traj.nodes, traj.tactics):
                out.append(LabeledTactic(node.state, t, POSITIVE))
            continue
        for node, t in zip(traj.nodes, traj.tactics):
            # the rollout's recorded result; an error tactic has no child
            parent, child = node.state, node.apply(t).state
            if child is None:
                continue
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
