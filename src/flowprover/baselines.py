"""SFT and PPO baselines over the same policy and encoding stack.

SFT maximizes the likelihood of ground-truth actions under the
history-augmented encoding (mean-reduced over proof steps, so losses are
comparable across proof lengths) and never touches the environment. PPO
collects rollouts at temperature 1, uses the terminal shaped log-reward as
the Monte-Carlo return for every step, advantage = return minus a learned
state value, and maximizes the clipped surrogate minus a value MSE penalty.
Each epoch is one taped forward over the step rows, stacked once per
step; the first epoch's, made before any update, is the old policy that
gives the ratios' old log-probs and the advantages. PPO's clip range,
epoch count and value weight are constants (``PPOConfig()``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import Theorem
from .gfn import N_SAMPLED, ProofTree, StepMetrics, TrainConfig, sample_trajectories
from .nn import Tape, mlp_forward_np, update
from .policy import HISTORY, PolicyNet, head_graph, rows_graph
from .reward_model import cross_entropy_graph, gt_pairs


@dataclass(frozen=True)
class PPOConfig:
    """PPO's fixed settings, recorded in a run's manifest; it takes no
    arguments."""

    clip_eps: float = field(default=0.2, init=False)
    ppo_epochs: int = field(default=4, init=False)
    value_coef: float = field(default=0.5, init=False)


class SFTTrainer:
    """Cross-entropy on ground-truth trajectories; one theorem per step."""

    def __init__(self, theorems: list[Theorem], net: PolicyNet, cfg: TrainConfig,
                 seed: int = 0):
        self.net = net
        self.cfg = cfg
        self.step_index = 0
        self._pairs = {t.name: gt_pairs([t], HISTORY) for t in theorems}

    def train_step(self, thm: Theorem) -> StepMetrics:
        x, y = self._pairs[thm.name]
        tape = Tape()
        loss = cross_entropy_graph(tape, self.net.store, x, y)
        loss_value, grad_norm, skipped = update(self.net.store, tape, loss, self.cfg.lr)
        self.step_index += 1
        return StepMetrics(
            step=self.step_index,
            mode="sft",
            loss=loss_value,
            mean_log_r=float("nan"),
            mean_log_pf=float("nan"),
            log_z=float("nan"),
            env_calls=0,
            grad_skipped=skipped,
            grad_norm=grad_norm,
        )


def gt_top1_accuracy(model, theorems: list[Theorem], mode: str = HISTORY) -> float:
    """Share of ground-truth steps where the gt action has the top logit,
    from one forward of ``model.store`` over ``gt_pairs(theorems, mode)``:
    a policy's under HISTORY, the reward model's under HISTORY_LESS."""
    x, actions = gt_pairs(theorems, mode)
    logits, _ = mlp_forward_np(model.store, x)
    return float(np.mean(logits.argmax(axis=-1) == actions))


def ppo_surrogate_terms(ratio: float, advantage: float, clip_eps: float) -> float:
    """Single-step clipped objective value (reference arithmetic)."""
    return min(ratio * advantage,
               float(np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps)) * advantage)


def _stack(steps):
    """(rows, action indices, returns) of (encoding, action, return)
    triples: the float64 row matrix and the returns as float64 arrays."""
    x = np.stack([enc for enc, _, _ in steps]).astype(np.float64)
    return x, [a for _, a, _ in steps], np.array([r for _, _, r in steps], dtype=np.float64)


def _epoch_graph(tape: Tape, net: PolicyNet, rows, ppo: PPOConfig, old=None):
    """``ppo_loss_graph``'s (loss, surrogate, value MSE) over ``_stack``'s
    ``rows``, and the old policy it used, (old log-probs, advantages):
    ``old``, or else this forward's own log-probs and returns minus values."""
    x, actions, returns = rows
    lp, hidden = rows_graph(tape, net.store, x, actions)
    v = head_graph(tape, net.store, hidden, "wv", "bv")
    old_logps, advantages = old if old is not None else (lp.value, returns - v.value)
    adv = np.asarray(advantages, dtype=np.float64)
    ratio = tape.exp(tape.shift(lp, -np.asarray(old_logps, dtype=np.float64)))
    unclipped = tape.scale(ratio, adv)
    clipped = tape.scale(tape.clip(ratio, 1.0 - ppo.clip_eps, 1.0 + ppo.clip_eps), adv)
    surrogate = tape.mean(tape.minimum(unclipped, clipped))
    value_mse = tape.mean(tape.square(tape.shift(v, -returns)))
    loss = tape.add(tape.scale(surrogate, -1.0), tape.scale(value_mse, ppo.value_coef))
    return (loss, surrogate, value_mse), (old_logps, advantages)


def ppo_loss_graph(tape: Tape, net: PolicyNet, steps, old_logps, advantages,
                   ppo: PPOConfig):
    """Clipped-surrogate loss graph for one optimization epoch.

    ``steps`` holds (encoding, action index, return) triples collected under
    the old policy; the ratio uses the given old log-probs. One taped
    forward over the stacked steps feeds both the policy and the value head.
    Gradients pass through the unclipped branch only where it is the smaller
    one, so a clipped step contributes exactly zero policy gradient.
    """
    return _epoch_graph(tape, net, _stack(steps), ppo, (old_logps, advantages))[0]


class PPOTrainer:
    """Clipped-surrogate policy optimization with a learned value head."""

    def __init__(self, theorems: list[Theorem], net: PolicyNet, cfg: TrainConfig,
                 rm=None, seed: int = 0):
        net.ensure_value_head()
        self.net = net
        self.cfg = cfg.for_reward_model(rm is not None)
        self.ppo = PPOConfig()
        self.rm = rm
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.step_index = 0
        self._trees = {thm.name: ProofTree(thm) for thm in theorems}  # one per theorem per run

    def _collect(self, thm: Theorem):
        batch = sample_trajectories(self._trees[thm.name], self.net, self.cfg,
                                    self.rng, N_SAMPLED, rm=self.rm)
        # Monte-Carlo return: per-step reward is 0 except the terminal
        # shaped log-reward; the rows are stacked once for every epoch
        rows = _stack([(node.encoding(), t, traj.log_r)
                       for traj in batch for node, t in zip(traj.nodes, traj.tactics)])
        return rows, [t.log_r for t in batch], [t.log_pf for t in batch]

    def train_step(self, thm: Theorem) -> StepMetrics:
        """Rollouts of ``thm``, then ``ppo_epochs`` updates. The first
        epoch's forward, before any update, gives the old log-probs and the
        advantages (return minus value), so its ratios are exactly 1. The
        metrics carry the last epoch's loss and norm; grad_skipped if any
        epoch skipped."""
        cfg, ppo = self.cfg, self.ppo
        rows, rewards, logpfs = self._collect(thm)
        loss_value = grad_norm = float("nan")
        skipped = False
        old = None
        for _ in range(ppo.ppo_epochs):
            tape = Tape()
            (loss, _, _), old = _epoch_graph(tape, self.net, rows, ppo, old)
            loss_value, grad_norm, epoch_skipped = update(self.net.store, tape, loss, cfg.lr)
            skipped = skipped or epoch_skipped

        self.step_index += 1
        return StepMetrics(
            step=self.step_index,
            mode="ppo",
            loss=loss_value,
            mean_log_r=float(np.mean(rewards)),
            mean_log_pf=float(np.mean(logpfs)),
            log_z=float("nan"),
            env_calls=len(rows[0]),  # tactic steps of the rollouts (a row each), as in GFN
            grad_skipped=skipped,
            grad_norm=grad_norm,
        )
