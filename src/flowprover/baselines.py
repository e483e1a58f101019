"""SFT and PPO baselines over the same policy and encoding stack.

SFT maximizes the likelihood of ground-truth actions under the
history-augmented encoding (mean-reduced over proof steps, so losses are
comparable across proof lengths) and never touches the environment. PPO
collects rollouts at temperature 1, uses the terminal shaped log-reward as
the Monte-Carlo return for every step, advantage = return minus a learned
state value, and maximizes the clipped surrogate minus a value MSE penalty.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .corpus import Theorem
from .env import ACTION_INDEX
from .gfn import ProofTree, StepMetrics, TrainConfig, ground_truth, sample_trajectories
from .nn import Tape, log_softmax_np, mlp_forward_np, update
from .policy import PolicyNet, head_graph, rows_graph
from .reward_model import cross_entropy_graph


@dataclass(frozen=True)
class PPOConfig:
    clip_eps: float = 0.2
    ppo_epochs: int = 4
    value_coef: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.clip_eps < 1.0:
            raise ValueError(f"clip_eps must lie in (0, 1), got {self.clip_eps}")


def gt_step_encodings(thm: Theorem) -> tuple[np.ndarray, np.ndarray]:
    """History-augmented encodings (one row per step) and gt action indices
    along the proof; raises gfn.InvalidGroundTruth if it does not prove."""
    gt = ground_truth(thm)
    return gt.encodings(), np.array([ACTION_INDEX[t] for t in gt.tactics], dtype=np.intp)


class SFTTrainer:
    """Cross-entropy on ground-truth trajectories; one theorem per step."""

    def __init__(self, theorems: list[Theorem], net: PolicyNet, cfg: TrainConfig,
                 seed: int = 0):
        self.net = net
        self.cfg = cfg
        self.step_index = 0
        self._pairs = {t.name: gt_step_encodings(t) for t in theorems}

    def train_step(self, thm: Theorem) -> StepMetrics:
        x, y = self._pairs[thm.name]
        tape = Tape()
        loss = cross_entropy_graph(tape, self.net.store, x, y)
        loss_value, grad_norm, skipped = update(self.net.store, tape, loss, self.cfg.optim)
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


def gt_top1_accuracy(net: PolicyNet, theorems: list[Theorem]) -> float:
    """Share of ground-truth steps where the gt action has the top logit."""
    hits = 0
    total = 0
    for thm in theorems:
        x, actions = gt_step_encodings(thm)
        logits, _ = mlp_forward_np(net.store, x)
        hits += int(np.sum(logits.argmax(axis=-1) == actions))
        total += len(actions)
    return hits / total


def ppo_surrogate_terms(ratio: float, advantage: float, clip_eps: float) -> float:
    """Single-step clipped objective value (reference arithmetic)."""
    return min(ratio * advantage,
               float(np.clip(ratio, 1.0 - clip_eps, 1.0 + clip_eps)) * advantage)


def ppo_loss_graph(tape: Tape, net: PolicyNet, steps, old_logps, advantages,
                   ppo: PPOConfig):
    """Clipped-surrogate loss graph for one optimization epoch.

    ``steps`` holds (encoding, action index, return) triples collected under
    the old policy; the ratio uses the stored old log-probs. One taped
    forward over the stacked steps feeds both the policy and the value head.
    Gradients pass through the unclipped branch only where it is the smaller
    one, so a clipped step contributes exactly zero policy gradient.
    """
    x = np.stack([enc for enc, _, _ in steps])
    returns = np.array([ret for _, _, ret in steps], dtype=np.float64)
    adv = np.asarray(advantages, dtype=np.float64)
    lp, hidden = rows_graph(tape, net.store, x, [a for _, a, _ in steps])
    ratio = tape.exp(tape.shift(lp, -np.asarray(old_logps, dtype=np.float64)))
    unclipped = tape.scale(ratio, adv)
    clipped = tape.scale(tape.clip(ratio, 1.0 - ppo.clip_eps, 1.0 + ppo.clip_eps), adv)
    surrogate = tape.mean(tape.minimum(unclipped, clipped))
    v = head_graph(tape, net.store, hidden, "wv", "bv")
    value_mse = tape.mean(tape.square(tape.shift(v, -returns)))
    loss = tape.add(tape.neg(surrogate), tape.scale(value_mse, ppo.value_coef))
    return loss, surrogate, value_mse


class PPOTrainer:
    """Clipped-surrogate policy optimization with a learned value head."""

    def __init__(self, theorems: list[Theorem], net: PolicyNet, cfg: TrainConfig,
                 ppo: PPOConfig = PPOConfig(), rm=None, seed: int = 0):
        net.ensure_value_head()
        self.net = net
        self.cfg = cfg.for_reward_model(rm is not None)
        self._rollout_cfg = replace(self.cfg, temper_p=0.0)  # on-policy rollouts at T=1
        self.ppo = ppo
        self.rm = rm
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.step_index = 0
        self._trees = {thm.name: ProofTree(thm) for thm in theorems}  # one per theorem per run

    def _collect(self, thm: Theorem):
        batch = sample_trajectories(self._trees[thm.name], self.net, self._rollout_cfg,
                                    self.rng, self.cfg.n_sampled, rm=self.rm)
        # Monte-Carlo return: per-step reward is 0 except the terminal
        # shaped log-reward
        steps = [(node.encoding(), ACTION_INDEX[t], traj.log_r)
                 for traj in batch for node, t in zip(traj.nodes, traj.tactics)]
        return steps, [t.log_r for t in batch], [t.log_pf for t in batch]

    def old_policy_terms(self, steps) -> tuple[np.ndarray, np.ndarray]:
        """Old log-probs of the taken actions and advantages (return minus
        the value head), from one tape-free forward over the stacked steps."""
        store = self.net.store
        logits, hidden = mlp_forward_np(store, np.stack([enc for enc, _, _ in steps]))
        actions = np.array([a for _, a, _ in steps], dtype=np.intp)
        old_logps = log_softmax_np(logits)[np.arange(len(steps)), actions]
        values = hidden @ store["wv"] + store["bv"]
        return old_logps, np.array([ret for _, _, ret in steps]) - values

    def train_step(self, thm: Theorem) -> StepMetrics:
        """Rollouts of ``thm``, then ``ppo_epochs`` updates. The metrics carry
        the last epoch's loss and norm; grad_skipped if any epoch skipped."""
        cfg, ppo = self.cfg, self.ppo
        steps, rewards, logpfs = self._collect(thm)
        old_logps, advantages = self.old_policy_terms(steps)
        loss_value = grad_norm = float("nan")
        skipped = False
        for _ in range(ppo.ppo_epochs):
            tape = Tape()
            loss, _, _ = ppo_loss_graph(tape, self.net, steps, old_logps, advantages, ppo)
            loss_value, grad_norm, epoch_skipped = update(self.net.store, tape, loss, cfg.optim)
            skipped = skipped or epoch_skipped

        self.step_index += 1
        return StepMetrics(
            step=self.step_index,
            mode="ppo",
            loss=loss_value,
            mean_log_r=float(np.mean(rewards)),
            mean_log_pf=float(np.mean(logpfs)),
            log_z=float("nan"),
            env_calls=len(steps),  # tactic steps of the rollouts, as in GFN
            grad_skipped=skipped,
            grad_norm=grad_norm,
        )
