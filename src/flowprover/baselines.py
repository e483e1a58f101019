"""SFT and PPO baselines over the same policy and encoding stack.

SFT maximizes the likelihood of ground-truth actions under the
history-augmented encoding (mean-reduced over proof steps, so losses are
comparable across proof lengths) and never touches the environment. PPO
collects rollouts at temperature 1, uses the terminal shaped log-reward as
the Monte-Carlo return for every step, advantage = return minus a learned
state value, and maximizes the clipped surrogate minus a value MSE penalty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import Theorem
from .env import ACTION_INDEX
from .gfn import StepMetrics, TrainConfig, ground_truth, sample_trajectory
from .nn import Tape, log_softmax_np, mlp_forward_np, update
from .policy import HISTORY, PolicyNet, encode_from_parts, head_graph, rows_graph
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


def greedy_decode(net: PolicyNet, thm: Theorem, max_depth: int = 3) -> list:
    """Follow argmax actions from the initial state (for overfit checks)."""
    from .env import ACTIONS, apply_tactic

    state = thm.initial_state
    history: list = []
    for _ in range(max_depth):
        enc = encode_from_parts(thm.initial_state, history, state, HISTORY)
        logits, _ = mlp_forward_np(net.store, enc)
        tactic = ACTIONS[int(np.argmax(logits))]
        history.append(tactic)
        result = apply_tactic(state, tactic)
        if not result.ok:
            break
        state = result.state
    return history


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
        self.cfg = cfg
        self.ppo = ppo
        self.rm = rm
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.step_index = 0

    def _collect(self, thm: Theorem):
        cfg = self.cfg
        # on-policy rollouts at T=1, never tempered
        rollcfg = TrainConfig(
            mode="gfn_oo", temper_p=0.0, max_depth=cfg.max_depth,
            n_sampled=cfg.n_sampled,
            reward_mode=cfg.reward_mode if self.rm is not None else "binary",
        )
        steps = []
        rewards = []
        logpfs = []
        for _ in range(cfg.n_sampled):
            traj = sample_trajectory(thm, self.net, rollcfg, self.rng, rm=self.rm)
            rewards.append(traj.log_r)
            logpfs.append(traj.log_pf)
            for i, t in enumerate(traj.tactics):
                # Monte-Carlo return: per-step reward is 0 except the
                # terminal shaped log-reward
                steps.append((traj.step_encodings[i], ACTION_INDEX[t], traj.log_r))
        return steps, rewards, logpfs

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
            env_calls=len(steps),  # one apply_tactic per collected step
            grad_skipped=skipped,
            grad_norm=grad_norm,
        )
