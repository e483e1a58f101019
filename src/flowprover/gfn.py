"""Trajectory-balance training loop with shaped rewards and trajectory replay.

Log-reward cases (alpha=8, c=88 max tactic chars, l = mean tactic chars):

    proved          -> 0
    env error       -> -15 + alpha * ln((c - l) / c)
    depth exhausted -> sum_i (1/len(t_i)) * rm_log_prob(t_i | s_{i-1})   (full mode)
                       error branch                                      (binary mode)

The trajectory-balance residual per trajectory is
``log Z(theorem) + log P_F(trajectory) - log R(trajectory)`` and the loss is
the batch mean of its square; the backward-policy term vanishes because the
history-augmented encoding makes every state single-parent. (The loss is
zero exactly at the reward-proportional optimum, which the enumeration
oracle certifies.)

The whole batch is one taped forward. Its rows are every step of every
trajectory, stacked in batch order; log P_F is a segment sum of the rows'
picked log-probabilities, one segment per trajectory. A trajectory's first
row is its theorem's initial state with an empty history, which is exactly
the log-Z head's input, so log Z is a row ``take`` of ``hidden @ wz + bz``
at each trajectory's first row.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .corpus import Theorem
from .env import ACTION_INDEX, ACTIONS, ProofState, StepKind, Tactic, apply_tactic, replay
from .nn import OptimConfig, Tape, log_softmax_np, update
from .policy import (
    ENC_DIM,
    HISTORY,
    PolicyNet,
    action_logits,
    action_mask,
    encode_from_parts,
    head_graph,
    rows_graph,
    sample_action,
)

PROVED = "proved"
ENV_ERROR = "env_error"
DEPTH_EXHAUSTED = "depth_exhausted"

FULL_RM = "full_rm"
BINARY = "binary"

GFN_MODES = ("gfn", "gfn_oo", "gfn_br_oo")
ALL_MODES = GFN_MODES + ("sft", "ppo")


class InvalidLength(ValueError):
    """Mean tactic length reached the cap c; the shaping log would blow up."""


class InvalidGroundTruth(ValueError):
    """A theorem's ground-truth proof does not prove it."""


@dataclass(frozen=True)
class RewardSpec:
    alpha: float = 8.0
    c_max_tactic_len: float = 88.0
    error_base: float = -15.0
    mode: str = FULL_RM

    def __post_init__(self):
        if not (self.alpha > 0 and self.c_max_tactic_len > 0):
            raise ValueError(f"alpha and c_max_tactic_len must be positive, got "
                             f"{self.alpha} and {self.c_max_tactic_len}")
        if self.mode not in (FULL_RM, BINARY):
            raise ValueError(f"reward mode must be {FULL_RM} or {BINARY}, got {self.mode!r}")


@dataclass
class Trajectory:
    """One rollout: tactics, visited states, outcome, and both log scores.

    ``proof_states`` holds the states the tactics were applied in (index i
    is the state before tactic i), plus the resulting state when the rollout
    did not end in an environment error. ``step_encodings`` optionally
    carries the (len(tactics), ENC_DIM) history encodings of the steps, so
    the loss graph need not encode them again; None means encode on use.
    """

    theorem_name: str
    tactics: tuple[Tactic, ...]
    proof_states: tuple[ProofState, ...]
    outcome: str
    log_pf: float
    log_r: float = 0.0
    source: str = "online"
    step_encodings: np.ndarray | None = field(default=None, repr=False, compare=False)

    @property
    def initial_state(self) -> ProofState:
        return self.proof_states[0]

    def encodings(self) -> np.ndarray:
        if self.step_encodings is not None:
            return self.step_encodings
        out = np.zeros((len(self.tactics), ENC_DIM))
        for i in range(len(self.tactics)):
            out[i] = encode_from_parts(self.initial_state, self.tactics[:i],
                                       self.proof_states[i], HISTORY)
        return out

    def __len__(self) -> int:
        return len(self.tactics)


# Rendered length of every action, built once. Lengths are small exact
# integers, so sums and means over them are exact.
_TACTIC_CHARS: dict[Tactic, int] = {t: len(t.render()) for t in ACTIONS}


def _tactic_chars(tactic) -> int:
    """Rendered length; from the table for every tactic of the action space."""
    n = _TACTIC_CHARS.get(tactic)
    return len(tactic.render()) if n is None else n


def mean_tactic_chars(tactics) -> float:
    if not tactics:
        raise ValueError("trajectory must contain at least one tactic")
    return sum(map(_tactic_chars, tactics)) / len(tactics)


def error_branch_log_reward(tactics, spec: RewardSpec) -> float:
    l = mean_tactic_chars(tactics)
    c = spec.c_max_tactic_len
    if l >= c:
        raise InvalidLength(f"mean tactic length {l} >= cap {c}")
    return spec.error_base + spec.alpha * float(np.log((c - l) / c))


def log_reward(traj: Trajectory, spec: RewardSpec, rm=None) -> float:
    """Shaped log reward of a complete trajectory (policy-independent)."""
    if traj.outcome == PROVED:
        return 0.0
    if traj.outcome == ENV_ERROR or spec.mode == BINARY:
        return error_branch_log_reward(traj.tactics, spec)
    if traj.outcome != DEPTH_EXHAUSTED:
        raise ValueError(f"unknown trajectory outcome {traj.outcome!r}")
    if rm is None:
        raise ValueError("full-reward mode needs a reward model for partial credit")
    total = 0.0
    for i, t in enumerate(traj.tactics):
        total += rm.score(traj.proof_states[i], t) / _tactic_chars(t)
    return total


@dataclass
class TrainConfig:
    lr: float = 1e-4
    clip_norm: float = 0.5
    total_steps: int = 2000
    n_sampled: int = 5
    replay_p: float = 0.5
    temper_p: float = 0.666
    temper_low: float = 0.25
    temper_high: float = 1.0
    max_depth: int = 3
    mode: str = "gfn"  # gfn | gfn_oo | gfn_br_oo | sft | ppo
    inject_gt: bool = True
    buffer_capacity: int = 64
    reward_mode: str = FULL_RM
    weight_decay: float = 0.01
    action_set: tuple[int, ...] | None = None  # restricted subsets are test-only

    def __post_init__(self):
        if self.mode not in ALL_MODES:
            raise ValueError(f"mode must be one of {', '.join(ALL_MODES)}, got {self.mode!r}")
        if self.action_set is not None and self.mode not in GFN_MODES:
            raise ValueError(f"action_set applies to the GFN modes only, not {self.mode}")
        if self.mode in ("gfn_oo", "gfn_br_oo"):
            self.replay_p = 0.0
        if self.mode == "gfn_br_oo":
            self.reward_mode = BINARY

    @property
    def reward_spec(self) -> RewardSpec:
        return RewardSpec(mode=self.reward_mode)

    @property
    def optim(self) -> OptimConfig:
        return OptimConfig(lr=self.lr, clip_norm=self.clip_norm,
                           weight_decay=self.weight_decay)

    def action_subset(self) -> np.ndarray | None:
        if self.action_set is None:
            return None
        return np.asarray(self.action_set, dtype=np.intp)


class ReplayBuffer:
    """Per-theorem FIFO ring buffers of finished trajectories. The loss graph
    recomputes log P_F, so the stored log_pf is never read; step encodings
    are dropped, since they would hold about 4 KB per entry."""

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._buffers: dict[str, deque[Trajectory]] = {}
        self.reads = 0

    def add(self, traj: Trajectory) -> None:
        buf = self._buffers.setdefault(traj.theorem_name, deque(maxlen=self.capacity))
        buf.append(dataclasses.replace(traj, source="replay", step_encodings=None))

    def size(self, theorem_name: str) -> int:
        return len(self._buffers.get(theorem_name, ()))

    def sample(self, theorem_name: str, k: int, rng: np.random.Generator) -> list[Trajectory]:
        """Uniform with replacement."""
        buf = self._buffers[theorem_name]
        picks = rng.integers(0, len(buf), size=k)
        self.reads += int(k)
        return [buf[int(i)] for i in picks]


class ReplayDiverged(RuntimeError):
    """A buffered trajectory is structurally inconsistent with its tactics."""


def sample_trajectory(thm: Theorem, net: PolicyNet, cfg: TrainConfig,
                      rng: np.random.Generator, rm=None) -> Trajectory:
    """Roll out the policy from the theorem's initial state, one
    ``apply_tactic`` call per tactic.

    Generation is tempered with probability ``temper_p`` (T uniform in
    [temper_low, temper_high]); the accumulated log_pf is always the
    temperature-1 policy probability. The rollout ends on proof completion,
    on environment error, or at max_depth.
    """
    if rng.random() < cfg.temper_p:
        temperature = float(rng.uniform(cfg.temper_low, cfg.temper_high))
    else:
        temperature = 1.0
    subset = cfg.action_subset()

    tactics: list[Tactic] = []
    visited: list[ProofState] = [thm.initial_state]
    encs = np.zeros((cfg.max_depth, ENC_DIM))
    state = thm.initial_state
    log_pf = 0.0
    outcome = DEPTH_EXHAUSTED
    for i in range(cfg.max_depth):
        encs[i] = encode_from_parts(thm.initial_state, tactics, state, HISTORY)
        tactic, step_lp = sample_action(net, encs[i], temperature, rng, action_set=subset)
        log_pf += step_lp
        tactics.append(tactic)
        result = apply_tactic(state, tactic)
        if result.proved:
            visited.append(ProofState(()))
            outcome = PROVED
            break
        if result.failed:
            outcome = ENV_ERROR
            break
        state = result.state
        visited.append(state)

    traj = Trajectory(
        theorem_name=thm.name,
        tactics=tuple(tactics),
        proof_states=tuple(visited),
        outcome=outcome,
        log_pf=log_pf,
        step_encodings=encs[:len(tactics)],
    )
    traj.log_r = log_reward(traj, cfg.reward_spec, rm=rm)
    return traj


_OUTCOMES = {StepKind.PROVED: PROVED, StepKind.ERROR: ENV_ERROR, StepKind.OK: DEPTH_EXHAUSTED}


def trajectory_from_tactics(thm: Theorem, tactics, source: str = "ground_truth") -> Trajectory:
    """The trajectory of a known tactic sequence, through ``env.replay``
    (log_pf unset). It holds the applied tactics: all of them, unless one
    fails, in which case it ends with the failing one."""
    walk = replay(thm.initial_state, tactics)
    n = len(walk.states) - (0 if walk.failed else 1)
    return Trajectory(
        theorem_name=thm.name,
        tactics=tuple(tactics[:n]),
        proof_states=walk.states,
        outcome=_OUTCOMES[walk.kind],
        log_pf=0.0,
        source=source,
    )


def ground_truth(thm: Theorem) -> Trajectory:
    """The theorem's ground-truth trajectory (log_r 0); raises
    InvalidGroundTruth unless every tactic applies and the last one closes
    the proof."""
    gt = trajectory_from_tactics(thm, thm.gt_proof)
    if gt.outcome != PROVED:
        raise InvalidGroundTruth(f"ground truth for {thm.name} does not prove it ({gt.outcome})")
    return gt


def replay_forward(net: PolicyNet, traj: Trajectory,
                   action_set: np.ndarray | None = None) -> float:
    """Recompute the trajectory's log P_F under the current policy at T=1.

    Uses the stored states; no environment calls. Raises ReplayDiverged if
    the stored shape cannot be consistent with any replay.
    """
    _check_shape(traj)
    mask = action_mask(action_set)
    total = 0.0
    for enc, t in zip(traj.encodings(), traj.tactics):
        logits = action_logits(net, enc)
        total += log_softmax_np(logits if mask is None else logits + mask)[ACTION_INDEX[t]]
    return float(total)


def _check_shape(traj: Trajectory) -> None:
    expect = len(traj.tactics) if traj.outcome == ENV_ERROR else len(traj.tactics) + 1
    if len(traj.proof_states) != expect or not traj.tactics:
        raise ReplayDiverged(
            f"trajectory for {traj.theorem_name!r} has {len(traj.proof_states)} "
            f"states for {len(traj.tactics)} tactics ({traj.outcome})"
        )


@dataclass
class StepMetrics:
    step: int
    mode: str
    loss: float
    mean_log_r: float
    mean_log_pf: float
    log_z: float
    env_calls: int
    wall_ms: int = 0
    val_solved: int | None = None
    grad_skipped: bool = False
    grad_norm: float = float("nan")  # pre-clip; NaN when the update was skipped


def tb_loss_value(log_rs, log_zs, log_pfs) -> float:
    """Pure trajectory-balance loss on given components (no network)."""
    log_rs = np.asarray(log_rs, dtype=np.float64)
    log_zs = np.asarray(log_zs, dtype=np.float64)
    log_pfs = np.asarray(log_pfs, dtype=np.float64)
    residuals = log_zs + log_pfs - log_rs
    return float(np.mean(residuals * residuals))


def tb_loss(batch: list[Trajectory], net: PolicyNet,
            action_set: np.ndarray | None = None) -> float:
    """Trajectory-balance loss of a batch under the current policy (value
    only; the trainer builds the same graph with gradients)."""
    tape = Tape()
    loss, _ = tb_loss_graph(tape, net, batch, action_set=action_set)
    return float(loss.value)


def tb_loss_graph(tape: Tape, net: PolicyNet, batch: list[Trajectory],
                  action_set: np.ndarray | None = None):
    """Build the TB loss graph over one taped forward.

    Returns (loss Var, info) where info holds the per-trajectory ``log_pf``
    and ``log_z`` values. Raises ReplayDiverged on a trajectory whose shape
    cannot be replayed (no tactics, or states that do not match them).
    """
    actions, seg, starts = [], [], []
    for k, traj in enumerate(batch):
        _check_shape(traj)
        starts.append(len(actions))
        actions += [ACTION_INDEX[t] for t in traj.tactics]
        seg += [k] * len(traj.tactics)
    x = np.concatenate([traj.encodings() for traj in batch])
    picked, hidden = rows_graph(tape, net.store, x, actions, action_mask(action_set))
    log_pf = tape.segment_sum(picked, seg, len(batch))
    log_z = tape.take(head_graph(tape, net.store, hidden, "wz", "bz"), starts)
    log_r = np.array([traj.log_r for traj in batch])
    residual = tape.shift(tape.add(log_z, log_pf), -log_r)
    loss = tape.mean(tape.square(residual))
    return loss, {"log_pf": log_pf.value, "log_z": log_z.value}


class GFNTrainer:
    """Runs trajectory-balance fine-tuning over a theorem list.

    Ground-truth trajectories are injected into every batch; fresh online
    rollouts are buffered; replay steps re-score stored tactics under the
    current policy without touching the environment.
    """

    def __init__(self, theorems: list[Theorem], net: PolicyNet, cfg: TrainConfig,
                 rm=None, seed: int = 0):
        if cfg.reward_mode == FULL_RM and rm is None:
            raise ValueError("full-reward mode requires a reward model")
        self.net = net
        self.cfg = cfg
        self.rm = rm
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.buffer = ReplayBuffer(cfg.buffer_capacity)
        self.step_index = 0
        # Ground-truth states and encodings never change; cache them up front.
        self._gt: dict[str, Trajectory] = {}
        for thm in theorems:
            gt = ground_truth(thm)
            gt.step_encodings = gt.encodings()
            self._gt[thm.name] = gt

    def train_step(self, thm: Theorem) -> StepMetrics:
        cfg = self.cfg
        subset = cfg.action_subset()
        use_replay = (
            cfg.replay_p > 0.0
            and self.rng.random() < cfg.replay_p
            and self.buffer.size(thm.name) > 0
        )
        if use_replay:
            batch = self.buffer.sample(thm.name, cfg.n_sampled, self.rng)
            env_calls = 0
        else:
            batch = [sample_trajectory(thm, self.net, cfg, self.rng, rm=self.rm)
                     for _ in range(cfg.n_sampled)]
            for traj in batch:
                self.buffer.add(traj)
            env_calls = sum(map(len, batch))

        if cfg.inject_gt:
            batch.append(self._gt[thm.name])

        tape = Tape()
        loss, info = tb_loss_graph(tape, self.net, batch, action_set=subset)
        loss_value, grad_norm, skipped = update(self.net.store, tape, loss, cfg.optim)
        self.step_index += 1
        return StepMetrics(
            step=self.step_index,
            mode=cfg.mode,
            loss=loss_value,
            mean_log_r=float(np.mean([t.log_r for t in batch])),
            mean_log_pf=float(np.mean(info["log_pf"])),
            log_z=float(info["log_z"][0]),
            env_calls=env_calls,
            grad_skipped=skipped,
            grad_norm=grad_norm,
        )
