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
from pathlib import Path

import numpy as np

from .corpus import Theorem
from .env import (
    ACTION_INDEX,
    ACTIONS,
    ProofState,
    StepKind,
    StepResult,
    Tactic,
    applicable_actions,
    apply_tactic,
    replay,
    state_fingerprint,
)
from .nn import OptimConfig, Tape, log_softmax_np, update
from .policy import (
    ENC_DIM,
    HISTORY,
    HISTORY_LESS,
    PolicyNet,
    action_logits,
    action_mask,
    draw_action,
    encode_from_parts,
    head_graph,
    rows_graph,
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
    did not end in an environment error. ``nodes`` holds, for a trajectory
    walked in a ProofTree, the node each tactic is taken from; their rows
    are the encodings. A trajectory without nodes is encoded from its
    states on use.
    """

    theorem_name: str
    tactics: tuple[Tactic, ...]
    proof_states: tuple[ProofState, ...]
    outcome: str
    log_pf: float
    log_r: float = 0.0
    source: str = "online"
    nodes: tuple[ProofNode, ...] | None = field(default=None, repr=False, compare=False)

    @property
    def initial_state(self) -> ProofState:
        return self.proof_states[0]

    def encoding_rows(self) -> list[np.ndarray]:
        """One HISTORY encoding per tactic, of the state it is taken from."""
        if self.nodes is not None:
            return [node.encoding() for node in self.nodes]
        return [encode_from_parts(self.initial_state, self.tactics[:i], self.proof_states[i],
                                  HISTORY) for i in range(len(self.tactics))]

    def encodings(self) -> np.ndarray:
        return np.stack(self.encoding_rows()) if self.tactics else np.zeros((0, ENC_DIM))

    def __len__(self) -> int:
        return len(self.tactics)


class ProofNode:
    """One tactic prefix of a theorem: the state it reaches and what the
    trainers and search read of it, each made on first use and read-only
    afterwards: its encoding under either mode, its applicable actions, its
    dedupe key (``env.state_fingerprint``), the ``apply_tactic`` result of
    each action tried from it, and the node of each one that applies, both
    by action index."""

    __slots__ = ("initial", "history", "state", "_enc", "_enc_less", "_applicable",
                 "_fingerprint", "results", "children")

    def __init__(self, initial: ProofState, history: tuple[Tactic, ...], state: ProofState):
        self.initial = initial
        self.history = history
        self.state = state
        self._enc: np.ndarray | None = None
        self._enc_less: np.ndarray | None = None
        self._applicable: tuple[int, ...] | None = None
        self._fingerprint: int | None = None
        self.results: dict[int, StepResult] = {}  # by action index
        self.children: dict[int, ProofNode] = {}

    def encoding(self, mode: str = HISTORY) -> np.ndarray:
        if mode == HISTORY:
            enc = self._enc
        elif mode == HISTORY_LESS:
            enc = self._enc_less
        else:
            raise ValueError(f"unknown encoding mode {mode!r}")
        if enc is None:
            enc = encode_from_parts(self.initial, self.history, self.state, mode)
            enc.flags.writeable = False
            if mode == HISTORY:
                self._enc = enc
            else:
                self._enc_less = enc
        return enc

    def applicable(self) -> tuple[int, ...]:
        """``env.applicable_actions`` of the state."""
        if self._applicable is None:
            self._applicable = applicable_actions(self.state)
        return self._applicable

    def fingerprint(self) -> int:
        """``env.state_fingerprint`` of the state: search's dedupe key."""
        if self._fingerprint is None:
            self._fingerprint = state_fingerprint(self.state)
        return self._fingerprint

    def apply(self, action: int, known: StepResult | None = None) -> StepResult:
        """The result of action ``action`` (an index into ACTIONS) from
        here, recorded on first use: the ``known`` one when the caller has
        it, else ``apply_tactic``'s."""
        result = self.results.get(action)
        if result is None:
            if known is None:
                known = apply_tactic(self.state, ACTIONS[action])
            result = self.results[action] = known
        return result

    def child(self, action: int) -> ProofNode:
        """The node ``action`` reaches from here, made on first use; the
        action must have been applied (``apply``) and be OK."""
        node = self.children.get(action)
        if node is None:
            node = self.children[action] = ProofNode(
                self.initial, self.history + (ACTIONS[action],), self.results[action].state)
        return node


class ProofTree:
    """The tactic prefixes of one theorem reached so far, from ``root`` (the
    initial state, empty history) down by tactic. It holds no net and no
    action set, so one tree serves every batch, or every validation search,
    of a run: each distinct prefix is encoded once and each (prefix,
    tactic) applied once."""

    def __init__(self, thm: Theorem):
        self.thm = thm
        self.root = ProofNode(thm.initial_state, (), thm.initial_state)

    def add_walk(self, tactics, states) -> tuple[ProofNode, ...]:
        """Record a walk whose every tactic applies, from its states (the
        state before each tactic, then the one reached, as ``env.replay``
        gives them), so the tree applies none of its tactics again. Returns
        the node each tactic is taken from."""
        if len(states) != len(tactics) + 1:
            raise ValueError(f"{len(tactics)} applied tactics need {len(tactics) + 1} states")
        node, nodes = self.root, []
        for tactic, reached in zip(tactics, states[1:]):
            nodes.append(node)
            action = ACTION_INDEX[tactic]
            if reached.goals:
                node.apply(action, StepResult(StepKind.OK, state=reached))
                node = node.child(action)
            else:
                node.apply(action, StepResult(StepKind.PROVED))
        return tuple(nodes)


# Rendered length of every action, by action index and by tactic, built
# once. Lengths are small exact integers, so sums over them are exact.
ACTION_CHARS: tuple[int, ...] = tuple(len(t.render()) for t in ACTIONS)
_TACTIC_CHARS: dict[Tactic, int] = dict(zip(ACTIONS, ACTION_CHARS))


def _tactic_chars(tactic) -> int:
    """Rendered length; from the table for every tactic of the action space."""
    n = _TACTIC_CHARS.get(tactic)
    return len(tactic.render()) if n is None else n


def error_branch_log_reward(tactics, spec: RewardSpec) -> float:
    return error_log_reward(sum(map(_tactic_chars, tactics)), len(tactics), spec)


def error_log_reward(total_chars, n_tactics, spec: RewardSpec):
    """The error-branch log reward of ``n_tactics`` tactics whose rendered
    lengths sum to ``total_chars``. The mean length is one division of exact
    integers, so a caller that keeps the running sum gets the same bits.
    Either argument may be an integer array (they broadcast): the result is
    then the array of the same rewards, elementwise the same bits."""
    if _any(n_tactics < 1):
        raise ValueError("trajectory must contain at least one tactic")
    l = total_chars / n_tactics
    c = spec.c_max_tactic_len
    if _any(l >= c):
        raise InvalidLength(f"mean tactic length {np.max(l)} >= cap {c}")
    log_ratio = np.log((c - l) / c)
    if not isinstance(log_ratio, np.ndarray):
        log_ratio = float(log_ratio)
    return spec.error_base + spec.alpha * log_ratio


def _any(flags) -> bool:
    """A flag, or whether any entry of an array of flags is set."""
    return bool(flags.any()) if isinstance(flags, np.ndarray) else flags


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


def check_action_set(indices) -> tuple[int, ...]:
    """The indices as a tuple; ValueError unless they are distinct action
    indices in [0, 36), at least one."""
    out = tuple(indices)
    bad = [i for i in out if not 0 <= i < len(ACTIONS)]
    if not out or bad or len(set(out)) != len(out):
        raise ValueError(f"action set must be distinct indices in [0, {len(ACTIONS)}), "
                         f"at least one; got {out}")
    return out


def parse_action_set(text: str) -> tuple[int, ...] | None:
    """``none`` (the full action space) or comma-separated action indices."""
    return None if text == "none" else check_action_set(int(part) for part in text.split(","))


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


# A config-file value's parser, by its field's annotation.
_PARSE = {"float": float, "int": int, "bool": _parse_bool, "str": str,
          "tuple[int, ...] | None": parse_action_set}


def _format(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return "none" if value is None else str(value)


@dataclass
class TrainConfig:
    """A training run's settings. Every field is checked when the config is
    made (ValueError), and the settings a mode forces are applied: the
    online-only modes never replay, and gfn_br_oo trains on the binary
    reward. ``write`` and ``read`` are the ``--config`` file format."""

    lr: float = 1e-4
    clip_norm: float = 0.5
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
        for name, ok, rule in (
            ("mode", self.mode in ALL_MODES, f"one of {', '.join(ALL_MODES)}"),
            ("reward_mode", self.reward_mode in (FULL_RM, BINARY), f"{FULL_RM} or {BINARY}"),
            ("lr", 0 < self.lr < np.inf, "positive and finite"),
            ("clip_norm", 0 < self.clip_norm < np.inf, "positive and finite"),
            ("weight_decay", 0 <= self.weight_decay < np.inf, "non-negative and finite"),
            ("replay_p", 0 <= self.replay_p <= 1, "in [0, 1]"),
            ("temper_p", 0 <= self.temper_p <= 1, "in [0, 1]"),
            ("temper_low", 0 < self.temper_low <= self.temper_high, "in (0, temper_high]"),
            ("temper_high", self.temper_high < np.inf, "finite"),
            ("n_sampled", self.n_sampled >= 1, "at least 1"),
            ("max_depth", self.max_depth >= 1, "at least 1"),
            ("buffer_capacity", self.buffer_capacity >= 1, "at least 1"),
        ):
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")
        if self.action_set is not None:
            if self.mode not in GFN_MODES:
                raise ValueError(f"action_set applies to the GFN modes only, not {self.mode}")
            self.action_set = check_action_set(self.action_set)
        if self.mode in ("gfn_oo", "gfn_br_oo"):
            self.replay_p = 0.0
        if self.mode == "gfn_br_oo":
            self.reward_mode = BINARY

    def for_reward_model(self, present: bool) -> TrainConfig:
        """The config a run trains on with (``present``) or without a reward
        model. A GFN mode under the full reward needs one (ValueError); PPO
        without one trains on the binary reward."""
        if present or self.reward_mode == BINARY or self.mode == "sft":
            return self
        if self.mode == "ppo":
            return dataclasses.replace(self, reward_mode=BINARY)
        raise ValueError(f"mode {self.mode} under the {FULL_RM} reward needs a trained "
                         "reward model (--rm)")

    def write(self, path) -> None:
        """Write the config as a ``--config`` file: one ``key = value`` line
        per field, which ``read`` turns back into an equal config."""
        Path(path).write_text("".join(f"{f.name} = {_format(getattr(self, f.name))}\n"
                                      for f in dataclasses.fields(self)))

    @classmethod
    def read(cls, path, **overrides) -> TrainConfig:
        """The config of a ``--config`` file: ``key = value`` lines (``#``
        starts a comment) whose keys are the fields, with ``overrides`` on
        top. Raises ValueError naming ``path:line`` for a bad line, or
        ``path`` for a bad combination."""
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        values = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            key, eq, value = (part.strip() for part in raw.split("#", 1)[0].partition("="))
            if not (key or eq or value):
                continue
            if not eq or key not in types:
                problem = (f"unknown config key {key!r}" if eq
                           else f"expected key=value, got {raw!r}")
                raise ValueError(f"{path}:{lineno}: {problem}")
            try:
                values[key] = _PARSE[types[key]](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
        try:
            return cls(**{**values, **overrides})
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None

    @property
    def reward_spec(self) -> RewardSpec:
        return RewardSpec(mode=self.reward_mode)

    @property
    def optim(self) -> OptimConfig:
        return OptimConfig(lr=self.lr, clip_norm=self.clip_norm,
                           weight_decay=self.weight_decay)


class ReplayBuffer:
    """Per-theorem FIFO ring buffers of finished trajectories. The loss graph
    recomputes log P_F, so the stored log_pf is never read; an entry keeps
    its tree nodes, whose encodings are made already."""

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._buffers: dict[str, deque[Trajectory]] = {}
        self.reads = 0

    def add(self, traj: Trajectory) -> None:
        buf = self._buffers.setdefault(traj.theorem_name, deque(maxlen=self.capacity))
        buf.append(dataclasses.replace(traj, source="replay"))

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


def sample_trajectories(tree: ProofTree, net: PolicyNet, cfg: TrainConfig,
                        rng: np.random.Generator, n: int, rm=None) -> list[Trajectory]:
    """``n`` rollouts of the policy from the tree's root.

    Each rollout is tempered with probability ``temper_p`` (T uniform in
    [temper_low, temper_high]); the accumulated log_pf is always the
    temperature-1 policy probability. A rollout ends on proof completion,
    on environment error, or at max_depth. The masked logits of each prefix
    the batch reaches are computed once, for this call only, since the net
    changes between batches and the tree does not.
    """
    mask = action_mask(cfg.action_set)
    scores: dict[ProofNode, tuple[np.ndarray, np.ndarray]] = {}
    batch = []
    for _ in range(n):
        temperature = (float(rng.uniform(cfg.temper_low, cfg.temper_high))
                       if rng.random() < cfg.temper_p else 1.0)
        node, nodes, tactics, visited = tree.root, [], [], [tree.root.state]
        log_pf, outcome = 0.0, DEPTH_EXHAUSTED
        for _ in range(cfg.max_depth):
            score = scores.get(node)
            if score is None:
                logits = action_logits(net, node.encoding())
                if mask is not None:
                    logits = logits + mask
                score = scores[node] = (logits, log_softmax_np(logits))
            action, step_lp = draw_action(*score, temperature, rng)
            log_pf += step_lp
            nodes.append(node)
            tactics.append(ACTIONS[action])
            result = node.apply(action)
            if result.proved:
                visited.append(ProofState(()))
                outcome = PROVED
                break
            if result.failed:
                outcome = ENV_ERROR
                break
            node = node.child(action)
            visited.append(node.state)

        traj = Trajectory(tree.thm.name, tuple(tactics), tuple(visited), outcome, log_pf,
                          nodes=tuple(nodes))
        traj.log_r = log_reward(traj, cfg.reward_spec, rm=rm)
        batch.append(traj)
    return batch


def sample_trajectory(thm: Theorem, net: PolicyNet, cfg: TrainConfig,
                      rng: np.random.Generator, rm=None) -> Trajectory:
    """One rollout of ``thm`` (see ``sample_trajectories``) in a fresh tree."""
    return sample_trajectories(ProofTree(thm), net, cfg, rng, 1, rm=rm)[0]


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
    # tactic steps of the step's sampled trajectories (0 on a replay step);
    # the sampler applies each distinct (prefix, tactic) of the run once
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
    x = np.stack([row for traj in batch for row in traj.encoding_rows()])
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
        self.net = net
        self.cfg = cfg.for_reward_model(rm is not None)
        self.rm = rm
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.buffer = ReplayBuffer(cfg.buffer_capacity)
        self.step_index = 0
        # One tree per theorem for the run, holding its ground truth's walk.
        self._trees: dict[str, ProofTree] = {}
        self._gt: dict[str, Trajectory] = {}
        for thm in theorems:
            tree = self._trees[thm.name] = ProofTree(thm)
            gt = self._gt[thm.name] = ground_truth(thm)
            gt.nodes = tree.add_walk(gt.tactics, gt.proof_states)

    def train_step(self, thm: Theorem) -> StepMetrics:
        cfg = self.cfg
        use_replay = (
            cfg.replay_p > 0.0
            and self.rng.random() < cfg.replay_p
            and self.buffer.size(thm.name) > 0
        )
        if use_replay:
            batch = self.buffer.sample(thm.name, cfg.n_sampled, self.rng)
            env_calls = 0
        else:
            batch = sample_trajectories(self._trees[thm.name], self.net, cfg, self.rng,
                                        cfg.n_sampled, rm=self.rm)
            for traj in batch:
                self.buffer.add(traj)
            env_calls = sum(map(len, batch))

        if cfg.inject_gt:
            batch.append(self._gt[thm.name])

        tape = Tape()
        loss, info = tb_loss_graph(tape, self.net, batch, action_set=cfg.action_set)
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
