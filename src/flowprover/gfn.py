"""Trajectory-balance training loop with shaped rewards and trajectory replay.

Log-reward cases by a trajectory's outcome, the ``env.StepKind`` of its
last step (alpha=8, c=88 max tactic chars, l = mean tactic chars):

    PROVED -> 0
    ERROR  -> -15 + alpha * ln((c - l) / c)
    OK     -> sum_i (1/len(t_i)) * rm_log_prob(t_i | s_{i-1})   (given a reward model)
              error branch                                      (without one)

An OK trajectory ran out of depth. ``sample_trajectories`` reads the run's
reward mode: under ``full_rm`` it scores with the reward model, under
``binary`` without one.

The trajectory-balance residual per trajectory is
``log Z(theorem) + log P_F(trajectory) - log R(trajectory)`` and the loss is
the batch mean of its square; the backward-policy term vanishes because the
history-augmented encoding makes every state single-parent. (The loss is
zero exactly at the reward-proportional optimum, which the enumeration
oracle certifies.)

A step's batch is ``N_SAMPLED`` rollouts (a tempered one at a temperature
drawn from [TEMPER_LOW, TEMPER_HIGH]) or as many replayed draws, plus the
injected ground truth. It is one taped forward. Its rows are every step of
every trajectory, stacked in batch order; log P_F is a segment sum of the
rows' picked log-probabilities, one segment per trajectory. A trajectory's
first row is its theorem's initial state with an empty history, which is
exactly the log-Z head's input, so log Z is a row ``take`` of
``hidden @ wz + bz`` at each trajectory's first row.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Iterable
from dataclasses import dataclass, field
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .corpus import MAX_PROOF_LEN, Theorem
from .env import (
    ACTION_CHARS,
    ACTIONS,
    N_ACTIONS,
    ProofState,
    StepKind,
    StepResult,
    Tactic,
    applicable_actions,
    apply_tactic,
    state_fingerprint,
)
from .nn import Tape, log_softmax_np, update
from .policy import (
    HISTORY,
    PolicyNet,
    action_logits,
    action_mask,
    draw_action,
    encode_from_parts,
    head_graph,
    rows_graph,
)

# The outcome names: a trajectory's outcome is the StepKind of its last step.
PROVED, ENV_ERROR, DEPTH_EXHAUSTED = StepKind.PROVED, StepKind.ERROR, StepKind.OK

FULL_RM = "full_rm"
BINARY = "binary"

GFN_MODES = ("gfn", "gfn_oo", "gfn_br_oo")
ALL_MODES = GFN_MODES + ("sft", "ppo")


class InvalidLength(ValueError):
    """Mean tactic length reached the cap c; the shaping log would blow up."""


class InvalidGroundTruth(ValueError):
    """A theorem's ground-truth proof does not prove it."""


# The error-branch shaping constants of the module docstring: the log reward
# of an error is ERROR_BASE + ALPHA * ln((C - l) / C), l the mean tactic length.
ALPHA = 8.0
C_MAX_TACTIC_LEN = 88.0
ERROR_BASE = -15.0

# Rollouts per online step (and draws per replay step), and the range a
# tempered rollout's temperature is drawn from, fixed for every run.
N_SAMPLED = 5
TEMPER_LOW, TEMPER_HIGH = 0.25, 1.0


@dataclass(slots=True, init=False)
class Trajectory:
    """One rollout: tactics, outcome (the ``StepKind`` of its last step:
    OK when it ran out of depth), both log scores, and the root of the
    proof tree it is a path of. Its ``nodes``, one per tactic (the node the
    tactic is taken from, which holds its state and encoding), are read
    down from the root. A trajectory known only by its states is given
    ``proof_states`` (keyword-only) instead of a root: the state before
    each tactic, then the state reached unless the outcome is ERROR. They
    make a stand-alone tree, with no environment call. ValueError unless
    the outcome is a ``StepKind``, the states fit it, there is at least one
    tactic, and the tactics stay in the tree from its root down."""

    theorem_name: str
    tactics: tuple[Tactic, ...]
    outcome: StepKind
    log_pf: float
    log_r: float
    root: ProofNode = field(repr=False, compare=False)

    def __init__(self, theorem_name: str, tactics: tuple[Tactic, ...], outcome: StepKind,
                 log_pf: float, log_r: float = 0.0, root: ProofNode | None = None,
                 *, proof_states: tuple[ProofState, ...] | None = None):
        if not isinstance(outcome, StepKind):
            raise ValueError(f"a trajectory's outcome is a StepKind, got {outcome!r}")
        if (root is None) == (proof_states is None):
            raise ValueError("a trajectory takes exactly one of root and proof_states")
        if not tactics:
            raise ValueError(f"trajectory for {theorem_name!r} needs at least one tactic")
        if proof_states is not None:
            expect = len(tactics) if outcome is StepKind.ERROR else len(tactics) + 1
            if len(proof_states) != expect:
                raise ValueError(f"trajectory for {theorem_name!r} has {len(proof_states)} "
                                 f"states for {len(tactics)} tactics ({outcome.value})")
            root = node = ProofNode(proof_states[0], (), proof_states[0])
            for i in range(1, len(tactics)):
                child = ProofNode(proof_states[0], tuple(tactics[:i]), proof_states[i])
                node.children[tactics[i - 1]] = node = child
        self.theorem_name, self.tactics, self.outcome = theorem_name, tactics, outcome
        self.log_pf, self.log_r, self.root = log_pf, log_r, root
        if root.history:
            raise ValueError(f"trajectory for {theorem_name!r} starts below its tree's root")
        try:
            self.nodes  # the walk down the tree
        except KeyError:
            raise ValueError(f"the tactics of trajectory {theorem_name!r} leave its "
                             "tree") from None

    @property
    def nodes(self) -> tuple[ProofNode, ...]:
        """The tree nodes its tactics are taken from, from the root down."""
        node, nodes = self.root, [self.root]
        for tactic in self.tactics[:-1]:
            node = node.children[tactic]
            nodes.append(node)
        return tuple(nodes)

    def encoding_rows(self) -> list[np.ndarray]:
        """One HISTORY encoding per tactic, of the state it is taken from."""
        return [node.encoding() for node in self.nodes]

    def __len__(self) -> int:
        return len(self.tactics)


class ProofNode:
    """One tactic prefix of a theorem: the state it reaches and what the
    trainers, search and the oracle read of it, each made on first use and
    read-only afterwards: its HISTORY encoding, its applicable actions, its
    dedupe key (``env.state_fingerprint``), the ``apply_tactic`` result of
    each action tried from it, and the node of each one that applies, both
    by action index."""

    __slots__ = ("initial", "history", "state", "_enc", "_applicable",
                 "_fingerprint", "results", "children")

    def __init__(self, initial: ProofState, history: tuple[Tactic, ...], state: ProofState):
        self.initial = initial
        self.history = history
        self.state = state
        self._enc: np.ndarray | None = None
        self._applicable: tuple[int, ...] | None = None
        self._fingerprint: int | None = None
        self.results: dict[int, StepResult] = {}  # by action index
        self.children: dict[int, ProofNode] = {}

    def encoding(self, mode: str = HISTORY) -> np.ndarray:
        """The state's encoding under ``mode``. Only the HISTORY one, which
        every trainer reads, is kept; a HISTORY_LESS one is made afresh on
        each call (one search asks each node for it once)."""
        if mode != HISTORY:
            return encode_from_parts(self.initial, self.history, self.state, mode)
        if self._enc is None:
            self._enc = encode_from_parts(self.initial, self.history, self.state, mode)
            self._enc.flags.writeable = False
        return self._enc

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

    def apply(self, action: int) -> StepResult:
        """``apply_tactic``'s result of action ``action`` (an index into
        ACTIONS) from here, recorded on first use."""
        result = self.results.get(action)
        if result is None:
            result = self.results[action] = apply_tactic(self.state, ACTIONS[action])
        return result

    def child(self, action: int) -> ProofNode:
        """The node ``action`` reaches from here, made on first use; the
        action must have been applied (``apply``) and not failed. A proved
        action reaches the goal-less ``ProofState(())``."""
        node = self.children.get(action)
        if node is None:
            node = self.children[action] = ProofNode(
                self.initial, self.history + (ACTIONS[action],),
                self.results[action].state or ProofState(()))
        return node


class ProofTree:
    """The tactic prefixes of one theorem reached so far, from ``root`` (the
    initial state, empty history) down by tactic. It holds no net and no
    action set, so one tree serves every batch, or every validation search,
    of a run, and each oracle walk reads a fresh one: each distinct prefix
    is encoded once and each (prefix, tactic) applied once. A known tactic
    list, rollouts, search and the oracle all apply tactics through
    ``ProofNode.apply``, so every result in it is ``apply_tactic``'s."""

    def __init__(self, thm: Theorem):
        self.thm = thm
        self.root = ProofNode(thm.initial_state, (), thm.initial_state)


def error_branch_log_reward(tactics) -> float:
    return error_log_reward(sum(ACTION_CHARS[t] for t in tactics), len(tactics))


def error_log_reward(total_chars, n_tactics):
    """The error-branch log reward of ``n_tactics`` tactics whose rendered
    lengths sum to ``total_chars``. The mean length is one division of exact
    integers, so a caller that keeps the running sum gets the same bits.
    Either argument may be an integer array (they broadcast): the result is
    then the array of the same rewards, elementwise the same bits. The
    branch is the same under either reward mode."""
    if _any(n_tactics < 1):
        raise ValueError("trajectory must contain at least one tactic")
    l = total_chars / n_tactics
    c = C_MAX_TACTIC_LEN
    if _any(l >= c):
        raise InvalidLength(f"mean tactic length {np.max(l)} >= cap {c}")
    log_ratio = np.log((c - l) / c)
    if not isinstance(log_ratio, np.ndarray):
        log_ratio = float(log_ratio)
    return ERROR_BASE + ALPHA * log_ratio


def _any(flags) -> bool:
    """A flag, or whether any entry of an array of flags is set."""
    return bool(flags.any()) if isinstance(flags, np.ndarray) else flags


def log_reward(traj: Trajectory, rm=None) -> float:
    """Shaped log reward of a complete trajectory (policy-independent): a
    depth-exhausted one earns partial credit exactly when given a reward
    model ``rm``, and the error branch without one."""
    if traj.outcome is StepKind.PROVED:
        return 0.0
    if traj.outcome is StepKind.ERROR or rm is None:
        return error_branch_log_reward(traj.tactics)
    total = 0.0
    for node, t in zip(traj.nodes, traj.tactics):
        total += rm.score(node.state, t) / ACTION_CHARS[t]
    return total


def check_action_set(indices) -> tuple[int, ...]:
    """The indices as ints; ValueError unless they are distinct integers
    (numpy's and tactics too, never bools) in [0, 36), at least one."""
    given = tuple(indices) if isinstance(indices, Iterable) else indices
    if (not isinstance(given, tuple) or not given
            or not all(isinstance(i, (int, np.integer)) and not isinstance(i, bool)
                       and 0 <= i < N_ACTIONS for i in given)
            or len(set(given)) != len(given)):
        raise ValueError(f"action set must be distinct indices in [0, {N_ACTIONS}), "
                         f"at least one; got {given}")
    return tuple(map(int, given))


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


# By a field's annotation: the parser of a config-file value, and the type
# a value given in code must have (a bool is no number).
_PARSE = {"float": (float, Real), "int": (int, Integral), "bool": (_parse_bool, bool),
          "str": (str, str), "tuple[int, ...] | None": (parse_action_set, object)}


def check_field_types(config) -> None:
    """ValueError unless every field of the dataclass ``config`` holds a
    value of its annotation's type (a bool is no number)."""
    for f in dataclasses.fields(config):
        value, kind = getattr(config, f.name), _PARSE[f.type][1]
        if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
            raise ValueError(f"{f.name} must be of type {f.type}, got {value!r}")


def _format(value) -> str:
    if isinstance(value, tuple):
        return ",".join(map(str, value))
    return "none" if value is None else str(value)


@dataclass
class TrainConfig:
    """A training run's settings. Every field's type (by its annotation; a
    bool is no number) and value are checked when the config is made
    (ValueError), and the settings a mode forces are applied: the
    online-only modes never replay, gfn_br_oo trains on the binary reward,
    and ppo never tempers its rollouts. ``max_depth``, where rollouts stop,
    defaults to ``corpus.MAX_PROOF_LEN``, the longest template proof.
    ``write`` and ``read`` are the ``--config`` file format. What no run
    sets is a constant: ``N_SAMPLED``, ``TEMPER_LOW``/``TEMPER_HIGH``, the
    replay buffer's capacity and ``nn.CLIP_NORM``/``nn.WEIGHT_DECAY``."""

    lr: float = 1e-4
    replay_p: float = 0.5
    temper_p: float = 0.666
    max_depth: int = MAX_PROOF_LEN
    mode: str = "gfn"  # gfn | gfn_oo | gfn_br_oo | sft | ppo
    inject_gt: bool = True
    reward_mode: str = FULL_RM
    action_set: tuple[int, ...] | None = None  # as oracle --action-set's indices; a demo sets one

    def __post_init__(self):
        check_field_types(self)
        for name, ok, rule in (
            ("mode", self.mode in ALL_MODES, f"one of {', '.join(ALL_MODES)}"),
            ("reward_mode", self.reward_mode in (FULL_RM, BINARY), f"{FULL_RM} or {BINARY}"),
            ("lr", 0 < self.lr < np.inf, "positive and finite"),
            ("replay_p", 0 <= self.replay_p <= 1, "in [0, 1]"),
            ("temper_p", 0 <= self.temper_p <= 1, "in [0, 1]"),
            ("max_depth", self.max_depth >= 1, "at least 1"),
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
        if self.mode == "ppo":
            self.temper_p = 0.0  # on-policy rollouts at T=1

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
        starts a comment) whose keys are the fields, each at most once, with
        ``overrides`` on top. Raises ValueError naming ``path:line`` for a
        bad or repeated line, or ``path`` for a bad combination."""
        types = {f.name: f.type for f in dataclasses.fields(cls)}
        values, first_line = {}, {}
        for lineno, raw in enumerate(Path(path).read_text().split("\n"), start=1):
            key, eq, value = (part.strip() for part in raw.split("#", 1)[0].partition("="))
            if not (key or eq or value):
                continue
            if not eq:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            if key not in types:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in first_line:
                raise ValueError(f"{path}:{lineno}: config key {key!r} repeats line "
                                 f"{first_line[key]}")
            first_line[key] = lineno
            try:
                values[key] = _PARSE[types[key]][0](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from None
        try:
            return cls(**{**values, **overrides})
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


class ReplayBuffer:
    """Per-theorem FIFO buffers of finished trajectories, each kept as its
    tree path: (leaf, tactic, outcome, log R), the node its last tactic is
    taken from, that tactic, the trajectory's outcome and its log reward.
    Later changes to a rollout do not reach its entry. A theorem's buffer
    is a plain list, oldest first, of at most ``capacity`` entries: a full
    one drops its oldest before it appends. ``sample`` rebuilds each drawn
    trajectory on the theorem's tree root, kept from its first entry, so
    its nodes are the same objects, whose encodings are made already. The
    loss graph recomputes log P_F, so a rebuilt trajectory's log_pf is 0.0,
    as for the ground truth."""

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._buffers: dict[str, list[tuple[ProofNode, Tactic, StepKind, float]]] = {}
        self._roots: dict[str, ProofNode] = {}
        self.reads = 0

    def add(self, traj: Trajectory) -> None:
        """Keep ``traj`` as its tree path. ValueError when its tree is not
        the one of the theorem's earlier entries."""
        name = traj.theorem_name
        if self._roots.setdefault(name, traj.root) is not traj.root:
            raise ValueError(f"trajectory for {name!r} is not a path of its theorem's tree")
        buf = self._buffers.setdefault(name, [])
        if len(buf) >= self.capacity:
            del buf[0]
        buf.append((traj.nodes[-1], traj.tactics[-1], traj.outcome, float(traj.log_r)))

    def size(self, theorem_name: str) -> int:
        return len(self._buffers.get(theorem_name, ()))

    def sample(self, theorem_name: str, k: int, rng: np.random.Generator) -> list[Trajectory]:
        """Uniform with replacement."""
        buf = self._buffers[theorem_name]
        picks = rng.integers(0, len(buf), size=k)
        self.reads += int(k)
        root = self._roots[theorem_name]
        return [Trajectory(theorem_name, leaf.history + (action,), outcome, 0.0, log_r, root)
                for leaf, action, outcome, log_r in (buf[i] for i in picks.tolist())]


def sample_trajectories(tree: ProofTree, net: PolicyNet, cfg: TrainConfig,
                        rng: np.random.Generator, n: int, rm=None) -> list[Trajectory]:
    """``n`` rollouts of the policy from the tree's root.

    Each rollout is tempered with probability ``temper_p`` (T uniform in
    [TEMPER_LOW, TEMPER_HIGH]); the accumulated log_pf is always the
    temperature-1 policy probability. A rollout ends on proof completion,
    on environment error, or at max_depth. The masked logits of each prefix
    the batch reaches are computed once, for this call only, since the net
    changes between batches and the tree does not.

    This is where the run's reward mode is read: under ``full_rm`` each
    rollout is scored with ``rm`` (ValueError, before any draw, without
    one); under ``binary`` ``rm`` is ignored.
    """
    if cfg.reward_mode == BINARY:
        rm = None
    elif rm is None:
        raise ValueError(f"the {FULL_RM} reward needs a reward model for partial credit")
    mask = action_mask(cfg.action_set)
    scores: dict[ProofNode, tuple[np.ndarray, np.ndarray]] = {}
    batch = []
    for _ in range(n):
        temperature = (float(rng.uniform(TEMPER_LOW, TEMPER_HIGH))
                       if rng.random() < cfg.temper_p else 1.0)
        node, tactics, log_pf = tree.root, [], 0.0
        for _ in range(cfg.max_depth):
            score = scores.get(node)
            if score is None:
                logits = action_logits(net, node.encoding())
                if mask is not None:
                    logits = logits + mask
                score = scores[node] = (logits, log_softmax_np(logits))
            action, step_lp = draw_action(*score, temperature, rng)
            log_pf += step_lp
            tactics.append(ACTIONS[action])
            result = node.apply(action)
            if not result.ok:
                break
            node = node.child(action)

        traj = Trajectory(tree.thm.name, tuple(tactics), result.kind, log_pf, root=tree.root)
        traj.log_r = log_reward(traj, rm)
        batch.append(traj)
    return batch


def sample_trajectory(thm: Theorem, net: PolicyNet, cfg: TrainConfig,
                      rng: np.random.Generator, rm=None) -> Trajectory:
    """One rollout of ``thm`` (see ``sample_trajectories``) in a fresh tree."""
    return sample_trajectories(ProofTree(thm), net, cfg, rng, 1, rm=rm)[0]


def _walk(tree: ProofTree, tactics) -> Trajectory:
    """The trajectory (log_pf unset) of ``tactics`` applied down ``tree``
    from its root by ``ProofNode.apply`` and ``child``; it ends with the
    first that fails, if one does, and a tactic after the close fails with
    NO_GOALS on the goal-less state it reaches. ValueError if none given."""
    if not tactics:
        raise ValueError(f"trajectory for {tree.thm.name!r} needs at least one tactic")
    node, n = tree.root, len(tactics)
    for i, tactic in enumerate(tactics, start=1):
        result = node.apply(tactic)
        if result.failed or i == n:
            break
        node = node.child(tactic)
    return Trajectory(tree.thm.name, tuple(tactics[:i]), result.kind, 0.0, root=tree.root)


def trajectory_from_tactics(thm: Theorem, tactics) -> Trajectory:
    """The trajectory of a known tactic sequence on a fresh tree: its
    tactics up to and including the first that fails (``_walk``)."""
    return _walk(ProofTree(thm), tactics)


def ground_truth(tree: ProofTree) -> Trajectory:
    """The ground-truth trajectory of the tree's theorem (log_r 0), walked
    through the tree's nodes, so the tree applies each of its tactics once.
    Raises InvalidGroundTruth when a tactic fails, when the proof stays
    open, or when a tactic follows the one that closes it."""
    thm = tree.thm
    if not thm.gt_proof:
        raise InvalidGroundTruth(f"ground truth for {thm.name} is empty")
    traj = _walk(tree, thm.gt_proof)
    if traj.outcome is not StepKind.PROVED:
        raise InvalidGroundTruth(f"ground truth for {thm.name} does not prove it: tactic "
                                 f"{len(traj)} of {len(thm.gt_proof)} gives {traj.outcome.value}")
    return traj


@dataclass(slots=True)
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
    and ``log_z`` values.
    """
    actions, seg, starts = [], [], []
    for k, traj in enumerate(batch):
        starts.append(len(actions))
        actions += traj.tactics
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
    current policy without touching the environment. With ``inject_gt``, a
    ground truth longer than ``max_depth``, which no rollout can take, is
    refused when the trainer is made (ValueError naming the theorem).
    """

    def __init__(self, theorems: list[Theorem], net: PolicyNet, cfg: TrainConfig,
                 rm=None, seed: int = 0):
        self.net = net
        self.cfg = cfg.for_reward_model(rm is not None)
        self.rm = rm
        if self.cfg.inject_gt:
            for thm in theorems:
                if len(thm.gt_proof) > self.cfg.max_depth:
                    raise ValueError(f"ground truth of {thm.name} has {len(thm.gt_proof)} "
                                     f"tactics, more than max_depth {self.cfg.max_depth}")
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.buffer = ReplayBuffer()
        self.step_index = 0
        # One tree per theorem for the run, holding its ground truth's walk.
        self._trees = {thm.name: ProofTree(thm) for thm in theorems}
        self._gt = {name: ground_truth(tree) for name, tree in self._trees.items()}

    def train_step(self, thm: Theorem) -> StepMetrics:
        cfg = self.cfg
        use_replay = (
            cfg.replay_p > 0.0
            and self.rng.random() < cfg.replay_p
            and self.buffer.size(thm.name) > 0
        )
        if use_replay:
            batch = self.buffer.sample(thm.name, N_SAMPLED, self.rng)
            env_calls = 0
        else:
            batch = sample_trajectories(self._trees[thm.name], self.net, cfg, self.rng,
                                        N_SAMPLED, rm=self.rm)
            for traj in batch:
                self.buffer.add(traj)
            env_calls = sum(map(len, batch))

        if cfg.inject_gt:
            batch.append(self._gt[thm.name])

        tape = Tape()
        loss, info = tb_loss_graph(tape, self.net, batch, action_set=cfg.action_set)
        loss_value, grad_norm, skipped = update(self.net.store, tape, loss, cfg.lr)
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
