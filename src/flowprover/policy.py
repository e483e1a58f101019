"""Forward policy over the 36-action space.

States are encoded as 164-dim feature vectors: 64 hashed current-goal
features, 64 identical features of the theorem's initial state, and 36
per-action history counts. Including the initial state and the tactic
history makes distinct tactic prefixes encode distinctly, so the search
graph is a tree and the backward policy contributes nothing to the
trajectory-balance residual. The history-less variant (used by the reward
model and for base-model evaluation) zeroes the last 100 dims.

Each feature token (a formula node under its prefix, a count, a flag)
hashes to one of 64 bins. The encoder reads each token's bin from small
tables keyed by prefix and connective class or atom name, filled on first
use and bounded by the grammar, walks each formula once, and counts the
bins with one ``np.bincount``. The counts are integers, so the float64
vector is exact.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Theorem
from .env import ACTION_INDEX, N_ACTIONS, ProofState, Tactic
from .formulas import Atom, Formula, Implies
from .nn import (
    MLP_PARAMS,
    ParamStore,
    Tape,
    Var,
    mlp_forward,
    mlp_forward_np,
    mlp_params,
    softmax_np,
)

CUR_DIM = 64
INIT_DIM = 64
HIST_DIM = N_ACTIONS
ENC_DIM = CUR_DIM + INIT_DIM + HIST_DIM  # 164

HISTORY = "history"
HISTORY_LESS = "history_less"

_HASH_PERSON = b"featmap1"  # fixed seed for the feature hash


@functools.cache  # tokens come from a bounded feature grammar
def _bin(token: str) -> int:
    digest = hashlib.blake2b(token.encode(), digest_size=8, person=_HASH_PERSON).digest()
    return int.from_bytes(digest, "big") % CUR_DIM


class _Bins(dict):
    """The bin of the token ``token(key)`` for each key, filled on first
    use. Keys are connective classes, atom names and small counts, so a
    table is bounded by the formula grammar, not by how many states or
    formulas are encoded."""

    def __init__(self, token):
        super().__init__()
        self.token = token

    def __missing__(self, key) -> int:
        b = self[key] = _bin(self.token(key))
        return b


class _Prefix:
    """The bin tables of one formula's tokens: the target's (``g0:tgt``) or
    the k-th hypothesis's (``g0:h<k>``)."""

    def __init__(self, prefix: str):
        self.nodes = _Bins(lambda key: f"{prefix}:atom={key}" if isinstance(key, str)
                           else f"{prefix}:conn={key.__name__}")
        self.root = _Bins(lambda cls: f"{prefix}:root={cls.__name__}")
        self.eq_tgt = _bin(f"{prefix}:eq_tgt")
        self.concl_eq_tgt = _bin(f"{prefix}:concl_eq_tgt")


_N_GOALS = _Bins(lambda n: f"n_goals={n}")
_N_HYPS = _Bins(lambda n: f"g0:n_hyps={n}")
_TGT_DEPTH = _Bins(lambda d: f"g0:tgt:depth={d}")
_TGT = _Prefix("g0:tgt")
_HYPS: list[_Prefix] = []  # hypothesis k's tables at index k - 1, grown on demand
_MORE_GOAL = _bin("g+:goal")
_MORE_ROOT = _Bins(lambda cls: f"g+:tgt:root={cls.__name__}")


def _formula_bins(nodes: _Bins, f: Formula, bins: list[int]) -> int:
    """Append the bin of each node of ``f`` to ``bins``: an atom by its
    name, a connective by its class. Returns the depth of ``f``."""
    if type(f) is Atom:
        bins.append(nodes[f.name])
        return 1
    bins.append(nodes[type(f)])
    lhs = _formula_bins(nodes, f.lhs, bins)
    rhs = _formula_bins(nodes, f.rhs, bins)
    return 1 + (lhs if lhs > rhs else rhs)


def _state_bins(state: ProofState) -> list[int]:
    """The bin of every feature token of ``state``, one entry per token:
    the goal count; for the first goal its hypothesis count, its target's
    root class, depth and nodes, and each hypothesis's root class and nodes,
    with a flag where it equals the target and one where it is an
    implication concluding the target; a goal marker and the target's root
    class for every further goal."""
    goals = state.goals
    bins = [_N_GOALS[len(goals)]]
    if not goals:
        return bins
    goal = goals[0]
    target, hyps = goal.target, goal.hyps
    bins += (_N_HYPS[len(hyps)], _TGT.root[type(target)])
    bins.append(_TGT_DEPTH[_formula_bins(_TGT.nodes, target, bins)])
    while len(_HYPS) < len(hyps):
        _HYPS.append(_Prefix(f"g0:h{len(_HYPS) + 1}"))
    for prefix, (_, hform) in zip(_HYPS, hyps):
        bins.append(prefix.root[type(hform)])
        _formula_bins(prefix.nodes, hform, bins)
        if hform == target:
            bins.append(prefix.eq_tgt)
        if isinstance(hform, Implies) and hform.rhs == target:
            bins.append(prefix.concl_eq_tgt)
    for more in goals[1:]:
        bins += (_MORE_GOAL, _MORE_ROOT[type(more.target)])
    return bins


def encode_state(thm: Theorem, history: list[Tactic] | tuple[Tactic, ...],
                 state: ProofState, mode: str = HISTORY) -> np.ndarray:
    """Feature vector for (theorem, tactic history, current state)."""
    return encode_from_parts(thm.initial_state, history, state, mode)


# The last initial state encoded and its bins, shifted into the initial-state
# block. Callers encode many prefixes of one theorem in a row. The memo holds
# the state itself, so its identity cannot be reused by another object, and
# states are immutable.
_last_initial: tuple[ProofState | None, list[int]] = (None, [])


def _initial_bins(initial: ProofState) -> list[int]:
    global _last_initial
    state, bins = _last_initial
    if state is not initial:
        bins = [CUR_DIM + b for b in _state_bins(initial)]
        _last_initial = (initial, bins)
    return bins


def encode_from_parts(initial: ProofState, history, state: ProofState,
                      mode: str = HISTORY) -> np.ndarray:
    """The 164 feature counts of ``state`` reached from ``initial`` by
    ``history``, as float64; under HISTORY_LESS the last 100 are zero."""
    bins = _state_bins(state)
    if mode == HISTORY:
        bins += _initial_bins(initial)
        bins += [CUR_DIM + INIT_DIM + ACTION_INDEX[t] for t in history]
    elif mode != HISTORY_LESS:
        raise ValueError(f"unknown encoding mode {mode!r}")
    # Allocated before the temporary counts: the other order fragments the
    # heap and raised a 2000-step gfn run's peak RSS by about 0.7 MB.
    vec = np.zeros(ENC_DIM)
    vec += np.bincount(bins, minlength=ENC_DIM)
    return vec


# ---------------------------------------------------------------------------
# Policy network


@dataclass
class PolicyNet:
    """MLP trunk (164 -> 128 -> 128 -> 36) plus a linear log-Z head on the
    last hidden layer. The log-Z head trains jointly with the trunk."""

    store: ParamStore
    hidden: int = 128

    @classmethod
    def create(cls, seed: int, hidden: int = 128, scale: float | None = None,
               with_value_head: bool = False) -> "PolicyNet":
        rng = np.random.default_rng(seed)
        params = mlp_params(rng, ENC_DIM, hidden, N_ACTIONS, scale=scale)
        params.update(_head(hidden, "z"))
        if with_value_head:
            params.update(_head(hidden, "v"))
        return cls(store=ParamStore(params), hidden=hidden)

    def ensure_value_head(self) -> None:
        """Add a zero value head to a net made without one."""
        if "wv" not in self.store.arrays:
            self.store.extend(_head(self.hidden, "v"))

    def save(self, path: str | Path) -> None:
        self.store.save(path)

    @classmethod
    def load(cls, path: str | Path) -> "PolicyNet":
        store = ParamStore.load(path, required=MLP_PARAMS + ("wz", "bz"))
        return cls(store=store, hidden=store["w2"].shape[0])


def _head(hidden: int, key: str) -> dict[str, np.ndarray]:
    """A zero linear head on the last hidden layer: weights w<key>, bias b<key>."""
    return {f"w{key}": np.zeros(hidden), f"b{key}": np.zeros(())}


def action_logits(net: PolicyNet, encoded: np.ndarray) -> np.ndarray:
    """Unnormalized scores over all 36 actions; no masking of inapplicable
    tactics (invalid ones earn the error reward branch instead)."""
    logits, _ = mlp_forward_np(net.store, encoded)
    return logits


def action_mask(action_set) -> np.ndarray | None:
    """Additive logit mask over the 36 actions: 0 inside ``action_set``,
    -inf outside, so a log-softmax renormalises over the subset; None for
    the full action space."""
    if action_set is None:
        return None
    mask = np.full(N_ACTIONS, -np.inf)
    mask[np.asarray(action_set, dtype=np.intp)] = 0.0
    return mask


def draw_action(logits: np.ndarray, log_probs: np.ndarray, temperature: float,
                rng: np.random.Generator) -> tuple[int, float]:
    """Draw an action index from softmax(logits / T) and return it with its
    temperature-1 log-probability ``log_probs[action]`` (tempering drives
    exploration only); ``log_probs`` is ``log_softmax_np(logits)``. The
    draw is ``Generator.choice``'s own: one uniform double searched in the
    normalised cumulative distribution, so it takes the same index and
    leaves the generator in the same state. Raises ValueError unless T > 0,
    and, as ``choice`` does, on a NaN or a total probability that is not
    positive."""
    if not temperature > 0.0:
        raise ValueError(f"sampling temperature must be positive, got {temperature}")
    probs = np.exp(log_probs) if temperature == 1.0 else softmax_np(logits / temperature)
    cdf = probs.cumsum()
    if not cdf[-1] > 0.0:
        raise ValueError(f"action probabilities must be finite with a positive total, "
                         f"got a total of {cdf[-1]}")
    cdf /= cdf[-1]
    choice = int(cdf.searchsorted(rng.random(), side="right"))
    return choice, float(log_probs[choice])


def predict_log_z(net: PolicyNet, thm: Theorem) -> float:
    """Learned log-partition estimate from the initial state's hidden."""
    enc = encode_state(thm, (), thm.initial_state, HISTORY)
    _, hidden = mlp_forward_np(net.store, enc)
    return float(np.dot(net.store["wz"], hidden) + net.store["bz"])


# -- the batched loss-graph builder (training) ------------------------------


def rows_graph(tape: Tape, store: ParamStore, x: np.ndarray, actions,
               mask: np.ndarray | None = None) -> tuple[Var, Var]:
    """One taped forward over stacked rows ``x`` (n_rows, ENC_DIM).

    Returns the temperature-1 log-probability of each row's action (under
    the optional additive logit ``mask``) and the last hidden layer. Every
    training loss (TB, PPO, SFT, reward model) is built on it. Raises
    ValueError when an action lies outside the mask's action set.
    """
    if mask is not None and np.isneginf(mask[np.asarray(actions, dtype=np.intp)]).any():
        raise ValueError("an action lies outside the restricted action set")
    logits, hidden, _ = mlp_forward(store, x, tape)
    if mask is not None:
        logits = tape.shift(logits, mask)
    return tape.gather(tape.log_softmax(logits), actions), hidden


def head_graph(tape: Tape, store: ParamStore, hidden: Var, w: str, b: str) -> Var:
    """Linear scalar head on the last hidden layer: ``hidden @ w + b``."""
    return tape.add(tape.matmul(hidden, tape.param(store, w)), tape.param(store, b))
