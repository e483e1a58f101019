"""Forward policy over the 36-action space.

States are encoded as 164-dim feature vectors: 64 hashed current-goal
features, 64 identical features of the theorem's initial state, and 36
per-action history counts. Including the initial state and the tactic
history makes distinct tactic prefixes encode distinctly, so the search
graph is a tree and the backward policy contributes nothing to the
trajectory-balance residual. The history-less variant (used by the reward
model and for base-model evaluation) zeroes the last 100 dims.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Theorem
from .env import ACTION_INDEX, ACTIONS, N_ACTIONS, ProofState, Tactic
from .formulas import Atom, Formula, Implies, formula_depth
from .nn import (
    MLP_PARAMS,
    ParamStore,
    Tape,
    Var,
    log_softmax_np,
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


def _kind(f: Formula) -> str:
    return type(f).__name__


def _formula_tokens(prefix: str, f: Formula, depth: int = 0) -> list[str]:
    if isinstance(f, Atom):
        return [f"{prefix}:atom={f.name}"]
    toks = [f"{prefix}:conn={_kind(f)}"]
    toks += _formula_tokens(prefix, f.lhs, depth + 1)
    toks += _formula_tokens(prefix, f.rhs, depth + 1)
    return toks


def _state_tokens(state: ProofState) -> list[str]:
    toks = [f"n_goals={len(state.goals)}"]
    if not state.goals:
        return toks
    g = state.goals[0]
    toks.append(f"g0:n_hyps={len(g.hyps)}")
    toks.append(f"g0:tgt:root={_kind(g.target)}")
    toks.append(f"g0:tgt:depth={formula_depth(g.target)}")
    toks += _formula_tokens("g0:tgt", g.target)
    for k, (_, hf) in enumerate(g.hyps, start=1):
        toks.append(f"g0:h{k}:root={_kind(hf)}")
        toks += _formula_tokens(f"g0:h{k}", hf)
        # applicability indicators: which hypothesis positions can close or
        # reduce the target (exact / apply shape tests)
        if hf == g.target:
            toks.append(f"g0:h{k}:eq_tgt")
        if isinstance(hf, Implies) and hf.rhs == g.target:
            toks.append(f"g0:h{k}:concl_eq_tgt")
    for g2 in state.goals[1:]:
        toks.append("g+:goal")
        toks.append(f"g+:tgt:root={_kind(g2.target)}")
    return toks


def _hash_bag(tokens: list[str]) -> np.ndarray:
    vec = np.zeros(CUR_DIM)
    for tok in tokens:
        vec[_bin(tok)] += 1.0
    return vec


def encode_state(thm: Theorem, history: list[Tactic] | tuple[Tactic, ...],
                 state: ProofState, mode: str = HISTORY) -> np.ndarray:
    """Feature vector for (theorem, tactic history, current state)."""
    return encode_from_parts(thm.initial_state, history, state, mode)


# The last initial state encoded and its features. Callers encode many
# prefixes of one theorem in a row. The memo holds the state itself, so its
# identity cannot be reused by another object, and states are immutable.
_last_initial: tuple[ProofState | None, np.ndarray] = (None, np.zeros(INIT_DIM))


def _initial_features(initial: ProofState) -> np.ndarray:
    global _last_initial
    state, feats = _last_initial
    if state is not initial:
        feats = _hash_bag(_state_tokens(initial))
        _last_initial = (initial, feats)
    return feats


def encode_from_parts(initial: ProofState, history, state: ProofState,
                      mode: str = HISTORY) -> np.ndarray:
    vec = np.zeros(ENC_DIM)
    vec[:CUR_DIM] = _hash_bag(_state_tokens(state))
    if mode == HISTORY:
        vec[CUR_DIM:CUR_DIM + INIT_DIM] = _initial_features(initial)
        for t in history:
            vec[CUR_DIM + INIT_DIM + ACTION_INDEX[t]] += 1.0
    elif mode != HISTORY_LESS:
        raise ValueError(f"unknown encoding mode {mode!r}")
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


def action_log_probs(net: PolicyNet, encoded: np.ndarray,
                     action_set: np.ndarray | None = None) -> np.ndarray:
    """Log probabilities over the 36 actions at temperature 1. With a
    restricted ``action_set`` (indices into ACTIONS) the subset is
    renormalised and every action outside it gets -inf."""
    logits = action_logits(net, encoded)
    mask = action_mask(action_set)
    return log_softmax_np(logits if mask is None else logits + mask)


def draw_action(logits: np.ndarray, log_probs: np.ndarray, temperature: float,
                rng: np.random.Generator) -> tuple[Tactic, float]:
    """Draw an action from softmax(logits / T) and return it with its
    temperature-1 log-probability ``log_probs[action]`` (tempering drives
    exploration only); ``log_probs`` is ``log_softmax_np(logits)``. Raises
    ValueError unless T > 0."""
    if not temperature > 0.0:
        raise ValueError(f"sampling temperature must be positive, got {temperature}")
    choice = int(rng.choice(N_ACTIONS, p=softmax_np(logits / temperature)))
    return ACTIONS[choice], float(log_probs[choice])


def sample_action(net: PolicyNet, encoded: np.ndarray, temperature: float,
                  rng: np.random.Generator,
                  action_set: np.ndarray | None = None) -> tuple[Tactic, float]:
    """``draw_action`` over the policy's logits at one encoded state,
    restricted to ``action_set`` when given."""
    logits = action_logits(net, encoded)
    mask = action_mask(action_set)
    if mask is not None:
        logits = logits + mask
    return draw_action(logits, log_softmax_np(logits), temperature, rng)


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
