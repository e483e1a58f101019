"""Exhaustive trajectory enumeration: exact partition function, target
distribution R/Z, the policy's exact trajectory distribution, and flow
consistency checks. This is the instrument that certifies the trained
policy samples proofs proportionally to reward.

The depth-first walk builds the trajectory tree once, over action indices.
Everything after the walk reads that tree: one batched policy forward over
its internal nodes gives every edge's log-probability, trajectory
probabilities sum those down the tree, and subtree flows accumulate
bottom-up over the same edges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import Theorem
from .env import ACTION_INDEX, ACTIONS, N_ACTIONS, ProofState, Tactic, apply_tactic
from .gfn import (
    ACTION_CHARS,
    BINARY,
    DEPTH_EXHAUSTED,
    ENV_ERROR,
    PROVED,
    RewardSpec,
    Trajectory,
    error_log_reward,
    log_reward,
)
from .nn import log_softmax_np, mlp_forward_np
from .policy import HISTORY, PolicyNet, action_mask, encode_from_parts


class MassLeak(RuntimeError):
    """Enumerated policy probabilities failed to account for all mass."""


@dataclass
class EnumeratedTrajectory:
    tactics: tuple[Tactic, ...]
    outcome: str
    log_r: float
    proof_states: tuple[ProofState, ...]  # state before each tactic
    node: int = 0  # internal tree node the last tactic is taken from
    action: int = -1  # action index of the last tactic


@dataclass
class TrajectoryTree:
    """The trajectory tree over action indices.

    Internal nodes are numbered parents first (the walk numbers them in
    depth-first preorder); node 0 is the root, the initial state with an
    empty history. Each node holds its tactic history and, when built by
    the walk, its state. Edge e leaves node ``parents[e]`` by action
    ``actions[e]`` and reaches internal node ``children[e]`` or, where that
    is negative, the leaf of trajectory ``~children[e]``. A node's edges are
    in child order.
    """

    histories: list[tuple[Tactic, ...]]
    states: list[ProofState]  # empty for a tree rebuilt from a hand-built list
    parents: np.ndarray
    actions: np.ndarray
    children: np.ndarray

    @classmethod
    def from_edges(cls, histories, states, edges) -> "TrajectoryTree":
        """From (parent, action, child) triples."""
        cols = np.array(edges, dtype=np.intp).reshape(-1, 3)
        return cls(histories, states, cols[:, 0], cols[:, 1], cols[:, 2])


@dataclass
class ExactDist:
    """Every terminal trajectory of a theorem with exact log rewards.

    ``rewards`` may carry the raw reward values for hand-built toys where
    exp(log r) would lose the exactness the arithmetic checks rely on.
    ``tree`` is the walk's trajectory tree; hand-built toys leave it None.
    """

    theorem: Theorem | None
    trajectories: list[EnumeratedTrajectory]
    log_z: float
    target_probs: np.ndarray
    policy_probs: np.ndarray | None = None
    action_set: tuple[int, ...] | None = None
    max_depth: int = 3
    rewards: np.ndarray | None = None
    tree: TrajectoryTree | None = None


def enumerate_trajectories(thm: Theorem, max_depth: int = 3,
                           spec: RewardSpec = RewardSpec(mode="binary"), rm=None,
                           action_set: tuple[int, ...] | None = None) -> ExactDist:
    """Depth-first enumeration of all terminal trajectories, with the same
    termination semantics as training rollouts (stop on proved / error /
    depth). Rewards are the trainer's: a proved leaf scores 0, an error
    leaf (an environment error, or depth exhausted under the binary reward)
    goes through ``gfn.error_log_reward`` on the walk's running sum of
    tactic lengths, the one function behind ``log_reward``'s error branch,
    and a depth-exhausted leaf under the full reward through ``log_reward``
    itself, so the oracle and the trainer can never disagree about R.
    ValueError unless ``max_depth`` is at least 1."""
    if max_depth < 1:
        raise ValueError(f"max_depth must be at least 1, got {max_depth}")
    indices = range(N_ACTIONS) if action_set is None else [int(a) for a in action_set]
    found: list[EnumeratedTrajectory] = []
    histories: list[tuple[Tactic, ...]] = []
    states: list[ProofState] = []
    edges: list[tuple[int, int, int]] = []
    error_log_rs: dict[tuple[int, int], float] = {}  # by (length sum, tactic count)
    partial_credit = spec.mode != BINARY

    def visit(state: ProofState, history: tuple[Tactic, ...],
              before: tuple[ProofState, ...], chars: int) -> int:
        node = len(states)
        histories.append(history)
        states.append(state)
        before = before + (state,)
        depth = len(history) + 1
        for a in indices:
            tactic = ACTIONS[a]
            result = apply_tactic(state, tactic)
            tacs = history + (tactic,)
            if result.ok and depth < max_depth:
                child = visit(result.state, tacs, before, chars + ACTION_CHARS[a])
            else:
                child = ~len(found)
                if result.proved:
                    outcome, log_r = PROVED, 0.0
                elif result.ok and partial_credit:
                    outcome = DEPTH_EXHAUSTED
                    log_r = log_reward(Trajectory(thm.name, tacs, before + (result.state,),
                                                  outcome, 0.0), spec, rm=rm)
                else:
                    outcome = ENV_ERROR if result.failed else DEPTH_EXHAUSTED
                    key = (chars + ACTION_CHARS[a], depth)
                    log_r = error_log_rs.get(key)
                    if log_r is None:
                        log_r = error_log_rs[key] = error_log_reward(*key, spec)
                found.append(EnumeratedTrajectory(tacs, outcome, log_r, before, node, a))
            edges.append((node, a, child))
        return node

    visit(thm.initial_state, (), (), 0)
    # The recursive closure refers to itself; dropping it frees the walk's
    # lists on return instead of at the next cyclic garbage collection.
    del visit
    log_rs = np.array([t.log_r for t in found])
    log_z = float(_logsumexp(log_rs))
    return ExactDist(
        theorem=thm,
        trajectories=found,
        log_z=log_z,
        target_probs=np.exp(log_rs - log_z),
        action_set=action_set,
        max_depth=max_depth,
        tree=TrajectoryTree.from_edges(histories, states, edges),
    )


def _tree_from_trajectories(trajectories: list[EnumeratedTrajectory]) -> TrajectoryTree:
    """The prefix tree of a hand-built trajectory list, children in order of
    first appearance; it carries no states."""
    node_of: dict[tuple[Tactic, ...], int] = {(): 0}
    edges = []
    for j, t in enumerate(trajectories):
        for i, tactic in enumerate(t.tactics):
            prefix = t.tactics[: i + 1]
            if i == len(t.tactics) - 1:
                child = ~j
            elif prefix not in node_of:
                child = node_of[prefix] = len(node_of)
            else:
                continue
            edges.append((node_of[t.tactics[:i]], ACTION_INDEX[tactic], child))
    return TrajectoryTree.from_edges(list(node_of), [], edges)


def _logsumexp(xs: np.ndarray) -> float:
    m = xs.max()
    return float(m + np.log(np.exp(xs - m).sum()))


def _policy_pass(net: PolicyNet, dist: ExactDist) -> tuple[np.ndarray, np.ndarray]:
    """Temperature-1 log-probabilities over the 36 actions (-inf outside a
    restricted action set) and the last hidden layer, one row per internal
    tree node, from one forward. Row 0 is the root, the log-Z head's input."""
    if dist.theorem is None or dist.tree is None:
        raise ValueError("needs a real theorem's enumeration from enumerate_trajectories")
    tree, initial = dist.tree, dist.theorem.initial_state
    x = np.stack([encode_from_parts(initial, history, state, HISTORY)
                  for history, state in zip(tree.histories, tree.states)])
    logits, hidden = mlp_forward_np(net.store, x)
    mask = action_mask(dist.action_set)
    return log_softmax_np(logits if mask is None else logits + mask), hidden


def _trajectory_probs(dist: ExactDist, log_probs: np.ndarray) -> np.ndarray:
    """Each listed trajectory's probability: edge log-probabilities summed
    down the tree. Raises MassLeak when they do not account for all mass."""
    tree = dist.tree
    node_logp = np.zeros(len(tree.histories))
    inner = np.flatnonzero(tree.children >= 0)
    for e in inner[np.argsort(tree.children[inner])]:  # parents before children
        parent = tree.parents[e]
        node_logp[tree.children[e]] = node_logp[parent] + log_probs[parent, tree.actions[e]]
    nodes = np.array([t.node for t in dist.trajectories], dtype=np.intp)
    actions = np.array([t.action for t in dist.trajectories], dtype=np.intp)
    probs = np.exp(node_logp[nodes] + log_probs[nodes, actions])
    total = float(probs.sum())
    if total < 1.0 - 1e-6:
        raise MassLeak(f"policy probabilities sum to {total}, enumeration must be exhaustive")
    return probs


def policy_trajectory_probs(net: PolicyNet, dist: ExactDist) -> np.ndarray:
    """Exact probability of each enumerated trajectory under the policy at
    temperature 1. Enumeration is exhaustive, so these must account for all
    probability mass; raises MassLeak otherwise."""
    probs = _trajectory_probs(dist, _policy_pass(net, dist)[0])
    dist.policy_probs = probs
    return probs


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation, half-L1 convention."""
    return float(0.5 * np.abs(np.asarray(p) - np.asarray(q)).sum())


def _flow_residuals(dist: ExactDist, tree: TrajectoryTree, edge_p: np.ndarray) -> np.ndarray:
    """|F(parent) * P_F(edge) - F(child)| per edge, with leaf flows the
    terminal rewards and each internal node's flow the sum of its children's
    in child order, accumulated one depth level at a time from the deepest."""
    if dist.rewards is not None:
        leaf_flow = np.asarray(dist.rewards, dtype=np.float64)
    else:
        leaf_flow = np.exp(np.array([t.log_r for t in dist.trajectories]))
    n_nodes = len(tree.histories)
    level = np.array([len(h) for h in tree.histories], dtype=np.intp)[tree.parents]
    leaf = tree.children < 0
    child_flow = np.zeros(len(tree.children))
    child_flow[leaf] = leaf_flow[~tree.children[leaf]]
    node_flow = np.zeros(n_nodes)
    for depth in range(int(level.max(initial=0)), -1, -1):
        at = level == depth
        inner = at & ~leaf
        child_flow[inner] = node_flow[tree.children[inner]]
        node_flow += np.bincount(tree.parents[at], weights=child_flow[at], minlength=n_nodes)
    return np.abs(node_flow[tree.parents] * edge_p - child_flow)


@dataclass
class FlowCheckReport:
    max_residual: float
    n_edges: int
    # (tactics from the root through the edge, residual) per edge
    per_edge: list[tuple[tuple[Tactic, ...], float]] = field(default_factory=list)


def flow_check(dist: ExactDist, net: PolicyNet | None = None,
               edge_probs: dict | None = None) -> FlowCheckReport:
    """Detailed-balance residuals on the trajectory tree.

    With subtree flows F(s) = sum of terminal rewards below s and the
    backward policy identically 1 on a tree, balance demands
    F(s) * P_F(child|s) = F(child); the report carries the worst absolute
    residual. Pass ``edge_probs`` (prefix tuple of rendered tactics ->
    probability vector over that node's taken edges, in child order) to
    check a hand-built policy instead of a network.
    """
    if net is None and edge_probs is None:
        raise ValueError("flow_check needs a net or explicit edge_probs")
    tree = dist.tree if dist.tree is not None else _tree_from_trajectories(dist.trajectories)
    if edge_probs is not None:
        edge_p = np.empty(len(tree.parents))
        for node, history in enumerate(tree.histories):
            key = tuple(t.render() for t in history)
            edge_p[tree.parents == node] = np.asarray(edge_probs[key], dtype=np.float64)
    else:
        log_probs, _ = _policy_pass(net, dist)
        edge_p = np.exp(log_probs[tree.parents, tree.actions])
    residuals = _flow_residuals(dist, tree, edge_p)
    keys = [tree.histories[c] if c >= 0 else dist.trajectories[~c].tactics
            for c in tree.children.tolist()]
    return FlowCheckReport(max_residual=float(residuals.max(initial=0.0)),
                           n_edges=len(residuals), per_edge=list(zip(keys, residuals.tolist())))


@dataclass
class OracleReport:
    theorem: str
    n_trajectories: int
    log_z: float
    predicted_log_z: float
    tv_distance: float
    max_flow_residual: float

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "n_trajectories": self.n_trajectories,
            "log_Z": self.log_z,
            "predicted_log_Z": self.predicted_log_z,
            "tv_distance": self.tv_distance,
            "max_flow_residual": self.max_flow_residual,
        }


def oracle_report(net: PolicyNet, thm: Theorem, max_depth: int = 3,
                  spec: RewardSpec = RewardSpec(mode="binary"), rm=None,
                  action_set: tuple[int, ...] | None = None) -> OracleReport:
    """Full verification pass for one theorem: one walk, one policy forward.
    ValueError unless ``max_depth`` is at least 1, before the walk."""
    dist = enumerate_trajectories(thm, max_depth=max_depth, spec=spec, rm=rm,
                                  action_set=action_set)
    log_probs, hidden = _policy_pass(net, dist)
    tree = dist.tree
    residuals = _flow_residuals(dist, tree, np.exp(log_probs[tree.parents, tree.actions]))
    return OracleReport(
        theorem=thm.name,
        n_trajectories=len(dist.trajectories),
        log_z=dist.log_z,
        predicted_log_z=float(np.dot(net.store["wz"], hidden[0]) + net.store["bz"]),
        tv_distance=tv_distance(_trajectory_probs(dist, log_probs), dist.target_probs),
        max_flow_residual=float(residuals.max(initial=0.0)),
    )


def reports_to_json(reports: list[OracleReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)
