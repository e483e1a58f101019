"""Exhaustive trajectory enumeration: exact partition function, target
distribution R/Z, the policy's exact trajectory distribution, and flow
consistency checks. This is the instrument that certifies the trained
policy samples proofs proportionally to reward.

``enumerate_trajectories`` is the one depth-first walk over the nodes of a
fresh ``gfn.ProofTree``; its ``ExactDist`` holds the trajectory tree as a
node x action table and the leaves as arrays. ``ProofNode`` applies a
node's applicable actions only (the actions whose shape fits the state):
every other action fails, so the walk records it as an error without a
call. The error leaves of the whole table are scored by one call to
``gfn.error_log_reward``. Everything after the walk reads the table: one
batched policy forward over the nodes' encodings gives every cell's
log-probability, trajectory probabilities sum those down the tree, and
subtree flows accumulate bottom-up, each node's children in action order.
``oracle_report`` reads the table and the leaf arrays alone;
``ExactDist.trajectories`` lists the leaves as the trainer's
``gfn.Trajectory`` objects on first use. The walk goes to
``corpus.MAX_PROOF_LEN`` tactics unless given another ``max_depth``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .corpus import MAX_PROOF_LEN, Theorem
from .env import ACTION_CHARS, ACTIONS, N_ACTIONS, StepKind
from .gfn import (
    ProofNode,
    ProofTree,
    Trajectory,
    check_action_set,
    error_log_reward,
    log_reward,
)
from .nn import log_softmax_np, mlp_forward_np
from .policy import PolicyNet, action_mask


class MassLeak(RuntimeError):
    """Enumerated policy probabilities failed to account for all mass."""


@dataclass
class TrajectoryTree:
    """The trajectory tree as a node x action table.

    Internal nodes are numbered parents first (the walk numbers them in
    depth-first preorder); node 0 is the root, the initial state with an
    empty history. ``nodes[n]`` is node n's ``ProofNode``, which holds its
    history, state and encoding. Column j is action ``actions[j]`` at every
    node. Cell ``n * K + j`` of ``cells`` holds the internal node that action
    reaches from node n or, where negative, ``~i`` for leaf i. ``inbound[c]``
    is the cell through which node c is reached, -1 for the root.
    """

    nodes: list[ProofNode]
    actions: np.ndarray
    cells: np.ndarray
    inbound: np.ndarray


# A table cell holds the child node its action reaches, or a leaf outcome.
_PROVED, _ERROR, _EXHAUSTED = -1, -2, -3
_OUTCOME = {_ERROR: StepKind.ERROR, _PROVED: StepKind.PROVED, _EXHAUSTED: StepKind.OK}


@dataclass
class ExactDist:
    """Every terminal trajectory of a theorem with exact log rewards: the
    walk's ``tree``, and its leaves in depth-first order (leaf i is the
    tree's ``~i``) as ``leaves`` (their cells), ``outcomes`` (their outcome
    codes) and ``log_r``. ``target_probs`` is R/Z over the leaves."""

    theorem: Theorem
    tree: TrajectoryTree
    leaves: np.ndarray
    outcomes: np.ndarray
    log_r: np.ndarray
    log_z: float
    target_probs: np.ndarray
    action_set: tuple[int, ...] | None  # the walk's columns; None for all actions

    @cached_property
    def trajectories(self) -> list[Trajectory]:
        """The leaves as the trainer's trajectories, built on first use: each
        one's nodes are read from the tree's root, and its ``log_pf`` is 0.0
        (the loss graph recomputes it)."""
        nodes, columns = self.tree.nodes, self.tree.actions.tolist()
        width = len(columns)
        return [Trajectory(self.theorem.name,
                           nodes[cell // width].history + (ACTIONS[columns[cell % width]],),
                           _OUTCOME[code], 0.0, log_r, nodes[0])
                for cell, code, log_r in zip(self.leaves.tolist(), self.outcomes.tolist(),
                                             self.log_r.tolist())]


def enumerate_trajectories(thm: Theorem, max_depth: int = MAX_PROOF_LEN, rm=None,
                           action_set: tuple[int, ...] | None = None) -> ExactDist:
    """The one depth-first walk over a fresh ``ProofTree`` of ``thm``, with
    the same termination semantics as training rollouts (stop on proved /
    error / depth); a child node is made only below the depth limit. Its
    columns are the action space, or ``action_set`` in its order.

    Rewards are the trainer's: a proved leaf scores 0, an error leaf (an
    environment error, or depth exhausted without a reward model) goes
    through ``gfn.error_log_reward`` on the walk's running sum of tactic
    lengths, the one function behind ``log_reward``'s error branch, and a
    depth-exhausted leaf given the reward model ``rm`` through
    ``log_reward`` itself, so the oracle and the trainer can never disagree
    about R.
    ValueError, before the walk, unless ``max_depth`` is at least 1 and
    ``action_set`` is None or distinct action indices in [0, 36)."""
    if max_depth < 1:
        raise ValueError(f"max_depth must be at least 1, got {max_depth}")
    columns = (tuple(range(N_ACTIONS)) if action_set is None
               else check_action_set(action_set))
    column_chars = [ACTION_CHARS[a] for a in columns]
    # an action's column: its index for the action space, else its place in
    # the restricted set
    column_of = None if action_set is None else {a: j for j, a in enumerate(columns)}
    width = len(columns)
    nodes: list[ProofNode] = []
    node_chars: list[int] = []  # running sum of tactic lengths at each node
    inbound = [-1]
    applied_cells: list[int] = []  # the cells of the applicable actions
    applied_codes: list[int] = []
    leaves: list[int] = []  # in depth-first order
    exhausted: dict[int, float] = {}  # partial-credit log R by cell
    partial_credit = rm is not None

    def visit(node: ProofNode, chars: int) -> None:
        nodes.append(node)
        node_chars.append(chars)
        row = run = (len(nodes) - 1) * width
        inner = len(node.history) + 1 < max_depth
        applicable = node.applicable()
        if column_of is not None:
            applicable = sorted(column_of[a] for a in applicable if a in column_of)
        for j in applicable:
            action = columns[j]
            result = node.apply(action)
            kind = result.kind
            if kind is StepKind.ERROR:
                continue
            applied_cells.append(row + j)
            if kind is StepKind.PROVED:
                applied_codes.append(_PROVED)
            elif inner:
                applied_codes.append(len(nodes))
                inbound.append(row + j)
                leaves.extend(range(run, row + j))
                run = row + j + 1
                visit(node.child(action), chars + column_chars[j])
            else:
                applied_codes.append(_EXHAUSTED)
                if partial_credit:
                    exhausted[row + j] = log_reward(
                        Trajectory(thm.name, node.history + (ACTIONS[action],),
                                   StepKind.OK, 0.0, root=nodes[0]), rm)
        leaves.extend(range(run, row + width))

    visit(ProofTree(thm).root, 0)
    # The recursive closure refers to itself; dropping it frees the walk's
    # lists on return instead of at the next cyclic garbage collection.
    del visit
    cells = np.full(len(nodes) * width, _ERROR, dtype=np.intp)
    cells[applied_cells] = applied_codes
    # Error leaves, and depth-exhausted ones without a reward model, take
    # the error branch; a proved leaf scores 0.
    errors = np.flatnonzero(cells == _ERROR if partial_credit else cells <= _ERROR)
    error_rows = errors // width
    depths = np.array([len(node.history) + 1 for node in nodes], dtype=np.intp)
    log_r = np.zeros(len(cells))
    log_r[errors] = error_log_reward(np.array(node_chars, dtype=np.intp)[error_rows]
                                     + np.array(column_chars)[errors - error_rows * width],
                                     depths[error_rows])
    if exhausted:
        log_r[list(exhausted)] = list(exhausted.values())
    leaves = np.array(leaves, dtype=np.intp)
    outcomes = cells[leaves]
    cells[leaves] = ~np.arange(len(leaves))
    tree = TrajectoryTree(nodes, np.array(columns, dtype=np.intp), cells,
                          np.array(inbound, dtype=np.intp))
    log_r = log_r[leaves]
    log_z = _logsumexp(log_r)
    return ExactDist(thm, tree, leaves, outcomes, log_r, log_z,
                     np.exp(log_r - log_z), action_set)


def _logsumexp(xs: np.ndarray) -> float:
    m = xs.max()
    return float(m + np.log(np.exp(xs - m).sum()))


def _policy_pass(net: PolicyNet, tree: TrajectoryTree,
                 action_set) -> tuple[np.ndarray, np.ndarray]:
    """Each cell's temperature-1 log-probability (renormalised over a
    restricted action set), and the last hidden layer, one row per internal
    tree node, from one forward. Row 0 is the root, the log-Z head's input."""
    x = np.stack([node.encoding() for node in tree.nodes])
    logits, hidden = mlp_forward_np(net.store, x)
    mask = action_mask(action_set)
    log_probs = log_softmax_np(logits if mask is None else logits + mask)
    return log_probs[:, tree.actions].ravel(), hidden


def _trajectory_probs(tree: TrajectoryTree, cell_logp: np.ndarray,
                      leaf_cells: np.ndarray) -> np.ndarray:
    """The probability of the trajectory that ends at each leaf cell: cell
    log-probabilities summed down the tree. Raises MassLeak when they do
    not account for all mass."""
    width = len(tree.actions)
    node_logp = [0.0]
    for cell in tree.inbound.tolist()[1:]:  # parents before children
        node_logp.append(node_logp[cell // width] + cell_logp[cell])
    probs = np.exp(np.array(node_logp)[leaf_cells // width] + cell_logp[leaf_cells])
    total = float(probs.sum())
    if total < 1.0 - 1e-6:
        raise MassLeak(f"policy probabilities sum to {total}, enumeration must be exhaustive")
    return probs


def policy_trajectory_probs(net: PolicyNet, dist: ExactDist) -> np.ndarray:
    """Exact probability of each enumerated trajectory under the policy at
    temperature 1. Enumeration is exhaustive, so these must account for all
    probability mass; raises MassLeak otherwise, or for a non-finite total."""
    cell_logp = _policy_pass(net, dist.tree, dist.action_set)[0]
    probs = _trajectory_probs(dist.tree, cell_logp, dist.leaves)
    if not np.isfinite(probs.sum()):
        raise MassLeak(f"policy probabilities sum to {probs.sum()}, not a finite total")
    return probs


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation, half-L1 convention."""
    return float(0.5 * np.abs(np.asarray(p) - np.asarray(q)).sum())


def flow_residuals(tree: TrajectoryTree, leaf_flow: np.ndarray, cell_p: np.ndarray) -> np.ndarray:
    """Flow-conservation residuals |F(s) * P_F(a|s) - F(child)|, one per
    cell of ``tree``, for the policy whose probability at each cell is
    ``cell_p``. A leaf's flow is its entry of ``leaf_flow`` (its reward), and
    an internal node's flow F(s) is the sum of its row, added one cell at a
    time in column order. The backward policy is identically 1 on a tree,
    so the policy samples in proportion to reward exactly where every
    residual is zero."""
    width = len(tree.actions)
    leaf = tree.cells < 0
    flow = np.zeros(len(tree.cells))
    flow[leaf] = leaf_flow[~tree.cells[leaf]]
    rows = flow.reshape(-1, width)
    node_flow = np.zeros(len(rows))
    inbound = tree.inbound.tolist()
    for node in range(len(rows) - 1, -1, -1):  # children before parents
        node_flow[node] = np.cumsum(rows[node])[-1]
        if node:
            flow[inbound[node]] = node_flow[node]
    return np.abs(np.repeat(node_flow, width) * cell_p - flow)


def flow_check(dist: ExactDist, net: PolicyNet) -> float:
    """The worst flow-conservation residual of ``net`` on the enumeration:
    ``flow_residuals`` at the net's temperature-1 cell probabilities, the
    leaves' rewards as their flows. ``oracle_report`` reads the same."""
    cell_p = np.exp(_policy_pass(net, dist.tree, dist.action_set)[0])
    return float(flow_residuals(dist.tree, np.exp(dist.log_r), cell_p).max(initial=0.0))


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


def oracle_report(net: PolicyNet, thm: Theorem, max_depth: int = MAX_PROOF_LEN, rm=None,
                  action_set: tuple[int, ...] | None = None) -> OracleReport:
    """Full verification pass for one theorem: one walk, one policy forward,
    no per-trajectory object. Rewards are ``enumerate_trajectories``': with
    partial credit exactly when given ``rm``. ValueError, before the walk,
    unless ``max_depth`` is at least 1 and ``action_set`` is None or
    distinct action indices in [0, 36)."""
    dist = enumerate_trajectories(thm, max_depth, rm, action_set)
    tree = dist.tree
    cell_logp, hidden = _policy_pass(net, tree, dist.action_set)
    probs = _trajectory_probs(tree, cell_logp, dist.leaves)
    residuals = flow_residuals(tree, np.exp(dist.log_r), np.exp(cell_logp))
    return OracleReport(
        theorem=thm.name,
        n_trajectories=len(dist.leaves),
        log_z=dist.log_z,
        predicted_log_z=float(np.dot(net.store["wz"], hidden[0]) + net.store["bz"]),
        tv_distance=tv_distance(probs, dist.target_probs),
        max_flow_residual=float(residuals.max(initial=0.0)),
    )


def reports_to_json(reports: list[OracleReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)
