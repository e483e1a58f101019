"""Exhaustive trajectory enumeration: exact partition function, target
distribution R/Z, the policy's exact trajectory distribution, and flow
consistency checks. This is the instrument that certifies the trained
policy samples proofs proportionally to reward.

One depth-first walk over the nodes of a fresh ``gfn.ProofTree`` builds the
trajectory tree as a node x action table. ``ProofNode`` applies a node's
applicable actions only (the actions whose shape fits the state): every
other action fails, so the walk records it as an error without a call. The
error leaves of the whole table are scored by one call to
``gfn.error_log_reward``. Everything after the walk reads the table: one
batched policy forward over the nodes' encodings gives every cell's
log-probability, trajectory probabilities sum those down the tree, and
subtree flows accumulate bottom-up, each node's children in action order.
``oracle_report`` reads the table alone; ``enumerate_trajectories`` also
lists its leaves as ``EnumeratedTrajectory`` objects. Both walk to
``corpus.MAX_PROOF_LEN`` tactics unless given another ``max_depth``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import MAX_PROOF_LEN, Theorem
from .env import ACTION_INDEX, ACTIONS, N_ACTIONS, ProofState, StepKind, Tactic
from .gfn import (
    ACTION_CHARS,
    BINARY,
    DEPTH_EXHAUSTED,
    ENV_ERROR,
    PROVED,
    ProofNode,
    ProofTree,
    RewardSpec,
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
class EnumeratedTrajectory:
    tactics: tuple[Tactic, ...]
    outcome: str
    log_r: float
    proof_states: tuple[ProofState, ...]  # state before each tactic
    node: int = 0  # internal tree node the last tactic is taken from
    action: int = -1  # action index of the last tactic


# Marks an action that no trajectory of a hand-built list takes.
ABSENT = np.iinfo(np.intp).min


@dataclass
class TrajectoryTree:
    """The trajectory tree as a node x action table.

    Internal nodes are numbered parents first (the walk numbers them in
    depth-first preorder); node 0 is the root, the initial state with an
    empty history. Each node holds its tactic history and, when built by
    the walk, its ``ProofNode``. Column j is action ``actions[j]`` at every
    node. Cell ``n * K + j`` of ``cells`` holds the internal node that action
    reaches from node n or, where negative, ``~i`` for the leaf of
    trajectory i; a tree rebuilt from a hand-built list holds ``ABSENT``
    for an action it does not take. ``inbound[c]`` is the cell through
    which node c is reached, -1 for the root.
    """

    histories: list[tuple[Tactic, ...]]
    nodes: list[ProofNode]  # empty for a tree rebuilt from a hand-built list
    actions: np.ndarray
    cells: np.ndarray
    inbound: np.ndarray


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
    action_set: tuple[int, ...] | None = None
    rewards: np.ndarray | None = None
    tree: TrajectoryTree | None = None


# A table cell holds the child node its action reaches, or a leaf outcome.
_PROVED, _ERROR, _EXHAUSTED = -1, -2, -3
_OUTCOME = {_ERROR: ENV_ERROR, _PROVED: PROVED, _EXHAUSTED: DEPTH_EXHAUSTED}


@dataclass
class _Walk:
    """The walk's tree, with ``leaves`` its leaf cells in depth-first order
    (leaf i is trajectory i), ``outcomes`` and ``log_r`` theirs in that
    order, and ``paths[n]`` the nodes from the root to node n."""

    tree: TrajectoryTree
    leaves: np.ndarray
    outcomes: np.ndarray
    log_r: np.ndarray
    paths: list[tuple[ProofNode, ...]]


def _walk(thm: Theorem, max_depth: int, spec: RewardSpec, rm,
          action_set: tuple[int, ...] | None) -> _Walk:
    """The one depth-first walk over a fresh ``ProofTree`` of ``thm``, with
    the same termination semantics as training rollouts (stop on proved /
    error / depth); a child node is made only below the depth limit. Its
    columns are the action space, or ``action_set`` in its order.
    ValueError, before the walk, unless ``max_depth`` is at least 1 and
    ``action_set`` is None or distinct action indices in [0, 36)."""
    if max_depth < 1:
        raise ValueError(f"max_depth must be at least 1, got {max_depth}")
    columns = (tuple(range(N_ACTIONS)) if action_set is None
               else check_action_set(int(a) for a in action_set))
    column_chars = [ACTION_CHARS[a] for a in columns]
    # an action's column: its index for the action space, else its place in
    # the restricted set
    column_of = None if action_set is None else {a: j for j, a in enumerate(columns)}
    width = len(columns)
    nodes: list[ProofNode] = []
    paths: list[tuple[ProofNode, ...]] = []
    node_chars: list[int] = []  # running sum of tactic lengths at each node
    inbound = [-1]
    applied_cells: list[int] = []  # the cells of the applicable actions
    applied_codes: list[int] = []
    leaves: list[int] = []  # in depth-first order
    exhausted: dict[int, float] = {}  # partial-credit log R by cell
    partial_credit = spec.mode != BINARY

    def visit(node: ProofNode, path: tuple[ProofNode, ...], chars: int) -> None:
        nodes.append(node)
        path = path + (node,)
        paths.append(path)
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
                visit(node.child(action), path, chars + column_chars[j])
            else:
                applied_codes.append(_EXHAUSTED)
                if partial_credit:
                    exhausted[row + j] = log_reward(
                        Trajectory(thm.name, node.history + (ACTIONS[action],),
                                   DEPTH_EXHAUSTED, 0.0, nodes=path), spec, rm=rm)
        leaves.extend(range(run, row + width))

    visit(ProofTree(thm).root, (), 0)
    # The recursive closure refers to itself; dropping it frees the walk's
    # lists on return instead of at the next cyclic garbage collection.
    del visit
    histories = [node.history for node in nodes]
    cells = np.full(len(nodes) * width, _ERROR, dtype=np.intp)
    cells[applied_cells] = applied_codes
    # Error leaves, and depth-exhausted ones under the binary reward, take
    # the error branch; a proved leaf scores 0.
    errors = np.flatnonzero(cells == _ERROR if partial_credit else cells <= _ERROR)
    error_rows = errors // width
    depths = np.array([len(h) + 1 for h in histories], dtype=np.intp)
    log_r = np.zeros(len(cells))
    log_r[errors] = error_log_reward(np.array(node_chars, dtype=np.intp)[error_rows]
                                     + np.array(column_chars)[errors - error_rows * width],
                                     depths[error_rows])
    if exhausted:
        log_r[list(exhausted)] = list(exhausted.values())
    leaves = np.array(leaves, dtype=np.intp)
    outcomes = cells[leaves]
    cells[leaves] = ~np.arange(len(leaves))
    tree = TrajectoryTree(histories, nodes, np.array(columns, dtype=np.intp), cells,
                          np.array(inbound, dtype=np.intp))
    return _Walk(tree, leaves, outcomes, log_r[leaves], paths)


def enumerate_trajectories(thm: Theorem, max_depth: int = MAX_PROOF_LEN,
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
    ValueError unless ``max_depth`` is at least 1 and ``action_set`` is
    None or distinct action indices in [0, 36)."""
    walk = _walk(thm, max_depth, spec, rm, action_set)
    tree = walk.tree
    columns = tree.actions.tolist()
    trajectories = []
    for cell, code, log_r in zip(walk.leaves.tolist(), walk.outcomes.tolist(),
                                 walk.log_r.tolist()):
        node, j = divmod(cell, len(columns))
        a = columns[j]
        trajectories.append(EnumeratedTrajectory(
            tree.histories[node] + (ACTIONS[a],), _OUTCOME[code], log_r,
            tuple(n.state for n in walk.paths[node]), node, a))
    log_z = _logsumexp(walk.log_r)
    return ExactDist(
        theorem=thm,
        trajectories=trajectories,
        log_z=log_z,
        target_probs=np.exp(walk.log_r - log_z),
        action_set=action_set,
        tree=tree,
    )


def _tree_from_trajectories(trajectories: list[EnumeratedTrajectory]) -> TrajectoryTree:
    """The prefix tree of a hand-built trajectory list over the whole action
    space, nodes numbered in order of first appearance; it carries no
    states."""
    node_of: dict[tuple[Tactic, ...], int] = {(): 0}
    codes: dict[int, int] = {}  # by cell
    inbound = [-1]
    for i, t in enumerate(trajectories):
        for depth, tactic in enumerate(t.tactics):
            cell = node_of[t.tactics[:depth]] * N_ACTIONS + ACTION_INDEX[tactic]
            prefix = t.tactics[: depth + 1]
            if depth == len(t.tactics) - 1:
                codes[cell] = ~i
            elif prefix not in node_of:
                codes[cell] = node_of[prefix] = len(node_of)
                inbound.append(cell)
    cells = np.full(len(node_of) * N_ACTIONS, ABSENT, dtype=np.intp)
    cells[list(codes)] = list(codes.values())
    return TrajectoryTree(list(node_of), [], np.arange(N_ACTIONS), cells,
                          np.array(inbound, dtype=np.intp))


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


def _dist_policy_pass(net: PolicyNet, dist: ExactDist) -> np.ndarray:
    if dist.theorem is None or dist.tree is None:
        raise ValueError("needs a real theorem's enumeration from enumerate_trajectories")
    return _policy_pass(net, dist.tree, dist.action_set)[0]


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
    cell_logp = _dist_policy_pass(net, dist)
    column = {a: j for j, a in enumerate(dist.tree.actions.tolist())}
    width = len(column)
    leaf_cells = np.array([t.node * width + column[t.action] for t in dist.trajectories],
                          dtype=np.intp)
    probs = _trajectory_probs(dist.tree, cell_logp, leaf_cells)
    if not np.isfinite(probs.sum()):
        raise MassLeak(f"policy probabilities sum to {probs.sum()}, not a finite total")
    return probs


def tv_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation, half-L1 convention."""
    return float(0.5 * np.abs(np.asarray(p) - np.asarray(q)).sum())


def _flow_residuals(tree: TrajectoryTree, leaf_flow: np.ndarray, cell_p: np.ndarray) -> np.ndarray:
    """|F(s) * P_F(a|s) - F(child)| per cell, with ``leaf_flow`` the leaves'
    terminal rewards and each internal node's flow the sum of its row, added
    one cell at a time in column order; an absent cell has flow 0."""
    width = len(tree.actions)
    leaf = (tree.cells < 0) & (tree.cells != ABSENT)
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
    residual, and each edge's, node by node in column order. Pass
    ``edge_probs`` (prefix tuple of rendered tactics -> probability vector
    over that node's taken actions, in action-index order for a hand-built
    list) to check a hand-built policy instead of a network.
    """
    if net is None and edge_probs is None:
        raise ValueError("flow_check needs a net or explicit edge_probs")
    tree = dist.tree if dist.tree is not None else _tree_from_trajectories(dist.trajectories)
    taken = tree.cells != ABSENT
    if edge_probs is not None:
        cell_p = np.zeros(len(tree.cells))
        p_rows, taken_rows = (a.reshape(-1, len(tree.actions)) for a in (cell_p, taken))
        for node, history in enumerate(tree.histories):
            key = tuple(t.render() for t in history)
            p_rows[node, taken_rows[node]] = np.asarray(edge_probs[key], dtype=np.float64)
    else:
        cell_p = np.exp(_dist_policy_pass(net, dist))
    if dist.rewards is not None:
        leaf_flow = np.asarray(dist.rewards, dtype=np.float64)
    else:
        leaf_flow = np.exp(np.array([t.log_r for t in dist.trajectories]))
    residuals = _flow_residuals(tree, leaf_flow, cell_p)[taken]
    keys = [tree.histories[c] if c >= 0 else dist.trajectories[~c].tactics
            for c in tree.cells[taken].tolist()]
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


def oracle_report(net: PolicyNet, thm: Theorem, max_depth: int = MAX_PROOF_LEN,
                  spec: RewardSpec = RewardSpec(mode="binary"), rm=None,
                  action_set: tuple[int, ...] | None = None) -> OracleReport:
    """Full verification pass for one theorem: one walk, one policy forward,
    no per-trajectory object. ValueError, before the walk, unless
    ``max_depth`` is at least 1 and ``action_set`` is None or distinct
    action indices in [0, 36)."""
    walk = _walk(thm, max_depth, spec, rm, action_set)
    tree = walk.tree
    cell_logp, hidden = _policy_pass(net, tree, action_set)
    log_z = _logsumexp(walk.log_r)
    probs = _trajectory_probs(tree, cell_logp, walk.leaves)
    residuals = _flow_residuals(tree, np.exp(walk.log_r), np.exp(cell_logp))
    return OracleReport(
        theorem=thm.name,
        n_trajectories=len(walk.leaves),
        log_z=log_z,
        predicted_log_z=float(np.dot(net.store["wz"], hidden[0]) + net.store["bz"]),
        tv_distance=tv_distance(probs, np.exp(walk.log_r - log_z)),
        max_flow_residual=float(residuals.max(initial=0.0)),
    )


def reports_to_json(reports: list[OracleReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2)
