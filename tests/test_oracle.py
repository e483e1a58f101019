import json
import math
import os
import subprocess
import sys
from collections import Counter, namedtuple
from pathlib import Path

import numpy as np
import pytest

import flowprover.env as env_mod
import flowprover.gfn as gfn_mod
import flowprover.oracle as oracle_mod
from flowprover.env import (
    ACTION_CHARS,
    ACTION_INDEX,
    ACTIONS,
    ProofState,
    Tactic,
    apply_tactic,
    applicable_actions,
    parse_tactic,
    replay,
)
from flowprover.gfn import (
    BINARY,
    DEPTH_EXHAUSTED,
    ENV_ERROR,
    FULL_RM,
    PROVED,
    Trajectory,
    error_log_reward,
    log_reward,
    tb_loss_graph,
)
from flowprover.nn import Tape, log_softmax_np, mlp_forward_np
from flowprover.oracle import (
    MassLeak,
    TrajectoryTree,
    enumerate_trajectories,
    flow_check,
    flow_residuals,
    oracle_report,
    policy_trajectory_probs,
    tv_distance,
)
from flowprover.policy import (
    HISTORY,
    PolicyNet,
    action_logits,
    action_mask,
    encode_from_parts,
    predict_log_z,
)
from flowprover.reward_model import RewardModel

from conftest import MICRO_ACTION_SET, identity_theorem, micro_theorems


def two_leaf_tree() -> TrajectoryTree:
    """A root with two leaves, ``left`` (leaf 0) and ``right`` (leaf 1), in
    a two-column table."""
    columns = [ACTION_INDEX[parse_tactic(text)] for text in ("left", "right")]
    return TrajectoryTree([], np.array(columns), np.array([~0, ~1]), np.array([-1]))


class TestToyArithmetic:
    def test_partition_and_target(self):
        # the arithmetic behind ExactDist's log_z and target_probs
        log_r = np.log([1.0, 3.0])
        log_z = oracle_mod._logsumexp(log_r)
        assert log_z == pytest.approx(math.log(4.0), abs=0)
        assert np.allclose(np.exp(log_r - log_z), [0.25, 0.75], atol=1e-15)

    def test_flow_check_balanced_policy_residual_zero(self):
        residuals = flow_residuals(two_leaf_tree(), np.array([1.0, 3.0]), np.array([0.25, 0.75]))
        assert residuals.max() == 0.0
        assert len(residuals) == 2

    def test_flow_check_random_policy_large_residual(self):
        residuals = flow_residuals(two_leaf_tree(), np.array([1.0, 3.0]), np.array([0.5, 0.5]))
        assert residuals.max() > 0.1

    def test_tv_convention_half_l1(self):
        assert tv_distance([0.5, 0.5], [0.25, 0.75]) == pytest.approx(0.25, abs=0)
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == 1.0


class TestEnumeration:
    def test_uniform_policy_probs_are_36_pow_minus_depth(self):
        thm = identity_theorem("a -> a")
        net = PolicyNet.create(seed=0, scale=0.0)
        dist = enumerate_trajectories(thm, max_depth=3)
        probs = policy_trajectory_probs(net, dist)
        for t, p in zip(dist.trajectories, probs):
            assert p == pytest.approx(36.0 ** -len(t.tactics), rel=1e-9)

    def test_probs_sum_to_one(self):
        thm = identity_theorem("a & b -> a & b")
        net = PolicyNet.create(seed=1)
        dist = enumerate_trajectories(thm, max_depth=3)
        probs = policy_trajectory_probs(net, dist)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_restricted_action_set_probs_sum_to_one(self):
        thm = identity_theorem("a | b -> a | b")
        net = PolicyNet.create(seed=2)
        dist = enumerate_trajectories(thm, max_depth=2, action_set=MICRO_ACTION_SET)
        probs = policy_trajectory_probs(net, dist)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_target_probs_normalized_nonnegative(self):
        thm = identity_theorem("a -> a")
        dist = enumerate_trajectories(thm, max_depth=3)
        assert np.all(dist.target_probs >= 0)
        assert dist.target_probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_proved_count_agrees_with_breadth_first_oracle(self):
        # independent traversal: breadth-first queue over the same
        # termination semantics
        thm = identity_theorem("a -> a")
        dist = enumerate_trajectories(thm, max_depth=3)
        dfs_proved = sum(1 for t in dist.trajectories if t.outcome is PROVED)

        proved = 0
        queue = [(thm.initial_state, 0)]
        while queue:
            state, depth = queue.pop(0)
            if depth >= 3:
                continue
            for tac in ACTIONS:
                r = apply_tactic(state, tac)
                if r.proved:
                    proved += 1
                elif r.ok and depth + 1 < 3:
                    queue.append((r.state, depth + 1))
        assert proved == dfs_proved
        assert proved >= 1

    def test_trajectory_count_bounded(self):
        thm = identity_theorem("a -> a")
        dist = enumerate_trajectories(thm, max_depth=3)
        assert len(dist.trajectories) <= 36 + 36 ** 2 + 36 ** 3

    def test_log_z_finite_with_all_error_rewards(self):
        # depth-1 enumeration of an unprovable-at-depth-1 theorem: every
        # trajectory lands in the penalty branch, logsumexp must stay finite
        thm = identity_theorem("a -> a")
        dist = enumerate_trajectories(thm, max_depth=1)
        assert all(t.outcome is not PROVED for t in dist.trajectories)
        assert np.isfinite(dist.log_z)

    def test_mass_leak_detected(self):
        thm = identity_theorem("a -> a")
        net = PolicyNet.create(seed=3)
        dist = enumerate_trajectories(thm, max_depth=3)
        dist.leaves = dist.leaves[:-5]  # corrupt: not exhaustive
        with pytest.raises(MassLeak):
            policy_trajectory_probs(net, dist)

    def test_nan_net_is_a_mass_leak(self):
        # NaN probabilities pass a "total < 1" test, so the total is checked
        # for being finite
        net = PolicyNet.create(seed=0)
        net.store["w3"] = np.full_like(net.store["w3"], np.nan)
        dist = enumerate_trajectories(identity_theorem("a -> a"), max_depth=3)
        with pytest.raises(MassLeak, match="nan"):
            policy_trajectory_probs(net, dist)


class TestFlowCheckOnRealTheorems:
    def test_terminal_flow_equals_reward(self):
        thm = identity_theorem("a -> a")
        net = PolicyNet.create(seed=4)
        dist = enumerate_trajectories(thm, max_depth=2)
        # residuals are |F(s)P(c|s) - F(c)|; every leaf F is its reward by
        # construction, so residuals are finite and well-defined
        assert np.isfinite(flow_check(dist, net))

    def test_random_policy_has_visible_residual(self):
        thm = identity_theorem("a -> a")
        net = PolicyNet.create(seed=5)
        dist = enumerate_trajectories(thm, max_depth=2)
        assert flow_check(dist, net) > 0.1


class TestOracleReport:
    def test_report_fields(self):
        thm = identity_theorem("a -> a")
        net = PolicyNet.create(seed=6)
        rep = oracle_report(net, thm, max_depth=2)
        d = rep.to_dict()
        assert set(d) == {"theorem", "n_trajectories", "log_Z", "predicted_log_Z",
                          "tv_distance", "max_flow_residual"}
        assert 0.0 <= d["tv_distance"] <= 1.0


# -- the one-pass oracle against a per-trajectory reference -----------------


def reference_report(net, thm, max_depth, rm=None, action_set=None) -> dict:
    """The oracle the straightforward way: re-walk every trajectory for its
    final state, encode and forward one tree node at a time, and key the
    flow tree by rendered tactic prefixes."""
    actions = [ACTIONS[i] for i in action_set] if action_set is not None else list(ACTIONS)
    found = []  # (tactics, outcome, state before each tactic)

    def recurse(state, prefix, before):
        for tactic in actions:
            result = apply_tactic(state, tactic)
            tacs, pre = prefix + (tactic,), before + (state,)
            if result.proved:
                found.append((tacs, PROVED, pre))
            elif result.failed:
                found.append((tacs, ENV_ERROR, pre))
            elif len(tacs) >= max_depth:
                found.append((tacs, DEPTH_EXHAUSTED, pre))
            else:
                recurse(result.state, tacs, pre)

    recurse(thm.initial_state, (), ())
    log_rs = []
    for tacs, outcome, pre in found:
        states = pre
        if outcome != ENV_ERROR:
            last = apply_tactic(pre[-1], tacs[-1])
            states = pre + (ProofState(()) if last.proved else last.state,)
        log_rs.append(log_reward(Trajectory(thm.name, tacs, outcome, 0.0, proof_states=states),
                                 rm))
    log_rs = np.array(log_rs)
    top = log_rs.max()
    log_z = float(top + np.log(np.exp(log_rs - top).sum()))

    subset = np.asarray(action_set) if action_set is not None else None

    def node_log_probs(prefix, state):
        logits = action_logits(net, encode_from_parts(thm.initial_state, prefix, state, HISTORY))
        return log_softmax_np(logits if subset is None else logits[subset])

    def position(tactic):
        idx = ACTION_INDEX[tactic]
        return idx if subset is None else int(np.nonzero(subset == idx)[0][0])

    probs = []
    for tacs, _, pre in found:
        logp = 0.0
        for i, tactic in enumerate(tacs):
            logp += float(node_log_probs(tacs[:i], pre[i])[position(tactic)])
        probs.append(np.exp(logp))

    children, flows, state_of = {(): []}, {}, {}
    for (tacs, _, pre), log_r in zip(found, log_rs):
        key = tuple(t.render() for t in tacs)
        flows[key] = float(np.exp(log_r))
        for i in range(len(key)):
            state_of[key[:i]] = pre[i]
            kids = children.setdefault(key[:i], [])
            if key[: i + 1] not in kids:
                kids.append(key[: i + 1])
            children.setdefault(key[: i + 1], [])

    def flow(node):
        if node not in flows:
            flows[node] = sum(flow(c) for c in children[node])
        return flows[node]

    max_residual = 0.0
    for parent, kids in children.items():
        if kids:
            lps = node_log_probs(tuple(parse_tactic(t) for t in parent), state_of[parent])
            for kid in kids:
                p = np.exp(lps[position(parse_tactic(kid[-1]))])
                max_residual = max(max_residual, abs(flow(parent) * float(p) - flow(kid)))

    return {"n_trajectories": len(found), "log_Z": log_z,
            "predicted_log_Z": predict_log_z(net, thm),
            "tv_distance": tv_distance(probs, np.exp(log_rs - log_z)),
            "max_flow_residual": max_residual}


def head_net(seed: int) -> PolicyNet:
    """A random policy whose log-Z head is not zero."""
    net = PolicyNet.create(seed=seed)
    net.store["wz"] = np.random.default_rng(seed).normal(scale=0.3, size=net.hidden)
    net.store["bz"] = np.asarray(0.7)
    return net


class TestOnePassMatchesReference:
    @pytest.fixture(scope="class")
    def theorems(self):
        from flowprover.corpus import build_corpus

        return build_corpus(5, train_size=20, valid_size=2).train

    @pytest.mark.parametrize("action_set", [None, MICRO_ACTION_SET], ids=["full", "micro"])
    @pytest.mark.parametrize("mode", [BINARY, FULL_RM])
    def test_reports_agree(self, theorems, action_set, mode):
        net = head_net(seed=21)
        rm = RewardModel.create(seed=4) if mode == FULL_RM else None
        for thm in theorems:
            got = oracle_report(net, thm, max_depth=3, rm=rm, action_set=action_set).to_dict()
            want = reference_report(net, thm, 3, rm=rm, action_set=action_set)
            assert got["n_trajectories"] == want["n_trajectories"]
            assert got["log_Z"] == want["log_Z"]
            # The oracle reads log Z off row 0 of one batched forward; a
            # batched matrix product may round a row differently from a
            # single-row product, so the head output agrees to rounding.
            assert got["predicted_log_Z"] == pytest.approx(want["predicted_log_Z"],
                                                           rel=0, abs=1e-12)
            for key in ("tv_distance", "max_flow_residual"):
                assert got[key] == pytest.approx(want[key], rel=0, abs=1e-12), key

    @pytest.mark.parametrize("action_set", [None, MICRO_ACTION_SET], ids=["full", "micro"])
    def test_public_steps_agree_with_the_report(self, theorems, action_set):
        net = head_net(seed=24)
        for thm in theorems[:5]:
            report = oracle_report(net, thm, action_set=action_set)
            dist = enumerate_trajectories(thm, action_set=action_set)
            probs = policy_trajectory_probs(net, dist)
            assert dist.log_z == report.log_z
            assert tv_distance(probs, dist.target_probs) == report.tv_distance
            assert flow_check(dist, net) == report.max_flow_residual

    def test_predicted_log_z_exact_on_a_zero_head(self, theorems):
        net = PolicyNet.create(seed=22)  # log-Z head starts at zero, as after SFT
        for thm in theorems[:5]:
            assert oracle_report(net, thm).predicted_log_z == predict_log_z(net, thm)


# A leaf of the per-leaf walk: its tactics, outcome, log R, the state before
# each tactic, and the node and action index of its last tactic.
Leaf = namedtuple("Leaf", "tactics outcome log_r proof_states node action")


def per_leaf_walk(thm, max_depth, rm=None, action_set=None):
    """The reference for the table walk, one leaf at a time: every action
    of every node goes through ``apply_tactic``, every leaf becomes a
    ``Leaf`` as it is found, and an error leaf is scored by a scalar
    ``error_log_reward`` call. Returns the leaves and the tree's nodes
    (history, state) and edges (parent, action, child, or ~leaf)."""
    indices = range(len(ACTIONS)) if action_set is None else list(action_set)
    found, nodes, edges = [], [], []

    def visit(state, history, before, chars):
        node = len(nodes)
        nodes.append((history, state))
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
                elif result.ok and rm is not None:
                    outcome = DEPTH_EXHAUSTED
                    log_r = log_reward(Trajectory(thm.name, tacs, outcome, 0.0,
                                                  proof_states=before + (result.state,)), rm)
                else:
                    outcome = ENV_ERROR if result.failed else DEPTH_EXHAUSTED
                    log_r = error_log_reward(chars + ACTION_CHARS[a], depth)
                found.append(Leaf(tacs, outcome, log_r, before, node, a))
            edges.append((node, a, child))
        return node

    visit(thm.initial_state, (), (), 0)
    return found, nodes, np.array(edges, dtype=np.intp)


def per_leaf_report(net, thm, found, nodes, edges, action_set=None) -> dict:
    """An oracle report over the per-leaf walk's edge list: one batched
    forward over its nodes in walk order, log-probabilities summed down the
    edges, and node flows summed per depth level by ``np.bincount`` over
    each node's edges in walk order."""
    parents, actions, children = edges.T
    log_rs = np.array([t.log_r for t in found])
    top = log_rs.max()
    log_z = float(top + np.log(np.exp(log_rs - top).sum()))
    x = np.stack([encode_from_parts(thm.initial_state, history, state, HISTORY)
                  for history, state in nodes])
    logits, hidden = mlp_forward_np(net.store, x)
    mask = action_mask(action_set)
    log_probs = log_softmax_np(logits if mask is None else logits + mask)
    node_logp = np.zeros(len(nodes))
    inner = np.flatnonzero(children >= 0)
    for e in inner[np.argsort(children[inner])]:  # parents before children
        node_logp[children[e]] = node_logp[parents[e]] + log_probs[parents[e], actions[e]]
    leaf_nodes = np.array([t.node for t in found])
    probs = np.exp(node_logp[leaf_nodes] + log_probs[leaf_nodes, [t.action for t in found]])
    level = np.array([len(history) for history, _ in nodes])[parents]
    leaf = children < 0
    child_flow = np.zeros(len(children))
    child_flow[leaf] = np.exp(log_rs)[~children[leaf]]
    node_flow = np.zeros(len(nodes))
    for depth in range(level.max(), -1, -1):
        at = level == depth
        child_flow[at & ~leaf] = node_flow[children[at & ~leaf]]
        node_flow += np.bincount(parents[at], weights=child_flow[at], minlength=len(nodes))
    residuals = np.abs(node_flow[parents] * np.exp(log_probs[parents, actions]) - child_flow)
    return {"theorem": thm.name, "n_trajectories": len(found), "log_Z": log_z,
            "predicted_log_Z": float(np.dot(net.store["wz"], hidden[0]) + net.store["bz"]),
            "tv_distance": tv_distance(probs, np.exp(log_rs - log_z)),
            "max_flow_residual": float(residuals.max())}


def leaf_bits(leaves: list[Leaf]) -> list[tuple]:
    return [(t.tactics, t.outcome, t.log_r.hex(), t.proof_states, t.node, t.action)
            for t in leaves]


def dist_leaves(dist) -> list[Leaf]:
    """The enumeration's leaves as ``Leaf``s: tactics, outcome and log R of
    its trajectories, the states of their nodes, and the node and action
    of their leaf cells."""
    width = len(dist.tree.actions)
    leaves = []
    for t, cell in zip(dist.trajectories, dist.leaves.tolist()):
        node, column = divmod(cell, width)
        leaves.append(Leaf(t.tactics, t.outcome, t.log_r, tuple(n.state for n in t.nodes),
                           node, int(dist.tree.actions[column])))
    return leaves


class TestTableWalkMatchesPerLeafWalk:
    """The node x action table walk against a walk that goes one leaf at a
    time, with the report's arithmetic over its edge list: the same leaves
    and the same report, bit for bit."""

    @pytest.fixture(scope="class")
    def theorems(self):
        from flowprover.corpus import build_corpus

        return build_corpus(8, train_size=30, valid_size=1).train

    @pytest.mark.parametrize("action_set", [None, MICRO_ACTION_SET, (12, 4, 3, 0, 1, 2, 20, 5)],
                             ids=["full", "micro", "reordered"])
    @pytest.mark.parametrize("mode", [BINARY, FULL_RM])
    @pytest.mark.parametrize("max_depth", [3, 4])
    def test_leaves_and_reports(self, theorems, max_depth, mode, action_set):
        net = head_net(seed=26)
        rm = RewardModel.create(seed=4) if mode == FULL_RM else None
        outcomes = set()
        for thm in theorems:
            found, nodes, edges = per_leaf_walk(thm, max_depth, rm=rm, action_set=action_set)
            outcomes.update(t.outcome for t in found)
            dist = enumerate_trajectories(thm, max_depth=max_depth, rm=rm,
                                          action_set=action_set)
            assert leaf_bits(dist_leaves(dist)) == leaf_bits(found)
            assert [node.history for node in dist.tree.nodes] == [history for history, _ in nodes]
            want = per_leaf_report(net, thm, found, nodes, edges, action_set)
            assert dist.log_z.hex() == want["log_Z"].hex()
            report = oracle_report(net, thm, max_depth=max_depth, rm=rm,
                                   action_set=action_set).to_dict()
            assert json.dumps(report) == json.dumps(want)
        assert outcomes == {PROVED, ENV_ERROR, DEPTH_EXHAUSTED}


class TestLeavesAgreeWithTheTrainer:
    """Every leaf's outcome and log R against a plain walk of its tactics
    and the trainer's ``log_reward`` on that walk's states."""

    @pytest.fixture(scope="class")
    def theorems(self):
        from flowprover.corpus import build_corpus

        return build_corpus(7, train_size=10, valid_size=1).train

    @pytest.mark.parametrize("action_set", [None, MICRO_ACTION_SET], ids=["full", "micro"])
    @pytest.mark.parametrize("mode", [BINARY, FULL_RM])
    @pytest.mark.parametrize("max_depth", [3, 4])
    def test_every_leaf(self, theorems, max_depth, mode, action_set):
        rm = RewardModel.create(seed=4) if mode == FULL_RM else None
        outcomes = Counter()
        for thm in theorems:
            dist = enumerate_trajectories(thm, max_depth=max_depth, rm=rm,
                                          action_set=action_set)
            for leaf in dist.trajectories:
                walk = replay(thm.initial_state, leaf.tactics)
                outcome = (PROVED if walk.proved else ENV_ERROR if walk.failed
                           else DEPTH_EXHAUSTED)
                assert leaf.outcome == outcome, leaf.tactics
                assert outcome != DEPTH_EXHAUSTED or len(leaf.tactics) == max_depth
                assert tuple(n.state for n in leaf.nodes) == walk.states[:len(leaf.tactics)]
                want = log_reward(Trajectory(thm.name, leaf.tactics, outcome, 0.0,
                                             proof_states=walk.states), rm)
                assert leaf.log_r == want, leaf.tactics
                outcomes[outcome] += 1
        assert set(outcomes) == {PROVED, ENV_ERROR, DEPTH_EXHAUSTED}

    @pytest.mark.parametrize("mode", [BINARY, FULL_RM])
    def test_log_reward_only_for_partial_credit(self, theorems, mode, monkeypatch):
        rm = RewardModel.create(seed=4) if mode == FULL_RM else None
        net = head_net(seed=25)
        dists = [enumerate_trajectories(thm, rm=rm) for thm in theorems]
        calls = Counter()

        def spy(owner, name):
            fn = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        spy(gfn_mod, "log_reward")
        spy(oracle_mod, "log_reward")
        spy(gfn_mod, "apply_tactic")
        for thm, dist in zip(theorems, dists):
            calls.clear()
            oracle_report(net, thm, rm=rm)
            exhausted = sum(t.outcome == DEPTH_EXHAUSTED for t in dist.trajectories)
            assert calls["log_reward"] == (exhausted if mode == FULL_RM else 0)
            # one per (node, applicable action)
            assert calls["apply_tactic"] == sum(len(applicable_actions(node.state))
                                                for node in dist.tree.nodes)

    @pytest.mark.parametrize("action_set", [(0, 0, 1, 2, 3, 4), (-1, 0, 1, 2, 3), (0, 36), ()])
    def test_bad_action_set_raises_before_the_walk(self, action_set, monkeypatch):
        def walked(*args):
            raise AssertionError("walked")
        monkeypatch.setattr(gfn_mod, "apply_tactic", walked)
        thm = identity_theorem("a -> a")
        with pytest.raises(ValueError, match="action set"):
            enumerate_trajectories(thm, action_set=action_set)
        with pytest.raises(ValueError, match="action set"):
            oracle_report(PolicyNet.create(seed=0), thm, action_set=action_set)

    @pytest.mark.parametrize("max_depth", [0, -1])
    def test_depth_below_one_raises_before_the_walk(self, max_depth, monkeypatch):
        def walked(*args):
            raise AssertionError("walked")
        monkeypatch.setattr(gfn_mod, "apply_tactic", walked)
        thm = identity_theorem("a -> a")
        with pytest.raises(ValueError, match="max_depth"):
            enumerate_trajectories(thm, max_depth=max_depth)
        with pytest.raises(ValueError, match="max_depth"):
            oracle_report(PolicyNet.create(seed=0), thm, max_depth=max_depth)


class TestLeavesAreTrainerTrajectories:
    """``ExactDist.trajectories`` are trajectories the trainer reads: on the
    walk's own nodes, and with the loss graph's log P_F the oracle's exact
    trajectory probability."""

    @pytest.mark.parametrize("suite", ["corpus", "micro"])
    def test_loss_graph_log_pf_is_the_oracle_probability(self, suite):
        from flowprover.corpus import build_corpus

        if suite == "corpus":
            theorems, max_depth, action_set = build_corpus(9, 40, 0).train, 3, None
        else:
            theorems, max_depth, action_set = micro_theorems(), 2, MICRO_ACTION_SET
        net = head_net(seed=27)
        worst, n_leaves = 0.0, 0
        for thm in theorems:
            dist = enumerate_trajectories(thm, max_depth=max_depth, action_set=action_set)
            trajectories = dist.trajectories
            assert dist.trajectories is trajectories  # built once
            assert len(trajectories) == len(dist.leaves)
            nodes = {id(node) for node in dist.tree.nodes}
            for t, log_r in zip(trajectories, dist.log_r.tolist()):
                assert isinstance(t, Trajectory)
                assert t.theorem_name == thm.name and t.log_pf == 0.0
                assert t.log_r.hex() == log_r.hex()
                assert t.nodes[0] is dist.tree.nodes[0]
                assert all(id(node) in nodes for node in t.nodes)
                assert [node.history for node in t.nodes] == [t.tactics[:i]
                                                              for i in range(len(t))]
            _, info = tb_loss_graph(Tape(), net, trajectories, action_set=action_set)
            want = np.log(policy_trajectory_probs(net, dist))
            worst = max(worst, float(np.abs(info["log_pf"] - want).max()))
            n_leaves += len(trajectories)
        print(f"{suite}: {n_leaves} leaves, worst |log P_F - log p| {worst:.2e}")
        assert n_leaves > 10 * len(theorems)
        assert worst <= 1e-12


class TestOnePass:
    def test_one_forward_one_encoding_per_node_no_rendering(self, monkeypatch):
        from flowprover.corpus import build_corpus

        net = head_net(seed=23)
        theorems = build_corpus(6, train_size=6, valid_size=1).train
        dists = [enumerate_trajectories(thm, max_depth=3) for thm in theorems]
        calls = Counter()

        def spy(owner, name):
            fn = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        for name in ("mlp_forward_np", "Trajectory"):
            spy(oracle_mod, name)
        for name in ("encode_from_parts", "apply_tactic"):
            spy(gfn_mod, name)
        spy(Tactic, "render")
        spy(env_mod, "parse_tactic")
        assert not hasattr(oracle_mod, "parse_tactic")
        for thm, dist in zip(theorems, dists):
            calls.clear()
            oracle_report(net, thm, max_depth=3)
            assert calls["mlp_forward_np"] == 1
            assert calls["encode_from_parts"] == len(dist.tree.nodes)
            # one per (node, applicable action); every other action is a known error
            applicable = sum(len(applicable_actions(node.state)) for node in dist.tree.nodes)
            assert calls["apply_tactic"] == applicable < len(dist.tree.cells)
            # the binary reward scores every leaf without a trajectory object
            assert calls["Trajectory"] == 0
            assert calls["render"] == 0 and calls["parse_tactic"] == 0

    def test_tree_edges_cover_every_trajectory_once(self):
        thm = identity_theorem("a & b -> a & b")
        dist = enumerate_trajectories(thm, max_depth=3)
        tree = dist.tree
        cells = tree.cells.tolist()
        assert len(cells) == len(tree.nodes) * len(ACTIONS)
        leaves = sorted(~c for c in cells if c < 0)
        assert leaves == list(range(len(dist.trajectories)))
        for j, (t, leaf) in enumerate(zip(dist.trajectories, dist.leaves.tolist())):
            assert cells.index(~j) == leaf
            node, column = divmod(leaf, len(tree.actions))
            assert tree.nodes[node].history + (ACTIONS[tree.actions[column]],) == t.tactics
            assert t.nodes[-1] is tree.nodes[node]
        assert tree.inbound[0] == -1
        for node in range(1, len(tree.nodes)):
            assert cells[tree.inbound[node]] == node

    def test_misuse_raises_under_optimized_python(self):
        # the oracle's mass checks must hold with asserts stripped
        script = "\n".join([
            "import numpy as np",
            "from flowprover.corpus import Theorem",
            "from flowprover.env import initial_state, parse_tactic",
            "from flowprover.formulas import parse_formula",
            "from flowprover.oracle import MassLeak, enumerate_trajectories, policy_trajectory_probs",
            "from flowprover.policy import PolicyNet",
            "assert False, 'asserts are live'",
            "thm = Theorem('t', initial_state(parse_formula('a -> a')),",
            "              (parse_tactic('intro'), parse_tactic('exact h1')))",
            "cut = enumerate_trajectories(thm)",
            "cut.leaves = cut.leaves[:-5]",
            "nan_net = PolicyNet.create(seed=0)",
            "nan_net.store['w3'] = np.full_like(nan_net.store['w3'], np.nan)",
            "for net, dist in ((PolicyNet.create(seed=0), cut),",
            "                  (nan_net, enumerate_trajectories(thm))):",
            "    try:",
            "        policy_trajectory_probs(net, dist)",
            "    except MassLeak as exc:",
            "        print('MassLeak:', exc)",
        ])
        src_dir = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(src_dir), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("MassLeak: policy probabilities sum to 0.")
        assert lines[0].endswith(", enumeration must be exhaustive")
        assert lines[1] == "MassLeak: policy probabilities sum to nan, not a finite total"


class TestWalkReadsAProofTree:
    """The walk's nodes are the ``ProofNode``s of one fresh ``ProofTree``
    per call: each holds its history and encoding, applies exactly the
    applicable actions of the walk's columns, and has children only above
    the depth limit."""

    @pytest.fixture(scope="class")
    def theorems(self):
        from flowprover.corpus import build_corpus

        return build_corpus(6, train_size=6, valid_size=1).train

    @pytest.mark.parametrize("action_set", [None, MICRO_ACTION_SET], ids=["full", "micro"])
    @pytest.mark.parametrize("max_depth", [1, 3])
    def test_nodes_are_the_proof_tree(self, theorems, max_depth, action_set):
        for thm in theorems:
            tree = enumerate_trajectories(thm, max_depth=max_depth, action_set=action_set).tree
            columns = set(tree.actions.tolist())
            assert len({id(node) for node in tree.nodes}) == len(tree.nodes)
            assert tree.nodes[0].state == thm.initial_state
            assert tree.nodes[0].history == ()
            width = len(tree.actions)
            for n, node in enumerate(tree.nodes):
                history = node.history
                assert isinstance(node, gfn_mod.ProofNode)
                assert node.initial == thm.initial_state
                want = encode_from_parts(thm.initial_state, history, node.state, HISTORY)
                assert node.encoding().tobytes() == want.tobytes()
                assert set(node.results) == {a for a in applicable_actions(node.state)
                                             if a in columns}
                if len(history) + 1 == max_depth:
                    assert node.children == {}
                if n:
                    parent, column = divmod(int(tree.inbound[n]), width)
                    action = int(tree.actions[column])
                    assert tree.nodes[parent].children[action] is node
                    assert history == tree.nodes[parent].history + (ACTIONS[action],)

    def test_no_tree_is_kept_across_calls(self, theorems, monkeypatch):
        calls = Counter()
        apply = gfn_mod.apply_tactic

        def counted(*args):
            calls["apply_tactic"] += 1
            return apply(*args)
        monkeypatch.setattr(gfn_mod, "apply_tactic", counted)
        net = head_net(seed=23)
        for thm in theorems:
            counts = []
            for _ in range(2):
                calls.clear()
                oracle_report(net, thm)
                counts.append(calls["apply_tactic"])
            assert counts[0] == counts[1] > 0


class TestTargetIsRepresentable:
    """The history encoding can represent R/Z: internal nodes that share an
    encoding have the same target conditionals P(a|s) = F(child) / F(s),
    where F is the sum of the rewards below. Otherwise no policy over the
    encoding could sample proportionally to reward."""

    def test_nodes_sharing_an_encoding_share_target_conditionals(self):
        from flowprover.corpus import build_corpus

        conditionals: dict[bytes, list[np.ndarray]] = {}
        for thm in build_corpus(1, 1000, 20).train:
            dist = enumerate_trajectories(thm, max_depth=3)
            tree = dist.tree
            leaf = tree.cells < 0
            cell_flow = np.zeros(len(tree.cells))
            cell_flow[leaf] = np.exp(dist.log_r[~tree.cells[leaf]])
            rows = cell_flow.reshape(len(tree.nodes), len(ACTIONS))
            node_flow = np.zeros(len(tree.nodes))
            # nodes are numbered parents first, so this pass meets children first
            for node in range(len(tree.nodes) - 1, -1, -1):
                node_flow[node] = rows[node].sum()
                if node:
                    cell_flow[tree.inbound[node]] = node_flow[node]
                target = np.zeros(len(ACTIONS))
                target[tree.actions] = rows[node] / node_flow[node]
                key = encode_from_parts(thm.initial_state, tree.nodes[node].history,
                                        tree.nodes[node].state, HISTORY).tobytes()
                conditionals.setdefault(key, []).append(target)
        shared = [group for group in conditionals.values() if len(group) > 1]
        assert sum(map(len, conditionals.values())) == 3786
        assert shared  # 24 groups with the features as they are
        assert max(np.abs(t - group[0]).max() for group in shared for t in group) == 0.0
