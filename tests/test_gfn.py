import dataclasses
import logging
import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowprover.baselines import PPOConfig, PPOTrainer, SFTTrainer
from flowprover.corpus import CorpusSplit, build_corpus
from flowprover.env import (
    ACTION_CHARS,
    ACTION_INDEX,
    ACTIONS,
    N_ACTIONS,
    ProofState,
    StepKind,
    Tactic,
    apply_tactic,
    applicable_actions,
    parse_tactic,
    state_fingerprint,
)
from flowprover.gfn import (
    ALL_MODES,
    BINARY,
    DEPTH_EXHAUSTED,
    ENV_ERROR,
    FULL_RM,
    GFN_MODES,
    GFNTrainer,
    N_SAMPLED,
    PROVED,
    ProofNode,
    ProofTree,
    ReplayBuffer,
    TrainConfig,
    Trajectory,
    error_branch_log_reward,
    error_log_reward,
    ground_truth,
    log_reward,
    sample_trajectories,
    sample_trajectory,
    tb_loss,
    tb_loss_graph,
    tb_loss_value,
    trajectory_from_tactics,
)
from flowprover.nn import Tape, global_grad_norm, update
from flowprover.policy import ENC_DIM, HISTORY, HISTORY_LESS, PolicyNet, encode_from_parts
from flowprover.reward_model import RewardModel, rm_train
from flowprover.runs import run_training
from flowprover.search import SearchConfig

from conftest import MICRO_ACTION_SET, identity_theorem, replay_forward

LN36 = math.log(36.0)


def make_traj(thm, tactics, outcome, states=None) -> Trajectory:
    return Trajectory(
        theorem_name=thm.name,
        tactics=tuple(tactics),
        proof_states=states if states is not None else (thm.initial_state,),
        outcome=outcome,
        log_pf=0.0,
    )


class TestLogReward:
    def test_proved_is_zero(self):
        thm = identity_theorem("a -> a")
        traj = trajectory_from_tactics(thm, list(thm.gt_proof))
        assert traj.outcome == PROVED
        assert log_reward(traj) == 0.0

    def test_error_branch_length_44(self):
        val = error_log_reward(44, 1)
        assert val == pytest.approx(-15.0 + 8.0 * math.log(44.0 / 88.0), abs=1e-12)
        assert val == pytest.approx(-20.5452, abs=1e-4)

    def test_error_branch_length_8(self):
        val = error_log_reward(8, 1)
        assert val == pytest.approx(-15.0 + 8.0 * math.log(80.0 / 88.0), abs=1e-12)
        assert val == pytest.approx(-15.7625, abs=1e-4)

    def test_mean_length_over_tactics(self):
        val = error_log_reward(40 + 48, 2)
        assert val == pytest.approx(-15.0 + 8.0 * math.log(0.5), abs=1e-12)

    def test_invalid_length_guard(self):
        from flowprover.gfn import InvalidLength

        with pytest.raises(InvalidLength):
            error_log_reward(88, 1)

    def test_mean_length_table_matches_rendering(self):
        assert ACTION_CHARS == tuple(len(t.render()) for t in ACTIONS)
        rng = np.random.default_rng(0)
        for _ in range(300):
            indices = rng.integers(0, len(ACTIONS), int(rng.integers(1, 4)))
            tactics = [ACTIONS[i] for i in indices]
            mean = float(np.mean([len(t.render()) for t in tactics]))
            want = -15.0 + 8.0 * float(np.log((88.0 - mean) / 88.0))
            assert error_branch_log_reward(tactics) == want
            total = sum(ACTION_CHARS[i] for i in indices)
            assert error_log_reward(total, len(tactics)) == want

    def test_mean_length_of_no_tactics_raises(self):
        with pytest.raises(ValueError):
            error_branch_log_reward([])
        with pytest.raises(ValueError):
            error_log_reward(0, 0)

    def test_binary_mode_maps_depth_exhausted_to_error_branch(self):
        thm = identity_theorem("a -> a")
        intro = parse_tactic("intro")
        s1 = ProofState((thm.initial_state.goals[0],))
        traj = make_traj(thm, [intro], DEPTH_EXHAUSTED,
                         states=(thm.initial_state, s1))
        assert log_reward(traj) == error_branch_log_reward([intro])

    def test_full_mode_uses_rm_partial_credit(self):
        thm = identity_theorem("a -> a")
        rm = RewardModel.create(seed=0, scale=0.0)  # uniform scorer
        intro = parse_tactic("intro")
        from flowprover.env import apply_tactic

        s1 = apply_tactic(thm.initial_state, intro).state
        traj = make_traj(thm, [intro], DEPTH_EXHAUSTED, states=(thm.initial_state, s1))
        expected = (1.0 / len("intro")) * (-LN36)
        assert log_reward(traj, rm=rm) == pytest.approx(expected)

    def test_env_error_uses_error_branch_in_full_mode(self):
        thm = identity_theorem("a -> a")
        split = parse_tactic("split")
        traj = make_traj(thm, [split], ENV_ERROR, states=(thm.initial_state,))
        rm = RewardModel.create(seed=0, scale=0.0)
        assert log_reward(traj, rm=rm) == error_branch_log_reward([split])


class TestSampleTrajectory:
    def test_uniform_policy_log_pf_arithmetic(self):
        thm = identity_theorem("a & b -> a & b")
        net = PolicyNet.create(seed=0, scale=0.0)
        cfg = TrainConfig(mode="gfn_br_oo")
        rng = np.random.default_rng(0)
        for _ in range(40):
            traj = sample_trajectory(thm, net, cfg, rng)
            assert traj.log_pf == pytest.approx(-len(traj) * LN36, abs=1e-9)
            if len(traj) == 3:
                assert traj.log_pf == pytest.approx(-3 * LN36, abs=1e-9)
                assert traj.log_pf == pytest.approx(-10.7506, abs=1e-4)

    def test_forced_proof_has_zero_log_reward(self):
        thm = identity_theorem("a -> a")
        traj = trajectory_from_tactics(thm, [parse_tactic("intro"), parse_tactic("exact h1")])
        assert traj.outcome == PROVED
        assert log_reward(traj) == 0.0

    def test_seeded_bit_exact_reproducibility(self):
        thm = identity_theorem("a | b -> a | b")
        net = PolicyNet.create(seed=1)
        cfg = TrainConfig(mode="gfn_br_oo")

        def run():
            rng = np.random.default_rng(99)
            return [sample_trajectory(thm, net, cfg, rng) for _ in range(1000)]

        t1, t2 = run(), run()
        for x, y in zip(t1, t2):
            assert x.tactics == y.tactics
            assert x.log_pf == y.log_pf
            assert x.log_r == y.log_r

    def test_depth_cap(self):
        thm = identity_theorem("a -> a")
        net = PolicyNet.create(seed=2)
        cfg = TrainConfig(mode="gfn_br_oo", max_depth=3)
        rng = np.random.default_rng(3)
        for _ in range(100):
            traj = sample_trajectory(thm, net, cfg, rng)
            assert 1 <= len(traj) <= 3
            assert traj.log_pf <= 0.0

    def test_outcomes_consistent_with_replay(self):
        from flowprover.env import replay

        thm = identity_theorem("(a -> b) -> (a -> b)")
        net = PolicyNet.create(seed=4)
        cfg = TrainConfig(mode="gfn_br_oo")
        rng = np.random.default_rng(5)
        for _ in range(60):
            traj = sample_trajectory(thm, net, cfg, rng)
            result = replay(thm.initial_state, list(traj.tactics))
            if traj.outcome == PROVED:
                assert result.proved
            elif traj.outcome == ENV_ERROR:
                assert result.failed
            else:
                assert result.ok

    def test_restricted_action_set(self):
        thm = identity_theorem("a -> a")
        net = PolicyNet.create(seed=6)
        cfg = TrainConfig(mode="gfn_br_oo", action_set=MICRO_ACTION_SET, max_depth=2)
        rng = np.random.default_rng(7)
        for _ in range(50):
            traj = sample_trajectory(thm, net, cfg, rng)
            from flowprover.env import ACTION_INDEX

            assert all(ACTION_INDEX[t] in MICRO_ACTION_SET for t in traj.tactics)

    def test_an_outcome_is_the_kind_of_the_last_step(self):
        for name, kind in ((PROVED, StepKind.PROVED), (ENV_ERROR, StepKind.ERROR),
                           (DEPTH_EXHAUSTED, StepKind.OK)):
            assert name is kind
        _, _, found = _one_rollout_per_outcome()
        for outcome, traj in found.items():
            assert traj.outcome is traj.nodes[-1].results[traj.tactics[-1]].kind is outcome
        with pytest.raises(ValueError, match="StepKind"):
            dataclasses.replace(found[PROVED], outcome="proved")

    def test_full_rm_without_a_reward_model_is_refused_before_any_draw(self):
        thm = identity_theorem("a -> a")
        tree, rng = ProofTree(thm), np.random.default_rng(3)
        before = rng.bit_generator.state
        for mode in ("gfn", "gfn_oo", "ppo"):
            with pytest.raises(ValueError, match="reward model"):
                sample_trajectories(tree, PolicyNet.create(seed=0), TrainConfig(mode=mode),
                                    rng, 5)
        assert rng.bit_generator.state == before
        assert tree.root.results == {}

    def test_the_binary_reward_ignores_a_reward_model(self):
        thm = identity_theorem("(a -> b) -> (a -> b)")
        cfg = TrainConfig(mode="gfn", reward_mode=BINARY, max_depth=3)

        def rollouts(rm):
            rng = np.random.default_rng(4)
            trajs = sample_trajectories(ProofTree(thm), _biased_net(10), cfg, rng, 200, rm=rm)
            return [(t.tactics, t.outcome, np.float64([t.log_pf, t.log_r]).tobytes())
                    for t in trajs], rng.bit_generator.state

        with_rm = rollouts(RewardModel.create(seed=2))
        assert with_rm == rollouts(None)
        assert {outcome for _, outcome, _ in with_rm[0]} == {PROVED, ENV_ERROR,
                                                             DEPTH_EXHAUSTED}


def _rollouts_over_updates(thm, net, cfg, rm, seed, trees):
    """Four batches of ten rollouts from one seeded generator, each followed
    by an optimizer step on its TB loss. The rollouts share one tree for the
    run (``trees="run"``) or take a fresh one per batch (``"batch"``) or per
    rollout (``"rollout"``). Returns them and the generator's state after."""
    rng = np.random.default_rng(seed)
    run_tree = ProofTree(thm)
    trajs = []
    for _ in range(4):
        if trees == "rollout":
            batch = [sample_trajectory(thm, net, cfg, rng, rm=rm) for _ in range(10)]
        else:
            tree = run_tree if trees == "run" else ProofTree(thm)
            batch = sample_trajectories(tree, net, cfg, rng, 10, rm=rm)
        tape = Tape()
        loss, _ = tb_loss_graph(tape, net, batch, action_set=cfg.action_set)
        update(net.store, tape, loss, cfg.lr)
        trajs += batch
    return trajs, rng.bit_generator.state


def _tempered_gfn_rollouts():
    return TrainConfig(mode="gfn", action_set=MICRO_ACTION_SET), RewardModel.create(seed=2)


def _ppo_rollouts():
    trainer = PPOTrainer([], PolicyNet.create(seed=0), TrainConfig(mode="ppo"),
                         rm=RewardModel.create(seed=2))
    return trainer.cfg, trainer.rm


def _biased_net(seed):
    """A random net whose output bias favours tactics that apply to the
    theorems below, so their rollouts share prefixes, branch after ``intro``
    and end in each of the three outcomes."""
    net = PolicyNet.create(seed=seed)
    bias = np.zeros(len(ACTIONS))
    for text, value in (("intro", 5.0), ("left", 4.0), ("right", 4.0), ("apply h1", 4.0),
                        ("exact h1", 3.0)):
        bias[ACTIONS.index(parse_tactic(text))] = value
    net.store["b3"] = bias
    return net


class TestProofNode:
    def test_each_view_is_made_once_and_matches_its_source(self, monkeypatch):
        import flowprover.gfn as gfn_mod

        calls = []
        for name in ("encode_from_parts", "applicable_actions", "state_fingerprint"):
            original = getattr(gfn_mod, name)
            monkeypatch.setattr(gfn_mod, name, lambda *a, _f=original, _n=name:
                                calls.append(_n) or _f(*a))
        thm = identity_theorem("(a -> b) -> (a -> b)")
        node = ProofTree(thm).root
        intro = parse_tactic("intro")
        assert node.apply(ACTIONS.index(intro)).ok and node.children == {}  # made on use only
        child = node.child(ACTIONS.index(intro))
        assert child is node.child(ACTIONS.index(intro)) and child.history == (intro,)
        for _ in range(2):
            enc = child.encoding(HISTORY)
            want = encode_from_parts(thm.initial_state, (intro,), child.state, HISTORY)
            assert enc.tobytes() == want.tobytes() and not enc.flags.writeable
            assert child.applicable() == applicable_actions(child.state)
            assert child.fingerprint() == state_fingerprint(child.state)
        assert sorted(calls) == ["applicable_actions", "encode_from_parts", "state_fingerprint"]
        # the HISTORY_LESS encoding is no view the node keeps: made on each call
        less = child.encoding(HISTORY_LESS)
        want = encode_from_parts(thm.initial_state, (intro,), child.state, HISTORY_LESS)
        assert less.tobytes() == want.tobytes() and child.encoding(HISTORY_LESS) is not less
        assert calls.count("encode_from_parts") == 3
        assert child.encoding(HISTORY).tobytes() != child.encoding(HISTORY_LESS).tobytes()
        with pytest.raises(ValueError, match="unknown encoding mode"):
            child.encoding("bogus")

    @pytest.mark.parametrize("mode", [HISTORY, HISTORY_LESS])
    def test_an_encoding_takes_one_byte_per_feature(self, mode):
        tree = ProofTree(identity_theorem("(a -> b) -> (a -> b)"))
        intro = ACTIONS.index(parse_tactic("intro"))
        assert tree.root.apply(intro).ok
        node = tree.root.child(intro)
        for enc in (tree.root.encoding(mode), node.encoding(mode)):
            assert enc.dtype == np.uint8 and enc.nbytes == ENC_DIM


class TestRolloutTree:
    """Rollouts over a theorem's ProofTree, which one run keeps for all of
    its batches."""

    @pytest.mark.parametrize("make", [_tempered_gfn_rollouts, _ppo_rollouts])
    def test_shared_tree_changes_no_bit(self, make):
        cfg, rm = make()
        outcomes = set()
        for goal in ("(a -> b) -> (a -> b)", "a | b -> a | b"):
            thm = identity_theorem(goal)
            for seed in range(3):
                nets = {trees: _biased_net(10 + seed) for trees in ("run", "batch", "rollout")}
                runs = {trees: _rollouts_over_updates(thm, net, cfg, rm, seed, trees)
                        for trees, net in nets.items()}
                shared, shared_rng = runs["run"]
                for fresh, fresh_rng in (runs["batch"], runs["rollout"]):
                    assert shared_rng == fresh_rng
                    for x, y in zip(shared, fresh, strict=True):
                        assert x.tactics == y.tactics
                        assert [n.state for n in x.nodes] == [n.state for n in y.nodes]
                        assert x.outcome == y.outcome
                        assert np.float64(x.log_pf).tobytes() == np.float64(y.log_pf).tobytes()
                        assert np.float64(x.log_r).tobytes() == np.float64(y.log_r).tobytes()
                        assert np.stack(x.encoding_rows()).tobytes() == \
                            np.stack(y.encoding_rows()).tobytes()
                        outcomes.add(x.outcome)
                # the updates moved the policy the first batch was drawn from
                assert replay_forward(nets["run"], shared[0], cfg.action_set) != shared[0].log_pf
        assert outcomes == {PROVED, ENV_ERROR, DEPTH_EXHAUSTED}

    @pytest.mark.parametrize("mode", ["gfn_oo", "gfn", "ppo"])
    def test_each_prefix_is_scored_once_and_each_step_applied_once(self, mode, monkeypatch):
        """Over a run: one encoding per distinct prefix, one apply per
        distinct (prefix, tactic) not on the ground truth's walk (which
        the trainer's construction made), one forward per distinct prefix of each batch,
        and nothing at all on a replay step."""
        import flowprover.baselines as baselines_mod
        import flowprover.gfn as gfn_mod
        import flowprover.policy as policy_mod

        thms = [identity_theorem("a | b -> a | b", name="t1"),
                identity_theorem("(a -> b) -> (a -> b)", name="t2")]
        cfg = TrainConfig(mode=mode)
        net, rm = _biased_net(12), RewardModel.create(seed=2)
        if mode == "ppo":
            trainer, module = PPOTrainer(thms, net, cfg, rm=rm, seed=3), baselines_mod
        else:
            trainer, module = GFNTrainer(thms, net, cfg, rm=rm, seed=3), gfn_mod
        calls = {"encode": 0, "forward": 0, "apply": 0}
        batches = []

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        sample = module.sample_trajectories

        def kept(*args, **kwargs):
            batch = sample(*args, **kwargs)
            batches.append(list(batch))  # the GFN trainer appends its ground truth
            return batch

        monkeypatch.setattr(module, "sample_trajectories", kept)
        monkeypatch.setattr(gfn_mod, "encode_from_parts",
                            counted("encode", gfn_mod.encode_from_parts))
        monkeypatch.setattr(policy_mod, "mlp_forward_np",
                            counted("forward", policy_mod.mlp_forward_np))
        monkeypatch.setattr(gfn_mod, "apply_tactic", counted("apply", gfn_mod.apply_tactic))
        prefixes, steps, replay_steps = set(), set(), 0
        gt_prefixes = {(t.name, t.gt_proof[:i]) for t in thms for i in range(len(t.gt_proof))}
        gt_steps = {(t.name, t.gt_proof[:i + 1]) for t in thms for i in range(len(t.gt_proof))}
        for k in range(12):
            thm = thms[k % 2]
            before, n_batches = dict(calls), len(batches)
            m = trainer.train_step(thm)
            if len(batches) == n_batches:
                replay_steps += 1
                assert calls == before and m.env_calls == 0
                continue
            trajs = batches[-1]
            batch_prefixes = {t.tactics[:i] for t in trajs for i in range(len(t))}
            prefixes |= {(thm.name, p) for p in batch_prefixes}
            steps |= {(thm.name, t.tactics[:i + 1]) for t in trajs for i in range(len(t))}
            assert len(trajs) == N_SAMPLED
            assert calls["forward"] - before["forward"] == len(batch_prefixes)
            assert m.env_calls == sum(map(len, trajs))
        if mode != "ppo":  # the injected ground truth is encoded, applied before the steps
            prefixes |= gt_prefixes
            steps -= gt_steps
        assert len(prefixes) > len({(name, len(p)) for name, p in prefixes})  # they branch
        assert calls["encode"] == len(prefixes)
        assert calls["apply"] == len(steps)
        assert sum(map(len, (t for b in batches for t in b))) > len(steps)
        assert (replay_steps > 0) == (mode == "gfn")  # only gfn replays


class _CopyingReplayBuffer:
    """The replay buffer as it was before entries became tree paths: a
    ``dataclasses.replace`` copy of each trajectory, drawn by the same
    generator calls."""

    def __init__(self, capacity: int = 64):
        self.capacity = capacity
        self._buffers = {}
        self.reads = 0

    def add(self, traj):
        buf = self._buffers.setdefault(traj.theorem_name, [])
        if len(buf) >= self.capacity:
            del buf[0]
        buf.append(dataclasses.replace(traj))

    def size(self, theorem_name):
        return len(self._buffers.get(theorem_name, ()))

    def sample(self, theorem_name, k, rng):
        buf = self._buffers[theorem_name]
        picks = rng.integers(0, len(buf), size=k)
        self.reads += int(k)
        return [buf[int(i)] for i in picks]


class TestReplay:
    def test_replay_forward_matches_fresh_log_pf_at_t1(self):
        thm = identity_theorem("a & b -> a & b")
        net = PolicyNet.create(seed=8)
        cfg = TrainConfig(mode="gfn_br_oo", temper_p=0.0)  # always T=1
        rng = np.random.default_rng(9)
        for _ in range(20):
            traj = sample_trajectory(thm, net, cfg, rng)
            assert replay_forward(net, traj) == pytest.approx(traj.log_pf, abs=0)

    def test_zero_net_replay(self):
        thm = identity_theorem("a -> a")
        net = PolicyNet.create(seed=0, scale=0.0)
        traj = trajectory_from_tactics(thm, list(thm.gt_proof))
        assert replay_forward(net, traj) == pytest.approx(-2 * LN36, abs=1e-9)

    def test_replay_forward_increases_after_step_toward_gt(self):
        thm = identity_theorem("a -> a")
        net = PolicyNet.create(seed=10)
        gt = trajectory_from_tactics(thm, list(thm.gt_proof))
        before = replay_forward(net, gt)
        cfg = TrainConfig(mode="gfn_br_oo", lr=1e-2)
        trainer = GFNTrainer([thm], net, cfg, seed=11)
        trainer.train_step(thm)  # batch contains the gt trajectory
        # single steps are noisy; several steps must strictly improve gt odds
        for _ in range(10):
            trainer.train_step(thm)
        assert replay_forward(net, gt) > before

    def test_buffer_fifo_capacity(self):
        buf = ReplayBuffer(capacity=3)
        thm = identity_theorem("a -> a")
        tree = ProofTree(thm)
        for i in range(5):
            t = ground_truth(tree)
            t.log_r = float(i)
            buf.add(t)
        assert buf.size(thm.name) == 3
        rng = np.random.default_rng(0)
        draws = buf.sample(thm.name, 64, rng)
        assert {e.log_r for e in draws} <= {2.0, 3.0, 4.0}

    @pytest.mark.parametrize("capacity", [1, 3, 64])
    def test_buffer_keeps_what_a_bounded_deque_keeps(self, capacity):
        # past capacity: the same entries in the same order, and the same draws
        thm = identity_theorem("a -> a")
        tree = ProofTree(thm)
        buf, ring = ReplayBuffer(capacity=capacity), deque(maxlen=capacity)
        for i in range(2 * capacity + 5):
            traj = ground_truth(tree)
            traj.log_r = float(i)
            buf.add(traj)
            ring.append(traj.log_r)
            assert [log_r for *_, log_r in buf._buffers[thm.name]] == list(ring)
            assert buf.size(thm.name) == len(ring) <= capacity
            rng, want_rng = np.random.default_rng(i), np.random.default_rng(i)
            drawn = [e.log_r for e in buf.sample(thm.name, 7, rng)]
            assert drawn == [ring[int(k)] for k in want_rng.integers(0, len(ring), size=7)]
            assert rng.random() == want_rng.random()

    def test_stored_log_r_frozen(self):
        buf = ReplayBuffer()
        thm = identity_theorem("a -> a")
        traj = ground_truth(ProofTree(thm))
        traj.log_r = -1.25
        buf.add(traj)
        traj.log_r = 99.0  # later mutation of the source must not leak in
        entry = buf.sample(thm.name, 1, np.random.default_rng(0))[0]
        assert entry.log_r == -1.25

    def test_entries_are_replay_trajectories_that_keep_their_nodes(self):
        thm = identity_theorem("(a -> b) -> (a -> b)")
        cfg = TrainConfig(mode="gfn_br_oo", max_depth=3)
        trajs = sample_trajectories(ProofTree(thm), _biased_net(10), cfg,
                                    np.random.default_rng(0), 200)
        assert {len(t) for t in trajs} == {1, 2, 3}  # paths of every length
        assert {t.outcome for t in trajs} == {PROVED, ENV_ERROR, DEPTH_EXHAUSTED}
        buf = ReplayBuffer(capacity=len(trajs))
        for traj in trajs:
            buf.add(traj)
        picks = np.random.default_rng(0).integers(0, len(trajs), size=len(trajs))
        entries = buf.sample(thm.name, len(trajs), np.random.default_rng(0))
        for k, entry in zip(picks, entries):
            traj = trajs[int(k)]
            assert isinstance(entry, Trajectory) and entry is not traj
            assert len(entry.nodes) == len(traj.nodes)
            for node, want in zip(entry.nodes, traj.nodes):
                assert node is want
            assert (entry.theorem_name, entry.tactics, entry.outcome, entry.log_r) == \
                (traj.theorem_name, traj.tactics, traj.outcome, traj.log_r)
            assert entry.log_pf == 0.0
            assert np.stack(entry.encoding_rows()).tobytes() == \
                np.stack(traj.encoding_rows()).tobytes()

    def test_an_entry_holds_a_node_an_action_index_and_a_log_reward(self):
        thm, _, found = _one_rollout_per_outcome()
        buf = ReplayBuffer()
        for traj in found.values():
            buf.add(traj)
        for entry, traj in zip(buf._buffers[thm.name], found.values(), strict=True):
            leaf, action, outcome, log_r = entry
            assert (type(leaf), type(action), type(outcome), type(log_r)) == \
                (ProofNode, Tactic, StepKind, float)
            assert leaf is traj.nodes[-1] and action is traj.tactics[-1]
            assert outcome is traj.outcome and log_r == traj.log_r

    def test_a_draw_returns_the_stored_outcome_and_log_reward(self):
        # the entry keeps the outcome and log R it was given: a later change
        # to the rollout, or to its leaf's results, does not reach a draw
        thm, _, found = _one_rollout_per_outcome()
        for outcome, traj in found.items():
            buf, log_r = ReplayBuffer(), traj.log_r
            buf.add(traj)
            traj.outcome, traj.log_r = PROVED if outcome is not PROVED else ENV_ERROR, 99.0
            traj.nodes[-1].results.clear()
            draw = buf.sample(thm.name, 1, np.random.default_rng(0))[0]
            assert (draw.outcome, draw.log_r) == (outcome, log_r)
            assert draw.tactics == traj.tactics and draw.root is traj.root

    def test_a_trajectory_that_is_no_tree_path_is_refused(self):
        # a theorem's entries share one tree: a trajectory of the same
        # theorem on another tree, a stand-alone one among them, is refused
        thm, _, found = _one_rollout_per_outcome()
        standalone = [Trajectory(theorem_name=thm.name, tactics=traj.tactics,
                                 proof_states=_states(traj), outcome=outcome,
                                 log_pf=traj.log_pf, log_r=traj.log_r)
                      for outcome, traj in found.items()]
        buf = ReplayBuffer()
        buf.add(found[PROVED])
        other = ground_truth(ProofTree(thm))  # the same theorem in a second tree
        for traj in (other, *standalone):
            with pytest.raises(ValueError, match="not a path of its theorem's tree"):
                buf.add(traj)
        assert buf.size(thm.name) == 1

    def test_every_oracle_leaf_is_taken_and_drawn_back(self, monkeypatch):
        # most leaves end in an action the walk skipped as inapplicable: their
        # node holds no result for it, and the buffer reads it as an error
        # step from the node's applicable actions, with no environment call
        from flowprover import gfn as gfn_mod
        from flowprover.oracle import enumerate_trajectories

        leaves = {thm.name: enumerate_trajectories(thm, max_depth=3).trajectories
                  for thm in build_corpus(1, 100, 0).train}
        assert sum(map(len, leaves.values())) == 12665
        assert sum(traj.tactics[-1] not in traj.nodes[-1].results
                   for trajs in leaves.values() for traj in trajs) == 12312

        def no_env_call(*args):
            raise AssertionError("the environment was called")
        monkeypatch.setattr(gfn_mod, "apply_tactic", no_env_call)
        monkeypatch.setattr(gfn_mod, "applicable_actions", no_env_call)
        buf = ReplayBuffer(capacity=10 ** 6)
        for name, trajs in leaves.items():
            for traj in trajs:
                buf.add(traj)
            assert buf.size(name) == len(trajs)
            picks = np.random.default_rng(0).integers(0, len(trajs), size=len(trajs))
            draws = buf.sample(name, len(trajs), np.random.default_rng(0))
            for k, draw in zip(picks, draws):
                traj = trajs[int(k)]
                assert (draw.tactics, draw.outcome, draw.log_r) == \
                    (traj.tactics, traj.outcome, traj.log_r)
                assert all(node is want for node, want in zip(draw.nodes, traj.nodes))

    def test_replay_through_tree_paths_changes_no_bit(self, monkeypatch):
        # 300 steps over 200 theorems under each reward: the same metrics
        # rows and parameters as a buffer that keeps trajectory copies
        from flowprover import gfn as gfn_mod

        split = build_corpus(3, 200, 20)
        rm = rm_train(split, epochs=5, seed=1)

        def run(reward_mode):
            trainer = GFNTrainer(split.train, PolicyNet.create(seed=5),
                                 TrainConfig(reward_mode=reward_mode),
                                 rm=rm if reward_mode == FULL_RM else None, seed=5)
            rows = [repr(dataclasses.astuple(trainer.train_step(thm)))
                    for thm in (split.train * 2)[:300]]
            store = trainer.net.store
            return rows, trainer.buffer.reads, store.flat_p.tobytes() + \
                store.flat_m.tobytes() + store.flat_v.tobytes()

        for reward_mode in (FULL_RM, BINARY):
            got = run(reward_mode)
            with monkeypatch.context() as patch:
                patch.setattr(gfn_mod, "ReplayBuffer", _CopyingReplayBuffer)
                want = run(reward_mode)
            assert want[1] > 0  # replay steps ran
            assert got == want

    def test_corrupt_entry_is_refused_when_made(self):
        thm = identity_theorem("a -> a")
        with pytest.raises(ValueError, match="3 states for 1 tactics"):
            Trajectory(theorem_name=thm.name, tactics=(parse_tactic("intro"),),
                       proof_states=(thm.initial_state,) * 3, outcome=PROVED, log_pf=0.0)


def _states(traj):
    """The states a trajectory's nodes reach, in the ``proof_states`` form:
    one per tactic, then the state its last tactic reaches unless it fails."""
    states = tuple(node.state for node in traj.nodes)
    if traj.outcome == PROVED:
        return states + (ProofState(()),)
    if traj.outcome == DEPTH_EXHAUSTED:
        return states + (traj.nodes[-1].results[ACTION_INDEX[traj.tactics[-1]]].state,)
    return states


def _one_rollout_per_outcome():
    thm = identity_theorem("(a -> b) -> (a -> b)")
    net = _biased_net(10)
    cfg = TrainConfig(mode="gfn_br_oo", max_depth=3)
    found = {}
    for traj in sample_trajectories(ProofTree(thm), net, cfg, np.random.default_rng(0), 200):
        found.setdefault(traj.outcome, traj)
    assert set(found) == {PROVED, ENV_ERROR, DEPTH_EXHAUSTED}
    return thm, net, found


class TestTrajectoryIsItsNodes:
    """A trajectory keeps its tree's root and reads its nodes from it, with
    no states of its own; one given by its states gets a stand-alone tree
    whose nodes encode the same."""

    def test_benchmark_ground_truth_matches_the_tree_walk_bit_for_bit(self, small_corpus):
        # a ground truth built from an own walk of states, as perfbench's
        # TB check builds it, scores the same TB loss as the tree's walk
        net = PolicyNet.create(seed=3)
        net.store["wz"] = np.random.default_rng(4).normal(scale=0.3, size=net.hidden)
        for thm in small_corpus.train[:12]:
            states = [thm.initial_state]
            for tactic in thm.gt_proof[:-1]:
                states.append(apply_tactic(states[-1], tactic).state)
            traj = Trajectory(theorem_name=thm.name, tactics=thm.gt_proof,
                              proof_states=tuple(states) + (ProofState(()),),
                              outcome=PROVED, log_pf=0.0, log_r=0.0)
            want = tb_loss([ground_truth(ProofTree(thm))], net)
            assert np.float64(tb_loss([traj], net)).tobytes() == np.float64(want).tobytes()

    def test_no_states_or_source_are_stored(self):
        thm, _, found = _one_rollout_per_outcome()
        buf = ReplayBuffer()
        buf.add(found[PROVED])
        trajs = [*found.values(), ground_truth(ProofTree(thm)),
                 trajectory_from_tactics(thm, list(thm.gt_proof)),
                 buf.sample(thm.name, 1, np.random.default_rng(0))[0]]
        for traj in trajs:
            for name in ("proof_states", "source", "initial_state"):
                with pytest.raises(AttributeError):
                    getattr(traj, name)

    def test_given_by_its_states_it_encodes_and_scores_the_same(self):
        thm, net, found = _one_rollout_per_outcome()
        rm = RewardModel.create(seed=2)
        for outcome, traj in found.items():
            again = Trajectory(theorem_name=thm.name, tactics=traj.tactics,
                               proof_states=_states(traj), outcome=outcome,
                               log_pf=traj.log_pf, log_r=traj.log_r)
            assert again == traj and not set(map(id, again.nodes)) & set(map(id, traj.nodes))
            assert np.stack(again.encoding_rows()).tobytes() == \
                np.stack(traj.encoding_rows()).tobytes()
            for given in (rm, None):
                want = np.float64(log_reward(traj, given)).tobytes()
                assert np.float64(log_reward(again, given)).tobytes() == want
            assert np.float64(tb_loss([again], net)).tobytes() == \
                np.float64(tb_loss([traj], net)).tobytes()

    def test_a_shape_that_does_not_fit_is_refused(self):
        thm, _, found = _one_rollout_per_outcome()
        for outcome, traj in found.items():
            fits = _states(traj)
            for states in (fits[:-1], fits + (fits[-1],)):  # one state short, one too many
                with pytest.raises(ValueError, match="states for"):
                    Trajectory(theorem_name=thm.name, tactics=traj.tactics,
                               proof_states=states, outcome=outcome, log_pf=0.0)
        with pytest.raises(ValueError, match="at least one tactic"):
            Trajectory(theorem_name=thm.name, tactics=(), proof_states=(thm.initial_state,),
                       outcome=DEPTH_EXHAUSTED, log_pf=0.0)
        traj = found[PROVED]
        with pytest.raises(ValueError, match="at least one tactic"):
            Trajectory(thm.name, (), ENV_ERROR, 0.0, root=traj.root)
        for given in ({}, {"root": traj.root, "proof_states": _states(traj)}):
            with pytest.raises(ValueError, match="exactly one of"):
                Trajectory(thm.name, traj.tactics, PROVED, 0.0, **given)

    def test_tactics_that_leave_the_tree_are_refused(self):
        # a trajectory's nodes are read down from its root, so its tactics
        # must stay in the tree, and the root must be one
        thm, _, found = _one_rollout_per_outcome()
        for traj in found.values():
            away = next(t for t in ACTIONS if all(t not in n.children for n in traj.nodes))
            for tactics in ((away,) + traj.tactics, traj.tactics[:-1] + (away, away)):
                with pytest.raises(ValueError, match="leave its tree"):
                    dataclasses.replace(traj, tactics=tactics)
            if len(traj) > 1:
                with pytest.raises(ValueError, match="starts below its tree's root"):
                    dataclasses.replace(traj, tactics=traj.tactics[1:], root=traj.nodes[1])

    def test_every_library_trajectory_reads_its_own_tree(self):
        # sampler, ground truth, buffer draw and oracle leaf: each one's
        # nodes are the tree's own objects, read down from the tree's root
        from flowprover.oracle import enumerate_trajectories

        thm = identity_theorem("(a -> b) -> (a -> b)")
        tree, buf = ProofTree(thm), ReplayBuffer(capacity=1000)
        cfg = TrainConfig(mode="gfn_br_oo", max_depth=3)
        sampled = sample_trajectories(tree, _biased_net(10), cfg, np.random.default_rng(0), 50)
        for traj in sampled:
            buf.add(traj)
        dist = enumerate_trajectories(thm, max_depth=3)
        kinds = {"sampled": (tree.root, sampled),
                 "ground truth": (tree.root, [ground_truth(tree)]),
                 "drawn": (tree.root, buf.sample(thm.name, 50, np.random.default_rng(1))),
                 "oracle": (dist.tree.nodes[0], dist.trajectories)}
        for kind, (root, trajs) in kinds.items():
            for traj in trajs:
                assert traj.root is root, kind
                node = root
                for i, (got, tactic) in enumerate(zip(traj.nodes, traj.tactics, strict=True)):
                    assert got is node and got.history == traj.tactics[:i], kind
                    node = node.children.get(tactic)


class TestTBLoss:
    def test_exact_balance_is_zero(self):
        assert tb_loss_value([0.0], [0.0], [0.0]) == 0.0

    def test_residual_arithmetic(self):
        # delta = log Z + log pf - log r; squared and averaged
        assert tb_loss_value([0.0], [1.0], [-1.0]) == 0.0
        assert tb_loss_value([0.0], [1.0], [1.0]) == 4.0

    def test_mean_of_squares(self):
        assert tb_loss_value([0.0, 0.0], [1.0, 3.0], [0.0, 0.0]) == 5.0

    def test_two_leaf_toy_optimum(self):
        log_rs = [math.log(1.0), math.log(3.0)]
        log_z = math.log(4.0)
        log_pfs = [math.log(0.25), math.log(0.75)]
        assert tb_loss_value(log_rs, [log_z, log_z], log_pfs) < 1e-12

    def test_tb_loss_on_trajectories(self):
        thm = identity_theorem("a -> a")
        net = PolicyNet.create(seed=0, scale=0.0)
        traj = trajectory_from_tactics(thm, list(thm.gt_proof))
        traj.log_r = 0.0
        # zero net: log Z = 0, log_pf = -2 ln 36
        expected = (0.0 + (-2 * LN36) - 0.0) ** 2
        assert tb_loss([traj], net) == pytest.approx(expected, abs=1e-9)


def _update_case(kind):
    """Parameters before, and a run of one step of ``kind`` returning
    (StepMetrics or None, parameters after, number of updates made)."""
    thms = [identity_theorem("a -> a"), identity_theorem("b -> b", name="t2")]
    if kind == "rm_train":
        before = RewardModel.create(seed=0).store
        return before, lambda: (None, rm_train(CorpusSplit(train=thms), epochs=2).store, 2)
    net = PolicyNet.create(seed=1)
    if kind == "gfn":
        trainer = GFNTrainer(thms, net, TrainConfig(mode="gfn_br_oo"), seed=0)
    elif kind == "sft":
        trainer = SFTTrainer(thms, net, TrainConfig(mode="sft"), seed=0)
    else:
        trainer = PPOTrainer(thms, net, TrainConfig(mode="ppo"), seed=0)
    updates = PPOConfig().ppo_epochs if kind == "ppo" else 1
    return net.store, lambda: (trainer.train_step(thms[0]), net.store, updates)


class TestTrainStep:
    def _trainer(self, mode, thms=None, seed=0, **kw):
        thms = thms or [identity_theorem("a -> a"), identity_theorem("b -> b", name="t2")]
        net = PolicyNet.create(seed=1)
        cfg = TrainConfig(mode=mode, **kw)
        rm = RewardModel.create(seed=0, scale=0.0) if cfg.reward_mode == FULL_RM else None
        return GFNTrainer(thms, net, cfg, rm=rm, seed=seed), thms

    def test_online_only_env_calls_match_traj_lengths(self, monkeypatch):
        trainer, thms = self._trainer("gfn_oo")
        batches = []
        from flowprover import gfn as gfn_mod

        original = gfn_mod.tb_loss_graph

        def spy(tape, net, batch, **kw):
            batches.append(list(batch))
            return original(tape, net, batch, **kw)

        monkeypatch.setattr(gfn_mod, "tb_loss_graph", spy)
        for i in range(10):
            m = trainer.train_step(thms[i % 2])
            online_steps = sum(len(t) for t in batches[-1]
                               if t is not trainer._gt[t.theorem_name])
            assert m.env_calls == online_steps
            assert m.env_calls > 0
        assert trainer.buffer.reads == 0

    def test_gfn_br_oo_never_reads_buffer(self):
        trainer, thms = self._trainer("gfn_br_oo")
        for i in range(10):
            trainer.train_step(thms[i % 2])
        assert trainer.buffer.reads == 0

    def test_replay_steps_make_no_env_calls(self):
        trainer, thms = self._trainer("gfn", seed=3, replay_p=1.0)
        first = trainer.train_step(thms[0])
        assert first.env_calls > 0  # buffer empty: forced online
        second = trainer.train_step(thms[0])
        assert second.env_calls == 0  # replay_p=1 and buffer non-empty
        assert trainer.buffer.reads == N_SAMPLED

    def test_gt_injected_in_every_batch(self, monkeypatch):
        trainer, thms = self._trainer("gfn_br_oo")
        seen = []
        from flowprover import gfn as gfn_mod

        original = gfn_mod.tb_loss_graph

        def spy(tape, net, batch, **kw):
            seen.append([t is trainer._gt[t.theorem_name] for t in batch])
            return original(tape, net, batch, **kw)

        monkeypatch.setattr(gfn_mod, "tb_loss_graph", spy)
        for i in range(6):
            trainer.train_step(thms[i % 2])
        for is_gt in seen:
            assert is_gt.count(True) == 1

    def test_inject_gt_flag_off(self, monkeypatch):
        trainer, thms = self._trainer("gfn_br_oo", inject_gt=False)
        seen = []
        from flowprover import gfn as gfn_mod

        original = gfn_mod.tb_loss_graph

        def spy(tape, net, batch, **kw):
            seen.append([t is trainer._gt[t.theorem_name] for t in batch])
            return original(tape, net, batch, **kw)

        monkeypatch.setattr(gfn_mod, "tb_loss_graph", spy)
        trainer.train_step(thms[0])
        assert seen[0] and not any(seen[0])

    def test_emits_one_metrics_row_per_step(self):
        trainer, thms = self._trainer("gfn_br_oo")
        rows = [trainer.train_step(thms[i % 2]) for i in range(25)]
        assert [m.step for m in rows] == list(range(1, 26))

    @pytest.mark.parametrize("kind", ["gfn", "sft", "ppo", "rm_train"])
    def test_nonfinite_gradient_skips_and_continues(self, kind, monkeypatch, caplog):
        # Every trainer updates through nn.update: a poisoned gradient leaves
        # the parameters as they were and logs one warning per skipped
        # update; a clean step reports the pre-clip norm of its gradients.
        store, step = _update_case(kind)
        original = Tape.backward
        grads_seen = []

        def poisoned(self, loss):
            grads = original(self, loss)
            first = next(iter(grads))
            grads[first] = np.full_like(grads[first], np.nan)
            return grads

        def recorded(self, loss):
            grads_seen.append(original(self, loss))
            return grads_seen[-1]

        def warnings():
            return [r for r in caplog.records
                    if r.name == "flowprover.nn" and r.levelno == logging.WARNING]

        monkeypatch.setattr(Tape, "backward", poisoned)
        params_before = {k: v.copy() for k, v in store.arrays.items()}
        with caplog.at_level(logging.WARNING):
            m, after, updates = step()
            assert len(warnings()) == updates
        for k, v in params_before.items():
            assert np.array_equal(after[k], v)
        if m is not None:
            assert m.grad_skipped and math.isnan(m.grad_norm)

        monkeypatch.setattr(Tape, "backward", recorded)
        caplog.clear()
        with caplog.at_level(logging.WARNING):
            m2, _, _ = step()
            assert warnings() == []
        if m2 is not None:
            assert not m2.grad_skipped
            assert math.isfinite(m2.grad_norm)
            assert m2.grad_norm == global_grad_norm(grads_seen[-1])

    def test_full_rm_mode_requires_rm(self):
        thms = [identity_theorem("a -> a")]
        with pytest.raises(ValueError):
            GFNTrainer(thms, PolicyNet.create(seed=0), TrainConfig(mode="gfn"), rm=None)

    def test_ground_truth_that_does_not_prove_is_refused(self):
        from flowprover.corpus import Theorem
        from flowprover.gfn import InvalidGroundTruth

        thm = identity_theorem("a -> a")
        bad = Theorem(name="bad", initial_state=thm.initial_state,
                      gt_proof=(parse_tactic("intro"),))
        with pytest.raises(InvalidGroundTruth):
            GFNTrainer([bad], PolicyNet.create(seed=0), TrainConfig(mode="gfn_br_oo"))

    def test_run_training_leaves_the_callers_config_alone(self, tmp_path):
        cfg = TrainConfig(mode="gfn", replay_p=0.5)
        run_training("gfn_br_oo", build_corpus(1, 4, 2), seed=7, steps=2, out_dir=tmp_path,
                     cfg=cfg, clock="off", val_every=0, checkpoint_every=0)
        assert cfg == TrainConfig(mode="gfn", replay_p=0.5)
        assert cfg.reward_mode == FULL_RM

    @pytest.mark.parametrize("make", [
        lambda: TrainConfig(mode="reinforce"),
        lambda: TrainConfig(mode="sft", action_set=(0, 1)),
        lambda: TrainConfig(mode="ppo", action_set=(0, 1)),
        lambda: TrainConfig(lr=float("inf")),
        lambda: TrainConfig(lr=0.0),
        lambda: SearchConfig(branching=0),
        lambda: SearchConfig(branching=37),
        lambda: SearchConfig(encoding_mode="flat"),
        lambda: SearchConfig(expansion_budget=-1),
        lambda: SearchConfig(max_depth=0),
        lambda: TrainConfig(mode="gfn", reward_mode="dense"),
        lambda: TrainConfig(action_set=(99,)),
        lambda: TrainConfig(action_set=(0, 0)),
        lambda: TrainConfig(action_set=()),
        lambda: TrainConfig(replay_p=-0.5),
        lambda: TrainConfig(max_depth=0),
        lambda: TrainConfig(replay_p=1.5),
        lambda: TrainConfig(temper_p=1.5),
        lambda: TrainConfig(temper_p=-0.5),
    ])
    def test_bad_config_raises_value_error(self, make):
        with pytest.raises(ValueError):
            make()

    def test_ppo_config_takes_no_arguments(self):
        with pytest.raises(TypeError):
            PPOConfig(clip_eps=0.1)
        assert dataclasses.asdict(PPOConfig()) == {"clip_eps": 0.2, "ppo_epochs": 4,
                                                   "value_coef": 0.5}

    def test_action_set_takes_numpy_integers_and_tactics_as_ints(self):
        cfg = TrainConfig(action_set=(np.int64(3), ACTIONS[5], 1))
        assert cfg.action_set == (3, 5, 1)
        assert all(type(i) is int for i in cfg.action_set)

    def test_reward_model_rule(self):
        with pytest.raises(ValueError):
            TrainConfig(mode="gfn_oo").for_reward_model(False)
        for mode in ("gfn", "gfn_oo", "ppo"):
            cfg = TrainConfig(mode=mode)
            assert cfg.for_reward_model(True) == cfg
        for cfg in (TrainConfig(mode="gfn", reward_mode=BINARY), TrainConfig(mode="gfn_br_oo"),
                    TrainConfig(mode="sft")):
            assert cfg.for_reward_model(False) == cfg
        assert TrainConfig(mode="ppo").for_reward_model(False) == \
            TrainConfig(mode="ppo", reward_mode=BINARY)

    def test_metrics_rows_are_on_disk_after_each_step(self, tmp_path, monkeypatch):
        split = build_corpus(1, 4, 2)
        run_training("sft", split, seed=3, steps=6, out_dir=tmp_path / "full", clock="off",
                     val_every=2, checkpoint_every=0)
        full = (tmp_path / "full" / "metrics.csv").read_text().splitlines(keepends=True)
        inner, k, seen = SFTTrainer.train_step, 4, []

        def failing(trainer, thm):
            if trainer.step_index == k - 1:
                seen.append((tmp_path / "cut" / "metrics.csv").read_text())
                raise RuntimeError("stop")
            return inner(trainer, thm)

        monkeypatch.setattr(SFTTrainer, "train_step", failing)
        with pytest.raises(RuntimeError):
            run_training("sft", split, seed=3, steps=6, out_dir=tmp_path / "cut", clock="off",
                         val_every=2, checkpoint_every=0)
        assert seen == ["".join(full[:k])]  # the header and k - 1 rows, written by step k
        assert (tmp_path / "cut" / "metrics.csv").read_text() == seen[0]

    def test_run_training_refuses_bad_mode_and_clock(self, tmp_path):
        split = build_corpus(1, 4, 2)
        for mode, clock in (("reinforce", "off"), ("sft", "wall")):
            with pytest.raises(ValueError):
                run_training(mode, split, seed=0, steps=1, out_dir=tmp_path, clock=clock)

    def test_oo_modes_force_replay_p_zero(self):
        assert TrainConfig(mode="gfn_oo", replay_p=0.7).replay_p == 0.0
        assert TrainConfig(mode="gfn_br_oo", replay_p=0.7).replay_p == 0.0
        assert TrainConfig(mode="gfn_br_oo").reward_mode == BINARY


@st.composite
def train_configs(draw) -> TrainConfig:
    """A valid TrainConfig: every one of its fields drawn (an action set
    only under a GFN mode, which alone takes one)."""
    mode = draw(st.sampled_from(ALL_MODES))
    subsets = st.lists(st.integers(0, N_ACTIONS - 1), min_size=1, unique=True).map(tuple)
    probability = st.floats(0.0, 1.0)
    return TrainConfig(
        lr=draw(st.floats(0.0, exclude_min=True, allow_infinity=False)),
        replay_p=draw(probability),
        temper_p=draw(probability),
        max_depth=draw(st.integers(1, 10 ** 6)),
        mode=mode,
        inject_gt=draw(st.booleans()),
        reward_mode=draw(st.sampled_from((FULL_RM, BINARY))),
        action_set=draw(st.none() | subsets) if mode in GFN_MODES else None,
    )


# Text of one line: no line break of any kind, no "=" and no comment mark.
_LINE_TEXT = st.text(st.characters(blacklist_categories=("Cc", "Cs", "Zl", "Zp"),
                                   blacklist_characters="=#"), min_size=1)
_FIELDS = tuple(f.name for f in dataclasses.fields(TrainConfig))


class TestConfigFile:
    """``TrainConfig.write`` then ``read`` is the identity, and a bad line
    of a ``--config`` file is a ValueError naming its ``path:line``."""

    def test_write_then_read_returns_an_equal_config(self, tmp_path):
        path = tmp_path / "config.txt"

        @given(train_configs())
        @settings(max_examples=200, deadline=None, derandomize=True)
        def check(cfg):
            cfg.write(path)
            assert TrainConfig.read(path) == cfg

        check()

    def test_a_bad_line_is_a_value_error_naming_its_line(self, tmp_path):
        path = tmp_path / "config.txt"
        bad_lines = st.one_of(
            _LINE_TEXT.filter(str.strip),  # junk: no "="
            _LINE_TEXT.filter(lambda key: key.strip() and key.strip() not in _FIELDS)
            .map(lambda key: f"{key} = 1"),  # an unknown key
            st.sampled_from(_FIELDS).map(lambda key: f"{key} = 1"),  # a repeated key
        )

        @given(train_configs(), bad_lines, st.data())
        @settings(max_examples=200, deadline=None, derandomize=True)
        def check(cfg, bad, data):
            cfg.write(path)
            lines = path.read_text().splitlines()
            # the repeated key's first line comes first; junk goes anywhere
            at = len(lines) if bad.split(" = ")[0] in _FIELDS else \
                data.draw(st.integers(0, len(lines)))
            path.write_text("\n".join(lines[:at] + [bad] + lines[at:]) + "\n")
            with pytest.raises(ValueError) as exc:
                TrainConfig.read(path)
            assert str(exc.value).startswith(f"{path}:{at + 1}: "), str(exc.value)

        check()

    @pytest.mark.parametrize("mark", ["\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                      "\u2028", "\u2029"])
    def test_only_a_newline_ends_a_line(self, mark, tmp_path):
        # str.splitlines also breaks at these; an editor shows them inside a line
        path = tmp_path / "config.txt"
        path.write_text(f"lr = 0.001 # a{mark}b\nbogus\n")
        with pytest.raises(ValueError) as exc:
            TrainConfig.read(path)
        assert str(exc.value) == f"{path}:2: expected key=value, got 'bogus'"
