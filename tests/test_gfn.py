import dataclasses
import logging
import math

import numpy as np
import pytest

from flowprover.baselines import PPOConfig, PPOTrainer, SFTTrainer
from flowprover.corpus import CorpusSplit, build_corpus
from flowprover.env import (
    ACTIONS,
    ProofState,
    applicable_actions,
    initial_state,
    parse_tactic,
    state_fingerprint,
)
from flowprover.gfn import (
    ACTION_CHARS,
    BINARY,
    DEPTH_EXHAUSTED,
    ENV_ERROR,
    FULL_RM,
    GFNTrainer,
    PROVED,
    ProofTree,
    ReplayBuffer,
    ReplayDiverged,
    RewardSpec,
    TrainConfig,
    Trajectory,
    error_branch_log_reward,
    error_log_reward,
    log_reward,
    sample_trajectories,
    sample_trajectory,
    tb_loss,
    tb_loss_graph,
    tb_loss_value,
    trajectory_from_tactics,
)
from flowprover.nn import Tape, global_grad_norm, update
from flowprover.policy import HISTORY, HISTORY_LESS, PolicyNet, encode_from_parts
from flowprover.reward_model import RewardModel, rm_train
from flowprover.runs import run_training
from flowprover.search import SearchConfig

from conftest import MICRO_ACTION_SET, identity_theorem, replay_forward

LN36 = math.log(36.0)


class _FakeTactic:
    """Stand-in with a fixed rendered length, for reward formula vectors."""

    def __init__(self, n: int):
        self._s = "x" * n

    def render(self) -> str:
        return self._s


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
        assert log_reward(traj, RewardSpec(mode=BINARY)) == 0.0

    def test_error_branch_length_44(self):
        val = error_branch_log_reward([_FakeTactic(44)], RewardSpec())
        assert val == pytest.approx(-15.0 + 8.0 * math.log(44.0 / 88.0), abs=1e-12)
        assert val == pytest.approx(-20.5452, abs=1e-4)

    def test_error_branch_length_8(self):
        val = error_branch_log_reward([_FakeTactic(8)], RewardSpec())
        assert val == pytest.approx(-15.0 + 8.0 * math.log(80.0 / 88.0), abs=1e-12)
        assert val == pytest.approx(-15.7625, abs=1e-4)

    def test_mean_length_over_tactics(self):
        val = error_branch_log_reward([_FakeTactic(40), _FakeTactic(48)], RewardSpec())
        assert val == pytest.approx(-15.0 + 8.0 * math.log(0.5), abs=1e-12)

    def test_invalid_length_guard(self):
        from flowprover.gfn import InvalidLength

        with pytest.raises(InvalidLength):
            error_branch_log_reward([_FakeTactic(88)], RewardSpec())

    def test_mean_length_table_matches_rendering(self):
        assert ACTION_CHARS == tuple(len(t.render()) for t in ACTIONS)
        spec = RewardSpec()
        rng = np.random.default_rng(0)
        for _ in range(300):
            indices = rng.integers(0, len(ACTIONS), int(rng.integers(1, 4)))
            tactics = [ACTIONS[i] for i in indices]
            mean = float(np.mean([len(t.render()) for t in tactics]))
            want = spec.error_base + spec.alpha * float(np.log((88.0 - mean) / 88.0))
            assert error_branch_log_reward(tactics, spec) == want
            total = sum(ACTION_CHARS[i] for i in indices)
            assert error_log_reward(total, len(tactics), spec) == want

    def test_mean_length_of_no_tactics_raises(self):
        with pytest.raises(ValueError):
            error_branch_log_reward([], RewardSpec())
        with pytest.raises(ValueError):
            error_log_reward(0, 0, RewardSpec())

    def test_binary_mode_maps_depth_exhausted_to_error_branch(self):
        thm = identity_theorem("a -> a")
        intro = parse_tactic("intro")
        s1 = ProofState((thm.initial_state.goals[0],))
        traj = make_traj(thm, [intro], DEPTH_EXHAUSTED,
                         states=(thm.initial_state, s1))
        spec = RewardSpec(mode=BINARY)
        assert log_reward(traj, spec) == error_branch_log_reward([intro], spec)

    def test_full_mode_uses_rm_partial_credit(self):
        thm = identity_theorem("a -> a")
        rm = RewardModel.create(seed=0, scale=0.0)  # uniform scorer
        intro = parse_tactic("intro")
        from flowprover.env import apply_tactic

        s1 = apply_tactic(thm.initial_state, intro).state
        traj = make_traj(thm, [intro], DEPTH_EXHAUSTED, states=(thm.initial_state, s1))
        expected = (1.0 / len("intro")) * (-LN36)
        assert log_reward(traj, RewardSpec(mode=FULL_RM), rm=rm) == pytest.approx(expected)

    def test_env_error_uses_error_branch_in_full_mode(self):
        thm = identity_theorem("a -> a")
        split = parse_tactic("split")
        traj = make_traj(thm, [split], ENV_ERROR, states=(thm.initial_state,))
        spec = RewardSpec(mode=FULL_RM)
        assert log_reward(traj, spec) == error_branch_log_reward([split], spec)


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
        assert log_reward(traj, RewardSpec(mode=BINARY)) == 0.0

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
        update(net.store, tape, loss, cfg.optim)
        trajs += batch
    return trajs, rng.bit_generator.state


def _tempered_gfn_rollouts():
    return TrainConfig(mode="gfn", action_set=MICRO_ACTION_SET), RewardModel.create(seed=2)


def _ppo_rollouts():
    trainer = PPOTrainer([], PolicyNet.create(seed=0), TrainConfig(mode="ppo"),
                         rm=RewardModel.create(seed=2))
    return trainer._rollout_cfg, trainer.rm


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
            for mode in (HISTORY, HISTORY_LESS):
                enc = child.encoding(mode)
                want = encode_from_parts(thm.initial_state, (intro,), child.state, mode)
                assert enc.tobytes() == want.tobytes() and not enc.flags.writeable
            assert child.applicable() == applicable_actions(child.state)
            assert child.fingerprint() == state_fingerprint(child.state)
        assert sorted(calls) == ["applicable_actions", "encode_from_parts", "encode_from_parts",
                                 "state_fingerprint"]
        assert child.encoding(HISTORY).tobytes() != child.encoding(HISTORY_LESS).tobytes()
        with pytest.raises(ValueError, match="unknown encoding mode"):
            child.encoding("bogus")


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
                        assert x.proof_states == y.proof_states
                        assert x.outcome == y.outcome
                        assert np.float64(x.log_pf).tobytes() == np.float64(y.log_pf).tobytes()
                        assert np.float64(x.log_r).tobytes() == np.float64(y.log_r).tobytes()
                        assert x.encodings().tobytes() == y.encodings().tobytes()
                        outcomes.add(x.outcome)
                # the updates moved the policy the first batch was drawn from
                assert replay_forward(nets["run"], shared[0], cfg.action_set) != shared[0].log_pf
        assert outcomes == {PROVED, ENV_ERROR, DEPTH_EXHAUSTED}

    @pytest.mark.parametrize("mode", ["gfn_oo", "gfn", "ppo"])
    def test_each_prefix_is_scored_once_and_each_step_applied_once(self, mode, monkeypatch):
        """Over a run: one encoding per distinct prefix, one apply per
        distinct (prefix, tactic) not on the ground truth's walk (which
        ``env.replay`` made), one forward per distinct prefix of each batch,
        and nothing at all on a replay step."""
        import flowprover.baselines as baselines_mod
        import flowprover.gfn as gfn_mod
        import flowprover.policy as policy_mod

        thms = [identity_theorem("a | b -> a | b", name="t1"),
                identity_theorem("(a -> b) -> (a -> b)", name="t2")]
        cfg = TrainConfig(mode=mode, n_sampled=12)
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
            assert len(trajs) == 12
            assert calls["forward"] - before["forward"] == len(batch_prefixes)
            assert m.env_calls == sum(map(len, trajs))
        if mode != "ppo":  # the injected ground truth is encoded, never applied
            prefixes |= gt_prefixes
            steps -= gt_steps
        assert len(prefixes) > len({(name, len(p)) for name, p in prefixes})  # they branch
        assert calls["encode"] == len(prefixes)
        assert calls["apply"] == len(steps)
        assert sum(map(len, (t for b in batches for t in b))) > len(steps)
        assert (replay_steps > 0) == (mode == "gfn")  # only gfn replays


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
        for i in range(5):
            t = trajectory_from_tactics(thm, list(thm.gt_proof))
            t.log_r = float(i)
            buf.add(t)
        assert buf.size(thm.name) == 3
        rng = np.random.default_rng(0)
        draws = buf.sample(thm.name, 64, rng)
        assert {e.log_r for e in draws} <= {2.0, 3.0, 4.0}

    def test_stored_log_r_frozen(self):
        buf = ReplayBuffer()
        thm = identity_theorem("a -> a")
        traj = trajectory_from_tactics(thm, list(thm.gt_proof))
        traj.log_r = -1.25
        buf.add(traj)
        traj.log_r = 99.0  # later mutation of the source must not leak in
        entry = buf.sample(thm.name, 1, np.random.default_rng(0))[0]
        assert entry.log_r == -1.25

    def test_entries_are_replay_trajectories_that_keep_their_nodes(self):
        buf = ReplayBuffer()
        thm = identity_theorem("a -> a")
        cfg = TrainConfig(mode="gfn_br_oo")
        traj = sample_trajectory(thm, PolicyNet.create(seed=0), cfg, np.random.default_rng(1))
        assert len(traj.nodes) == len(traj.tactics)
        buf.add(traj)
        entry = buf.sample(thm.name, 1, np.random.default_rng(0))[0]
        assert isinstance(entry, Trajectory)
        assert entry.source == "replay" and entry.nodes is traj.nodes
        assert (entry.tactics, entry.proof_states, entry.outcome, entry.log_r) == \
            (traj.tactics, traj.proof_states, traj.outcome, traj.log_r)
        stateless = dataclasses.replace(entry, nodes=None)  # encoded from its states
        assert entry.encodings().tobytes() == stateless.encodings().tobytes()

    def test_replay_diverged_on_corrupt_entry(self):
        thm = identity_theorem("a -> a")
        net = PolicyNet.create(seed=0)
        bad = Trajectory(theorem_name=thm.name, tactics=(parse_tactic("intro"),),
                         proof_states=(thm.initial_state,) * 3, outcome=PROVED,
                         log_pf=0.0)
        with pytest.raises(ReplayDiverged):
            replay_forward(net, bad)


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
            online_steps = sum(len(t) for t in batches[-1] if t.source == "online")
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
        assert trainer.buffer.reads == trainer.cfg.n_sampled

    def test_gt_injected_in_every_batch(self, monkeypatch):
        trainer, thms = self._trainer("gfn_br_oo")
        seen = []
        from flowprover import gfn as gfn_mod

        original = gfn_mod.tb_loss_graph

        def spy(tape, net, batch, **kw):
            seen.append([t.source for t in batch])
            return original(tape, net, batch, **kw)

        monkeypatch.setattr(gfn_mod, "tb_loss_graph", spy)
        for i in range(6):
            trainer.train_step(thms[i % 2])
        for sources in seen:
            assert sources.count("ground_truth") == 1

    def test_inject_gt_flag_off(self, monkeypatch):
        trainer, thms = self._trainer("gfn_br_oo", inject_gt=False)
        seen = []
        from flowprover import gfn as gfn_mod

        original = gfn_mod.tb_loss_graph

        def spy(tape, net, batch, **kw):
            seen.append([t.source for t in batch])
            return original(tape, net, batch, **kw)

        monkeypatch.setattr(gfn_mod, "tb_loss_graph", spy)
        trainer.train_step(thms[0])
        assert all(s == "online" for s in seen[0])

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

        def poisoned(self, loss, seed=1.0):
            grads = original(self, loss, seed)
            first = next(iter(grads))
            grads[first] = np.full_like(grads[first], np.nan)
            return grads

        def recorded(self, loss, seed=1.0):
            grads_seen.append(original(self, loss, seed))
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
        lambda: PPOConfig(clip_eps=1.5),
        lambda: RewardSpec(alpha=0.0),
        lambda: RewardSpec(mode="dense"),
        lambda: SearchConfig(branching=0),
        lambda: SearchConfig(branching=37),
        lambda: SearchConfig(encoding_mode="flat"),
        lambda: SearchConfig(expansion_budget=-1),
        lambda: SearchConfig(max_depth=0),
        lambda: TrainConfig(mode="gfn", reward_mode="dense"),
        lambda: TrainConfig(action_set=(99,)),
        lambda: TrainConfig(action_set=(0, 0)),
        lambda: TrainConfig(action_set=()),
        lambda: TrainConfig(n_sampled=0),
        lambda: TrainConfig(max_depth=0),
        lambda: TrainConfig(replay_p=1.5),
        lambda: TrainConfig(temper_low=0),
        lambda: TrainConfig(buffer_capacity=0),
    ])
    def test_bad_config_raises_value_error(self, make):
        with pytest.raises(ValueError):
            make()

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
