"""The batched loss-graph builder: one taped forward per loss, the tape ops
it adds (segment sums, row takes, vector-weight matmuls) and the additive
action mask."""

import dataclasses

import numpy as np
import pytest

from flowprover import baselines, policy
from flowprover.baselines import PPOConfig, PPOTrainer
from flowprover.env import ACTION_INDEX, parse_tactic
from flowprover.gfn import (
    DEPTH_EXHAUSTED,
    ENV_ERROR,
    GFNTrainer,
    PROVED,
    ProofTree,
    TrainConfig,
    ground_truth,
    sample_trajectory,
    tb_loss,
    tb_loss_graph,
    tb_loss_value,
    trajectory_from_tactics,
)
from flowprover.nn import ParamStore, Tape, finite_difference_check, log_softmax_np
from flowprover.policy import (
    PolicyNet,
    action_logits,
    action_mask,
    encode_state,
    predict_log_z,
    rows_graph,
)
from flowprover.reward_model import RewardModel

from conftest import (
    MICRO_ACTION_SET,
    action_log_probs,
    biased_net,
    identity_theorem,
    replay_forward,
)


def _mixed_batch(net):
    """Two theorems; proved, error and depth-exhausted outcomes; an entry
    drawn twice (a stand-alone tree made from its states); online rollouts
    (tree nodes); and the injected ground truth (its walk's nodes)."""
    thm1 = identity_theorem("a -> a", name="t1")
    thm2 = identity_theorem("a & b -> a & b", name="t2")
    gt = ground_truth(ProofTree(thm1))
    error = trajectory_from_tactics(thm1, [parse_tactic("split")])
    exhausted = trajectory_from_tactics(thm2, [parse_tactic("intro")])
    assert (gt.outcome, error.outcome, exhausted.outcome) == (PROVED, ENV_ERROR,
                                                              DEPTH_EXHAUSTED)
    error.log_r, exhausted.log_r = -17.5, -3.25
    cfg = TrainConfig(mode="gfn_br_oo", max_depth=3)
    rng = np.random.default_rng(4)
    online = [sample_trajectory(thm, net, cfg, rng) for thm in (thm2, thm1, thm2)]
    assert all(t.nodes is not None for t in online)
    batch = [online[0], exhausted, error, exhausted, online[1], online[2], gt]
    return batch, {"t1": thm1, "t2": thm2}


class TestBatchedTB:
    @pytest.mark.parametrize("action_set", [None, MICRO_ACTION_SET])
    def test_matches_per_trajectory_recomputation(self, action_set):
        net = biased_net(jitter_seed=1)
        net.store["wz"] = np.random.default_rng(2).normal(scale=0.3, size=net.hidden)
        net.store["bz"] = np.asarray(0.7)
        batch, thms = _mixed_batch(net)
        if action_set is not None:
            allowed = set(action_set)
            batch = [t for t in batch if all(ACTION_INDEX[a] in allowed for a in t.tactics)]
            assert len(batch) >= 4
        log_zs = [predict_log_z(net, thms[t.theorem_name]) for t in batch]
        log_pfs = [replay_forward(net, t, action_set) for t in batch]
        expected = tb_loss_value([t.log_r for t in batch], log_zs, log_pfs)

        loss, info = tb_loss_graph(Tape(), net, batch, action_set=action_set)
        assert abs(float(loss.value) - expected) <= 1e-12
        assert np.allclose(info["log_pf"], log_pfs, rtol=0, atol=1e-12)
        assert np.allclose(info["log_z"], log_zs, rtol=0, atol=1e-12)
        assert abs(tb_loss(batch, net, action_set=action_set) - expected) <= 1e-12

    def test_trajectory_without_tactics_is_refused(self):
        thm = identity_theorem("a -> a")
        with pytest.raises(ValueError, match="at least one tactic"):
            trajectory_from_tactics(thm, [])
        traj = trajectory_from_tactics(thm, list(thm.gt_proof))
        with pytest.raises(ValueError, match="at least one tactic"):
            dataclasses.replace(traj, tactics=())


def _fd(build, store):
    tape = Tape()
    loss = build(tape, store)
    grads = tape.backward(loss)
    return finite_difference_check(lambda s: float(build(Tape(), s).value), store, grads)


class TestNewTapeOps:
    def _store(self):
        rng = np.random.default_rng(0)
        store = ParamStore()
        store.add("a", rng.normal(size=6))
        store.add("m", rng.normal(size=(4, 3)))
        store.add("w", rng.normal(size=3))
        return store

    def test_segment_sum_gradient(self):
        # segment 3 is empty and must come out as 0 with no gradient
        def build(tape, s):
            seg = tape.segment_sum(tape.param(s, "a"), [0, 2, 0, 1, 2, 2], 4)
            return tape.mean(tape.square(tape.tanh(seg)))

        assert _fd(build, self._store()) < 1e-4
        tape = Tape()
        out = tape.segment_sum(tape.leaf(np.arange(6.0)), [0, 2, 0, 1, 2, 2], 4)
        assert out.value.tolist() == [2.0, 3.0, 10.0, 0.0]

    def test_row_take_gradient(self):
        # a repeated row accumulates both gradients
        def build(tape, s):
            rows = tape.take(tape.param(s, "m"), [2, 0, 2])
            return tape.mean(tape.square(tape.tanh(rows)))

        assert _fd(build, self._store()) < 1e-4

    def test_vector_weight_matmul_gradient(self):
        def build(tape, s):
            per_row = tape.matmul(tape.tanh(tape.param(s, "m")), tape.param(s, "w"))
            single = tape.matmul(tape.take(tape.param(s, "a"), [[0, 1, 2]]), tape.param(s, "w"))
            return tape.add(tape.mean(tape.square(per_row)), tape.mean(tape.square(single)))

        assert _fd(build, self._store()) < 1e-4


class TestActionMask:
    def test_masked_log_softmax_is_subset_renormalisation(self):
        thm = identity_theorem("a & b -> a & b")
        net = PolicyNet.create(seed=5)
        enc = encode_state(thm, (), thm.initial_state)
        subset = np.asarray(MICRO_ACTION_SET)
        mask = action_mask(MICRO_ACTION_SET)
        expected = log_softmax_np(action_logits(net, enc)[subset])  # renormalised subset

        masked = log_softmax_np(action_logits(net, enc) + mask)
        assert np.allclose(masked[subset], expected, rtol=0, atol=1e-12)
        outside = np.setdiff1d(np.arange(36), subset)
        assert np.all(masked[outside] == -np.inf)
        assert np.array_equal(action_log_probs(net, enc, action_set=subset), masked)

        picked, _ = rows_graph(Tape(), net.store, np.stack([enc] * len(subset)), subset, mask)
        assert np.allclose(picked.value, expected, rtol=0, atol=1e-12)

    def test_full_action_space_has_no_mask(self):
        assert action_mask(None) is None

    def test_action_outside_the_set_is_refused(self):
        thm = identity_theorem("a -> a")
        traj = trajectory_from_tactics(thm, [parse_tactic("intro"), parse_tactic("exact h2")])
        assert ACTION_INDEX[traj.tactics[1]] not in MICRO_ACTION_SET
        with pytest.raises(ValueError):
            tb_loss([traj], PolicyNet.create(seed=0), action_set=MICRO_ACTION_SET)


class TestOneForwardPerStep:
    def _count(self, monkeypatch):
        calls = []
        original = policy.mlp_forward

        def spy(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(policy, "mlp_forward", spy)
        return calls

    def test_gfn_train_step(self, monkeypatch):
        thms = [identity_theorem("a -> a"), identity_theorem("a & b -> a & b", name="t2")]
        cfg = TrainConfig(mode="gfn", replay_p=0.5)
        trainer = GFNTrainer(thms, biased_net(), cfg, rm=RewardModel.create(seed=0), seed=3)
        calls = self._count(monkeypatch)
        replayed = 0
        for i in range(12):
            m = trainer.train_step(thms[i % 2])
            replayed += m.env_calls == 0
            assert len(calls) == i + 1
        assert replayed > 0  # replay steps were among those counted

    def test_ppo_epoch(self, monkeypatch):
        # one taped forward per epoch, the first of which is the old policy:
        # every tape-free forward is the sampler's, over one row
        thm = identity_theorem("a -> a")
        trainer = PPOTrainer([thm], biased_net(), TrainConfig(mode="ppo"), seed=4)
        calls = self._count(monkeypatch)
        plain_rows = []
        for module in (policy, baselines):
            original = module.mlp_forward_np
            monkeypatch.setattr(module, "mlp_forward_np", lambda store, x, _f=original:
                                plain_rows.append(np.ndim(x)) or _f(store, x))
        m = trainer.train_step(thm)
        assert len(calls) == PPOConfig().ppo_epochs
        assert m.env_calls > 1 and plain_rows and set(plain_rows) == {1}
