import math

import numpy as np
import pytest

from flowprover import baselines
from flowprover.baselines import (
    PPOConfig,
    PPOTrainer,
    SFTTrainer,
    gt_top1_accuracy,
    ppo_loss_graph,
    ppo_surrogate_terms,
)
from flowprover.env import ACTIONS, apply_tactic
from flowprover.gfn import TrainConfig
from flowprover.nn import Tape, finite_difference_check, mlp_forward_np
from flowprover.policy import HISTORY, HISTORY_LESS, PolicyNet, encode_from_parts, encode_state
from flowprover.reward_model import RewardModel, cross_entropy_graph, gt_pairs

from conftest import identity_theorem


def greedy_decode(net, thm, max_depth=3) -> list:
    """Reference: follow argmax actions from the initial state."""
    state = thm.initial_state
    history: list = []
    for _ in range(max_depth):
        enc = encode_from_parts(thm.initial_state, history, state, HISTORY)
        logits, _ = mlp_forward_np(net.store, enc)
        tactic = ACTIONS[int(np.argmax(logits))]
        history.append(tactic)
        result = apply_tactic(state, tactic)
        if not result.ok:
            break
        state = result.state
    return history


LN36 = math.log(36.0)


class TestSFT:
    def test_uniform_init_loss_is_mean_reduced(self):
        # two steps, each -log(1/36), mean over steps
        thm = identity_theorem("a -> a")
        net = PolicyNet.create(seed=0, scale=0.0)
        trainer = SFTTrainer([thm], net, TrainConfig(mode="sft"), seed=1)
        m = trainer.train_step(thm)
        assert m.loss == pytest.approx(LN36, abs=1e-9)
        assert m.loss == pytest.approx(3.5835, abs=1e-4)

    def test_never_touches_environment(self):
        thm = identity_theorem("a & b -> a & b")
        net = PolicyNet.create(seed=2)
        trainer = SFTTrainer([thm], net, TrainConfig(mode="sft"), seed=3)
        for _ in range(20):
            assert trainer.train_step(thm).env_calls == 0

    def test_overfit_single_theorem_greedy_decodes_gt(self):
        thm = identity_theorem("a | b -> a | b")
        net = PolicyNet.create(seed=4)
        cfg = TrainConfig(mode="sft", lr=5e-3)
        trainer = SFTTrainer([thm], net, cfg, seed=5)
        for _ in range(300):
            trainer.train_step(thm)
        assert tuple(greedy_decode(net, thm)) == thm.gt_proof
        assert gt_top1_accuracy(net, [thm]) == 1.0

    def test_cross_entropy_gradient_check(self):
        thm = identity_theorem("a -> a")
        net = PolicyNet.create(seed=6, hidden=10)
        x, y = gt_pairs([thm], HISTORY)

        def compute(store):
            tape = Tape()
            loss = cross_entropy_graph(tape, store, x, y)
            return loss, tape

        loss, tape = compute(net.store)
        grads = tape.backward(loss)
        err = finite_difference_check(lambda s: float(compute(s)[0].value), net.store, grads)
        assert err < 1e-4


class TestGroundTruthRows:
    """``gt_pairs`` builds SFT's rows (HISTORY) and the reward model's
    (HISTORY_LESS); ``gt_top1_accuracy`` reads either model over them."""

    @pytest.mark.parametrize("mode", [HISTORY, HISTORY_LESS])
    def test_rows_are_each_steps_encoding(self, small_corpus, mode):
        theorems = small_corpus.train[:12]
        x, y = gt_pairs(theorems, mode)
        want_x, want_y = [], []
        for thm in theorems:
            state = thm.initial_state
            for i, tactic in enumerate(thm.gt_proof):
                want_x.append(encode_from_parts(thm.initial_state, thm.gt_proof[:i], state,
                                                mode))
                want_y.append(ACTIONS.index(tactic))
                state = apply_tactic(state, tactic).state
        assert x.dtype == np.uint8 and y.dtype == np.intp
        assert x.tobytes() == np.stack(want_x).tobytes()
        assert y.tolist() == want_y

    @pytest.mark.parametrize("mode", [HISTORY, HISTORY_LESS])
    def test_top1_accuracy_counts_every_step_once(self, small_corpus, mode):
        # one stacked forward gives the share of hits over single-row forwards
        theorems = small_corpus.train[:20]
        for model in (PolicyNet.create(seed=3), RewardModel.create(seed=3)):
            model.store["b3"][0] += 1.0  # toward intro, so some steps hit and some miss
            hits = total = 0
            for row, action in zip(*gt_pairs(theorems, mode)):
                logits, _ = mlp_forward_np(model.store, row)
                hits += int(np.argmax(logits) == action)
                total += 1
            assert 0 < hits < total
            assert gt_top1_accuracy(model, theorems, mode) == hits / total


def _ppo_instance(seed=0, hidden=10, n_steps=4):
    """Random small PPO batch over real encodings."""
    thm = identity_theorem("a & b -> a & b")
    net = PolicyNet.create(seed=seed, hidden=hidden, with_value_head=True)
    rng = np.random.default_rng(seed + 1)
    steps = []
    for i in range(n_steps):
        enc = encode_state(thm, (), thm.initial_state)
        enc = enc + rng.normal(scale=0.1, size=enc.shape)  # decorrelate states
        steps.append((enc, int(rng.integers(36)), float(rng.normal())))
    old_logps = [float(rng.normal(loc=-3.5, scale=0.2)) for _ in steps]
    advantages = [float(rng.normal()) for _ in steps]
    return net, steps, old_logps, advantages


class TestPPOArithmetic:
    def test_clip_inactive_at_ratio_one(self):
        assert ppo_surrogate_terms(1.0, 2.5, 0.2) == 2.5

    def test_positive_advantage_clip(self):
        assert ppo_surrogate_terms(2.0, 1.0, 0.2) == pytest.approx(1.2)

    def test_negative_advantage_clip(self):
        assert ppo_surrogate_terms(0.5, -1.0, 0.2) == pytest.approx(-0.8)

    def test_clipped_branch_zero_gradient(self):
        # ratio = exp(p - old); p chosen so the clipped branch is selected
        tape = Tape()
        from flowprover.nn import ParamStore

        store = ParamStore()
        store.add("p", np.asarray(math.log(2.0)))
        p = tape.param(store, "p")
        ratio = tape.exp(p)  # ratio = 2, outside [0.8, 1.2]
        adv = 1.0
        unclipped = tape.scale(ratio, adv)
        clipped = tape.scale(tape.clip(ratio, 0.8, 1.2), adv)
        objective = tape.minimum(unclipped, clipped)
        grads = tape.backward(objective)
        assert grads["p"] == 0.0

    def test_unclipped_branch_nonzero_gradient(self):
        tape = Tape()
        from flowprover.nn import ParamStore

        store = ParamStore()
        store.add("p", np.asarray(0.0))
        p = tape.param(store, "p")
        ratio = tape.exp(p)  # ratio = 1, inside the clip band
        unclipped = tape.scale(ratio, 1.0)
        clipped = tape.scale(tape.clip(ratio, 0.8, 1.2), 1.0)
        objective = tape.minimum(unclipped, clipped)
        grads = tape.backward(objective)
        assert grads["p"] != 0.0


class TestPPOGraph:
    def test_surrogate_and_value_gradient_check(self):
        net, steps, old_logps, advantages = _ppo_instance()

        def compute(store):
            tape = Tape()
            loss, _, _ = ppo_loss_graph(tape, net, steps, old_logps, advantages, PPOConfig())
            return loss, tape

        loss, tape = compute(net.store)
        grads = tape.backward(loss)
        err = finite_difference_check(lambda s: float(compute(s)[0].value), net.store, grads,
                                      max_coords_per_param=12)
        assert err < 1e-4

    def test_value_mse_gradient_check(self):
        net, steps, old_logps, advantages = _ppo_instance(seed=3)

        def compute(store):
            tape = Tape()
            _, _, value_mse = ppo_loss_graph(tape, net, steps, old_logps, advantages,
                                             PPOConfig())
            return value_mse, tape

        mse, tape = compute(net.store)
        grads = tape.backward(mse)
        err = finite_difference_check(lambda s: float(compute(s)[0].value), net.store, grads,
                                      max_coords_per_param=12)
        assert err < 1e-4

    def test_zero_advantage_zero_policy_gradient(self):
        net, steps, old_logps, _ = _ppo_instance(seed=5)
        tape = Tape()
        _, surrogate, _ = ppo_loss_graph(tape, net, steps, old_logps,
                                         [0.0] * len(steps), PPOConfig())
        grads = tape.backward(surrogate)
        for name, g in grads.items():
            assert np.allclose(g, 0.0), name


class TestPPOTrainer:
    def test_runs_and_reports(self):
        thm = identity_theorem("a -> a")
        net = PolicyNet.create(seed=7)
        trainer = PPOTrainer([thm], net, TrainConfig(mode="ppo"), seed=8)
        m = trainer.train_step(thm)
        assert m.mode == "ppo"
        assert m.env_calls > 0
        assert np.isfinite(m.loss)

    def test_ratio_one_on_first_epoch_surrogate_is_mean_advantage(self, monkeypatch):
        # a real step: the first epoch's forward is the old policy, so every
        # ratio is exactly 1, the clip is inactive, and the surrogate reduces
        # to the advantage mean; later epochs keep that old policy
        thm = identity_theorem("b -> b")
        net = PolicyNet.create(seed=9, with_value_head=True)
        trainer = PPOTrainer([thm], net, TrainConfig(mode="ppo"), seed=10)
        ratios, epochs = [], []
        exp, epoch_graph = Tape.exp, baselines._epoch_graph

        def exp_spy(tape, a):  # the ratio is the only exp in a PPO graph
            ratios.append(exp(tape, a))
            return ratios[-1]

        def epoch_spy(*args):
            out = epoch_graph(*args)
            epochs.append((float(out[0][1].value), *out[1]))
            return out

        monkeypatch.setattr(Tape, "exp", exp_spy)
        monkeypatch.setattr(baselines, "_epoch_graph", epoch_spy)
        trainer.train_step(thm)
        assert len(ratios) == len(epochs) == PPOConfig().ppo_epochs
        assert ratios[0].value.tolist() == [1.0] * ratios[0].value.size
        surrogate, old_logps, advantages = epochs[0]
        assert surrogate == pytest.approx(float(np.mean(advantages)), abs=1e-12)
        for _, later_old, later_advantages in epochs[1:]:
            assert later_old is old_logps and later_advantages is advantages

    def test_value_head_only_trained_by_ppo(self, small_corpus):
        thm = small_corpus.train[0]
        net = PolicyNet.create(seed=11, with_value_head=True)
        wv_before = net.store["wv"].copy()
        sft = SFTTrainer([thm], net, TrainConfig(mode="sft"), seed=12)
        for _ in range(5):
            sft.train_step(thm)
        # weight decay is part of AdamW; zero-initialized value weights see
        # no gradient and no decay drift
        assert np.array_equal(net.store["wv"], wv_before)
        ppo = PPOTrainer([thm], net, TrainConfig(mode="ppo"), seed=13)
        ppo.train_step(thm)
        assert not np.array_equal(net.store["wv"], wv_before)
