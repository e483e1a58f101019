import math

import numpy as np
import pytest

from flowprover.corpus import CorpusSplit
from flowprover.env import ACTIONS, Goal, ProofState, apply_tactic, initial_state, parse_tactic
from flowprover.formulas import Atom, Implies, parse_formula
from flowprover.baselines import gt_top1_accuracy
from flowprover.gfn import GFNTrainer, TrainConfig
from flowprover.policy import HISTORY_LESS, PolicyNet
from flowprover.reward_model import (
    NEGATIVE,
    POSITIVE,
    UNCERTAIN,
    LabeledTactic,
    RewardModel,
    classify_found_proof,
    mine_hard_negatives,
    rm_train,
    save_labeled,
)

from conftest import biased_net, identity_theorem


class TestScoring:
    def test_scores_normalize(self):
        rm = RewardModel.create(seed=1)
        s = initial_state(parse_formula("a -> a"))
        total = sum(math.exp(rm.score(s, t)) for t in ACTIONS)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_uniform_model_scores(self):
        rm = RewardModel.create(seed=0, scale=0.0)
        s = initial_state(parse_formula("a & b"))
        for t in ACTIONS[:6]:
            assert rm.score(s, t) == pytest.approx(-math.log(36.0), abs=1e-12)
            assert rm.score(s, t) == pytest.approx(-3.5835, abs=1e-4)

    def test_score_is_history_independent(self):
        # the scorer sees only the current state
        rm = RewardModel.create(seed=2)
        thm = identity_theorem("p -> p | p")
        s1 = apply_tactic(thm.initial_state, parse_tactic("intro")).state
        left = apply_tactic(s1, parse_tactic("left")).state
        right = apply_tactic(s1, parse_tactic("right")).state
        assert left == right
        t = parse_tactic("exact h1")
        assert rm.score(left, t) == rm.score(right, t)


class TestTraining:
    def test_loss_decreases_over_first_epochs(self, small_corpus):
        rm = rm_train(small_corpus, epochs=6, seed=0)
        losses = rm.epoch_losses
        assert losses[3] < losses[0]
        assert losses[-1] < losses[0]

    def test_accuracy_improves_with_training(self, small_corpus):
        untrained = RewardModel.create(seed=0)
        trained = rm_train(small_corpus, epochs=12, seed=0)
        assert gt_top1_accuracy(trained, small_corpus.train, HISTORY_LESS) > \
            gt_top1_accuracy(untrained, small_corpus.train, HISTORY_LESS) + 0.2

    def test_gt_scores_beat_median_on_validation(self, small_corpus):
        trained = rm_train(small_corpus, epochs=12, seed=0)
        wins = 0
        total = 0
        for thm in small_corpus.valid:
            state = thm.initial_state
            for t in thm.gt_proof:
                lps = trained.log_probs(state)
                from flowprover.env import ACTION_INDEX

                if lps[ACTION_INDEX[t]] > np.median(lps):
                    wins += 1
                total += 1
                r = apply_tactic(state, t)
                state = r.state if r.ok else ProofState(())
        assert wins / total >= 0.8

    def test_frozen_during_gfn_training(self, small_corpus):
        rm = rm_train(CorpusSplit(train=small_corpus.train[:10], valid=[]), epochs=2, seed=0)
        before = rm.fingerprint()
        net = PolicyNet.create(seed=1)
        trainer = GFNTrainer(small_corpus.train[:4], net,
                             TrainConfig(mode="gfn"), rm=rm, seed=2)
        for i in range(8):
            trainer.train_step(small_corpus.train[i % 4])
        assert rm.fingerprint() == before


class TestMining:
    def test_budget_zero_labels_all_valid_tactics_negative(self):
        thm = identity_theorem("a & b -> a & b")
        net = biased_net(jitter_seed=3)
        pairs = mine_hard_negatives(net, thm, explore_budget=0, n_rollouts=24, seed=4)
        failed = [p for p in pairs if p.label != POSITIVE]
        # proved rollouts still contribute positives; everything explored
        # under a zero budget must be negative
        assert all(p.label == NEGATIVE for p in failed)
        assert failed, "expected at least one failed rollout"

    def test_one_step_closable_child_is_positive(self):
        # child state h1 : a |- a closes in one expansion, so the intro that
        # produced it is labeled positive under any budget >= 1
        thm = identity_theorem("a -> a")
        net = biased_net(jitter_seed=5)
        pairs = mine_hard_negatives(net, thm, explore_budget=36, n_rollouts=32, seed=6)
        intro_labels = {p.label for p in pairs
                        if p.tactic == parse_tactic("intro")
                        and p.state == thm.initial_state}
        assert intro_labels == {POSITIVE}

    def test_error_tactics_never_labeled(self):
        thm = identity_theorem("a -> a")
        net = biased_net(jitter_seed=7)
        pairs = mine_hard_negatives(net, thm, explore_budget=4, n_rollouts=40, seed=8)
        for p in pairs:
            assert not apply_tactic(p.state, p.tactic).failed

    def test_negative_labels_are_sound(self):
        from flowprover.search import SearchConfig, search_from_state

        thm = identity_theorem("(a -> b) -> (a -> b)")
        net = biased_net(jitter_seed=9)
        budget = 24
        pairs = mine_hard_negatives(net, thm, explore_budget=budget, n_rollouts=24, seed=10)
        cfg = SearchConfig(expansion_budget=budget, branching=36)
        for p in pairs:
            if p.label == NEGATIVE:
                child = apply_tactic(p.state, p.tactic)
                assert child.ok
                assert not search_from_state(net, child.state, cfg).proved

    def test_uncertain_classification(self):
        # apply h1 on (a -> a) |- a maps the state to itself, so a proof
        # found from the child begins by re-deriving the parent
        g = Goal((("h1", Implies(Atom("a"), Atom("a"))),), Atom("a"))
        extra = Goal((), Atom("q"))
        parent = ProofState((g, extra))
        child = apply_tactic(parent, parse_tactic("apply h1")).state
        assert child == parent
        proof = (parse_tactic("apply h1"), parse_tactic("exact h1"))
        assert classify_found_proof(parent, child, proof) == UNCERTAIN
        proof2 = (parse_tactic("exact h1"),)
        assert classify_found_proof(parent, child, proof2) == POSITIVE


class TestLabeledIO:
    def test_jsonl_schema(self, tmp_path):
        import json

        s = initial_state(parse_formula("a -> a"))
        pairs = [LabeledTactic(s, parse_tactic("intro"), POSITIVE)]
        path = tmp_path / "pairs.jsonl"
        save_labeled(pairs, path)
        row = json.loads(path.read_text().splitlines()[0])
        assert set(row) == {"state", "tactic", "label"}
        assert row["tactic"] == "intro"
