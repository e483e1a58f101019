import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flowprover.gfn as gfn_mod
import flowprover.runs as runs_mod
import flowprover.search as search_mod
from flowprover.env import ACTION_INDEX, N_ACTIONS, applicable_actions, parse_tactic, replay
from flowprover.gfn import ProofTree
from flowprover.policy import HISTORY, HISTORY_LESS, PolicyNet
from flowprover.reward_model import RewardModel
from flowprover.runs import run_training
from flowprover.search import SearchConfig, best_first_search, evaluate_split, search_from_state

from conftest import biased_net, identity_theorem


def rigged_net() -> PolicyNet:
    """Zero trunk with output biases ranking intro first, exact h1 second."""
    net = PolicyNet.create(seed=0, scale=0.0)
    b3 = np.zeros(36)
    b3[ACTION_INDEX[parse_tactic("intro")]] = 5.0
    b3[ACTION_INDEX[parse_tactic("exact h1")]] = 4.0
    net.store["b3"] = b3
    return net


def run_optimized(script: str) -> str:
    """Standard output of ``script`` run under ``python -O`` (asserts
    stripped), with the sources and the test helpers importable."""
    tests_dir = Path(__file__).resolve().parent
    src_dir = tests_dir.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src_dir), str(tests_dir), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestBestFirstSearch:
    def test_rigged_policy_proves_identity_in_two_expansions(self):
        thm = identity_theorem("a -> a")
        outcome = best_first_search(rigged_net(), thm, SearchConfig())
        assert outcome.proved
        assert outcome.expansions <= 2
        assert outcome.proof == thm.gt_proof

    def test_budget_zero(self):
        thm = identity_theorem("a -> a")
        outcome = best_first_search(rigged_net(), thm, SearchConfig(expansion_budget=0))
        assert not outcome.proved
        assert outcome.expansions == 0

    def test_returned_proofs_replay(self, small_corpus):
        net = PolicyNet.create(seed=1)
        cfg = SearchConfig()
        for thm in small_corpus.valid:
            outcome = best_first_search(net, thm, cfg)
            if outcome.proved:
                assert replay(thm.initial_state, list(outcome.proof)).proved

    def test_deterministic_reports(self, small_corpus):
        net = PolicyNet.create(seed=2)
        cfg = SearchConfig()
        r1 = evaluate_split(net, small_corpus.valid, cfg)
        r2 = evaluate_split(net, small_corpus.valid, cfg)
        assert r1.to_json() == r2.to_json()

    def test_budget_monotonicity(self, small_corpus):
        net = PolicyNet.create(seed=3)
        solved = []
        for budget in (0, 5, 20, 100):
            cfg = SearchConfig(expansion_budget=budget)
            solved.append(evaluate_split(net, small_corpus.valid, cfg).solved)
        assert solved == sorted(solved)

    def test_dedupe_never_loses_solves(self, small_corpus):
        net = PolicyNet.create(seed=4)
        with_dedupe = evaluate_split(net, small_corpus.valid, SearchConfig(dedupe=True))
        without = evaluate_split(net, small_corpus.valid, SearchConfig(dedupe=False))
        solved_with = {r["name"] for r in with_dedupe.per_theorem if r["solved"]}
        solved_without = {r["name"] for r in without.per_theorem if r["solved"]}
        assert solved_without <= solved_with

    def test_depth_cap_respected(self):
        # a theorem needing 4 steps is out of reach at max_depth 3
        thm = identity_theorem("a -> a & a")  # real proof: intro,split,exact,exact
        net = rigged_net()
        outcome = best_first_search(net, thm, SearchConfig(expansion_budget=5000))
        assert not outcome.proved

    def test_search_from_arbitrary_state(self):
        from flowprover.env import apply_tactic

        thm = identity_theorem("a -> a")
        child = apply_tactic(thm.initial_state, parse_tactic("intro")).state
        outcome = search_from_state(rigged_net(), child, SearchConfig())
        assert outcome.proved
        assert outcome.proof == (parse_tactic("exact h1"),)


class TestApplicableActions:
    def test_only_applicable_actions_are_applied_and_reports_are_unchanged(self, small_corpus,
                                                                            monkeypatch):
        net = biased_net(jitter_seed=5)
        theorems = small_corpus.valid + small_corpus.train[:20]
        applied = []
        apply = gfn_mod.apply_tactic

        def spy(state, tactic):
            applied.append(ACTION_INDEX[tactic] in applicable_actions(state))
            return apply(state, tactic)
        # search applies tactics and reads applicable actions through its nodes
        monkeypatch.setattr(gfn_mod, "apply_tactic", spy)
        got = evaluate_split(net, theorems, SearchConfig())
        assert applied and all(applied)
        n_applicable = len(applied)
        # the same search with every top-k action sent through apply_tactic
        monkeypatch.setattr(gfn_mod, "applicable_actions",
                            lambda state: tuple(range(N_ACTIONS)))
        applied.clear()
        want = evaluate_split(net, theorems, SearchConfig())
        assert got.to_json() == want.to_json()
        assert len(applied) > n_applicable
        assert 0 < got.solved < got.total


class TestEvaluateSplit:
    def test_empty_split(self):
        report = evaluate_split(PolicyNet.create(seed=0), [], SearchConfig())
        assert report.solved == 0 and report.total == 0

    def test_bogus_proof_raises_under_optimized_python(self):
        # the re-verification must hold with asserts stripped (python -O)
        script = "\n".join([
            "import flowprover.search as search",
            "from flowprover.env import parse_tactic",
            "from flowprover.policy import PolicyNet",
            "from conftest import identity_theorem",
            "assert False, 'asserts are live'",
            "bogus = (parse_tactic('split'),)",
            "search.search_from_state = lambda net, root, cfg: search.SearchOutcome(True, bogus, 1)",
            "try:",
            "    search.evaluate_split(PolicyNet.create(seed=0), [identity_theorem('a -> a')],",
            "                          search.SearchConfig())",
            "except search.BogusProof as exc:",
            "    print('BogusProof:', exc)",
        ])
        assert run_optimized(script).startswith("BogusProof: search returned a bogus proof for thm")

    def test_report_rows_match_split(self, small_corpus):
        net = PolicyNet.create(seed=6)
        report = evaluate_split(net, small_corpus.valid, SearchConfig())
        assert len(report.per_theorem) == len(small_corpus.valid)
        row = report.per_theorem[0]
        assert set(row) == {"name", "length", "solved", "expansions", "proof"}

    def test_overfit_policy_solves_trained_theorem(self):
        from flowprover.baselines import SFTTrainer
        from flowprover.gfn import TrainConfig

        thm = identity_theorem("a & b -> a & b")
        net = PolicyNet.create(seed=7)
        trainer = SFTTrainer([thm], net, TrainConfig(mode="sft", lr=5e-3), seed=8)
        for _ in range(200):
            trainer.train_step(thm)
        report = evaluate_split(net, [thm], SearchConfig())
        assert report.solved == 1

    def test_encoding_modes_differ(self, small_corpus):
        net = PolicyNet.create(seed=9)
        hist = evaluate_split(net, small_corpus.valid, SearchConfig(encoding_mode=HISTORY))
        less = evaluate_split(net, small_corpus.valid, SearchConfig(encoding_mode=HISTORY_LESS))
        assert json.loads(hist.to_json())["total"] == json.loads(less.to_json())["total"]


def _tree_nodes(tree: ProofTree):
    stack = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(node.children.values())


class TestSearchInARunsTrees:
    """Validation searches the run's proof trees, which keep each node's
    encoding, applicable actions, results and dedupe key across calls."""

    @pytest.mark.parametrize("mode", [HISTORY, HISTORY_LESS])
    def test_every_validation_of_a_run_matches_a_fresh_tree_search(self, small_corpus, mode,
                                                                  tmp_path, monkeypatch):
        calls = []

        def checked(net, trees, cfg):
            got = evaluate_split(net, trees, cfg)
            fresh = evaluate_split(net, [tree.thm for tree in trees], cfg)
            calls.append((trees, got.to_json(), fresh.to_json()))
            return got
        monkeypatch.setattr(runs_mod, "evaluate_split", checked)
        result = run_training("gfn", small_corpus, seed=4, steps=60, out_dir=tmp_path,
                              rm=RewardModel.create(seed=0), clock="off", val_every=10,
                              val_cfg=SearchConfig(encoding_mode=mode))
        assert len(calls) == 6
        for trees, got, fresh in calls:
            assert trees is calls[0][0]  # one list of trees for the run
            assert got == fresh
        assert [solved for _, solved in result.val_history] == \
            [json.loads(got)["solved"] for _, got, _ in calls]
        assert len({got for _, got, _ in calls}) > 1  # the net moved between validations

    def test_a_second_search_over_the_same_trees_applies_and_encodes_nothing(self, small_corpus,
                                                                           monkeypatch):
        net = biased_net(jitter_seed=5)
        cfg = SearchConfig()
        trees = [ProofTree(thm) for thm in small_corpus.valid + small_corpus.train[:20]]
        first = evaluate_split(net, trees, cfg)
        assert 0 < first.solved < first.total
        # no node is made at the depth limit: search never pushes one
        assert max(len(n.history) for tree in trees for n in _tree_nodes(tree)) == \
            cfg.max_depth - 1
        calls = []

        def counting(name):
            original = getattr(gfn_mod, name)

            def spy(*args):
                calls.append(name)
                return original(*args)
            return spy
        for name in ("apply_tactic", "applicable_actions", "encode_from_parts",
                     "state_fingerprint"):
            monkeypatch.setattr(gfn_mod, name, counting(name))
        replay_ = search_mod.replay
        monkeypatch.setattr(search_mod, "replay",
                            lambda *args: calls.append("replay") or replay_(*args))
        second = evaluate_split(net, trees, cfg)
        assert second.to_json() == first.to_json()
        assert calls == ["replay"] * first.solved  # only the proofs' re-check

    def test_the_recheck_does_not_trust_the_tree(self):
        # a node whose recorded result claims a proof must not make it count,
        # also with asserts stripped (python -O)
        script = "\n".join([
            "import flowprover.search as search",
            "from flowprover.env import ACTION_INDEX, StepKind, StepResult, parse_tactic",
            "from flowprover.gfn import ProofTree",
            "from flowprover.policy import PolicyNet",
            "from conftest import identity_theorem",
            "assert False, 'asserts are live'",
            "tree = ProofTree(identity_theorem('a -> a'))",
            "tree.root.results[ACTION_INDEX[parse_tactic('intro')]] = StepResult(StepKind.PROVED)",
            "try:",
            "    search.evaluate_split(PolicyNet.create(seed=0, scale=0.0), [tree],",
            "                          search.SearchConfig())",
            "except search.BogusProof as exc:",
            "    print('BogusProof:', exc)",
        ])
        assert run_optimized(script).startswith("BogusProof: search returned a bogus proof for thm")
