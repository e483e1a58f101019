import dataclasses

import numpy as np
import pytest

from flowprover.env import (
    ACTIONS,
    N_ACTIONS,
    ErrorReason,
    Goal,
    ProofState,
    StepKind,
    Tactic,
    TacticKind,
    applicable_actions,
    apply_tactic,
    initial_state,
    parse_tactic,
    replay,
    state_fingerprint,
)
from flowprover.formulas import And, Atom, Implies, Or, parse_formula

from conftest import random_proof_state

a, b, c = Atom("a"), Atom("b"), Atom("c")


def state(text: str) -> ProofState:
    return initial_state(parse_formula(text))


class TestActionSpace:
    def test_36_actions(self):
        assert N_ACTIONS == 36
        assert len(set(ACTIONS)) == 36

    def test_canonical_strings_round_trip(self):
        for t in ACTIONS:
            assert parse_tactic(t.render()) == t

    def test_renderings(self):
        assert Tactic(TacticKind.INTRO).render() == "intro"
        assert Tactic(TacticKind.EXACT, 3).render() == "exact h3"
        assert Tactic(TacticKind.DESTRUCT, 8).render() == "destruct h8"

    def test_each_action_renders_one_shared_string(self):
        texts = [kind.value for kind in (TacticKind.INTRO, TacticKind.SPLIT, TacticKind.LEFT,
                                         TacticKind.RIGHT)]
        texts += [f"{kind.value} h{i}" for kind in (TacticKind.EXACT, TacticKind.APPLY,
                                                    TacticKind.CASES, TacticKind.DESTRUCT)
                  for i in range(1, 9)]
        for t, text in zip(ACTIONS, texts, strict=True):
            rendered = t.render()
            assert rendered == text and str(t) == text
            assert t.render() is rendered and Tactic(t.kind, t.arg).render() is rendered
            again = parse_tactic(rendered)
            assert again == t and again.render() is rendered

    def test_parse_rejects_bad_arity(self):
        with pytest.raises(ValueError):
            parse_tactic("intro h1")
        with pytest.raises(ValueError):
            parse_tactic("exact")
        with pytest.raises(ValueError):
            parse_tactic("exact h9")


class TestTacticSemantics:
    def test_intro(self):
        r = apply_tactic(state("a -> a"), parse_tactic("intro"))
        assert r.ok
        assert r.state.goals[0].hyps == (("h1", a),)
        assert r.state.goals[0].target == a

    def test_exact_proves(self):
        s = ProofState((Goal((("h1", a),), a),))
        assert apply_tactic(s, parse_tactic("exact h1")).proved

    def test_exact_mismatch(self):
        s = ProofState((Goal((("h1", a),), b),))
        r = apply_tactic(s, parse_tactic("exact h1"))
        assert r.failed and r.error is ErrorReason.SHAPE_MISMATCH

    def test_split(self):
        r = apply_tactic(state("a & b"), parse_tactic("split"))
        assert r.ok
        assert [g.target for g in r.state.goals] == [a, b]

    def test_left_right(self):
        assert apply_tactic(state("a | b"), parse_tactic("left")).state.goals[0].target == a
        assert apply_tactic(state("a | b"), parse_tactic("right")).state.goals[0].target == b

    def test_apply(self):
        s = ProofState((Goal((("h1", Implies(a, b)),), b),))
        r = apply_tactic(s, parse_tactic("apply h1"))
        assert r.ok and r.state.goals[0].target == a

    def test_apply_shape_mismatch(self):
        s = ProofState((Goal((("h1", Implies(a, b)),), c),))
        assert apply_tactic(s, parse_tactic("apply h1")).error is ErrorReason.SHAPE_MISMATCH

    def test_cases_replaces_in_place(self):
        s = ProofState((Goal((("h1", Or(a, b)), ("h2", c)), c),))
        r = apply_tactic(s, parse_tactic("cases h1"))
        assert r.ok and len(r.state.goals) == 2
        assert r.state.goals[0].hyps == (("h1", a), ("h2", c))
        assert r.state.goals[1].hyps == (("h1", b), ("h2", c))

    def test_destruct_removes_and_appends_fresh(self):
        s = ProofState((Goal((("h1", And(a, b)), ("h2", c)), c),))
        r = apply_tactic(s, parse_tactic("destruct h1"))
        assert r.ok
        assert r.state.goals[0].hyps == (("h2", c), ("h3", a), ("h4", b))

    def test_first_goal_only(self):
        two = ProofState((Goal((), Implies(a, a)), Goal((), b)))
        r = apply_tactic(two, parse_tactic("intro"))
        assert r.ok and r.state.goals[1].target == b

    def test_exact_on_multi_goal_discharges_first(self):
        two = ProofState((Goal((("h1", a),), a), Goal((), b)))
        r = apply_tactic(two, parse_tactic("exact h1"))
        assert r.ok and r.state.goals == (Goal((), b),)

    def test_no_goals(self):
        r = apply_tactic(ProofState(()), parse_tactic("intro"))
        assert r.failed and r.error is ErrorReason.NO_GOALS

    def test_no_such_hypothesis(self):
        r = apply_tactic(state("a"), parse_tactic("exact h1"))
        assert r.failed and r.error is ErrorReason.NO_SUCH_HYPOTHESIS

    def test_argless_shape_mismatches(self):
        assert apply_tactic(state("a"), parse_tactic("intro")).failed
        assert apply_tactic(state("a | b"), parse_tactic("split")).failed
        assert apply_tactic(state("a & b"), parse_tactic("left")).failed

    def test_error_results_are_shared_and_frozen(self):
        # one result object per error reason, so none may change
        first = apply_tactic(state("a | b"), parse_tactic("split"))
        again = apply_tactic(state("a & b"), parse_tactic("left"))
        assert first is again and first.error is ErrorReason.SHAPE_MISMATCH
        for field, value in (("kind", StepKind.OK), ("error", None), ("state", state("a"))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(first, field, value)
        assert first.failed and first.state is None
        assert apply_tactic(ProofState(()), parse_tactic("intro")) is \
            apply_tactic(ProofState(()), parse_tactic("exact h1"))


def assert_applicable_actions_agree(s: ProofState) -> int:
    """Every action outside ``applicable_actions(s)`` fails and every action
    inside does not; returns the number of (state, action) pairs checked."""
    fitting = applicable_actions(s)
    assert fitting == tuple(sorted(set(fitting)))
    for i, t in enumerate(ACTIONS):
        assert apply_tactic(s, t).failed == (i not in fitting), (s.render(), t.render())
    return N_ACTIONS


class TestApplicableActions:
    def test_every_action_outside_fails_and_every_action_inside_does_not(self):
        # nine hypotheses, each shape at a position, the ninth out of reach
        hyps = (a, Implies(b, a), Or(a, b), And(a, b), c, a, Implies(c, a), Or(b, c), a)
        many = Goal(tuple((f"h{i}", f) for i, f in enumerate(hyps, start=1)), a)
        rng = np.random.default_rng(2)
        states = [random_proof_state(rng) for _ in range(300)]
        states += [ProofState((many,)), ProofState(())]
        shared = apply_tactic(state("a"), parse_tactic("exact h1"))
        assert shared.error is ErrorReason.NO_SUCH_HYPOTHESIS
        for s in states:
            assert_applicable_actions_agree(s)
            # a position the first goal lacks fails with the one shared result
            for t in ACTIONS:
                if s.goals and t.arg is not None and t.arg > len(s.goals[0].hyps):
                    assert apply_tactic(s, t) is shared
        fitting = applicable_actions(ProofState((many,)))
        # exact h1 h6, apply h2 h7, cases h3 h8, destruct h4
        assert fitting == (4, 9, 13, 18, 22, 27, 31)

    def test_without_goals_no_action_applies(self):
        assert applicable_actions(ProofState(())) == ()

    def test_every_node_state_of_a_corpus_at_depth_4(self):
        from flowprover.corpus import build_corpus
        from flowprover.oracle import enumerate_trajectories

        pairs = 0
        for thm in build_corpus(3, 1000, 20).train:
            for node in enumerate_trajectories(thm, max_depth=4).tree.nodes:
                pairs += assert_applicable_actions_agree(node.state)
        assert pairs == 240_804  # 6,689 node states


def _formula_st():
    from hypothesis import strategies as st

    atoms = st.sampled_from([Atom(n) for n in ("a", "b", "c", "p", "q")])
    return st.recursive(
        atoms,
        lambda sub: st.one_of(st.builds(Implies, sub, sub), st.builds(And, sub, sub),
                              st.builds(Or, sub, sub)),
        max_leaves=8,
    )


def _state_st():
    from hypothesis import strategies as st

    def goal(hyps, target):
        return Goal(tuple((f"h{i + 1}", f) for i, f in enumerate(hyps)), target)

    goals = st.builds(goal, st.lists(_formula_st(), max_size=4), _formula_st())
    return st.builds(lambda gs: ProofState(tuple(gs)), st.lists(goals, max_size=3))


class TestDeterminismAndTotality:
    def test_apply_twice_identical(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = random_proof_state(rng)
            t = ACTIONS[int(rng.integers(N_ACTIONS))]
            assert apply_tactic(s, t) == apply_tactic(s, t)

    def test_total_over_random_states_and_all_actions(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            s = random_proof_state(rng)
            for t in ACTIONS:
                r = apply_tactic(s, t)
                assert (r.kind is StepKind.OK) + (r.kind is StepKind.PROVED) + \
                    (r.kind is StepKind.ERROR) == 1
                if r.ok:
                    assert r.state.goals

    def test_totality_property(self):
        from hypothesis import given, settings

        @given(_state_st())
        @settings(max_examples=150, deadline=None)
        def check(state):
            for t in ACTIONS:
                r = apply_tactic(state, t)
                assert (r.kind is StepKind.OK) + (r.kind is StepKind.PROVED) + \
                    (r.kind is StepKind.ERROR) == 1
                assert apply_tactic(state, t) == r

        check()

    def test_soundness_of_replayed_proofs(self):
        # any sequence reaching Proved replays cleanly from the start
        seqs = [
            ("a -> a", ["intro", "exact h1"]),
            ("a & b -> a", ["intro", "destruct h1", "exact h1"]),
            ("a -> a | b", ["intro", "left", "exact h1"]),
            ("(a | b) -> (a | b)", ["intro", "exact h1"]),
        ]
        for goal, script in seqs:
            r = replay(state(goal), [parse_tactic(t) for t in script])
            assert r.proved


class TestFingerprint:
    def test_deterministic(self):
        s = state("a -> b & c")
        assert state_fingerprint(s) == state_fingerprint(s)

    def test_proved_sentinel(self):
        # the goal-less state renders as <proved>, and its hash is the same
        # in every run
        assert ProofState(()).render() == "<proved>"
        assert state_fingerprint(ProofState(())) == 17005780436762796943

    def test_distinct_states_distinct_hashes(self):
        rng = np.random.default_rng(7)
        seen: dict[int, str] = {}
        for _ in range(2000):
            s = random_proof_state(rng)
            fp = state_fingerprint(s)
            rendered = s.render()
            if fp in seen:
                assert seen[fp] == rendered, "fingerprint collision"
            seen[fp] = rendered

    def test_construction_order_independent(self):
        s1 = ProofState((Goal((("h1", a), ("h2", b)), c),))
        s2 = ProofState((Goal(tuple([("h1", a)] + [("h2", b)]), c),))
        assert state_fingerprint(s1) == state_fingerprint(s2)
