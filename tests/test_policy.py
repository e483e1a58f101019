import hashlib

import numpy as np
import pytest

import flowprover.policy as policy_mod
from flowprover.env import (
    ACTIONS,
    ACTION_INDEX,
    N_ACTIONS,
    Goal,
    ProofState,
    apply_tactic,
    initial_state,
    parse_tactic,
)
from flowprover.formulas import And, Atom, Formula, Implies, Or, formula_depth, parse_formula
from flowprover.nn import Tape, finite_difference_check, log_softmax_np, softmax_np
from flowprover.policy import (
    CUR_DIM,
    ENC_DIM,
    HISTORY,
    HISTORY_LESS,
    INIT_DIM,
    PolicyNet,
    action_logits,
    action_mask,
    draw_action,
    encode_from_parts,
    encode_state,
    head_graph,
    predict_log_z,
    rows_graph,
)

from conftest import action_log_probs, identity_theorem, random_formula, random_proof_state


def sample_action(net, encoded, temperature, rng, action_set=None):
    """Reference: ``draw_action`` over the policy's logits at one encoded
    state, restricted to ``action_set`` when given."""
    logits = action_logits(net, encoded)
    mask = action_mask(action_set)
    if mask is not None:
        logits = logits + mask
    action, log_prob = draw_action(logits, log_softmax_np(logits), temperature, rng)
    return ACTIONS[action], log_prob


@pytest.fixture
def thm():
    return identity_theorem("a -> a")


class TestEncoding:
    def test_dimensions(self, thm):
        enc = encode_state(thm, (), thm.initial_state)
        assert enc.shape == (ENC_DIM,)
        assert ENC_DIM == 164 and CUR_DIM == 64

    def test_empty_history_zero_count_block(self, thm):
        enc = encode_state(thm, (), thm.initial_state)
        assert np.all(enc[128:] == 0.0)

    def test_deterministic(self, thm):
        h = (parse_tactic("intro"),)
        s = apply_tactic(thm.initial_state, h[0]).state
        assert np.array_equal(encode_state(thm, h, s), encode_state(thm, h, s))

    def test_history_less_zeroes_last_100_dims(self, thm):
        h = (parse_tactic("intro"),)
        s = apply_tactic(thm.initial_state, h[0]).state
        enc = encode_state(thm, h, s, HISTORY_LESS)
        assert np.all(enc[CUR_DIM:] == 0.0)
        assert np.any(enc[:CUR_DIM] != 0.0)

    def test_history_counts(self, thm):
        s = apply_tactic(thm.initial_state, parse_tactic("intro")).state
        enc = encode_state(thm, (parse_tactic("intro"), parse_tactic("intro")), s)
        assert enc[128 + ACTION_INDEX[parse_tactic("intro")]] == 2.0

    def test_same_state_different_histories_distinct_in_history_mode(self):
        # p -> (p | p): 'left' and 'right' after intro land on the same
        # proof state through different histories
        t = identity_theorem("p -> p | p")
        s1 = apply_tactic(t.initial_state, parse_tactic("intro")).state
        left = apply_tactic(s1, parse_tactic("left")).state
        right = apply_tactic(s1, parse_tactic("right")).state
        assert left == right
        h_left = (parse_tactic("intro"), parse_tactic("left"))
        h_right = (parse_tactic("intro"), parse_tactic("right"))
        assert not np.array_equal(encode_state(t, h_left, left),
                                  encode_state(t, h_right, right))
        assert np.array_equal(encode_state(t, h_left, left, HISTORY_LESS),
                              encode_state(t, h_right, right, HISTORY_LESS))

    def test_distinct_prefixes_distinct_encodings(self, thm):
        # enumerate depth-2 prefixes; in history mode no two may collide
        seen = {}
        frontier = [((), thm.initial_state)]
        for _ in range(2):
            nxt = []
            for hist, state in frontier:
                for t in ACTIONS:
                    r = apply_tactic(state, t)
                    if r.ok:
                        h2 = hist + (t,)
                        enc = encode_state(thm, h2, r.state).tobytes()
                        assert enc not in seen, f"{seen[enc]} vs {h2}"
                        seen[enc] = h2
                        nxt.append((h2, r.state))
            frontier = nxt


# The feature hash spelled out token by token: the reference the encoder's
# bin tables must reproduce bit for bit.


def _kind(f: Formula) -> str:
    return type(f).__name__


def _formula_tokens(prefix: str, f: Formula) -> list[str]:
    if isinstance(f, Atom):
        return [f"{prefix}:atom={f.name}"]
    return ([f"{prefix}:conn={_kind(f)}"] + _formula_tokens(prefix, f.lhs)
            + _formula_tokens(prefix, f.rhs))


def _state_tokens(state: ProofState) -> list[str]:
    toks = [f"n_goals={len(state.goals)}"]
    if not state.goals:
        return toks
    g = state.goals[0]
    toks.append(f"g0:n_hyps={len(g.hyps)}")
    toks.append(f"g0:tgt:root={_kind(g.target)}")
    toks.append(f"g0:tgt:depth={formula_depth(g.target)}")
    toks += _formula_tokens("g0:tgt", g.target)
    for k, (_, hf) in enumerate(g.hyps, start=1):
        toks.append(f"g0:h{k}:root={_kind(hf)}")
        toks += _formula_tokens(f"g0:h{k}", hf)
        if hf == g.target:
            toks.append(f"g0:h{k}:eq_tgt")
        if isinstance(hf, Implies) and hf.rhs == g.target:
            toks.append(f"g0:h{k}:concl_eq_tgt")
    for g2 in state.goals[1:]:
        toks.append("g+:goal")
        toks.append(f"g+:tgt:root={_kind(g2.target)}")
    return toks


def _hash_bag(tokens: list[str]) -> np.ndarray:
    vec = np.zeros(CUR_DIM)
    for tok in tokens:
        digest = hashlib.blake2b(tok.encode(), digest_size=8, person=b"featmap1").digest()
        vec[int.from_bytes(digest, "big") % CUR_DIM] += 1.0
    return vec


def _nodes(f: Formula):
    yield f
    if not isinstance(f, Atom):
        yield from _nodes(f.lhs)
        yield from _nodes(f.rhs)


def direct_encoding(initial, history, state, mode) -> np.ndarray:
    """The encoding built from the feature hash alone, with no table or memo."""
    vec = np.zeros(ENC_DIM)
    vec[:CUR_DIM] = _hash_bag(_state_tokens(state))
    if mode == HISTORY:
        vec[CUR_DIM:CUR_DIM + INIT_DIM] = _hash_bag(_state_tokens(initial))
        for t in history:
            vec[CUR_DIM + INIT_DIM + ACTION_INDEX[t]] += 1.0
    return vec


@pytest.fixture(scope="module")
def reference_states() -> list[tuple[ProofState, tuple, ProofState]]:
    """(initial, history, state) triples: 301 random states (one or two
    goals), a goal-less state and a ten-hypothesis state with three goals,
    each the initial state of the next with a random history; then every
    node state of corpus seed 1's depth-3 train trees."""
    from flowprover.corpus import build_corpus
    from flowprover.oracle import enumerate_trajectories

    rng = np.random.default_rng(7)
    randoms = [random_proof_state(rng) for _ in range(301)]
    target = random_formula(rng, 3)
    many = Goal(tuple((f"h{i}", random_formula(rng, 3)) for i in range(1, 10))
                + (("h10", target),), target)
    randoms += [ProofState(()), ProofState((many, many, Goal((), Implies(target, target))))]
    triples = []
    for initial, state in zip(randoms, randoms[1:]):
        history = tuple(ACTIONS[i] for i in rng.integers(N_ACTIONS, size=rng.integers(4)))
        triples.append((initial, history, state))
    for thm in build_corpus(1, 1000, 20).train:
        tree = enumerate_trajectories(thm, max_depth=3).tree
        triples += [(thm.initial_state, h, s) for h, s in zip(tree.histories, tree.states)]
    return triples


class TestEncoderMatchesTheReference:
    @pytest.mark.parametrize("mode", [HISTORY, HISTORY_LESS])
    def test_bit_identical(self, reference_states, mode):
        triples = reference_states
        assert len(triples) == 302 + 3786
        for initial, history, state in triples:
            got = encode_from_parts(initial, history, state, mode)
            want = direct_encoding(initial, history, state, mode)
            assert got.tobytes() == want.tobytes(), state.render()

    def test_tables_stay_within_the_grammar(self, reference_states, monkeypatch):
        # fresh tables, so the count covers these states alone
        for name in ("_N_GOALS", "_N_HYPS", "_TGT_DEPTH", "_MORE_ROOT"):
            monkeypatch.setattr(policy_mod, name,
                                policy_mod._Bins(getattr(policy_mod, name).token))
        monkeypatch.setattr(policy_mod, "_TGT", policy_mod._Prefix("g0:tgt"))
        monkeypatch.setattr(policy_mod, "_HYPS", [])
        triples = reference_states
        for initial, history, state in triples:
            encode_from_parts(initial, history, state, HISTORY)
        states = {s for initial, _, state in triples for s in (initial, state)}
        formulas = {f for s in states for g in s.goals
                    for f in (g.target, *(h for _, h in g.hyps))}
        firsts = [s.goals[0] for s in states if s.goals]
        atoms = {n.name for f in formulas for n in _nodes(f) if isinstance(n, Atom)}
        n_hyps = max(len(g.hyps) for g in firsts)
        n_goals = max(len(s.goals) for s in states)
        depth = max(formula_depth(g.target) for g in firsts)
        # per prefix (the target, each hypothesis position): the atoms and 3
        # connectives, and 4 root classes; then the goal counts, hypothesis
        # counts, target depths and 4 root classes of further goals
        bound = ((1 + n_hyps) * (len(atoms) + 3 + 4) + (n_goals + 1) + (n_hyps + 1)
                 + depth + 4)
        tables = [policy_mod._N_GOALS, policy_mod._N_HYPS, policy_mod._TGT_DEPTH,
                  policy_mod._MORE_ROOT, policy_mod._TGT.nodes, policy_mod._TGT.root]
        tables += [t for p in policy_mod._HYPS for t in (p.nodes, p.root)]
        assert len(policy_mod._HYPS) == n_hyps == 10
        # a memo per formula or per state would hold more entries than the bound
        assert sum(map(len, tables)) <= bound < len(formulas) < len(states)


class TestInitialStateMemo:
    """encode_from_parts keeps the last initial state's bins; no order of
    theorems may make it read another state's bins."""

    @pytest.mark.parametrize("mode", [HISTORY, HISTORY_LESS])
    def test_encodings_match_a_direct_encoding(self, mode):
        goal_a, goal_b = "(a -> b) -> a -> b", "a & b -> b & a"
        thm_a, thm_b = identity_theorem(goal_a, "A"), identity_theorem(goal_b, "B")
        fresh_a = initial_state(parse_formula(goal_a))
        assert fresh_a == thm_a.initial_state and fresh_a is not thm_a.initial_state
        assert not np.array_equal(_hash_bag(_state_tokens(thm_a.initial_state)),
                                  _hash_bag(_state_tokens(thm_b.initial_state)))
        intro = parse_tactic("intro")
        for initial in (thm_a.initial_state, thm_b.initial_state, thm_a.initial_state,
                        fresh_a):
            prefixes = [((), initial), ((intro,), apply_tactic(initial, intro).state)]
            for history, state in prefixes:
                got = encode_from_parts(initial, history, state, mode)
                assert got.tobytes() == direct_encoding(initial, history, state, mode).tobytes()
                got[:] = -1.0  # a caller may write to its vector; the memo must not see it


class TestLogits:
    def test_softmax_normalized(self, thm):
        net = PolicyNet.create(seed=2)
        enc = encode_state(thm, (), thm.initial_state)
        probs = softmax_np(action_logits(net, enc))
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_zero_net_uniform(self, thm):
        net = PolicyNet.create(seed=0, scale=0.0)
        enc = encode_state(thm, (), thm.initial_state)
        lps = action_log_probs(net, enc)
        assert np.allclose(lps, -np.log(36.0), atol=1e-12)

    def test_logit_shift_invariance(self):
        z = np.random.default_rng(0).normal(size=N_ACTIONS)
        assert np.allclose(softmax_np(z), softmax_np(z + 17.3), atol=1e-12)

    def test_restricted_subset_renormalizes(self, thm):
        net = PolicyNet.create(seed=2)
        enc = encode_state(thm, (), thm.initial_state)
        sub = np.array([0, 4, 12])
        lps = action_log_probs(net, enc, action_set=sub)
        assert abs(np.exp(lps).sum() - 1.0) < 1e-12


class TestSampling:
    def test_low_temperature_is_argmax(self, thm):
        net = PolicyNet.create(seed=3)
        enc = encode_state(thm, (), thm.initial_state)
        best = int(np.argmax(action_logits(net, enc)))
        rng = np.random.default_rng(0)
        for _ in range(50):
            t, _ = sample_action(net, enc, 1e-6, rng)
            assert ACTION_INDEX[t] == best

    def test_t1_empirical_frequencies_match_softmax(self, thm):
        net = PolicyNet.create(seed=4)
        enc = encode_state(thm, (), thm.initial_state)
        probs = softmax_np(action_logits(net, enc))
        rng = np.random.default_rng(1234)
        n = 100_000
        counts = np.zeros(N_ACTIONS)
        for _ in range(n):
            t, _ = sample_action(net, enc, 1.0, rng)
            counts[ACTION_INDEX[t]] += 1
        sigma = np.sqrt(n * probs * (1 - probs))
        assert np.all(np.abs(counts - n * probs) <= 3.0 * sigma + 1.0)

    def test_restricted_sampling_stays_in_the_set(self, thm):
        net = PolicyNet.create(seed=6)
        enc = encode_state(thm, (), thm.initial_state)
        subset = np.array([0, 4, 12])
        lps = action_log_probs(net, enc, action_set=subset)
        rng = np.random.default_rng(3)
        for temp in (0.5, 1.0):
            for _ in range(50):
                t, lp = sample_action(net, enc, temp, rng, action_set=subset)
                assert ACTION_INDEX[t] in subset
                assert lp == float(lps[ACTION_INDEX[t]])

    @pytest.mark.parametrize("temperature", [0.0, -1.0, float("nan")])
    def test_non_positive_temperature_raises(self, thm, temperature):
        net = PolicyNet.create(seed=6)
        enc = encode_state(thm, (), thm.initial_state)
        with pytest.raises(ValueError):
            sample_action(net, enc, temperature, np.random.default_rng(0))

    def test_draws_match_generator_choice(self):
        # the reference: Generator.choice over the tempered softmax
        data = np.random.default_rng(11)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        for i in range(20_000):
            logits = data.normal(scale=3.0, size=N_ACTIONS)
            logits[data.random(N_ACTIONS) < 0.3] = -np.inf  # a restricted action set
            logits[data.integers(N_ACTIONS)] = data.normal()
            temperature = 1.0 if i % 2 else float(data.uniform(0.25, 1.0))
            log_probs = log_softmax_np(logits)
            action, lp = draw_action(logits, log_probs, temperature, rng)
            want = int(ref.choice(N_ACTIONS, p=softmax_np(logits / temperature)))
            assert type(action) is int and action == want and lp == log_probs[want]
            assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("temperature", [1.0, 0.5])
    def test_nan_or_no_mass_raises_as_choice_does(self, temperature):
        rng = np.random.default_rng(0)
        nan = np.zeros(N_ACTIONS)
        nan[3] = np.nan
        for logits in (nan, np.full(N_ACTIONS, -np.inf)):
            with np.errstate(invalid="ignore"):
                log_probs = log_softmax_np(logits)
                with pytest.raises(ValueError):
                    rng.choice(N_ACTIONS, p=softmax_np(logits / temperature))
                with pytest.raises(ValueError):
                    draw_action(logits, log_probs, temperature, rng)

    def test_reported_log_prob_is_temperature_one(self, thm):
        net = PolicyNet.create(seed=5)
        enc = encode_state(thm, (), thm.initial_state)
        lps = action_log_probs(net, enc)
        rng = np.random.default_rng(2)
        for temp in (0.25, 0.6, 1.0, 3.0):
            t, lp = sample_action(net, enc, temp, rng)
            assert lp == pytest.approx(float(lps[ACTION_INDEX[t]]), abs=0)
            assert lp <= 0.0


class TestLogZ:
    def test_constant_head(self, thm):
        net = PolicyNet.create(seed=6)
        net.store["wz"] = np.zeros(net.hidden)
        net.store["bz"] = np.asarray(3.2)
        assert predict_log_z(net, thm) == pytest.approx(3.2, abs=0)
        other = identity_theorem("a & b -> a & b")
        assert predict_log_z(net, other) == pytest.approx(3.2, abs=0)

    def test_log_z_head_gradient_matches_finite_differences(self, thm):
        net = PolicyNet.create(seed=7, hidden=10)
        net.store["wz"] = np.random.default_rng(0).normal(size=10) * 0.3
        enc = encode_state(thm, (), thm.initial_state)

        def compute(store):
            tape = Tape()
            _, hidden = rows_graph(tape, store, enc[None, :], [0])
            z = tape.take(head_graph(tape, store, hidden, "wz", "bz"), 0)
            loss = tape.square(tape.shift(z, -1.5))
            return loss, tape

        loss, tape = compute(net.store)
        grads = tape.backward(loss)
        err = finite_difference_check(lambda s: float(compute(s)[0].value), net.store, grads)
        assert err < 1e-4
        # gradient reaches the shared trunk, not just the head
        assert any(np.any(grads[k] != 0) for k in ("w1", "w2"))


class TestPersistence:
    def test_checkpoint_round_trip(self, tmp_path, thm):
        net = PolicyNet.create(seed=8)
        enc = encode_state(thm, (), thm.initial_state)
        before = action_logits(net, enc)
        net.save(tmp_path / "net.npz")
        loaded = PolicyNet.load(tmp_path / "net.npz")
        assert loaded.hidden == net.hidden
        assert np.array_equal(action_logits(loaded, enc), before)
