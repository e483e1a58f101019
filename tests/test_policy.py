import numpy as np
import pytest

from flowprover.env import (
    ACTIONS,
    ACTION_INDEX,
    N_ACTIONS,
    apply_tactic,
    initial_state,
    parse_tactic,
)
from flowprover.formulas import parse_formula
from flowprover.nn import Tape, finite_difference_check, softmax_np
from flowprover.policy import (
    CUR_DIM,
    ENC_DIM,
    HISTORY,
    HISTORY_LESS,
    INIT_DIM,
    PolicyNet,
    _hash_bag,
    _state_tokens,
    action_log_probs,
    action_logits,
    encode_from_parts,
    encode_state,
    head_graph,
    predict_log_z,
    rows_graph,
    sample_action,
)

from conftest import identity_theorem


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


def direct_encoding(initial, history, state, mode) -> np.ndarray:
    """The encoding built from the feature hash alone, with no memo."""
    vec = np.zeros(ENC_DIM)
    vec[:CUR_DIM] = _hash_bag(_state_tokens(state))
    if mode == HISTORY:
        vec[CUR_DIM:CUR_DIM + INIT_DIM] = _hash_bag(_state_tokens(initial))
        for t in history:
            vec[CUR_DIM + INIT_DIM + ACTION_INDEX[t]] += 1.0
    return vec


class TestInitialStateMemo:
    """encode_from_parts keeps the last initial state's features; no order
    of theorems may make it read another state's features."""

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
