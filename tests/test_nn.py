import numpy as np
import pytest

from flowprover.nn import (
    CLIP_NORM,
    WEIGHT_DECAY,
    NonFiniteGradient,
    ParamStore,
    Tape,
    finite_difference_check,
    global_grad_norm,
    log_softmax_np,
    mlp_forward,
    mlp_forward_np,
    mlp_params,
    optim_step,
    softmax_np,
)
from flowprover.policy import PolicyNet


def tiny_mlp(seed=0, in_dim=7, hidden=9, out_dim=5, scale=None):
    return ParamStore(mlp_params(np.random.default_rng(seed), in_dim, hidden, out_dim, scale))


def reference_step(params, moments, grads, lr, t):
    """The AdamW update written out of place, for comparison, with its
    constants written out: clip norm 0.5, beta1 0.9, beta2 0.999, eps 1e-8,
    weight decay 0.01."""
    norm = global_grad_norm(grads)
    factor = 0.5 / norm if norm > 0.5 else 1.0
    bc1 = 1.0 - 0.9 ** t
    bc2 = 1.0 - 0.999 ** t
    for name, p in params.items():
        g = grads[name] * factor
        m, v = moments[name]
        m = 0.9 * m + (1.0 - 0.9) * g
        v = 0.999 * v + (1.0 - 0.999) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        moments[name] = (m, v)
        params[name] = p - lr * m_hat / (np.sqrt(v_hat) + 1e-8) - lr * 0.01 * p


def assert_store_equals(store, params, moments, t):
    assert list(store.arrays) == list(params)
    for name in params:
        assert np.array_equal(store[name], params[name]), (t, name)
        assert np.array_equal(store.adam_m[name], moments[name][0]), (t, name)
        assert np.array_equal(store.adam_v[name], moments[name][1]), (t, name)


class TestForward:
    def test_zero_weights_zero_logits(self):
        store = tiny_mlp(scale=0.0)
        logits, hidden, _ = mlp_forward(store, np.ones((1, 7)))
        assert np.all(logits.value == 0.0)
        assert np.allclose(softmax_np(logits.value), 0.2)

    def test_seeded_init_bitwise_reproducible(self):
        x = np.linspace(-1, 1, 7)[None]
        l1, _, _ = mlp_forward(tiny_mlp(3), x)
        l2, _, _ = mlp_forward(tiny_mlp(3), x)
        assert np.array_equal(l1.value, l2.value)

    def test_np_and_taped_forward_agree_bitwise(self):
        store = tiny_mlp(4)
        x = np.linspace(-2, 2, 7)[None]
        taped, hidden, _ = mlp_forward(store, x)
        plain, hidden_np = mlp_forward_np(store, x)
        assert np.array_equal(taped.value, plain)
        assert np.array_equal(hidden.value, hidden_np)

    def test_batched_forward(self):
        store = tiny_mlp(5)
        x = np.random.default_rng(1).normal(size=(4, 7))
        logits, _ = mlp_forward_np(store, x)
        assert logits.shape == (4, 5)
        row, _ = mlp_forward_np(store, x[2])
        assert np.allclose(logits[2], row)


class TestBackward:
    def test_mean_has_ndarray_means_bits_on_loss_rows(self):
        # every loss graph's mean runs over a vector of row or trajectory
        # terms: a TB batch, a PPO step's rows, an SFT proof, a reward-model
        # batch of 64 (numpy sums blocks of 128 pairwise, hence the sizes)
        rng = np.random.default_rng(27)
        for n in (*range(1, 40), 64, 127, 128, 129, 200, 513):
            for x in (rng.normal(size=n), rng.normal(scale=10.0, size=n) ** 3,
                      -rng.exponential(size=n)):
                tape = Tape()
                assert tape.mean(tape.leaf(x)).value.tobytes() == \
                    np.asarray(x.mean()).tobytes(), n

    def test_linear_head_closed_form(self):
        # loss = c . logits is linear in the output layer, so dL/dw3 is the
        # outer product of the last hidden activation with c
        store = tiny_mlp(6)
        x = np.linspace(-1, 1, 7)[None]
        coeff = np.arange(5, dtype=float)
        tape = Tape()
        logits, hidden, _ = mlp_forward(store, x, tape)
        loss = tape.mean(tape.matmul(logits, tape.leaf(coeff)))
        grads = tape.backward(loss)
        assert np.allclose(grads["w3"], np.outer(hidden.value[0], coeff))
        assert np.allclose(grads["b3"], coeff)

    def test_non_scalar_loss_raises(self):
        tape = Tape()
        logits, _, _ = mlp_forward(tiny_mlp(7), np.ones((1, 7)), tape)
        with pytest.raises(ValueError):
            tape.backward(logits)

    def test_two_backward_calls_identical(self):
        store = tiny_mlp(7)
        tape = Tape()
        logits, _, _ = mlp_forward(store, np.ones((1, 7)), tape)
        loss = tape.mean(tape.square(logits))
        g1 = tape.backward(loss)
        g2 = tape.backward(loss)
        for k in g1:
            assert np.array_equal(g1[k], g2[k])

    def test_gradient_check_log_softmax_pick(self):
        store = tiny_mlp(8)
        x = np.linspace(-1, 1, 7)[None]

        def compute(s):
            tape = Tape()
            logits, _, _ = mlp_forward(s, x, tape)
            loss = tape.scale(tape.mean(tape.gather(tape.log_softmax(logits), [3])), -1.0)
            return loss, tape

        loss, tape = compute(store)
        grads = tape.backward(loss)
        err = finite_difference_check(lambda s: float(compute(s)[0].value), store, grads)
        assert err < 1e-4

    def test_gradient_check_composite_ops(self):
        # exercises exp, minimum, clip and a vector-weight matmul in one graph
        store = tiny_mlp(9)
        x = np.linspace(-1, 1, 7)[None]

        def compute(s):
            tape = Tape()
            logits, hidden, _ = mlp_forward(s, x, tape)
            r = tape.exp(tape.gather(tape.log_softmax(logits), [1]))
            lo = tape.scale(tape.clip(r, 0.05, 0.15), 3.0)
            hi = tape.scale(r, 3.0)
            m = tape.minimum(hi, lo)
            v = tape.square(tape.shift(tape.matmul(hidden, tape.leaf(np.ones(9))), -0.7))
            loss = tape.scale(tape.mean(tape.add(m, v)), 0.5)
            return loss, tape

        loss, tape = compute(store)
        grads = tape.backward(loss)
        err = finite_difference_check(lambda s: float(compute(s)[0].value), store, grads)
        assert err < 1e-4


class TestInputGradient:
    """An input row is a leaf, which gets no gradient; skipping it leaves
    every parameter's gradient as it was when the input had one."""

    @staticmethod
    def _loss(tape, store, xv):
        # mlp_forward's op sequence from a given input Var, then a scalar loss
        h1 = tape.tanh(tape.add(tape.matmul(xv, tape.param(store, "w1")),
                                tape.param(store, "b1")))
        h2 = tape.tanh(tape.add(tape.matmul(h1, tape.param(store, "w2")),
                                tape.param(store, "b2")))
        logits = tape.add(tape.matmul(h2, tape.param(store, "w3")), tape.param(store, "b3"))
        picked = tape.gather(tape.log_softmax(logits), [1, 4, 0])
        return tape.add(tape.mean(picked), tape.mean(tape.square(h2)))

    def test_parameter_gradients_match_an_input_with_a_gradient(self):
        store = tiny_mlp(12)
        x = np.random.default_rng(3).normal(size=(3, 7))
        tape = Tape()
        xv = tape.leaf(x)
        grads = tape.backward(self._loss(tape, store, xv))
        assert xv.grad is None
        # the input bound as a parameter of its own gets a gradient, as before
        ref_tape = Tape()
        x_param = ref_tape.param(ParamStore({"x": x}), "x")
        ref = ref_tape.backward(self._loss(ref_tape, store, x_param))
        assert x_param.grad is not None and x_param.grad.shape == x.shape
        assert list(grads) == [name for name in ref if name != "x"]
        for name, g in grads.items():
            assert g.tobytes() == ref[name].tobytes(), name

    def test_mlp_forward_input_gets_no_gradient(self):
        tape = Tape()
        logits, _, _ = mlp_forward(tiny_mlp(13), np.ones((2, 7)), tape)
        tape.backward(tape.mean(logits))
        leaves = [v for v in tape._order if v._backward is None]
        assert [v.grad is None for v in leaves] == [True] + [False] * 6


class TestOptimizer:
    def test_clip_scales_norm_one_to_half(self):
        store = ParamStore()
        store.add("w", np.zeros(4))
        g = np.full(4, 0.5)  # norm 1.0
        assert np.isclose(global_grad_norm({"w": g}), 1.0)
        optim_step(store, {"w": g}, lr=1.0)
        # after clip the effective gradient has norm 0.5; AdamW's first step
        # moves each coordinate by ~lr regardless of magnitude (and decays
        # it), so check the moment buffers saw the clipped values
        assert np.allclose(store.adam_m["w"], 0.1 * 0.25)

    def test_post_clip_norm_bounded(self):
        rng = np.random.default_rng(0)
        grads = {"a": rng.normal(size=(8, 8)), "b": rng.normal(size=8)}
        norm = global_grad_norm(grads)
        factor = 0.5 / norm
        clipped = {k: v * factor for k, v in grads.items()}
        assert global_grad_norm(clipped) <= 0.5 + 1e-12

    def test_hand_computed_adamw_step(self):
        store = ParamStore()
        store.add("w", np.array([1.0, -2.0]))
        g = np.array([0.3, -0.1])  # norm < 0.5, no clipping
        optim_step(store, {"w": g}, lr=1e-4)
        m = 0.1 * g
        v = 0.001 * g * g
        m_hat = m / 0.1
        v_hat = v / 0.001
        expected = np.array([1.0, -2.0]) - 1e-4 * m_hat / (np.sqrt(v_hat) + 1e-8) \
            - 1e-4 * 0.01 * np.array([1.0, -2.0])
        assert np.allclose(store["w"], expected, atol=0, rtol=1e-15)

    def test_zero_grads_only_weight_decay(self):
        store = ParamStore()
        store.add("w", np.array([2.0]))
        optim_step(store, {"w": np.zeros(1)})
        assert np.isclose(store["w"][0], 2.0 * (1 - 1e-4 * 0.01))

    def test_nonfinite_gradient_raises_and_preserves_params(self):
        store = ParamStore()
        store.add("w", np.array([1.0]))
        with pytest.raises(NonFiniteGradient):
            optim_step(store, {"w": np.array([np.nan])})
        assert store["w"][0] == 1.0
        assert store.step_count == 0

    def test_identical_seeds_identical_trajectories(self):
        def run():
            store = tiny_mlp(11)
            for i in range(5):
                tape = Tape()
                logits, _, _ = mlp_forward(store, np.linspace(0, 1, 7)[None], tape)
                loss = tape.mean(tape.square(logits))
                optim_step(store, tape.backward(loss), lr=1e-2)
            return store

        s1, s2 = run(), run()
        for name in s1.arrays:
            assert np.array_equal(s1[name], s2[name])


    def test_in_place_update_matches_out_of_place_reference(self):
        store = tiny_mlp(13)
        store.add("bz", np.asarray(0.3))  # 0-d parameters update in place too
        params = {k: v.copy() for k, v in store.arrays.items()}
        moments = {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in params.items()}
        rng = np.random.default_rng(14)
        for t in range(1, 51):
            grads = {k: rng.normal(scale=0.4, size=v.shape) for k, v in params.items()}
            optim_step(store, grads, lr=1e-2)
            reference_step(params, moments, grads, 1e-2, t)
            assert_store_equals(store, params, moments, t)

    @pytest.mark.parametrize("scale,clipped", [(0.001, False), (0.1, True), (3.0, True)])
    def test_policy_net_update_matches_out_of_place_reference(self, scale, clipped):
        # the full policy with its value head: 10 segments of 42,534 values,
        # some starting at odd offsets; every other step hands the gradients
        # over in reverse order, which sets the order the norm is summed in
        store = PolicyNet.create(seed=15, with_value_head=True).store
        params = {k: v.copy() for k, v in store.arrays.items()}
        moments = {k: (np.zeros_like(v), np.zeros_like(v)) for k, v in params.items()}
        rng = np.random.default_rng(16)
        for t in range(1, 9):
            grads = {k: rng.normal(scale=scale, size=v.shape) for k, v in params.items()}
            if t % 2:
                grads = dict(reversed(grads.items()))
            norm = optim_step(store, grads, lr=1e-2)
            assert norm == global_grad_norm(grads)
            assert (norm > CLIP_NORM) == clipped
            reference_step(params, moments, grads, 1e-2, t)
            assert_store_equals(store, params, moments, t)


class TestCheckpoint:
    def test_bit_exact_round_trip(self, tmp_path):
        store = tiny_mlp(12)
        tape = Tape()
        logits, _, _ = mlp_forward(store, np.ones((1, 7)), tape)
        optim_step(store, tape.backward(tape.mean(logits)))
        path = tmp_path / "ckpt.npz"
        store.save(path)
        loaded = ParamStore.load(path)
        assert loaded.step_count == store.step_count
        for name in store.arrays:
            assert np.array_equal(loaded[name], store[name])
            assert np.array_equal(loaded.adam_m[name], store.adam_m[name])
            assert np.array_equal(loaded.adam_v[name], store.adam_v[name])
        assert loaded.fingerprint() == store.fingerprint()

    def test_save_load_save_gives_identical_bytes(self, tmp_path):
        store = PolicyNet.create(seed=17, with_value_head=True).store
        rng = np.random.default_rng(18)
        for _ in range(3):
            optim_step(store, {k: rng.normal(size=v.shape) for k, v in store.arrays.items()})
        store.save(tmp_path / "a.npz")
        ParamStore.load(tmp_path / "a.npz").save(tmp_path / "b.npz")
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_failed_save_keeps_the_earlier_checkpoint(self, tmp_path, monkeypatch):
        store = tiny_mlp(19)
        path = tmp_path / "ckpt.npz"
        store.save(path)
        before = path.read_bytes()
        store["b1"] = np.ones(9)

        def savez_then_fail(file, **arrays):
            file.write(b"PK partial archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez_then_fail)
        with pytest.raises(OSError, match="disk full"):
            store.save(path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.npz"]


class TestFlatStore:
    def test_every_array_is_a_view_of_its_flat_vector(self):
        store = PolicyNet.create(seed=20, with_value_head=True).store
        optim_step(store, {k: np.ones(v.shape) for k, v in store.arrays.items()})
        assert store.flat_p.size == sum(v.size for v in store.arrays.values())
        for views, flat in ((store.arrays, store.flat_p), (store.adam_m, store.flat_m),
                            (store.adam_v, store.flat_v)):
            assert list(views) == list(store.segments)
            for name, view in views.items():
                assert np.shares_memory(view, flat)
                assert np.array_equal(view.reshape(-1), flat[store.segments[name]])

    def test_setitem_writes_through_and_refuses_a_shape_change(self):
        store = tiny_mlp(21)
        view = store["b2"]
        store["b2"] = np.arange(9.0)
        assert store["b2"] is view
        assert np.array_equal(store.flat_p[store.segments["b2"]], np.arange(9.0))
        with pytest.raises(ValueError):
            store["b2"] = np.zeros(8)
        assert np.array_equal(store["b2"], np.arange(9.0))

    def test_add_after_steps_keeps_earlier_values_and_moments(self):
        store = tiny_mlp(22)
        rng = np.random.default_rng(23)
        for _ in range(3):
            optim_step(store, {k: rng.normal(size=v.shape) for k, v in store.arrays.items()},
                       lr=1e-2)
        before = {k: (store[k].copy(), store.adam_m[k].copy(), store.adam_v[k].copy())
                  for k in store.arrays}
        flat_before = store.flat_p.copy()
        store.add("wv", np.full(9, 0.5))
        assert store.step_count == 3
        assert np.array_equal(store.flat_p[:flat_before.size], flat_before)
        for name, (p, m, v) in before.items():
            assert np.array_equal(store[name], p)
            assert np.array_equal(store.adam_m[name], m)
            assert np.array_equal(store.adam_v[name], v)
        assert np.array_equal(store["wv"], np.full(9, 0.5))
        assert not store.adam_m["wv"].any() and not store.adam_v["wv"].any()
        with pytest.raises(ValueError):
            store.add("wv", np.zeros(9))

    def test_the_store_holds_copies_of_the_callers_arrays(self):
        params = {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(3)}
        store = ParamStore(params)
        store.add("wv", params["b"])
        params["w"][...] = -1.0  # writes after the store is made do not reach it
        params["b"][...] = -1.0
        assert np.array_equal(store["w"], np.arange(6.0).reshape(2, 3))
        assert np.array_equal(store["b"], np.ones(3))
        assert np.array_equal(store["wv"], np.ones(3))
        assert not store.flat_m.any() and not store.flat_v.any()

    def test_norm_with_a_missing_gradient_equals_global_grad_norm(self):
        store = tiny_mlp(24)
        rng = np.random.default_rng(25)
        grads = {k: rng.normal(size=v.shape) for k, v in store.arrays.items() if k != "w2"}
        w2 = store["w2"].copy()
        norm = optim_step(store, grads)
        assert norm == global_grad_norm(grads)
        # zero gradient and zero moments: only the decay moves it
        assert np.array_equal(store["w2"], w2 - w2 * (1e-4 * WEIGHT_DECAY))
        assert not store.adam_m["w2"].any()

    @pytest.mark.parametrize("grads,error", [
        ({"b1": np.ones(1)}, ValueError),  # would broadcast over all 9 entries
        ({"b1": np.ones((9, 1))}, ValueError),
        ({"w9": np.ones(3)}, KeyError),
    ])
    def test_misfit_gradient_raises_and_changes_nothing(self, grads, error):
        store = tiny_mlp(26)
        optim_step(store, {k: np.ones(v.shape) for k, v in store.arrays.items()})
        flats = [store.flat_p.copy(), store.flat_m.copy(), store.flat_v.copy()]
        with pytest.raises(error):
            optim_step(store, {"w1": np.ones((7, 9)), **grads})
        assert store.step_count == 1
        for flat, before in zip((store.flat_p, store.flat_m, store.flat_v), flats):
            assert np.array_equal(flat, before)


def test_log_softmax_is_normalized():
    z = np.array([1.0, -2.0, 0.5, 7.0])
    assert np.isclose(np.exp(log_softmax_np(z)).sum(), 1.0, atol=1e-12)
