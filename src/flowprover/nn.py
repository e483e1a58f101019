"""Minimal differentiable-computation substrate on float64 numpy arrays.

A Tape records forward operations as Var nodes in construction order
(which is a valid topological order), so exact reverse-mode gradients of a
scalar loss come from one reverse sweep. Only the operations the trainers
actually use are implemented. Everything is deterministic: same inputs,
same operation order, same bits.
"""

from __future__ import annotations

import logging
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)


class NonFiniteGradient(FloatingPointError):
    """A gradient contained NaN/Inf; the optimizer refuses the update."""


class CheckpointError(ValueError):
    """A checkpoint file is not an npz archive, is not of version 1, or
    lacks an entry."""


# Parameter names of init_mlp's three layers.
MLP_PARAMS = ("w1", "b1", "w2", "b2", "w3", "b3")


# ---------------------------------------------------------------------------
# Parameter store


class ParamStore:
    """Named float64 arrays plus AdamW first/second moment buffers."""

    def __init__(self):
        self.arrays: dict[str, np.ndarray] = {}
        self.adam_m: dict[str, np.ndarray] = {}
        self.adam_v: dict[str, np.ndarray] = {}
        self.step_count: int = 0
        self._work: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def add(self, name: str, value: np.ndarray) -> None:
        assert name not in self.arrays, f"duplicate parameter {name!r}"
        arr = np.array(value, dtype=np.float64)  # own copy: updates are in place
        self.arrays[name] = arr
        self.adam_m[name] = np.zeros_like(arr)
        self.adam_v[name] = np.zeros_like(arr)

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        assert name in self.arrays and self.arrays[name].shape == value.shape
        self.arrays[name] = np.array(value, dtype=np.float64)

    def names(self) -> list[str]:
        return list(self.arrays)

    def work(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Two scratch arrays shaped like parameter ``name``, kept between
        optimizer steps: an update then allocates nothing, and the
        allocator does not hand pages back and fault them in again."""
        if name not in self._work:
            arr = self.arrays[name]
            self._work[name] = (np.empty_like(arr), np.empty_like(arr))
        return self._work[name]

    def fingerprint(self) -> str:
        import hashlib

        h = hashlib.sha256()
        for name in sorted(self.arrays):
            h.update(name.encode())
            h.update(self.arrays[name].tobytes())
        return h.hexdigest()

    def save(self, path: str | Path) -> None:
        payload = {"__version__": np.array([1]), "__step__": np.array([self.step_count])}
        for name, arr in self.arrays.items():
            payload[f"p:{name}"] = arr
            payload[f"m:{name}"] = self.adam_m[name]
            payload[f"v:{name}"] = self.adam_v[name]
        np.savez(path, **payload)

    @classmethod
    def load(cls, path: str | Path, required: tuple[str, ...] = ()) -> "ParamStore":
        """Read a checkpoint written by ``save``; raises CheckpointError on
        anything else, or when a parameter named in ``required`` is absent."""
        try:
            data = np.load(path)
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise CheckpointError(f"{path}: not a checkpoint: {exc}") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise CheckpointError(f"{path}: not a checkpoint: not an npz archive")
        with data:
            files = set(data.files)
            if "__version__" not in files:
                raise CheckpointError(f"{path}: not a checkpoint: no __version__ entry")
            version = data["__version__"]
            if not np.array_equal(version, [1]):
                raise CheckpointError(
                    f"{path}: checkpoint version {version.tolist()}, expected [1]")
            names = [key[2:] for key in data.files if key.startswith("p:")]
            needed = ({"__step__"} | {f"p:{name}" for name in required}
                      | {f"{kind}:{name}" for name in names for kind in "mv"})
            missing = sorted(needed - files)
            if missing:
                raise CheckpointError(f"{path}: checkpoint lacks {', '.join(missing)}")
            store = cls()
            store.step_count = int(data["__step__"][0])
            for name in names:
                store.arrays[name] = data[f"p:{name}"].astype(np.float64)
                store.adam_m[name] = data[f"m:{name}"].astype(np.float64)
                store.adam_v[name] = data[f"v:{name}"].astype(np.float64)
        return store


# ---------------------------------------------------------------------------
# Autodiff tape


class Var:
    """Node in the computation graph: a float64 array plus backward hooks."""

    __slots__ = ("value", "grad", "_backward")

    def __init__(self, value, backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._backward = backward  # callable(grad) propagating to parents

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad = self.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


class Tape:
    """Records Vars in creation order; backward() runs the reverse sweep."""

    def __init__(self):
        self._order: list[Var] = []
        self._param_vars: dict[str, Var] = {}

    # -- leaves ------------------------------------------------------------

    def leaf(self, value) -> Var:
        v = Var(value)
        self._order.append(v)
        return v

    def param(self, store: ParamStore, name: str) -> Var:
        """Var bound to a store parameter; cached so reuse accumulates grads."""
        if name not in self._param_vars:
            self._param_vars[name] = self.leaf(store[name])
        return self._param_vars[name]

    def _node(self, value, backward) -> Var:
        v = Var(value, backward)
        self._order.append(v)
        return v

    # -- ops -----------------------------------------------------------------

    def add(self, a: Var, b: Var) -> Var:
        def bw(g):
            a._accum(_unbroadcast(g, a.value.shape))
            b._accum(_unbroadcast(g, b.value.shape))
        return self._node(a.value + b.value, bw)

    def scale(self, a: Var, c: float) -> Var:
        def bw(g):
            a._accum(g * c)
        return self._node(a.value * c, bw)

    def shift(self, a: Var, c) -> Var:
        def bw(g):
            a._accum(_unbroadcast(g, a.value.shape))
        return self._node(a.value + np.asarray(c, dtype=np.float64), bw)

    def neg(self, a: Var) -> Var:
        return self.scale(a, -1.0)

    def matmul(self, x: Var, w: Var) -> Var:
        # x: (d,) or (B, d); w: (d, o), or (d,) for a scalar head per row
        def bw(g):
            if w.value.ndim == 1:
                x._accum(np.multiply.outer(g, w.value))
                w._accum(np.dot(x.value.T, g))
            elif x.value.ndim == 1:
                x._accum(g @ w.value.T)
                w._accum(np.outer(x.value, g))
            else:
                x._accum(g @ w.value.T)
                w._accum(x.value.T @ g)
        return self._node(x.value @ w.value, bw)

    def tanh(self, a: Var) -> Var:
        out = np.tanh(a.value)
        def bw(g):
            a._accum(g * (1.0 - out * out))
        return self._node(out, bw)

    def exp(self, a: Var) -> Var:
        out = np.exp(a.value)
        def bw(g):
            a._accum(g * out)
        return self._node(out, bw)

    def square(self, a: Var) -> Var:
        def bw(g):
            a._accum(g * 2.0 * a.value)
        return self._node(a.value * a.value, bw)

    def log_softmax(self, z: Var) -> Var:
        out = log_softmax_np(z.value)
        def bw(g):
            soft = np.exp(out)
            a_sum = g.sum(axis=-1, keepdims=True)
            z._accum(g - soft * a_sum)
        return self._node(out, bw)

    def gather(self, y: Var, idx) -> Var:
        """Select one entry per row along the last axis."""
        idx = np.asarray(idx)
        if y.value.ndim == 1:
            out = y.value[int(idx)]
            def bw(g):
                full = np.zeros_like(y.value)
                full[int(idx)] = g
                y._accum(full)
        else:
            rows = np.arange(y.value.shape[0])
            out = y.value[rows, idx]
            def bw(g):
                full = np.zeros_like(y.value)
                full[rows, idx] = g
                y._accum(full)
        return self._node(out, bw)

    def take(self, y: Var, idx) -> Var:
        """Entries of a vector, or rows of a matrix, at ``idx``; an index
        may repeat, and its gradients then add up."""
        idx = np.asarray(idx, dtype=np.intp)
        def bw(g):
            full = np.zeros_like(y.value)
            np.add.at(full, idx, g)
            y._accum(full)
        return self._node(y.value[idx], bw)

    def minimum(self, a: Var, b: Var) -> Var:
        pick_a = a.value <= b.value
        def bw(g):
            a._accum(_unbroadcast(g * pick_a, a.value.shape))
            b._accum(_unbroadcast(g * ~pick_a, b.value.shape))
        return self._node(np.minimum(a.value, b.value), bw)

    def clip(self, a: Var, lo: float, hi: float) -> Var:
        inside = (a.value >= lo) & (a.value <= hi)
        def bw(g):
            a._accum(g * inside)
        return self._node(np.clip(a.value, lo, hi), bw)

    def sum(self, a: Var) -> Var:
        def bw(g):
            a._accum(np.full_like(a.value, float(g)))
        return self._node(a.value.sum(), bw)

    def mean(self, a: Var) -> Var:
        n = a.value.size
        def bw(g):
            a._accum(np.full_like(a.value, float(g) / n))
        return self._node(a.value.mean(), bw)

    def segment_sum(self, a: Var, seg, n: int) -> Var:
        """Sums of a vector's entries by segment: out[k] = sum of a[i] with
        seg[i] == k, for k < n (entries added in index order)."""
        seg = np.asarray(seg, dtype=np.intp)
        def bw(g):
            a._accum(g[seg])
        return self._node(np.bincount(seg, weights=a.value, minlength=n), bw)

    # -- reverse sweep -------------------------------------------------------

    def backward(self, loss: Var, seed: float = 1.0) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss w.r.t. every bound parameter.

        Re-runnable: grads are reset each call, so two calls agree exactly.
        """
        if loss.value.ndim != 0:
            raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
        for v in self._order:
            v.grad = None
        loss.grad = np.asarray(seed, dtype=np.float64)
        for v in reversed(self._order):
            if v.grad is not None and v._backward is not None:
                v._backward(v.grad)
        return {
            name: (v.grad if v.grad is not None else np.zeros_like(v.value))
            for name, v in self._param_vars.items()
        }


# ---------------------------------------------------------------------------
# Plain-numpy helpers (inference paths share the exact op sequence the taped
# versions use, so values agree bitwise)


def log_softmax_np(z: np.ndarray) -> np.ndarray:
    zmax = z.max(axis=-1, keepdims=True)
    shifted = z - zmax
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_np(z: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax_np(z))


# ---------------------------------------------------------------------------
# MLP (two tanh hidden layers, linear head)


def init_mlp(rng: np.random.Generator, in_dim: int, hidden: int, out_dim: int,
             scale: float | None = None) -> ParamStore:
    """Fresh MLP parameters. ``scale=0.0`` gives the all-zero net used in
    uniform-policy tests."""
    store = ParamStore()
    dims = [(in_dim, hidden), (hidden, hidden), (hidden, out_dim)]
    for i, (d_in, d_out) in enumerate(dims, start=1):
        s = scale if scale is not None else 1.0 / np.sqrt(d_in)
        store.add(f"w{i}", rng.normal(0.0, 1.0, size=(d_in, d_out)) * s)
        store.add(f"b{i}", np.zeros(d_out))
    return store


def mlp_forward(store: ParamStore, x: np.ndarray, tape: Tape | None = None):
    """Forward pass; returns (logits, last_hidden, tape) as taped Vars.

    Pass an existing tape to compose several forwards into one loss graph.
    """
    if tape is None:
        tape = Tape()
    x = np.asarray(x, dtype=np.float64)
    assert x.shape[-1] == store["w1"].shape[0], \
        f"input dim {x.shape[-1]} != {store['w1'].shape[0]}"
    xv = tape.leaf(x)
    h1 = tape.tanh(tape.add(tape.matmul(xv, tape.param(store, "w1")), tape.param(store, "b1")))
    h2 = tape.tanh(tape.add(tape.matmul(h1, tape.param(store, "w2")), tape.param(store, "b2")))
    logits = tape.add(tape.matmul(h2, tape.param(store, "w3")), tape.param(store, "b3"))
    return logits, h2, tape


def mlp_forward_np(store: ParamStore, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tape-free forward; identical op order to mlp_forward, same bits."""
    x = np.asarray(x, dtype=np.float64)
    h1 = np.tanh(x @ store["w1"] + store["b1"])
    h2 = np.tanh(h1 @ store["w2"] + store["b2"])
    return h2 @ store["w3"] + store["b3"], h2


# ---------------------------------------------------------------------------
# Optimizer: global-norm clip then AdamW


@dataclass
class OptimConfig:
    lr: float = 1e-4
    clip_norm: float = 0.5
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


def optim_step(store: ParamStore, grads: dict[str, np.ndarray],
               cfg: OptimConfig = OptimConfig()) -> float:
    """Clip gradients to ``clip_norm`` global norm, then apply one AdamW
    update (decoupled weight decay: p -= lr*wd*p in addition to the Adam
    step; bias-corrected moments). Returns the pre-clip gradient norm.

    Parameters and moments are updated in place, through the store's
    scratch arrays, in the same arithmetic order as
    ``p - lr*m_hat/(sqrt(v_hat)+eps) - lr*wd*p``.

    Raises NonFiniteGradient (and changes nothing) on NaN/Inf gradients.
    """
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradient(f"non-finite gradient for {name!r}")
    norm = global_grad_norm(grads)
    factor = cfg.clip_norm / norm if norm > cfg.clip_norm else 1.0

    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - cfg.beta1 ** t
    bc2 = 1.0 - cfg.beta2 ** t
    for name in store.names():
        p, m, v = store.arrays[name], store.adam_m[name], store.adam_v[name]
        a, b = store.work(name)
        grad = grads.get(name)
        if grad is None:
            a.fill(0.0)
        else:
            np.multiply(grad, factor, out=a)  # a = g
        m *= cfg.beta1
        np.multiply(a, 1.0 - cfg.beta1, out=b)
        m += b
        a *= a
        a *= 1.0 - cfg.beta2
        v *= cfg.beta2
        v += a
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += cfg.eps  # a = sqrt(v_hat) + eps
        np.divide(m, bc1, out=b)
        b *= cfg.lr
        b /= a  # b = lr * m_hat / (sqrt(v_hat) + eps)
        np.multiply(p, cfg.lr * cfg.weight_decay, out=a)  # a = decay, from p before the update
        p -= b
        p -= a
    return norm


def update(store: ParamStore, tape: Tape, loss: Var,
           cfg: OptimConfig) -> tuple[float, float, bool]:
    """One training update: backward from ``loss``, then ``optim_step``.

    Returns the loss value, the pre-clip gradient norm and whether the
    update was skipped. A non-finite gradient skips it, leaving the store
    unchanged, with one warning; the norm is then NaN.
    """
    grads = tape.backward(loss)
    try:
        return float(loss.value), optim_step(store, grads, cfg), False
    except NonFiniteGradient as exc:
        logger.warning("%s; update skipped", exc)
        return float(loss.value), float("nan"), True


# ---------------------------------------------------------------------------
# Finite-difference oracle


def finite_difference_check(loss_fn, store: ParamStore, grads: dict[str, np.ndarray],
                            eps: float = 1e-5, max_coords_per_param: int = 24,
                            rng: np.random.Generator | None = None) -> float:
    """Max relative error between analytic grads and central differences.

    ``loss_fn(store) -> float`` must be a pure function of the parameters.
    Checks every coordinate up to ``max_coords_per_param`` per array (random
    subset beyond that).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    worst = 0.0
    for name, g in grads.items():
        arr = store.arrays[name]
        flat = arr.reshape(-1)
        gflat = np.asarray(g).reshape(-1)
        n = flat.size
        coords = np.arange(n) if n <= max_coords_per_param else rng.choice(
            n, size=max_coords_per_param, replace=False)
        for i in coords:
            orig = flat[i]
            flat[i] = orig + eps
            hi = loss_fn(store)
            flat[i] = orig - eps
            lo = loss_fn(store)
            flat[i] = orig
            numeric = (hi - lo) / (2.0 * eps)
            denom = max(abs(numeric), abs(gflat[i]), 1e-6)
            worst = max(worst, abs(numeric - gflat[i]) / denom)
    return worst
