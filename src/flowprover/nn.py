"""Minimal differentiable-computation substrate on float64 numpy arrays.

A Tape records forward operations as Var nodes in construction order
(which is a valid topological order), so exact reverse-mode gradients of a
scalar loss come from one reverse sweep. Only the operations the trainers
actually use are implemented, on stacked rows: every loss graph is one
forward over an (n, d) matrix of input rows. The optimizer, a global-norm
clip then AdamW, takes only a learning rate; the rest of it is constants.
Everything is deterministic: same inputs, same operation order, same bits.
"""

from __future__ import annotations

import logging
import math
import os
import zipfile
from collections.abc import Callable
from pathlib import Path
from typing import BinaryIO

import numpy as np

logger = logging.getLogger(__name__)


class NonFiniteGradient(FloatingPointError):
    """A gradient contained NaN/Inf; the optimizer refuses the update."""


class CheckpointError(ValueError):
    """A checkpoint file is not an npz archive, is not of version 1, lacks
    an entry, holds a parameter or moment that is not a finite
    floating-point array, a version or step count that is not an integer
    one or a negative step count, or holds layers that do not fit the
    network, half of a head or a parameter it does not have
    (``policy.checked_hidden``)."""


# Parameter names of mlp_params' three layers.
MLP_PARAMS = ("w1", "b1", "w2", "b2", "w3", "b3")


# ---------------------------------------------------------------------------
# Parameter store


class ParamStore:
    """Named float64 parameters plus AdamW first/second moment buffers, held
    in three flat vectors: ``flat_p`` (the parameters), ``flat_m`` and
    ``flat_v`` (the moments). ``arrays[name]``, ``adam_m[name]`` and
    ``adam_v[name]`` are reshaped views of the parameter's segment
    (``segments[name]``) of each, so ``optim_step`` updates every parameter
    with whole-vector operations while callers read and write by name.

    Segments follow the order parameters were added in. A store built from
    a dict is packed once; ``extend`` and ``add`` repack, so they suit a
    rare late addition such as a value head."""

    def __init__(self, params: dict[str, np.ndarray] | None = None):
        self.arrays: dict[str, np.ndarray] = {}
        self.adam_m: dict[str, np.ndarray] = {}
        self.adam_v: dict[str, np.ndarray] = {}
        self.segments: dict[str, slice] = {}
        self.flat_p = self.flat_m = self.flat_v = np.zeros(0)
        self.step_count: int = 0
        self.extend(params or {})

    def extend(self, params: dict[str, np.ndarray]) -> None:
        """Append ``params``, copied, with zero moments, after the current
        segments. The flat vectors are allocated once and filled in place:
        earlier values and moments are kept bit for bit, new moments stay
        untouched zero pages until the first update, and earlier views go
        stale."""
        values = {name: np.asarray(value, dtype=np.float64) for name, value in params.items()}
        for name in values:
            if name in self.arrays:
                raise ValueError(f"duplicate parameter {name!r}")
        kept = self.flat_p.size
        size = kept + sum(arr.size for arr in values.values())
        flat_p, flat_m, flat_v = np.empty(size), np.zeros(size), np.zeros(size)
        flat_p[:kept], flat_m[:kept], flat_v[:kept] = self.flat_p, self.flat_m, self.flat_v
        self.flat_p, self.flat_m, self.flat_v = flat_p, flat_m, flat_v
        start = 0
        for name, arr in {**self.arrays, **values}.items():
            seg = self.segments[name] = slice(start, start + arr.size)
            self.arrays[name] = flat_p[seg].reshape(arr.shape)
            self.adam_m[name] = flat_m[seg].reshape(arr.shape)
            self.adam_v[name] = flat_v[seg].reshape(arr.shape)
            start = seg.stop
        for name, arr in values.items():
            self.arrays[name][...] = arr

    def add(self, name: str, value: np.ndarray) -> None:
        self.extend({name: value})

    def __getitem__(self, name: str) -> np.ndarray:
        return self.arrays[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        if name not in self.arrays:
            raise KeyError(f"unknown parameter {name!r}")
        if self.arrays[name].shape != np.shape(value):
            raise ValueError(f"parameter {name!r} has shape {self.arrays[name].shape}, "
                             f"got {np.shape(value)}")
        self.arrays[name][...] = value

    def fingerprint(self) -> str:
        import hashlib

        h = hashlib.sha256()
        for name in sorted(self.arrays):
            h.update(name.encode())
            h.update(self.arrays[name].tobytes())
        return h.hexdigest()

    def save(self, path: str | Path | BinaryIO) -> None:
        """Write parameters, moments and step count as an npz archive. A
        path gets ``.npz`` appended if it lacks it (as ``np.savez`` does) and
        is written atomically; an open binary file is written directly."""
        payload = {"__version__": np.array([1]), "__step__": np.array([self.step_count])}
        for name, arr in self.arrays.items():
            payload[f"p:{name}"] = arr
            payload[f"m:{name}"] = self.adam_m[name]
            payload[f"v:{name}"] = self.adam_v[name]
        if hasattr(path, "write"):
            np.savez(path, **payload)
            return
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_name(path.name + ".npz")
        write_atomic(path, lambda fh: np.savez(fh, **payload))

    @classmethod
    def load(cls, path: str | Path | BinaryIO,
             required: tuple[str, ...] = ()) -> "ParamStore":
        """Read a checkpoint written by ``save``; raises CheckpointError on
        anything else, when a parameter named in ``required`` is absent,
        when a parameter or moment is not a finite floating-point array or
        the version or step count not an integer one, or when the step
        count is negative (an update from step -1 divides by 1 - beta**0 = 0)."""
        try:
            data = np.load(path)
        except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
            raise CheckpointError(f"{path}: not a checkpoint: {exc}") from exc
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise CheckpointError(f"{path}: not a checkpoint: not an npz archive")

        def entry(key: str, kinds: str = "f") -> np.ndarray:  # dtype kinds: floats by default
            try:
                value = data[key]
            except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
                raise CheckpointError(f"{path}: entry {key} does not load: {exc}") from exc
            if value.dtype.kind not in kinds:
                what = "floating point" if kinds == "f" else "integer"
                raise CheckpointError(f"{path}: entry {key} is not {what} ({value.dtype})")
            if not np.isfinite(value).all():  # search would rank NaN scores silently
                raise CheckpointError(f"{path}: entry {key} holds non-finite values")
            return value

        with data:
            files = set(data.files)
            if "__version__" not in files:
                raise CheckpointError(f"{path}: not a checkpoint: no __version__ entry")
            version = entry("__version__", "iu")
            if not np.array_equal(version, [1]):
                raise CheckpointError(
                    f"{path}: checkpoint version {version.tolist()}, expected [1]")
            names = [key[2:] for key in data.files if key.startswith("p:")]
            needed = ({"__step__"} | {f"p:{name}" for name in required}
                      | {f"{kind}:{name}" for name in names for kind in "mv"})
            missing = sorted(needed - files)
            if missing:
                raise CheckpointError(f"{path}: checkpoint lacks {', '.join(missing)}")
            store = cls({name: entry(f"p:{name}") for name in names})
            step = entry("__step__", "iu")
            if step.shape != (1,):
                raise CheckpointError(f"{path}: __step__ must hold one integer, got "
                                      f"shape {step.shape}")
            store.step_count = int(step[0])
            if store.step_count < 0:
                raise CheckpointError(f"{path}: __step__ must be non-negative, got "
                                      f"{store.step_count}")
            for name in names:
                for kind, moments in (("m", store.adam_m), ("v", store.adam_v)):
                    value = entry(f"{kind}:{name}")
                    if value.shape != moments[name].shape:
                        raise CheckpointError(f"{path}: {kind}:{name} has shape {value.shape}, "
                                              f"expected {moments[name].shape}")
                    moments[name][...] = value
        return store


def write_atomic(path: str | Path, write: Callable[[BinaryIO], object]) -> None:
    """Create ``path`` through ``write(binary_file)`` on a temporary file in
    the same directory, renamed over ``path`` once complete: a reader, or a
    run stopped midway, finds the old file or the new one, never a part."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


# ---------------------------------------------------------------------------
# Autodiff tape


class Var:
    """Node in the computation graph: a float64 array plus backward hooks.
    A leaf (no backward hook) gets no gradient unless ``needs_grad`` is set,
    as ``Tape.param`` does; every op node gets one."""

    __slots__ = ("value", "grad", "_backward", "needs_grad")

    def __init__(self, value, backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self._backward = backward  # callable(grad) propagating to parents
        self.needs_grad = backward is not None

    def _accum(self, g: np.ndarray) -> None:
        if not self.needs_grad:
            return
        if self.grad is None:
            self.grad = np.asarray(g, dtype=np.float64)  # gradients are never mutated
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
        self._param_stores: dict[str, ParamStore] = {}

    # -- leaves ------------------------------------------------------------

    def leaf(self, value) -> Var:
        """A constant: an input row or operand, which gets no gradient."""
        v = Var(value)
        self._order.append(v)
        return v

    def param(self, store: ParamStore, name: str) -> Var:
        """Var bound to a store parameter; cached so reuse accumulates grads.
        ValueError when ``name`` is already bound to another store."""
        var = self._param_vars.get(name)
        if var is None:
            var = self._param_vars[name] = self.leaf(store[name])
            var.needs_grad = True
            self._param_stores[name] = store
        elif self._param_stores[name] is not store:
            raise ValueError(f"parameter {name!r} is already bound to another store")
        return var

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

    def matmul(self, x: Var, w: Var) -> Var:
        # x: (B, d) rows; w: (d, o), or (d,) for a scalar head per row.
        # The input rows are a leaf, so the first layer skips g @ w.T.
        def bw(g):
            if x.needs_grad:
                x._accum(np.multiply.outer(g, w.value) if w.value.ndim == 1 else g @ w.value.T)
            w._accum(np.dot(x.value.T, g) if w.value.ndim == 1 else x.value.T @ g)
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
        rows, idx = np.arange(y.value.shape[0]), np.asarray(idx)
        def bw(g):
            full = np.zeros_like(y.value)
            full[rows, idx] = g
            y._accum(full)
        return self._node(y.value[rows, idx], bw)

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

    def mean(self, a: Var) -> Var:
        n = a.value.size
        def bw(g):
            a._accum(np.full_like(a.value, float(g) / n))
        # ndarray.mean's bits: the same reduction and divide, without its wrapper
        return self._node(np.add.reduce(a.value, axis=None) / n, bw)

    def segment_sum(self, a: Var, seg, n: int) -> Var:
        """Sums of a vector's entries by segment: out[k] = sum of a[i] with
        seg[i] == k, for k < n (entries added in index order)."""
        seg = np.asarray(seg, dtype=np.intp)
        def bw(g):
            a._accum(g[seg])
        return self._node(np.bincount(seg, weights=a.value, minlength=n), bw)

    # -- reverse sweep -------------------------------------------------------

    def backward(self, loss: Var) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss w.r.t. every bound parameter.

        Re-runnable: grads are reset each call, so two calls agree exactly.
        """
        if loss.value.ndim != 0:
            raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
        for v in self._order:
            v.grad = None
        loss.grad = np.asarray(1.0)
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


def mlp_params(rng: np.random.Generator, in_dim: int, hidden: int, out_dim: int,
               scale: float | None = None) -> dict[str, np.ndarray]:
    """Fresh MLP parameter arrays, by name. ``scale=0.0`` gives the all-zero
    net used in uniform-policy tests."""
    params = {}
    dims = [(in_dim, hidden), (hidden, hidden), (hidden, out_dim)]
    for i, (d_in, d_out) in enumerate(dims, start=1):
        s = scale if scale is not None else 1.0 / np.sqrt(d_in)
        params[f"w{i}"] = rng.normal(0.0, 1.0, size=(d_in, d_out)) * s
        params[f"b{i}"] = np.zeros(d_out)
    return params


def mlp_forward(store: ParamStore, x: np.ndarray, tape: Tape | None = None):
    """Forward pass over stacked input rows ``x`` (n, in_dim), ValueError
    for any other shape; returns (logits, last_hidden, tape) as taped Vars.
    Pass an existing tape to compose several forwards into one loss graph."""
    if tape is None:
        tape = Tape()
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != store["w1"].shape[0]:
        raise ValueError(f"input must be rows of {store['w1'].shape[0]} features, "
                         f"got shape {x.shape}")
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


# The global-norm clip, AdamW's moment decay rates, its denominator offset
# and its decoupled weight decay, fixed for every run; only the learning rate
# is a setting.
CLIP_NORM = 0.5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01


def global_grad_norm(grads: dict[str, np.ndarray]) -> float:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    return float(np.sqrt(total))


# The optimizer's two scratch rows, shared by every store (one update runs
# at a time) and grown to the largest. Kept between steps, an update
# allocates nothing, so the allocator does not hand pages back and fault them
# in again; shared, a process that makes and drops many stores leaves fewer
# freed blocks in its heap.
_scratch = np.empty((2, 0))


def _scratch_rows(n: int) -> tuple[np.ndarray, np.ndarray]:
    global _scratch
    if _scratch.shape[1] < n:
        _scratch = np.empty((2, n))
    return _scratch[0, :n], _scratch[1, :n]


def optim_step(store: ParamStore, grads: dict[str, np.ndarray], lr: float = 1e-4) -> float:
    """Clip gradients to ``CLIP_NORM`` global norm, then apply one AdamW
    update at learning rate ``lr`` (decoupled weight decay: p -= lr*wd*p in
    addition to the Adam step, wd = ``WEIGHT_DECAY``; bias-corrected
    moments). Returns the pre-clip gradient norm.

    The gradients are copied into one of the optimizer's two flat scratch
    rows (zeros for a parameter without one). The norm is
    ``global_grad_norm(grads)`` to the bit: each gradient's sum of squares
    is taken over its own segment and the sums are added in ``grads``
    order. The update then runs once over the flat parameter and moment
    vectors, in place, in the same arithmetic order as
    ``p - lr*m_hat/(sqrt(v_hat)+eps) - lr*wd*p``.

    Raises KeyError for a gradient of an unknown parameter, ValueError for
    one shaped unlike its parameter, and NonFiniteGradient for NaN/Inf;
    each before anything in the store changes.
    """
    a, b = _scratch_rows(store.flat_p.size)
    for name, seg in store.segments.items():
        if name not in grads:
            a[seg] = 0.0
    for name, g in grads.items():
        if name not in store.segments:
            raise KeyError(f"gradient for unknown parameter {name!r}")
        if np.shape(g) != store.arrays[name].shape:
            raise ValueError(f"gradient for {name!r} has shape {np.shape(g)}, "
                             f"parameter has {store.arrays[name].shape}")
        a[store.segments[name]] = np.ravel(g)
    np.multiply(a, a, out=b)
    total = 0.0
    for name in grads:  # np.add.reduce is np.sum without its Python wrapper
        total += float(np.add.reduce(b[store.segments[name]]))
    if not math.isfinite(total):  # a finite sum of squares has finite terms
        for name in grads:
            if not np.all(np.isfinite(a[store.segments[name]])):
                raise NonFiniteGradient(f"non-finite gradient for {name!r}")
    norm = float(np.sqrt(total))
    if norm > CLIP_NORM:
        a *= CLIP_NORM / norm  # a = the clipped gradient

    store.step_count += 1
    t = store.step_count
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    p, m, v = store.flat_p, store.flat_m, store.flat_v
    m *= ADAM_BETA1
    np.multiply(a, 1.0 - ADAM_BETA1, out=b)
    m += b
    a *= a
    a *= 1.0 - ADAM_BETA2
    v *= ADAM_BETA2
    v += a
    np.divide(v, bc2, out=a)
    np.sqrt(a, out=a)
    a += ADAM_EPS  # a = sqrt(v_hat) + eps
    np.divide(m, bc1, out=b)
    b *= lr
    b /= a  # b = lr * m_hat / (sqrt(v_hat) + eps)
    np.multiply(p, lr * WEIGHT_DECAY, out=a)  # a = decay, from p before the update
    p -= b
    p -= a
    return norm


def update(store: ParamStore, tape: Tape, loss: Var, lr: float) -> tuple[float, float, bool]:
    """One training update: backward from ``loss``, then ``optim_step`` at
    learning rate ``lr``.

    Returns the loss value, the pre-clip gradient norm and whether the
    update was skipped. A non-finite gradient skips it, leaving the store
    unchanged, with one warning; the norm is then NaN.
    """
    grads = tape.backward(loss)
    try:
        return float(loss.value), optim_step(store, grads, lr), False
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
