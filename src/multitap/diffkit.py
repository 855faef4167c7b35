"""Minimal differentiable-compute kernel.

Dense float64 tensors (numpy arrays) plus the operations the
recommendation model and the graph backbone call: `softmax` with
`softmax_backward`, the batched cosine InfoNCE `info_nce` and the mean BPR
loss `bpr` (each returns its loss and adjoints in one call), the affine map
`affine` of a stored weight/bias pair with `affine_backward`, `sigmoid` and
`scatter_rows`, the adjoint of a row gather: one ordered `np.bincount` whose
sums are bit-equal to `np.add.at`, so the module needs numpy alone.
Adjoints are hand-derived instead of built from a general expression graph;
the callers compose forward and backward passes explicitly and `grad_check`
verifies the composition against central finite differences.  The module
also holds the parameter store, Adam (its betas and epsilon are the module
constants `ADAM_BETA1`, `ADAM_BETA2` and `ADAM_EPSILON`; a trainer sets only
the learning rate and weight decay), the early-stopped fit loop both
trainers run and the binary array container that checkpoints and the
persona cache share.
"""

from __future__ import annotations

import json
import logging
import struct
from pathlib import Path
from typing import Any, Callable, Collection, Mapping

import numpy as np

from .errors import DivergenceError
from .util import atomic_write_bytes, read_json, require_at_least, write_json

Array = np.ndarray

logger = logging.getLogger(__name__)

_CKPT_MAGIC = b"MTAPCKPT"
_CKPT_VERSION = 1


def require_finite(name: str, arr: Array) -> None:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"non-finite values in '{name}'")


def init_normal(rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.02) -> Array:
    return rng.normal(0.0, std, size=shape).astype(np.float64)


# ---------------------------------------------------------------------------
# primitive operations with hand-derived adjoints
# ---------------------------------------------------------------------------


def softmax(logits: Array) -> Array:
    """Numerically stabilized softmax along the last axis."""
    logits = np.asarray(logits, dtype=np.float64)
    if logits.size == 0:
        raise ValueError("softmax of empty input")
    require_finite("softmax logits", logits)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_backward(grad_out: Array, out: Array) -> Array:
    """Adjoint of softmax given its output: s * (g - <g, s>)."""
    inner = (grad_out * out).sum(axis=-1, keepdims=True)
    return out * (grad_out - inner)


def info_nce(X: Array, Y: Array, tau: float) -> tuple[float, Array, Array]:
    """Mean cosine InfoNCE and its adjoints: returns (loss, dL/dX, dL/dY).

    Row i of `X` is an anchor whose positive is row i of `Y`; the other rows
    of `Y` are its negatives, so the loss is the mean over i of
    -log softmax_j(cos(X_i, Y_j) / tau)[i].
    """
    M = X.shape[0]
    nx = np.linalg.norm(X, axis=1)
    ny = np.linalg.norm(Y, axis=1)
    if np.any(nx == 0.0) or np.any(ny == 0.0):
        raise DivergenceError("zero-norm representation in the contrastive term")
    Xn = X / nx[:, None]
    Yn = Y / ny[:, None]
    C = Xn @ Yn.T
    logits = C / tau
    top = logits.max(axis=1, keepdims=True)
    P = np.exp(logits - top)
    total = P.sum(axis=1, keepdims=True)
    P /= total
    lse = (np.log(total) + top)[:, 0]
    loss = float(np.mean(lse - np.diag(logits)))

    G = (P - np.eye(M)) / (tau * M)
    dXn = G @ Yn
    dYn = G.T @ Xn
    dX = (dXn - (dXn * Xn).sum(axis=1, keepdims=True) * Xn) / nx[:, None]
    dY = (dYn - (dYn * Yn).sum(axis=1, keepdims=True) * Yn) / ny[:, None]
    return loss, dX, dY


def sigmoid(x: Array) -> Array:
    out = np.empty_like(np.asarray(x, dtype=np.float64))
    x = np.asarray(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def bpr(margin: Array) -> tuple[float, Array]:
    """Mean BPR loss over the triples and its adjoint: returns
    (mean of -log sigmoid(margin), dL/dmargin), where `margin` holds each
    triple's positive score minus its negative score."""
    return float(np.mean(np.logaddexp(0.0, -margin))), -sigmoid(-margin) / margin.size


def affine(store: "ParameterStore", name: str, x: Array) -> Array:
    """x @ W + b with W, b the parameters `name + "_w"`, `name + "_b"`."""
    p = store.params
    return x @ p[name + "_w"] + p[name + "_b"]


def affine_backward(store: "ParameterStore", name: str, x: Array, dz: Array) -> Array:
    """Adjoint of `affine` at input `x`: accumulates dL/dW and dL/db into
    `store.grads` and returns dL/dx."""
    g = store.grads
    g[name + "_w"] += x.T @ dz
    g[name + "_b"] += dz.sum(axis=0)
    return dz @ store.params[name + "_w"].T


def scatter_rows(index: Array, values: Array, n: int) -> Array:
    """(n, d) sums of the rows of `values` grouped by `index`: output row r
    is the sum of every `values[t]` with `index[t] == r`.

    One flat `np.bincount` over the cells, binned at `index * d + column`:
    bincount adds each cell's terms into 0.0 in input order, so the result
    is bit-equal to `np.add.at(np.zeros((n, d)), index, values)` (which
    keeps the other NaN where two NaNs meet)."""
    d = values.shape[1]
    bins = (index[:, None] * d + np.arange(d)).ravel()
    # an empty `index` makes bincount return int64 zeros
    sums = np.bincount(bins, weights=values.ravel(), minlength=n * d)
    return sums.reshape(n, d).astype(np.float64, copy=False)


# ---------------------------------------------------------------------------
# parameter store, optimizer and the early-stopped fit loop
# ---------------------------------------------------------------------------


# Adam's moment decay rates and the guard added to its denominator; no config sets them
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


class ParameterStore:
    """Named trainable tensors with gradient slots and Adam moment state."""

    def __init__(self):
        self.params: dict[str, Array] = {}
        self.grads: dict[str, Array] = {}
        self._m: dict[str, Array] = {}
        self._v: dict[str, Array] = {}
        self.step_count = 0

    def add(self, name: str, value: Array) -> Array:
        if name in self.params:
            raise ValueError(f"parameter '{name}' already registered")
        value = np.asarray(value, dtype=np.float64)
        require_finite(name, value)
        self.params[name] = value
        self.grads[name] = np.zeros_like(value)
        self._m[name] = np.zeros_like(value)
        self._v[name] = np.zeros_like(value)
        return self.params[name]

    def names(self) -> list[str]:
        return sorted(self.params)

    def zero_grads(self) -> None:
        for g in self.grads.values():
            g[...] = 0.0

    def copy_params(self) -> dict[str, Array]:
        return {k: v.copy() for k, v in self.params.items()}

    def load_params(self, params: dict[str, Array]) -> None:
        """Set every parameter from `params` once it holds each, at its shape, and no other."""
        for name, value in params.items():
            if name not in self.params:
                raise KeyError(f"unknown parameter '{name}'")
            if self.params[name].shape != value.shape:
                raise ValueError(f"shape mismatch loading '{name}'")
        if missing := sorted(self.params.keys() - params.keys()):
            raise KeyError(f"missing parameter {', '.join(map(repr, missing))}")
        for name, value in params.items():
            self.params[name][...] = value


def adam_step(store: ParameterStore, learning_rate: float, weight_decay: float) -> None:
    """Bias-corrected Adam update with decoupled L2 weight decay.

    Each parameter is updated in place through two scratch arrays, in the
    operation order of `m = b1 m + (1 - b1) g`, `v = b2 v + (1 - b2) g g`,
    `p -= lr (m / bc1) / (sqrt(v / bc2) + eps)`, then `p -= lr wd p`.
    Gradients are zeroed after the update.
    """
    store.step_count += 1
    t = store.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1**t
    bc2 = 1.0 - b2**t
    for name in store.names():
        g = store.grads[name]
        # a non-finite entry makes the sum non-finite; an overflowing sum alone does not count
        if not np.isfinite(g.sum()) and not np.all(np.isfinite(g)):
            raise ValueError(f"non-finite gradient for parameter '{name}'")
        m = store._m[name]
        v = store._v[name]
        a = np.empty_like(g)
        b = np.empty_like(g)
        m *= b1
        np.multiply(1.0 - b1, g, out=a)
        m += a
        v *= b2
        np.multiply(1.0 - b2, g, out=a)
        a *= g
        v += a
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += ADAM_EPSILON
        np.divide(m, bc1, out=b)
        b /= a
        b *= learning_rate
        p = store.params[name]
        p -= b
        if weight_decay > 0.0:
            np.multiply(learning_rate * weight_decay, p, out=b)
            p -= b
    store.zero_grads()


def check_loop_settings(config, epochs_field: str, **sizes: int) -> None:
    """Reject loop settings that cannot train or validate: a count or one of
    the config's own `sizes` below its least value, a learning rate that is
    not positive or a negative weight decay."""
    least_values = {epochs_field: 1, "batch_size": 1, "patience": 0}
    require_at_least(config, {**least_values, **sizes})
    if not config.learning_rate > 0:
        raise ValueError(f"learning_rate must be positive, got {config.learning_rate!r}")
    if not config.weight_decay >= 0:
        raise ValueError(f"weight_decay must be nonnegative, got {config.weight_decay!r}")


def fit_early_stopped(
    run_epoch: Callable[[int], tuple[dict, Callable[[], object]]], epochs: int, patience: int
) -> tuple[list[dict], int, float, object]:
    """Train epoch by epoch, early-stopped on validation HR; returns the
    history, the best epoch, its valid HR and its snapshot.

    `run_epoch(epoch)` trains one epoch and returns its history row (without
    "epoch"; it holds "valid_hr") and a snapshot callable, called only when
    that HR is a strict maximum so far: the first epoch at the best HR wins.
    Training stops `patience` epochs after the best one."""
    history: list[dict] = []
    best_hr = -1.0
    best_epoch = -1
    best = None
    for epoch in range(epochs):
        stats, snapshot = run_epoch(epoch)
        history.append({"epoch": epoch, **stats})
        if stats["valid_hr"] > best_hr:
            best_hr = stats["valid_hr"]
            best_epoch = epoch
            best = snapshot()
        elif epoch - best_epoch >= patience:
            logger.info("early stop at epoch %d (best %d)", epoch, best_epoch)
            break
    return history, best_epoch, best_hr, best


def grad_check(
    fn: Callable[[ParameterStore], float],
    store: ParameterStore,
    eps: float = 1e-4,
) -> float:
    """Max relative error between reverse-mode and central-difference gradients.

    `fn(store)` must return the scalar loss and accumulate gradients into
    `store.grads`.  The finite-difference sweep only uses the returned loss
    values; gradients accumulated during the sweep are discarded.
    """
    store.zero_grads()
    fn(store)
    analytic = {name: store.grads[name].copy() for name in store.names()}
    max_rel = 0.0
    for name in store.names():
        p = store.params[name]
        flat = p.reshape(-1)
        ga = analytic[name].reshape(-1)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + eps
            lp = fn(store)
            flat[i] = old - eps
            lm = fn(store)
            flat[i] = old
            fd = (lp - lm) / (2.0 * eps)
            denom = max(abs(ga[i]), abs(fd), 1e-8)
            rel = abs(ga[i] - fd) / denom
            if rel > max_rel:
                max_rel = rel
    store.zero_grads()
    return max_rel


# ---------------------------------------------------------------------------
# the array container and checkpoints
# ---------------------------------------------------------------------------


def pack_container(
    arrays: Mapping[str, Array], values: Mapping[str, Any] | None = None
) -> list[bytes | memoryview]:
    """Deterministic bytes of named float64 arrays and JSON values, as the
    buffers that make them up in order: magic, uint32 version and header
    length and a JSON header listing the arrays under "tensors" and mapping
    names to values under "json" (omitted when there are none), as one
    `bytes`, then each array's little-endian float64 blob in name order.
    A blob is the array's own buffer when the array is already C-ordered
    little-endian float64, so a container written buffer by buffer copies
    none of its arrays."""
    entries = []
    blobs = []
    offset = 0
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype="<f8", order="C")  # keeps a 0-d shape
        blob = memoryview(arr.reshape(-1)).cast("B")
        entries.append(
            {"name": name, "shape": list(arr.shape), "offset": offset, "nbytes": blob.nbytes}
        )
        blobs.append(blob)
        offset += blob.nbytes
    header = json.dumps(
        {"tensors": entries, **({"json": dict(values)} if values else {})}, sort_keys=True
    ).encode("utf-8")
    return [_CKPT_MAGIC + struct.pack("<II", _CKPT_VERSION, len(header)) + header, *blobs]


def read_container(
    path: str | Path, names: Collection[str] | None = None
) -> tuple[dict[str, Array], dict[str, Any]]:
    """The arrays and JSON values of the container at `path`, only those
    named in `names` when given; only the wanted arrays are read from disk.
    Each ValueError (a wrong magic or version, data cut short) names the file."""
    with open(path, "rb") as fh:
        try:
            prefix = fh.read(len(_CKPT_MAGIC) + 8)
            if len(prefix) < len(_CKPT_MAGIC) + 8 or prefix[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
                raise ValueError("not a multitap checkpoint")
            ver, hlen = struct.unpack_from("<II", prefix, len(_CKPT_MAGIC))
            if ver != _CKPT_VERSION:
                raise ValueError(f"unsupported checkpoint version {ver}")
            header = json.loads(fh.read(hlen).decode("utf-8"))
            base = len(prefix) + hlen
            values = {key: value for key, value in header.get("json", {}).items()
                      if names is None or key in names}
            arrays: dict[str, Array] = {}
            for entry in header["tensors"]:
                if names is None or entry["name"] in names:
                    fh.seek(base + entry["offset"])
                    flat = np.fromfile(fh, dtype="<f8", count=entry["nbytes"] // 8)
                    arrays[entry["name"]] = flat.reshape(entry["shape"]).astype(float, copy=False)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    return arrays, values


def checkpoint_manifest_path(path: str | Path) -> Path:
    """The JSON manifest written next to the checkpoint at `path`."""
    return Path(str(path) + ".manifest.json")


def save_checkpoint(path: str | Path, arrays: dict[str, Array], manifest: dict) -> None:
    """Write arrays to the binary container plus a JSON manifest beside it."""
    atomic_write_bytes(Path(path), *pack_container(arrays))
    write_json(checkpoint_manifest_path(path), manifest)


def load_checkpoint(path: str | Path) -> tuple[dict[str, Array], dict]:
    arrays, _ = read_container(path)
    return arrays, read_json(checkpoint_manifest_path(path))
