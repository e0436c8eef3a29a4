"""Desk-scale neural text classifiers with exact backpropagation.

A model is a feed-forward encoder over hashed TF-IDF rows plus one
two-logit head per label (index 0 = label absent, 1 = present).  The
teacher default is wider and deeper than the student default, mirroring
the capacity gap the distillation is meant to bridge.  Plain mini-batch
gradient descent keeps the gradients exactly checkable against finite
differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse import _sparsetools

from mldistill.config import ACTIVATIONS, STUDENT_HIDDEN, TEACHER_HIDDEN


@dataclass(frozen=True)
class EncoderSpec:
    input_dim: int
    hidden_sizes: tuple[int, ...]
    activation: str = "tanh"  # "tanh" or "relu"
    role: str = "teacher"  # "teacher" or "student"

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if not self.hidden_sizes:
            raise ValueError("hidden_sizes must be non-empty")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.role not in ("teacher", "student"):
            raise ValueError(f"unknown role {self.role!r}")

    @property
    def hidden_dim(self) -> int:
        return self.hidden_sizes[-1]


def default_teacher_spec(input_dim: int) -> EncoderSpec:
    return EncoderSpec(input_dim=input_dim, hidden_sizes=TEACHER_HIDDEN, activation="tanh", role="teacher")


def default_student_spec(input_dim: int) -> EncoderSpec:
    return EncoderSpec(input_dim=input_dim, hidden_sizes=STUDENT_HIDDEN, activation="tanh", role="student")


@dataclass
class ModelState:
    """Encoder layer parameters plus per-label classification heads."""

    spec: EncoderSpec
    layers: list[tuple[np.ndarray, np.ndarray]]  # (W: in x out, b: out)
    heads: list[tuple[np.ndarray, np.ndarray]]  # (W: H x 2, b: 2)

    @property
    def num_labels(self) -> int:
        return len(self.heads)

    def copy(self) -> "ModelState":
        return ModelState(
            spec=self.spec,
            layers=[(W.copy(), b.copy()) for W, b in self.layers],
            heads=[(W.copy(), b.copy()) for W, b in self.heads],
        )


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


def init_model(spec: EncoderSpec, num_labels: int, seed: int, columns=None) -> ModelState:
    """Glorot-uniform weights, zero biases, deterministic per seed.

    ``columns`` (sorted distinct ids below ``spec.input_dim``) selects the
    rows of the first layer to keep, in order; ``None`` keeps all of them.
    The random stream skips the rows left out, so each kept row, every
    later layer and every head has the bits of the full draw.
    """
    if num_labels < 1:
        raise ValueError("num_labels must be >= 1")
    dim, width = spec.input_dim, spec.hidden_sizes[0]
    columns = np.arange(dim) if columns is None else np.asarray(columns, dtype=np.int64)
    if columns.size and (columns[0] < 0 or columns[-1] >= dim or (np.diff(columns) <= 0).any()):
        raise ValueError(f"columns must be sorted distinct ids in [0, {dim})")
    bitgen = np.random.PCG64(seed)
    rng = np.random.Generator(bitgen)
    bound = np.sqrt(6.0 / (dim + width))
    W0 = np.empty((columns.size, width))
    # each run of consecutive columns is one draw; a double takes one step
    run_starts = np.flatnonzero(np.diff(columns, prepend=-2) != 1)
    row = 0  # next row of the full draw in the stream
    for lo, hi in zip(run_starts, [*run_starts[1:], columns.size]):
        bitgen.advance((int(columns[lo]) - row) * width)
        W0[lo:hi] = rng.uniform(-bound, bound, size=(hi - lo, width))
        row = int(columns[hi - 1]) + 1
    bitgen.advance((dim - row) * width)
    layers = [(W0, np.zeros(width))]
    for fan_in, fan_out in zip(spec.hidden_sizes, spec.hidden_sizes[1:]):
        layers.append((glorot_uniform(rng, fan_in, fan_out), np.zeros(fan_out)))
    heads = [(glorot_uniform(rng, spec.hidden_dim, 2), np.zeros(2)) for _ in range(num_labels)]
    return ModelState(spec=spec, layers=layers, heads=heads)


def _dense_layer(a, W: np.ndarray, b: np.ndarray, activation: str) -> np.ndarray:
    """activation(a @ W + b), computed in place on the fresh product."""
    z = a @ W
    z += b
    if activation == "tanh":
        return np.tanh(z, out=z)
    return np.maximum(z, 0.0, out=z)


def _activation_prime(a: np.ndarray, activation: str) -> np.ndarray:
    # Derivative expressed through the activation output itself.
    if activation == "tanh":
        return 1.0 - a * a
    return (a > 0.0).astype(a.dtype)


@dataclass
class SparseBatch:
    """Consecutive rows of a CSR matrix and the plan of the columns they touch.

    ``indptr``/``indices``/``data`` are the rows' CSR arrays, ``indptr``
    starting at 0.  ``active`` holds the sorted ids of the columns the rows
    touch; ``nz_rows`` and ``nz_cols`` give each stored value's row and its
    column's position in ``active``.  Batches come from ``sparse_batches``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]
    active: np.ndarray
    nz_rows: np.ndarray
    nz_cols: np.ndarray

    def __matmul__(self, W: np.ndarray) -> np.ndarray:
        """``csr_matrix(rows) @ W``, computed by the kernel scipy runs for it
        (the vector kernel for one column, the multivector kernel for more),
        so the bits are the same."""
        n, dim = self.shape
        if W.ndim not in (1, 2) or W.shape[0] != dim:
            raise ValueError(f"matmul: dimension mismatch, {self.shape} @ {W.shape}")
        dtype = np.result_type(self.data.dtype, W.dtype)
        if W.ndim == 1 or W.shape[1] == 1:
            out = np.zeros(n, dtype=dtype)
            _sparsetools.csr_matvec(n, dim, self.indptr, self.indices, self.data, W.ravel(), out)
            return out if W.ndim == 1 else out.reshape(n, 1)
        out = np.zeros((n, W.shape[1]), dtype=dtype)
        _sparsetools.csr_matvecs(n, dim, W.shape[1], self.indptr, self.indices, self.data, W.ravel(), out.ravel())
        return out

    def active_block(self) -> np.ndarray:
        """The dense (rows x active columns) block of the rows' values."""
        block = np.zeros((self.shape[0], self.active.size))
        block[self.nz_rows, self.nz_cols] = self.data
        return block


def sparse_batches(X: sparse.csr_matrix, batch_size: int) -> list[SparseBatch]:
    """Split ``X`` into batches of ``batch_size`` consecutive rows, the last
    one partial (an empty ``X`` is one empty batch), and plan every batch's
    active columns with one set operation over all of them."""
    n, dim = X.shape
    indptr, indices, data = X.indptr, X.indices, X.data
    nz_row = np.repeat(np.arange(n), np.diff(indptr))
    nz_batch = nz_row // batch_size
    # keys sort by batch, then by column: each batch's active columns are a
    # contiguous run of the unique keys
    keys, key_of_nz = np.unique(nz_batch * dim + indices, return_inverse=True)
    starts = range(0, max(n, 1), batch_size)
    key_bounds = np.searchsorted(keys, np.arange(len(starts) + 1) * dim)
    columns = keys % dim
    nz_rows = nz_row - nz_batch * batch_size
    nz_cols = key_of_nz - key_bounds[nz_batch]
    batches = []
    for b, start in enumerate(starts):
        stop = min(start + batch_size, n)
        lo, hi = indptr[start], indptr[stop]
        batches.append(
            SparseBatch(
                indptr=indptr[start : stop + 1] - lo,
                indices=indices[lo:hi],
                data=data[lo:hi],
                shape=(stop - start, dim),
                active=columns[key_bounds[b] : key_bounds[b + 1]],
                nz_rows=nz_rows[lo:hi],
                nz_cols=nz_cols[lo:hi],
            )
        )
    return batches


@dataclass
class BatchCache:
    """Forward-pass intermediates needed for backpropagation."""

    activations: list  # [input SparseBatch, post-activation per layer]
    logits: np.ndarray  # (n, 2)
    label: int

    @property
    def hidden(self) -> np.ndarray:
        return self.activations[-1]


def forward_batch(model: ModelState, X, label: int) -> BatchCache:
    """Run the encoder and one label head over a batch of feature rows.

    An input that is not a ``SparseBatch`` (a sparse or dense matrix) is
    planned as one batch, so the first layer's gradient is always a
    ``RowSliceGrad`` over the columns the rows touch.
    """
    if label < 0 or label >= model.num_labels:
        raise ValueError(f"label index {label} out of range for {model.num_labels} heads")
    if X.shape[1] != model.layers[0][0].shape[0]:
        raise ValueError(f"feature dim {X.shape[1]} != first layer rows {model.layers[0][0].shape[0]}")
    if not isinstance(X, SparseBatch):
        X = sparse_batches(sparse.csr_matrix(X), max(X.shape[0], 1))[0]
    activations = [X]
    a = X
    for W, b in model.layers:
        a = _dense_layer(a, W, b, model.spec.activation)
        activations.append(a)
    W_head, b_head = model.heads[label]
    logits = a @ W_head + b_head
    return BatchCache(activations=activations, logits=logits, label=label)


def forward_rows(model: ModelState, cache: BatchCache, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hidden, logits) of some rows of the batch ``cache`` was run on.

    The first layer is a row-wise sparse product, so its output rows are
    gathered from the cache.  The dense layers and the head run again on
    the gathered rows, because BLAS may round a row differently in a batch
    of another size.  The result has the bits ``forward_batch`` gives on
    those rows alone.
    """
    a = cache.activations[1][rows]
    for W, b in model.layers[1:]:
        a = _dense_layer(a, W, b, model.spec.activation)
    W_head, b_head = model.heads[cache.label]
    return a, a @ W_head + b_head


def softmax_t(logits, temperature: float) -> np.ndarray:
    """Temperature-scaled softmax, computed in the max-shifted stable form
    (T = 1 skips the division: ``z / 1.0`` is ``z`` exactly)."""
    if temperature <= 0:
        raise ValueError(f"temperature must be positive, got {temperature}")
    z = np.asarray(logits, dtype=np.float64)
    if temperature != 1.0:
        z = z / temperature
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


@dataclass
class RowSliceGrad:
    """Gradient of a weight matrix that is nonzero only on some rows."""

    rows: np.ndarray  # sorted unique row indices
    block: np.ndarray  # (len(rows), out_dim)
    shape: tuple[int, int]


@dataclass
class Gradients:
    """Gradients matching the encoder layers plus one label head."""

    layers: list[tuple[np.ndarray | RowSliceGrad, np.ndarray]]
    head_label: int
    head: tuple[np.ndarray, np.ndarray]


def backward_batch(
    model: ModelState,
    cache: BatchCache,
    dlogits: np.ndarray,
    dhidden_extra: np.ndarray | None = None,
) -> Gradients:
    """Backpropagate a logit-space gradient (plus an optional gradient
    arriving directly at the last hidden layer) to all parameters."""
    W_head, _ = model.heads[cache.label]
    hidden = cache.activations[-1]
    d_head_W = hidden.T @ dlogits
    d_head_b = dlogits.sum(axis=0)
    da = dlogits @ W_head.T
    if dhidden_extra is not None:
        da += dhidden_extra

    layer_grads: list[tuple[np.ndarray | RowSliceGrad, np.ndarray]] = [None] * len(model.layers)  # type: ignore[list-item]
    for idx in range(len(model.layers) - 1, -1, -1):
        a_out = cache.activations[idx + 1]
        a_in = cache.activations[idx]
        dz = _activation_prime(a_out, model.spec.activation)
        dz *= da
        db = dz.sum(axis=0)
        W, _ = model.layers[idx]
        if idx == 0:
            dW = RowSliceGrad(rows=a_in.active, block=a_in.active_block().T @ dz, shape=W.shape)
        else:
            dW = a_in.T @ dz
            da = dz @ W.T
        layer_grads[idx] = (dW, db)
    return Gradients(layers=layer_grads, head_label=cache.label, head=(d_head_W, d_head_b))


def sgd_step(model: ModelState, grads: Gradients, lr: float) -> ModelState:
    """Apply p <- p - lr * g in place and return the model.

    Every updated array is computed before any is written.  A sum is finite
    only when every term is, so a finite sum of their sums clears the step.
    Otherwise a step that would leave a NaN or an Inf in the parameters (a
    non-finite gradient always does) raises a ValueError naming the first
    such array and leaves the model unchanged.
    """
    if lr < 0:
        raise ValueError("learning rate must be non-negative")
    updates = []  # (parameter, index, updated values)
    for (dW, db), (W, b) in zip(grads.layers, model.layers):
        if isinstance(dW, RowSliceGrad):
            new = W[dW.rows]
            new -= lr * dW.block
            updates.append((W, dW.rows, new))
        else:
            updates.append((W, ..., W - lr * dW))
        updates.append((b, ..., b - lr * db))
    dW, db = grads.head
    W, b = model.heads[grads.head_label]
    updates += [(W, ..., W - lr * dW), (b, ..., b - lr * db)]
    if not np.isfinite(sum(new.sum() for _, _, new in updates)):
        names = [f"encoder layer {i} {part}" for i in range(len(model.layers)) for part in ("weights", "bias")]
        names += [f"head {grads.head_label} {part}" for part in ("weights", "bias")]
        for (_, _, new), name in zip(updates, names):
            if not np.isfinite(new).all():
                raise ValueError(f"non-finite gradient step in {name}")
    for param, index, new in updates:
        param[index] = new
    return model
