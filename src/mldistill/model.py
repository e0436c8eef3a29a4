"""Desk-scale neural text classifiers with exact backpropagation.

A model is a feed-forward encoder over hashed TF-IDF rows plus one
two-logit head per label (index 0 = label absent, 1 = present).  The
teacher default is wider and deeper than the student default, mirroring
the capacity gap the distillation is meant to bridge.  Plain mini-batch
gradient descent keeps the gradients exactly checkable against finite
differences.  Every parameter but the first layer's weights W0 is a view
into one buffer per model: the encoder slice (b0, W1, b1, ...), then one
slice per head.  A step updates W0's touched rows and two such slices.
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


def _pack(pairs):
    """(flat, pairs): the arrays of the (weights, bias) ``pairs`` but the first
    weights, copied end to end into one buffer, and the pairs of their views."""
    arrays = [a for pair in pairs for a in pair][1:]
    flat = np.concatenate([np.ravel(a) for a in arrays], dtype=np.float64)
    views = [v.reshape(np.shape(a)) for v, a in zip(np.split(flat, np.cumsum([np.size(a) for a in arrays])), arrays)]
    return flat, [(pairs[0][0], views[0]), *zip(views[1::2], views[2::2])]


@dataclass
class ModelState:
    """Encoder layer parameters plus per-label classification heads, packed
    into ``flat``; ``grads`` is the buffer ``backward_batch`` writes into.
    A pickled or copied model is rebuilt through the packing."""

    spec: EncoderSpec
    layers: tuple[tuple[np.ndarray, np.ndarray], ...]  # (W: in x out, b: out)
    heads: tuple[tuple[np.ndarray, np.ndarray], ...]  # (W: H x 2, b: 2)

    def __post_init__(self) -> None:
        self.flat, pairs = _pack([*self.layers, *self.heads])
        self.layers, self.heads = tuple(pairs[: len(self.layers)]), tuple(pairs[len(self.layers) :])
        self.grads = Gradients([(None, pairs[0][1]), *self.layers[1:]], -1, self.heads[0])

    def __reduce__(self):
        return ModelState, (self.spec, self.layers, self.heads)

    @property
    def num_labels(self) -> int:
        return len(self.heads)

    def copy(self) -> "ModelState":
        return ModelState(self.spec, [(self.layers[0][0].copy(), self.layers[0][1]), *self.layers[1:]], self.heads)

    def check_packed(self) -> None:
        """Raise naming the first array but W0 that is not a view into ``flat``."""
        owners = [f"encoder layer {i}" for i in range(len(self.layers))] + [f"head {j}" for j in range(self.num_labels)]
        names = [f"{owner} {part}" for owner in owners for part in ("weights", "bias")]
        for name, array in zip(names[1:], [a for pair in [*self.layers, *self.heads] for a in pair][1:]):
            if not np.shares_memory(array, self.flat):
                raise RuntimeError(f"{name} is detached from the model's flat parameters")


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
    layers += [(glorot_uniform(rng, i, o), np.zeros(o)) for i, o in zip(spec.hidden_sizes, spec.hidden_sizes[1:])]
    heads = [(glorot_uniform(rng, spec.hidden_dim, 2), np.zeros(2)) for _ in range(num_labels)]
    return ModelState(spec=spec, layers=layers, heads=heads)


def _dense_layer(a, W: np.ndarray, b: np.ndarray, activation: str) -> np.ndarray:
    """activation(a @ W + b), computed in place on the fresh product."""
    z = a @ W
    z += b
    if activation == "tanh":
        return np.tanh(z, out=z)
    return np.maximum(z, 0.0, out=z)


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
    for W, b in model.layers:
        activations.append(_dense_layer(activations[-1], W, b, model.spec.activation))
    W_head, b_head = model.heads[label]
    return BatchCache(activations=activations, logits=activations[-1] @ W_head + b_head, label=label)


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


def softmax(logits) -> np.ndarray:
    """Softmax over the last axis, computed in the max-shifted stable form."""
    z = np.asarray(logits, dtype=np.float64)
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
    """Gradients matching the encoder layers plus one label head, packed into
    ``flat`` but the first weights' (a ``RowSliceGrad`` or a dense array)."""

    layers: list[tuple[np.ndarray | RowSliceGrad, np.ndarray]]
    head_label: int
    head: tuple[np.ndarray, np.ndarray]

    def __post_init__(self) -> None:
        self.flat, pairs = _pack([*self.layers, self.head])
        self.layers, self.head = pairs[:-1], pairs[-1]

    def __reduce__(self):
        return Gradients, (self.layers, self.head_label, self.head)


def backward_batch(model: ModelState, cache: BatchCache, dlogits: np.ndarray, dhidden_extra=None) -> Gradients:
    """Backpropagate a logit-space gradient (plus an optional gradient
    arriving directly at the last hidden layer) to all parameters.  The
    result is ``model.grads``, rewritten by the next call on the model."""
    grads = model.grads
    np.matmul(cache.activations[-1].T, dlogits, out=grads.head[0])
    dlogits.sum(axis=0, out=grads.head[1])
    da = dlogits @ model.heads[cache.label][0].T
    if dhidden_extra is not None:
        da += dhidden_extra
    for idx in range(len(model.layers) - 1, -1, -1):
        a = cache.activations[idx + 1]  # the activation's derivative, through its output
        dz = 1.0 - a * a if model.spec.activation == "tanh" else (a > 0.0).astype(a.dtype)
        dz *= da
        dz.sum(axis=0, out=grads.layers[idx][1])
        if idx:
            np.matmul(cache.activations[idx].T, dz, out=grads.layers[idx][0])
            da = dz @ model.layers[idx][0].T
    X = cache.activations[0]
    dW0 = RowSliceGrad(rows=X.active, block=X.active_block().T @ dz, shape=model.layers[0][0].shape)
    grads.layers[0], grads.head_label = (dW0, grads.layers[0][1]), cache.label
    return grads


def sgd_step(model: ModelState, grads: Gradients, lr: float, projection=None, d_projection=None) -> ModelState:
    """Apply p <- p - lr * g in place (to ``projection`` too, given
    ``d_projection``) and return the model.  The new values go into one
    array first, and its finite sum clears the step: a sum is finite only
    when every term is.  Otherwise a step that would leave a NaN or an Inf
    raises a ValueError naming the first such array, and writes nothing."""
    if lr < 0:
        raise ValueError("learning rate must be non-negative")
    dW0 = grads.layers[0][0]
    rows, block = (dW0.rows, dW0.block) if isinstance(dW0, RowSliceGrad) else (np.arange(len(dW0)), dW0)
    W0, flat, g, head = model.layers[0][0], model.flat, grads.flat, grads.head[0].size + grads.head[1].size
    p, enc = 0 if d_projection is None else d_projection.size, g.size - head
    r, lo = p + block.size, enc + grads.head_label * head
    new = np.empty(r + g.size)  # projection | W0 rows | encoder | head, each lr * g and then p minus that
    if p:
        new_projection = new[:p].reshape(d_projection.shape)
        np.subtract(projection, np.multiply(d_projection, lr, out=new_projection), out=new_projection)
    new_W0 = new[p:r].reshape(block.shape)
    np.subtract(W0[rows], np.multiply(block, lr, out=new_W0), out=new_W0)
    np.multiply(g, lr, out=new[r:])
    np.subtract(flat[:enc], new[r : r + enc], out=new[r : r + enc])
    np.subtract(flat[lo : lo + head], new[r + enc :], out=new[r + enc :])
    if not np.isfinite(new.sum()) and not np.isfinite(new).all():
        arrays = [block, grads.layers[0][1], *(a for pair in [*grads.layers[1:], grads.head] for a in pair)]
        owners = [*(f"encoder layer {i}" for i in range(len(grads.layers))), f"head {grads.head_label}"]
        names = ["contrastive projection", *(f"{owner} {part}" for owner in owners for part in ("weights", "bias"))]
        first = np.searchsorted(np.cumsum([p, *(a.size for a in arrays)]), np.argmin(np.isfinite(new)), side="right")
        raise ValueError(f"non-finite gradient step in {names[first]}")
    if p:
        projection[...] = new_projection
    W0[rows] = new_W0
    flat[:enc] = new[r : r + enc]
    flat[lo : lo + head] = new[r + enc :]
    return model
