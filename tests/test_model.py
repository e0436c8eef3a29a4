import copy
import math
import pickle

import numpy as np
import pytest
from scipy import sparse

from mldistill.model import (
    EncoderSpec,
    Gradients,
    ModelState,
    RowSliceGrad,
    backward_batch,
    default_student_spec,
    default_teacher_spec,
    forward_batch,
    forward_rows,
    glorot_uniform,
    init_model,
    sgd_step,
    softmax,
    sparse_batches,
)

from conftest import dense


def tiny_spec(input_dim=8, hidden=(4,), activation="tanh"):
    return EncoderSpec(input_dim=input_dim, hidden_sizes=hidden, activation=activation, role="student")


class TestInit:
    def test_deterministic(self):
        a = init_model(tiny_spec(), 3, seed=7)
        b = init_model(tiny_spec(), 3, seed=7)
        for (wa, ba), (wb, bb) in zip(a.layers, b.layers):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)
        for (wa, ba), (wb, bb) in zip(a.heads, b.heads):
            assert np.array_equal(wa, wb) and np.array_equal(ba, bb)

    def test_biases_zero(self):
        m = init_model(tiny_spec(hidden=(4, 3)), 2, seed=1)
        assert all((b == 0).all() for _, b in m.layers)
        assert all((b == 0).all() for _, b in m.heads)

    def test_glorot_bound_fan4_fan2(self):
        # bound = sqrt(6 / (4 + 2)) = 1
        m = init_model(tiny_spec(input_dim=4, hidden=(2,)), 1, seed=3)
        W = m.layers[0][0]
        assert np.all(np.abs(W) <= 1.0)
        # and the draws actually use the range, not a tighter one
        assert np.abs(W).max() > 0.5

    def test_one_buffer_behind_all_but_the_first_weights(self):
        m = init_model(tiny_spec(hidden=(5, 3)), 2, seed=4)
        (W0, b0), *deeper = m.layers
        views = [b0, *(a for pair in [*deeper, *m.heads] for a in pair)]
        assert not np.shares_memory(W0, m.flat)
        m.flat[:] = np.arange(m.flat.size)  # encoder slice, then one slice per head
        assert np.array_equal(np.concatenate([v.ravel() for v in views]), m.flat)
        copy = m.copy()
        copy.flat[:] = -1.0
        copy.layers[0][0][:] = -1.0
        assert np.array_equal(m.flat, np.arange(m.flat.size)) and not (W0 == -1.0).any()

    def test_head_count_matches_labels(self):
        m = init_model(tiny_spec(), 5, seed=0)
        assert m.num_labels == 5

    def test_first_layer_keeps_given_rows(self):
        m = init_model(tiny_spec(), 1, seed=5, columns=[1, 5])
        assert m.layers[0][0].shape == (2, 4)
        forward_batch(m, np.zeros((1, 2)), 0)
        with pytest.raises(ValueError, match="first layer rows"):
            forward_batch(m, np.zeros((1, 8)), 0)

    @pytest.mark.parametrize(
        "columns", [[3, 2], [4, 4], [-1], [8]], ids=["unsorted", "repeated", "negative", "past-dim"]
    )
    def test_bad_columns_rejected(self, columns):
        with pytest.raises(ValueError, match="columns"):
            init_model(tiny_spec(), 1, seed=5, columns=columns)

    def test_teacher_capacity_exceeds_student(self):
        t = default_teacher_spec(128)
        s = default_student_spec(128)
        assert len(t.hidden_sizes) > len(s.hidden_sizes)
        assert t.hidden_sizes[0] > s.hidden_sizes[0]


class TestForward:
    def test_zero_input_zero_bias_gives_zero(self):
        m = init_model(tiny_spec(), 1, seed=2)
        cache = forward_batch(m, np.zeros((1, 8)), 0)
        assert np.allclose(cache.hidden, 0.0)
        assert np.array_equal(cache.logits, np.zeros((1, 2)))

    def test_identity_layer_relu_passes_nonnegative_input(self):
        m = init_model(tiny_spec(input_dim=4, hidden=(4,), activation="relu"), 1, seed=0)
        m = ModelState(m.spec, [(np.eye(4), np.zeros(4))], m.heads)
        x = np.array([0.5, 0.0, 2.0, 1.0])
        assert np.allclose(forward_batch(m, x[None], 0).hidden[0], x)

    def test_matches_dense_reimplementation(self):
        rng = np.random.default_rng(4)
        spec = tiny_spec(input_dim=8, hidden=(5, 3))
        m = init_model(spec, 2, seed=11)
        x = rng.normal(size=8)
        cache = forward_batch(m, x[None], 1)

        a = x.copy()
        for W, b in m.layers:
            a = np.tanh(a @ W + b)
        expected_logits = a @ m.heads[1][0] + m.heads[1][1]
        assert np.allclose(cache.hidden[0], a, atol=1e-12)
        assert np.allclose(cache.logits[0], expected_logits, atol=1e-12)

    def test_sparse_and_dense_inputs_agree(self):
        m = init_model(tiny_spec(), 1, seed=5)
        x = np.array([[0.0, 1.0, 0.0, -2.0, 0.0, 0.0, 0.5, 0.0]])
        dense = forward_batch(m, x, 0)
        sp = forward_batch(m, sparse.csr_matrix(x), 0)
        assert np.allclose(dense.logits, sp.logits, atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        m = init_model(tiny_spec(), 1, seed=5)
        with pytest.raises(ValueError):
            forward_batch(m, np.zeros((1, 9)), 0)

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    @pytest.mark.parametrize("as_batch", [False, True], ids=["dense", "sparse_batch"])
    def test_leaves_model_and_input_unchanged(self, activation, as_batch):
        m = init_model(tiny_spec(hidden=(5, 3), activation=activation), 2, seed=6)
        x = np.random.default_rng(6).normal(size=(4, 8)) * (np.arange(8) % 2)
        X = sparse_batches(sparse.csr_matrix(x), 4)[0] if as_batch else x
        before = m.copy()
        data = X.data.copy() if as_batch else x.copy()
        cache = forward_batch(m, X, 1)
        for (W, b), (W0, b0) in zip(m.layers + m.heads, before.layers + before.heads):
            assert np.array_equal(W, W0) and np.array_equal(b, b0)
        assert np.array_equal(X.data if as_batch else x, data)
        for a in cache.activations[1:]:
            assert not any(np.shares_memory(a, p) for W, b in m.layers + m.heads for p in (W, b))

    @pytest.mark.parametrize("activation", ["tanh", "relu"])
    def test_forward_rows_leaves_cache_unchanged(self, activation):
        m = init_model(tiny_spec(hidden=(5, 3), activation=activation), 2, seed=7)
        cache = forward_batch(m, np.random.default_rng(7).normal(size=(6, 8)), 1)
        before = [a.copy() for a in cache.activations[1:]] + [cache.logits.copy()]
        rows = np.array([4, 1, 4])
        first = forward_rows(m, cache, rows)
        second = forward_rows(m, cache, rows)
        assert all(np.array_equal(a, b) for a, b in zip(first, second))
        for a, a0 in zip(cache.activations[1:] + [cache.logits], before):
            assert np.array_equal(a, a0)

    def test_bad_label_rejected(self):
        m = init_model(tiny_spec(), 2, seed=5)
        with pytest.raises(ValueError):
            forward_batch(m, np.zeros((1, 8)), 2)


class TestSoftmax:
    def test_symmetry(self):
        for temperature in (0.5, 1.0, 3.0):
            assert np.allclose(softmax(np.array([1.0, 1.0]) / temperature), [0.5, 0.5])

    def test_derived_value(self):
        # softmax([1, 0]) after dividing [2, 0] by T = 2
        out = softmax(np.array([2.0, 0.0]) / 2.0)
        assert out[0] == pytest.approx(0.7310585786300049, abs=1e-12)
        assert out[1] == pytest.approx(0.2689414213699951, abs=1e-12)

    def test_extreme_logits_stable(self):
        out = softmax([1000.0, 0.0])
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)

    def test_sums_to_one_and_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            z = rng.normal(scale=10, size=2)
            temperature = rng.uniform(0.1, 10)
            out = softmax(z / temperature)
            assert abs(out.sum() - 1.0) < 1e-12
            assert np.all(out >= 0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            z = rng.normal(size=2)
            c = rng.normal()
            assert np.allclose(softmax(z / 2.0), softmax((z + c) / 2.0), atol=1e-12)

    def test_high_temperature_limit(self):
        out = softmax(np.array([3.0, -1.0]) / 1e6)
        assert np.allclose(out, [0.5, 0.5], atol=1e-6)

    def test_leaves_input_unchanged(self):
        z = np.random.default_rng(2).normal(scale=5, size=(6, 2))
        before = z.copy()
        out = softmax(z)
        assert np.array_equal(z, before) and not np.shares_memory(out, z)


def dense_grads_like(model, scale=0.0):
    layers = [(np.full_like(W, scale), np.full_like(b, scale)) for W, b in model.layers]
    head = (np.full_like(model.heads[0][0], scale), np.full_like(model.heads[0][1], scale))
    return Gradients(layers=layers, head_label=0, head=head)


class TestSgdStep:
    def test_zero_lr_identity(self):
        m = init_model(tiny_spec(), 1, seed=8)
        before = [W.copy() for W, _ in m.layers]
        sgd_step(m, dense_grads_like(m, scale=1.0), lr=0.0)
        for (W, _), old in zip(m.layers, before):
            assert np.array_equal(W, old)

    def test_single_step_arithmetic(self):
        m = init_model(tiny_spec(input_dim=1, hidden=(1,)), 1, seed=0)
        m.layers[0][0][...] = 1.0
        grads = dense_grads_like(m)
        grads.layers[0][0][...] = 0.5
        sgd_step(m, grads, lr=0.1)
        assert m.layers[0][0][0, 0] == pytest.approx(0.95)

    def test_two_steps_equal_summed_deltas(self):
        m1 = init_model(tiny_spec(), 1, seed=9)
        m2 = m1.copy()
        rng = np.random.default_rng(2)
        g1, g2 = (
            Gradients(
                layers=[(rng.normal(size=W.shape), rng.normal(size=b.shape)) for W, b in m1.layers],
                head_label=0,
                head=(rng.normal(size=(4, 2)), rng.normal(size=2)),
            )
            for _ in range(2)
        )
        sgd_step(m1, g1, 0.3)
        sgd_step(m1, g2, 0.3)
        summed = Gradients(
            layers=[(a[0] + b[0], a[1] + b[1]) for a, b in zip(g1.layers, g2.layers)],
            head_label=0,
            head=(g1.head[0] + g2.head[0], g1.head[1] + g2.head[1]),
        )
        sgd_step(m2, summed, 0.3)
        for (W1, b1), (W2, b2) in zip(m1.layers, m2.layers):
            assert np.allclose(W1, W2, atol=1e-12)
            assert np.allclose(b1, b2, atol=1e-12)

    def test_nonfinite_gradient_names_layer(self):
        m = init_model(tiny_spec(), 1, seed=1)
        grads = dense_grads_like(m)
        bad = grads.layers[0][0]
        bad[0, 0] = np.nan
        with pytest.raises(ValueError, match="encoder layer 0"):
            sgd_step(m, grads, 0.1)

    @pytest.mark.parametrize(
        "where, message",
        [
            (lambda g: g.layers[0][0].block, "encoder layer 0 weights"),
            (lambda g: g.layers[1][0], "encoder layer 1 weights"),
            (lambda g: g.layers[1][1], "encoder layer 1 bias"),
            (lambda g: g.head[1], "head 1 bias"),
        ],
        ids=["layer0_rows", "layer1_weights", "layer1_bias", "head_bias"],
    )
    def test_nonfinite_step_writes_nothing(self, where, message):
        m = init_model(tiny_spec(hidden=(4, 3)), 2, seed=1)
        rng = np.random.default_rng(3)
        grads = Gradients(
            layers=[
                (RowSliceGrad(rows=np.array([1, 5]), block=rng.normal(size=(2, 4)), shape=(8, 4)), rng.normal(size=4)),
                (rng.normal(size=(4, 3)), rng.normal(size=3)),
            ],
            head_label=1,
            head=(rng.normal(size=(3, 2)), rng.normal(size=2)),
        )
        where(grads).flat[0] = np.nan
        snapshot = m.copy()
        with pytest.raises(ValueError, match=message):
            sgd_step(m, grads, 0.1)
        for (W, b), (W0, b0) in zip(m.layers + m.heads, snapshot.layers + snapshot.heads):
            assert np.array_equal(W, W0) and np.array_equal(b, b0)


    def test_finite_step_whose_sum_overflows_applies(self):
        m = init_model(tiny_spec(), 1, seed=1)
        m.layers[0][0][...] = 1e308
        grads = dense_grads_like(m, scale=-1e307)
        with np.errstate(over="ignore"):  # the sum of the new weights overflows
            sgd_step(m, grads, 1.0)
        assert np.array_equal(m.layers[0][0], np.full((8, 4), 1e308 + 1e307))
        assert np.array_equal(m.heads[0][1], np.full(2, 1e307))

    @pytest.mark.parametrize(
        "minus_inf, message",
        [
            (lambda g: g.head[0], "encoder layer 1 weights"),
            (lambda g: g.layers[1][0], "encoder layer 1 weights"),
        ],
        ids=["other_array", "same_array"],
    )
    def test_opposite_infinities_raise_naming_first_array(self, minus_inf, message):
        m = init_model(tiny_spec(hidden=(4, 3)), 1, seed=1)
        grads = dense_grads_like(m, scale=0.5)
        grads.layers[1][0].flat[0] = np.inf
        minus_inf(grads).flat[-1] = -np.inf
        snapshot = m.copy()
        with pytest.raises(ValueError, match=message):
            sgd_step(m, grads, 0.1)
        for (W, b), (W0, b0) in zip(m.layers + m.heads, snapshot.layers + snapshot.heads):
            assert np.array_equal(W, W0) and np.array_equal(b, b0)


    def test_nonfinite_projection_named_before_the_model(self):
        m = init_model(tiny_spec(hidden=(4, 3)), 2, seed=1)
        grads = dense_grads_like(m, scale=0.5)
        grads.layers[1][0].flat[0] = np.nan
        projection, d_projection = np.ones((5, 3)), np.zeros((5, 3))
        d_projection[2, 1] = np.inf
        snapshot, start = m.copy(), projection.copy()
        with pytest.raises(ValueError, match="contrastive projection"):
            sgd_step(m, grads, 0.1, projection, d_projection)
        for (W, b), (W0, b0) in zip(m.layers + m.heads, snapshot.layers + snapshot.heads):
            assert np.array_equal(W, W0) and np.array_equal(b, b0)
        assert np.array_equal(projection, start)


class TestPredictProba:
    def test_symmetric_logits_give_half(self):
        m = init_model(tiny_spec(), 1, seed=3)
        for W, b in m.layers:
            W[:] = 0.0
        m.heads[0][0][...] = 0.0
        assert softmax(forward_batch(m, np.ones((1, 8)), 0).logits)[0, 1] == pytest.approx(0.5)

    def test_closed_form_value(self):
        m = init_model(tiny_spec(input_dim=2, hidden=(2,)), 1, seed=3)
        # hidden = tanh(x); choose x = atanh([1/2, 1/2]) scaled weights so
        # logits = [0, ln 3] exactly via the head
        m = ModelState(
            m.spec,
            [(np.eye(2), np.zeros(2))],
            [(np.array([[0.0, 0.0], [0.0, 0.0]]), np.array([0.0, math.log(3.0)]))],
        )
        probs = softmax(forward_batch(m, np.zeros((1, 2)), 0).logits)
        assert probs[0, 1] == pytest.approx(0.75, abs=1e-12)

    def test_monotone_in_positive_logit(self):
        probs = []
        for extra in np.linspace(0.0, 3.0, 7):
            z = np.array([0.2, extra])
            probs.append(float(softmax(z)[1]))
        assert all(b > a for a, b in zip(probs, probs[1:]))


def full_draw(spec, num_labels, seed):
    """Reference initialization: one full-width ``glorot_uniform`` draw per
    layer, then one per head, from a single stream."""
    rng = np.random.Generator(np.random.PCG64(seed))
    sizes = (spec.input_dim, *spec.hidden_sizes)
    layers = [glorot_uniform(rng, fan_in, fan_out) for fan_in, fan_out in zip(sizes, sizes[1:])]
    heads = [glorot_uniform(rng, spec.hidden_dim, 2) for _ in range(num_labels)]
    return layers, heads


DIM = 32768
COLUMN_SETS = {
    "first": [0],
    "last": [DIM - 1],
    "runs": [0, 1, 2, 9, 10, *range(500, 521), DIM - 3, DIM - 2, DIM - 1],
    "random-207": sorted(np.random.default_rng(3).choice(DIM, size=207, replace=False)),
    "empty": [],
    "all": None,
}


class TestCompactInit:
    """``init_model(..., columns=c)`` draws rows ``c`` of the full first
    layer and skips the rest of the stream, so nothing else moves a bit."""

    @pytest.mark.parametrize("spec", [default_teacher_spec(DIM), default_student_spec(DIM)], ids=["teacher", "student"])
    @pytest.mark.parametrize("name", list(COLUMN_SETS))
    def test_rows_of_the_full_draw(self, spec, name):
        columns = COLUMN_SETS[name]
        layers, heads = full_draw(spec, 3, seed=41)
        m = init_model(spec, 3, seed=41, columns=columns)
        rows = np.arange(DIM) if columns is None else np.asarray(columns, dtype=np.int64)
        assert m.layers[0][0].shape == (rows.size, spec.hidden_sizes[0])
        assert np.array_equal(m.layers[0][0], layers[0][rows])
        for (W, b), ref in zip(m.layers[1:], layers[1:], strict=True):
            assert np.array_equal(W, ref) and not b.any()
        for (W, b), ref in zip(m.heads, heads, strict=True):
            assert np.array_equal(W, ref) and not b.any()


class TestBatchBackward:
    def test_sparse_first_layer_grad_matches_dense(self):
        rng = np.random.default_rng(5)
        m = init_model(tiny_spec(input_dim=10, hidden=(4,)), 1, seed=6)
        X = rng.normal(size=(3, 10)) * (rng.random(size=(3, 10)) < 0.4)
        dlogits = rng.normal(size=(3, 2))
        cache = forward_batch(m, sparse.csr_matrix(X), 0)
        grads = backward_batch(m, cache, dlogits)
        dz = (dlogits @ m.heads[0][0].T) * (1.0 - cache.hidden**2)
        dW = grads.layers[0][0]
        assert isinstance(dW, RowSliceGrad)
        assert np.array_equal(dW.rows, np.flatnonzero(X.any(axis=0)))
        assert np.allclose(dense(dW), X.T @ dz, atol=1e-12)
        assert np.allclose(grads.layers[0][1], dz.sum(axis=0), atol=1e-12)
        assert np.allclose(grads.head[0], cache.hidden.T @ dlogits, atol=1e-12)

    def test_all_zero_sparse_batch_leaves_first_layer(self):
        # no active columns: an empty row block and a no-op update
        m = init_model(tiny_spec(input_dim=10, hidden=(4,)), 1, seed=6)
        W0 = m.layers[0][0].copy()
        X = sparse.csr_matrix((3, 10))
        grads = backward_batch(m, forward_batch(m, X, 0), np.ones((3, 2)))
        assert grads.layers[0][0].rows.size == 0
        sgd_step(m, grads, 0.5)
        assert np.array_equal(m.layers[0][0], W0)


class TestCopySafety:
    """A deep-copied or unpickled model is rebuilt through the packing, so
    its dense arrays stay views into its own ``flat`` and it trains as
    ``m.copy()`` does."""

    @staticmethod
    def ten_steps(m):
        """Ten plain gradient steps on fixed rows; every array's bytes after."""
        X = np.random.default_rng(3).normal(size=(6, 8))
        targets = np.eye(2)[[0, 1, 1, 0, 1, 0]]
        for step in range(10):
            cache = forward_batch(m, X, step % 2)
            sgd_step(m, backward_batch(m, cache, softmax(cache.logits) - targets), 0.3)
        return [a.tobytes() for pair in (*m.layers, *m.heads) for a in pair]

    @pytest.mark.parametrize("protocol", [None, 2, 3, 4, 5], ids=["deepcopy", *(f"pickle{p}" for p in range(2, 6))])
    def test_clone_trains_like_copy(self, protocol):
        m = init_model(tiny_spec(hidden=(5, 3)), 2, seed=4)
        clone = copy.deepcopy(m) if protocol is None else pickle.loads(pickle.dumps(m, protocol=protocol))
        assert np.shares_memory(clone.flat, clone.layers[1][0]) and not np.shares_memory(clone.flat, m.flat)
        clone.check_packed()
        assert self.ten_steps(clone) == self.ten_steps(m.copy())

    @pytest.mark.parametrize("protocol", [2, 5])
    def test_unpickled_gradients_stay_packed(self, protocol):
        m = init_model(tiny_spec(hidden=(5, 3)), 2, seed=4)
        grads = pickle.loads(pickle.dumps(m.grads, protocol=protocol))
        assert np.shares_memory(grads.flat, grads.layers[1][0]) and np.shares_memory(grads.flat, grads.head[1])

    def test_item_assignment_raises(self):
        m = init_model(tiny_spec(hidden=(5, 3)), 2, seed=4)
        with pytest.raises(TypeError):
            m.layers[1] = (m.layers[1][0].copy(), m.layers[1][1])
        with pytest.raises(TypeError):
            m.heads[0] = m.heads[1]

    def test_swapped_flat_names_first_detached_array(self):
        m = init_model(tiny_spec(hidden=(5, 3)), 2, seed=4)
        m.flat = m.flat.copy()
        with pytest.raises(RuntimeError, match="encoder layer 0 bias is detached"):
            m.check_packed()


def random_csr(n, dim, index_dtype, seed, unsorted=False):
    """A CSR matrix with every third row empty and the given index dtype."""
    rng = np.random.default_rng(seed)
    X = sparse.random(n, dim, density=0.15, format="csr", random_state=rng, data_rvs=rng.standard_normal)
    X = sparse.csr_matrix(X.toarray() * (np.arange(n) % 3 != 0)[:, None])
    if unsorted:
        for i in range(n):
            lo, hi = X.indptr[i], X.indptr[i + 1]
            X.indices[lo:hi] = X.indices[lo:hi][::-1].copy()
            X.data[lo:hi] = X.data[lo:hi][::-1].copy()
        X.has_sorted_indices = False
    # the constructor picks the smallest index dtype that fits; set it afterwards
    X.indices = X.indices.astype(index_dtype)
    X.indptr = X.indptr.astype(index_dtype)
    assert X.indices.dtype == index_dtype and (X.getnnz(axis=1) == 0).any()
    return X


class TestSparseBatches:
    """Every batch of a plan must equal, bit for bit, the same rows as a
    scipy CSR matrix: its products (which call scipy's kernels directly),
    its active columns and its dense active block."""

    # 23 rows: batches of 5 leave a partial last batch of 3; 23 is one batch
    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("batch_size", [5, 1, 23])
    @pytest.mark.parametrize("unsorted", [False, True])
    def test_batches_equal_csr_rows(self, index_dtype, batch_size, unsorted):
        n, dim = 23, 40
        X = random_csr(n, dim, index_dtype, seed=batch_size, unsorted=unsorted)
        rng = np.random.default_rng(1)
        weights = [rng.normal(size=(dim, 6)), rng.normal(size=(dim, 1)), rng.normal(size=dim)]
        batches = sparse_batches(X, batch_size)
        assert len(batches) == -(-n // batch_size)
        for b, batch in enumerate(batches):
            rows = X[b * batch_size : (b + 1) * batch_size]
            assert batch.shape == rows.shape and batch.indices.dtype == index_dtype
            for W in weights:
                ref = rows @ W
                got = batch @ W
                assert got.shape == ref.shape and got.dtype == ref.dtype
                assert np.array_equal(got, ref)
            assert np.array_equal(batch.active, np.unique(rows.indices))
            assert np.array_equal(batch.active_block(), rows.toarray()[:, batch.active])

    def test_empty_matrix_is_one_empty_batch(self):
        (batch,) = sparse_batches(sparse.csr_matrix((0, 6)), 1)
        assert batch.shape == (0, 6) and batch.active.size == 0
        assert (batch @ np.ones((6, 3))).shape == (0, 3)

    def test_dimension_mismatch_rejected(self):
        (batch,) = sparse_batches(sparse.csr_matrix(np.eye(3)), 3)
        with pytest.raises(ValueError):
            batch @ np.ones((4, 2))
