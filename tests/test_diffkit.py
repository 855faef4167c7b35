"""Kernel tests: closed-form values, brute-force oracles and gradient checks.

The model's attention and tanh have no kernel op of their own; their forward
and adjoint contracts are checked here on `MultiTapModel`."""

import hashlib
import json
import math
import re
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from multitap.diffkit import (
    ParameterStore,
    adam_step,
    affine,
    affine_backward,
    bpr,
    fit_early_stopped,
    grad_check,
    info_nce,
    load_checkpoint,
    pack_container,
    read_container,
    save_checkpoint,
    scatter_rows,
    softmax,
    softmax_backward,
)
from multitap.errors import DivergenceError
from multitap.model import MultiTapModel

from test_model import persona_of, to_generic_point, toy_config, toy_inputs


def affine_store(rng, d_in, d_out, name="head"):
    """A store holding the weight and bias of one affine map `name`."""
    store = ParameterStore()
    store.add(f"{name}_w", rng.normal(size=(d_in, d_out)))
    store.add(f"{name}_b", rng.normal(size=d_out))
    return store


def attention_model(source):
    """A model whose doppelganger attention has the rows of `source` as keys."""
    inputs = toy_inputs(np.random.default_rng(0), n_users=len(source), n=source.shape[1])
    inputs.source_user_personas = source
    return MultiTapModel(inputs, toy_config())


class TestAffine:
    """`affine` is x @ W + b over a stored weight/bias pair."""

    def test_identity_weights(self):
        store = affine_store(np.random.default_rng(0), 4, 4)
        store.params["head_w"][...] = np.eye(4)
        store.params["head_b"][...] = 0.0
        x = np.random.default_rng(1).normal(size=(6, 4))
        np.testing.assert_array_equal(affine(store, "head", x), x)

    def test_scalar_case(self):
        store = affine_store(np.random.default_rng(0), 1, 1)
        store.params["head_w"][...] = 3.0
        store.params["head_b"][...] = 1.0
        np.testing.assert_allclose(affine(store, "head", np.array([[2.0]])), [[7.0]])

    def test_matches_triple_loop_oracle(self):
        rng = np.random.default_rng(2)
        store = affine_store(rng, 5, 4)
        x = rng.normal(size=(6, 5))
        w, b = store.params["head_w"], store.params["head_b"]
        expected = np.zeros((6, 4))
        for i in range(6):
            for j in range(4):
                acc = b[j]
                for k in range(5):
                    acc += x[i, k] * w[k, j]
                expected[i, j] = acc
        np.testing.assert_allclose(affine(store, "head", x), expected, atol=1e-12)

    def test_shape_mismatch(self):
        store = affine_store(np.random.default_rng(0), 5, 4)
        with pytest.raises(ValueError):
            store.load_params({"head_w": np.zeros((4, 4))})
        with pytest.raises(ValueError):
            affine(store, "head", np.zeros((2, 4)))


class TestLoadParams:
    """`load_params` sets every parameter or, when one is unknown, misshapen or
    missing, none."""

    @pytest.mark.parametrize("params, error, message", [
        ({"head_w": np.ones((5, 4))}, KeyError, "missing parameter 'head_b'"),
        ({"head_w": np.ones((5, 4)), "head_b": np.ones(3)}, ValueError,
         "shape mismatch loading 'head_b'"),
        ({"head_w": np.ones((5, 4)), "other": np.ones(2)}, KeyError, "unknown parameter 'other'"),
    ], ids=["missing", "shape-before-any-write", "unknown-before-missing"])
    def test_rejected_dict_sets_nothing(self, params, error, message):
        store = affine_store(np.random.default_rng(0), 5, 4)
        before = store.copy_params()
        with pytest.raises(error, match=re.escape(message)):
            store.load_params(params)
        for name, value in before.items():
            np.testing.assert_array_equal(store.params[name], value)

    def test_model_checkpoint_without_a_mask_is_rejected(self):
        """What aggregation `mean` saves lacks `agg.mask`: a `self_attn` model
        does not keep its random mask in its place."""
        inputs = toy_inputs(np.random.default_rng(4), n=4)
        mean = MultiTapModel(inputs, toy_config(aggregation="mean")).store.copy_params()
        with pytest.raises(KeyError, match="agg.mask"):
            MultiTapModel(inputs, toy_config()).store.load_params(mean)


class TestBpr:
    def test_equal_scores_give_log_two(self):
        loss, dmargin = bpr(np.zeros(4))
        assert loss == pytest.approx(math.log(2.0), abs=1e-15)
        np.testing.assert_array_equal(dmargin, np.full(4, -0.125))

    def test_extreme_margins_stay_finite(self):
        loss, dmargin = bpr(np.array([-800.0, 800.0]))
        assert loss == pytest.approx(400.0)
        np.testing.assert_allclose(dmargin, [-0.5, 0.0], atol=1e-300)


class TestSoftmax:
    def test_equal_logits(self):
        np.testing.assert_allclose(softmax(np.zeros(5)), np.full(5, 0.2), atol=1e-12)

    def test_closed_form(self):
        out = softmax(np.array([0.0, math.log(3.0)]))
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)

    def test_matches_high_precision_oracle(self):
        from mpmath import mp, mpf, exp as mpexp

        mp.dps = 50
        rng = np.random.default_rng(2)
        logits = rng.normal(scale=3.0, size=7)
        exps = [mpexp(mpf(float(v))) for v in logits]
        total = sum(exps)
        expected = np.array([float(e / total) for e in exps])
        np.testing.assert_allclose(softmax(logits), expected, atol=1e-12)

    def test_positivity_normalization_shift_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            logits = rng.normal(scale=5.0, size=rng.integers(1, 12))
            out = softmax(logits)
            assert np.all(out > 0)
            assert abs(out.sum() - 1.0) < 1e-9
            shifted = softmax(logits + 17.3)
            np.testing.assert_allclose(out, shifted, atol=1e-9)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            softmax(np.array([]))


class TestAttention:
    """The doppelganger attention: softmax(H S^T / sqrt(h)) over source rows S."""

    def test_single_key(self):
        source = np.array([[5.0, 6.0, 7.0]])
        weights = attention_model(source).doppelganger_weights(np.array([[1.0, -2.0, 0.5]]))
        np.testing.assert_allclose(weights, [[1.0]])
        np.testing.assert_allclose(weights @ source, source)

    def test_identical_keys_uniform(self):
        rng = np.random.default_rng(4)
        source = np.tile(rng.normal(size=6), (5, 1))
        weights = attention_model(source).doppelganger_weights(rng.normal(size=(3, 6)))
        np.testing.assert_allclose(weights, np.full((3, 5), 0.2), atol=1e-9)
        np.testing.assert_allclose(weights @ source, source[:3], atol=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=8)
        keys = rng.normal(size=(4, 8))
        logits = np.array([k @ q for k in keys]) / math.sqrt(8)
        e = np.exp(logits - logits.max())
        w = e / e.sum()
        expected = sum(w[i] * keys[i] for i in range(4))
        weights = attention_model(keys).doppelganger_weights(q[None, :])[0]
        np.testing.assert_allclose(weights, w, atol=1e-12)
        np.testing.assert_allclose(weights @ keys, expected, atol=1e-12)

    def test_convexity(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            source = rng.normal(size=(7, 5))
            weights = attention_model(source).doppelganger_weights(
                rng.normal(size=(3, 5))
            )
            out = weights @ source
            assert np.all(out >= source.min(axis=0) - 1e-12)
            assert np.all(out <= source.max(axis=0) + 1e-12)


class TestCosine:
    """The cosine similarities inside `info_nce`."""

    def test_equal_vectors(self):
        # cos(x_i, x_i) = 1 on the diagonal, orthogonal rows elsewhere
        x = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        loss = info_nce(x, x, tau=0.5)[0]
        assert loss == pytest.approx(math.log(1.0 + math.exp(-2.0)))

    def test_orthogonal(self):
        # each anchor is orthogonal to its positive and parallel to the other one
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        loss = info_nce(x, x[::-1] * 3.0, tau=0.5)[0]
        assert loss == pytest.approx(math.log(1.0 + math.exp(2.0)))

    def test_antiparallel(self):
        x = np.array([[0.3, -0.4, 0.0], [0.0, 0.0, 1.0]])
        loss = info_nce(x, -x, tau=0.5)[0]
        assert loss == pytest.approx(math.log(math.exp(-2.0) + 1.0) + 2.0)

    def test_zero_norm_errors(self):
        with pytest.raises(DivergenceError):
            info_nce(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), np.ones((2, 3)), 0.5)


class TestInfoNce:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(15)
        for tau in (0.2, 0.5, 1.3):
            x, y = rng.normal(size=(6, 4)), rng.normal(size=(6, 4))
            expected = oracles.info_nce_mean(x, y, tau)
            assert info_nce(x, y, tau)[0] == pytest.approx(expected, abs=1e-12)

    def test_grad_check(self):
        rng = np.random.default_rng(16)
        store = ParameterStore()
        store.add("x", rng.normal(size=(5, 4)))
        store.add("y", rng.normal(size=(5, 4)))

        def fn(s):
            loss, dx, dy = info_nce(s.params["x"], s.params["y"], 0.5)
            s.grads["x"] += dx
            s.grads["y"] += dy
            return loss

        assert grad_check(fn, store, eps=1e-5) < 1e-4


@st.composite
def scatter_cases(draw):
    """(index, values, n): duplicate-heavy indices, signed magnitudes from
    1e-8 to 1e8 (and signed zeros, infinities and NaNs), possibly no terms at all."""
    n = draw(st.integers(1, 6))
    T = draw(st.integers(0, 30))
    d = draw(st.integers(1, 4))
    index = np.array(draw(st.lists(st.integers(0, n - 1), min_size=T, max_size=T)), dtype=np.int64)
    magnitude = st.one_of(st.floats(1e-8, 1e8),
                          st.sampled_from([0.0, 1e-8, 1e8, math.inf, math.nan]))
    cells = draw(st.lists(st.tuples(st.sampled_from([1.0, -1.0]), magnitude),
                          min_size=T * d, max_size=T * d))
    values = np.array([sign * m for sign, m in cells], dtype=np.float64).reshape(T, d)
    return index, values, n


class TestScatterRows:
    @settings(max_examples=300, deadline=None)
    @given(scatter_cases())
    def test_bit_equal_to_add_at(self, case):
        index, values, n = case
        expected = np.zeros((n, values.shape[1]))
        with np.errstate(invalid="ignore"):  # inf - inf
            np.add.at(expected, index, values)
        out = scatter_rows(index, values, n)
        assert out.shape == expected.shape and out.dtype == expected.dtype
        # a sum of two NaNs is either one, and add.at adds the terms the
        # other way round: its NaN cells match by place, every other by bytes
        nan = np.isnan(expected)
        assert np.array_equal(np.isnan(out), nan)
        assert out[~nan].tobytes() == expected[~nan].tobytes()

    def test_order_of_terms_is_kept(self):
        # (1e8 + 1e-9) - 1e8 is 0 and (-1e8 + 1e8) + 1e-9 is 1e-9: the same
        # terms in another order give another sum
        values = np.array([[1e8], [1e-9], [-1e8], [-1e8], [1e8], [1e-9]])
        index = np.array([0, 0, 0, 1, 1, 1])
        assert scatter_rows(index, values, 2).tolist() == [[0.0], [1e-9]]

    def test_empty_index_gives_zeros(self):
        out = scatter_rows(np.zeros(0, dtype=np.int64), np.zeros((0, 3)), 4)
        # int64 zeros have the bytes of float64 zeros: only the dtype tells them apart
        assert out.dtype == np.float64
        assert out.tobytes() == np.zeros((4, 3)).tobytes()


class TestAdam:
    def test_zero_gradient_no_change(self):
        store = ParameterStore()
        store.add("w", np.array([1.0, -2.0]))
        before = store.params["w"].copy()
        adam_step(store, 0.1, 0.0)
        np.testing.assert_array_equal(store.params["w"], before)

    def test_single_step_hand_computed(self):
        store = ParameterStore()
        store.add("w", np.array([0.0]))
        store.grads["w"] += np.array([1.0])
        adam_step(store, 0.1, 0.0)
        # bias-corrected m_hat = 1, v_hat = 1 -> update = -lr * 1/(1 + eps)
        assert store.params["w"][0] == pytest.approx(-0.1, abs=1e-8)
        assert np.all(store.grads["w"] == 0.0)

    def test_two_steps_match_reference_recurrence(self):
        lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
        store = ParameterStore()
        store.add("w", np.array([0.3]))
        g = 0.7
        # independent scalar recurrence
        theta, m, v = 0.3, 0.0, 0.0
        for t in (1, 2):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            theta -= lr * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + eps)
        for _ in range(2):
            store.grads["w"] += np.array([g])
            adam_step(store, lr, 0.0)
        assert store.params["w"][0] == pytest.approx(theta, abs=1e-10)

    def test_weight_decay_is_decoupled(self):
        store = ParameterStore()
        store.add("w", np.array([2.0]))
        adam_step(store, 0.1, 0.5)
        # zero gradient: only the decay term applies
        assert store.params["w"][0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))

    def test_non_finite_gradient_names_parameter(self):
        store = ParameterStore()
        store.add("bad", np.array([1.0]))
        store.grads["bad"] += np.array([np.nan])
        with pytest.raises(ValueError, match="bad"):
            adam_step(store, 1e-3, 0.0)

    @pytest.mark.parametrize("learning_rate, weight_decay", [(0.03, 0.0), (0.03, 0.01), (0.4, 0.2)],
                             ids=["0.0", "0.01", "0.2-lr0.4"])
    def test_bit_equal_to_expression_oracle_over_50_steps(self, learning_rate, weight_decay):
        rng = np.random.default_rng(7)
        shapes = {"table": (40, 8), "bias": (8,), "scalar": ()}
        stores = (ParameterStore(), ParameterStore())
        for name, shape in shapes.items():
            init = rng.normal(size=shape)
            for store in stores:
                store.add(name, init.copy())
        for _ in range(50):
            for name, shape in shapes.items():
                # magnitudes from 1e-6 to 1e6, with exact zeros
                g = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7, size=shape)
                g = np.where(rng.random(size=shape) < 0.1, 0.0, g)
                for store in stores:
                    store.grads[name] += g
            adam_step(stores[0], learning_rate, weight_decay)
            oracles.adam_step(stores[1], learning_rate, weight_decay)
        for attr in ("params", "_m", "_v", "grads"):
            for name in shapes:
                got, want = getattr(stores[0], attr)[name], getattr(stores[1], attr)[name]
                assert got.tobytes() == want.tobytes(), (attr, name)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_any_non_finite_entry_raises(self, bad):
        store = ParameterStore()
        store.add("w", np.zeros(5))
        store.grads["w"] += np.array([1.0, -2.0, bad, 3.0, 4.0])
        with pytest.raises(ValueError, match="non-finite gradient for parameter 'w'"):
            adam_step(store, 1e-3, 0.0)

    def test_finite_gradient_with_overflowing_sum_steps(self):
        store, reference = ParameterStore(), ParameterStore()
        g = np.array([1e308, 1e308, -1e308, 1e308])
        with np.errstate(over="ignore"):
            assert not np.isfinite(g.sum())
        for s in (store, reference):
            s.add("w", np.ones(4))
            s.grads["w"] += g
        with np.errstate(over="ignore"):  # g * g overflows on both sides
            adam_step(store, 1e-3, 0.0)
            oracles.adam_step(reference, 1e-3, 0.0)
        assert store.params["w"].tobytes() == reference.params["w"].tobytes()


class TestFitEarlyStopped:
    """The shared fit loop against the prefix-maximum oracle, on scripted
    validation HR sequences; coarse HR values make ties common."""

    @settings(max_examples=300, deadline=None)
    @given(
        hrs=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=12),
        patience=st.integers(0, 5),
        data=st.data(),
    )
    def test_matches_oracle(self, hrs, patience, data):
        epochs = data.draw(st.integers(1, len(hrs)))
        snapshots = []

        def run_epoch(epoch):
            def snapshot():
                snapshots.append(epoch)
                return ("state", epoch)

            return {"loss": float(-epoch), "valid_hr": hrs[epoch]}, snapshot

        history, best_epoch, best_hr, snapshot = fit_early_stopped(run_epoch, epochs, patience)
        ran, best = oracles.early_stopping(hrs, epochs, patience)
        assert history == [
            {"epoch": e, "loss": float(-e), "valid_hr": hrs[e]} for e in range(ran)
        ]
        assert all(list(row) == ["epoch", "loss", "valid_hr"] for row in history)
        assert (best_epoch, best_hr, snapshot) == (best, hrs[best], ("state", best))
        # a snapshot is taken exactly at each strict improvement
        assert snapshots == [e for e in range(ran) if all(hrs[e] > h for h in hrs[:e])]

    def test_tie_does_not_replace_and_patience_counts_from_best(self):
        hrs = [0.5, 0.5, 0.25, 0.5]
        history, best_epoch, _, snapshot = fit_early_stopped(
            lambda e: ({"valid_hr": hrs[e]}, lambda: e), 10, 2
        )
        assert [row["epoch"] for row in history] == [0, 1, 2]
        assert (best_epoch, snapshot) == (0, 0)


class TestGradCheck:
    def test_quadratic(self):
        store = ParameterStore()
        rng = np.random.default_rng(7)
        store.add("theta", rng.normal(size=6))

        def fn(s):
            theta = s.params["theta"]
            s.grads["theta"] += theta
            return float(0.5 * theta @ theta)

        assert grad_check(fn, store, eps=1e-5) < 1e-8

    def test_constant_function(self):
        store = ParameterStore()
        store.add("theta", np.array([1.0, 2.0]))

        def fn(s):
            return 3.5

        assert grad_check(fn, store, eps=1e-4) < 1e-8


def _fd_check(fn_forward, fn_backward, arrays, eps=1e-6, atol=1e-6):
    """Generic per-operation finite-difference verification."""
    out = fn_forward(*arrays)
    rng = np.random.default_rng(99)
    grad_out = rng.normal(size=np.shape(out))
    grads = fn_backward(grad_out, *arrays)
    for arr, analytic in zip(arrays, grads):
        if analytic is None:
            continue
        flat = arr.reshape(-1)
        fd = np.zeros_like(flat)
        for i in range(flat.size):
            old = flat[i]
            flat[i] = old + eps
            lp = float(np.sum(fn_forward(*arrays) * grad_out))
            flat[i] = old - eps
            lm = float(np.sum(fn_forward(*arrays) * grad_out))
            flat[i] = old
            fd[i] = (lp - lm) / (2 * eps)
        rel = np.abs(analytic.reshape(-1) - fd) / np.maximum(
            np.maximum(np.abs(fd), np.abs(analytic.reshape(-1))), 1e-4
        )
        assert rel.max() < 1e-4


def _persona_param_check(aggregation, name):
    """Finite-difference check of the persona aggregation's adjoint w.r.t.
    one of its parameters, perturbed in place through `_fd_check`."""
    model = MultiTapModel(toy_inputs(np.random.default_rng(17)), toy_config(aggregation=aggregation))
    to_generic_point(model, scale=1.0)

    def backward(g, _param):
        model.store.zero_grads()
        model._persona_backward(persona_of(model), g)
        return (model.store.grads[name].copy(),)

    _fd_check(lambda _param: persona_of(model)["h"], backward, [model.store.params[name]])


class TestOperationAdjoints:
    def test_affine_backward(self):
        # adjoints w.r.t. the input, the weight and the bias
        rng = np.random.default_rng(8)
        store = affine_store(rng, 5, 3)

        def backward(g, x, _w, _b):
            store.zero_grads()
            dx = affine_backward(store, "head", x, g)
            return dx, store.grads["head_w"].copy(), store.grads["head_b"].copy()

        _fd_check(
            lambda x, _w, _b: affine(store, "head", x),
            backward,
            [rng.normal(size=(4, 5)), store.params["head_w"], store.params["head_b"]],
        )

    @pytest.mark.parametrize("side", ["user", "item"])
    def test_fusion_head_backward(self, side):
        # a fusion head's adjoint w.r.t. its features (persona h or item semantics)
        model = MultiTapModel(toy_inputs(np.random.default_rng(8)), toy_config())
        to_generic_point(model)
        rows = np.arange(4)
        width = 8 if side == "user" else 5
        _fd_check(
            lambda f: model._fuse(side, f, rows)["z"],
            lambda g, f: (model._fuse_backward(model._fuse(side, f, rows), g),),
            [np.random.default_rng(8).normal(size=(4, width))],
        )

    def test_bpr_backward(self):
        margin = np.random.default_rng(10).normal(scale=3.0, size=7)
        _fd_check(
            lambda m: np.array(bpr(m)[0]),
            lambda g, m: (float(g) * bpr(m)[1],),
            [margin],
        )

    def test_softmax_backward(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(size=6)
        _fd_check(
            softmax,
            lambda g, logits: (softmax_backward(g, softmax(logits)),),
            [logits],
        )

    def test_tanh_backward(self):
        # the FFN bias gradient runs through the tanh adjoint
        _persona_param_check("mean", "agg.ffn_b")

    def test_attention_backward(self):
        # the mask token gradient runs through the self-attention adjoint
        _persona_param_check("self_attn", "agg.mask")

    def test_cosine_backward(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(4, 6))
        y = rng.normal(size=(4, 6))

        def forward(x, y):
            return np.array(info_nce(x, y, 0.5)[0])

        def backward(g, x, y):
            _, dx, dy = info_nce(x, y, 0.5)
            return float(g) * dx, float(g) * dy

        _fd_check(forward, backward, [x, y])


class TestDeterminismAndCheckpoints:
    def test_forward_backward_bit_identical(self):
        def run():
            rng = np.random.default_rng(13)
            x = rng.normal(size=(4, 6))
            y = rng.normal(size=(4, 6))
            loss, dx, dy = info_nce(x, y, 0.5)
            return repr(loss).encode() + dx.tobytes() + dy.tobytes()

        assert run() == run()

    def test_checkpoint_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        arrays = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=5)}
        manifest = {"seed": 14, "config_hash": "abc"}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, arrays, manifest)
        loaded, loaded_manifest = load_checkpoint(path)
        assert loaded_manifest == manifest
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], arrays[name])

    def test_checkpoint_bytes_pinned(self, tmp_path):
        # the container format is fixed: a refactor must not change its bytes
        path = tmp_path / "small.ckpt"
        arrays = {"b": np.array([-0.0, np.inf, 5e-324]), "a": np.arange(6.0).reshape(2, 3)}
        save_checkpoint(path, arrays, {"seed": 1})
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "0a21eee0f952505647ea4e22a78e1533d5e354100702418aad20b848115e195c"
        )

    def test_save_checkpoint_copies_no_array(self, tmp_path):
        # the header and each array's own buffer go to the file as they are
        big = np.arange(1 << 20, dtype=np.float64)  # 8 MiB
        tracemalloc.start()
        try:
            save_checkpoint(tmp_path / "big.ckpt", {"big": big}, {"seed": 1})
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < big.nbytes, f"save_checkpoint allocated {peak} bytes for {big.nbytes}"

    def test_checkpoint_bytes_deterministic(self, tmp_path):
        arrays = {"a": np.arange(6, dtype=np.float64).reshape(2, 3)}
        p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
        save_checkpoint(p1, arrays, {"seed": 1, "config_hash": "x"})
        save_checkpoint(p2, arrays, {"seed": 1, "config_hash": "x"})
        assert p1.read_bytes() == p2.read_bytes()


_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True, width=64)
_names = st.text(st.characters(codec="utf-8", exclude_categories=("Cs",)), max_size=6)
_json = st.recursive(
    st.none() | st.booleans() | st.integers() | _floats | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_arrays = st.lists(st.integers(0, 3), max_size=3).flatmap(
    lambda shape: st.lists(
        st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.2e-308]) | _floats,
        min_size=math.prod(shape), max_size=math.prod(shape),
    ).map(lambda xs: np.array(xs, dtype=np.float64).reshape(shape))
)


def container_bytes(arrays, values=None) -> bytes:
    """The container's bytes, as a file holds them."""
    return b"".join(pack_container(arrays, values))


class TestContainer:
    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(_names, _arrays, max_size=4),
        st.dictionaries(_names, _json, max_size=4),
        st.data(),
    )
    def test_round_trip_with_name_filter(self, tmp_path_factory, arrays, values, data):
        values = {k: v for k, v in values.items() if k not in arrays}
        names = data.draw(
            st.none() | st.sets(st.sampled_from(sorted({*arrays, *values, "absent"})))
        )
        path = tmp_path_factory.mktemp("container") / "c.bin"
        path.write_bytes(container_bytes(arrays, values))
        got_arrays, got_values = read_container(path, names)
        keep = (lambda k: True) if names is None else (lambda k: k in names)
        assert sorted(got_arrays) == sorted(k for k in arrays if keep(k))
        for name, arr in got_arrays.items():
            assert arr.dtype == np.float64 and arr.shape == arrays[name].shape
            assert arr.tobytes() == arrays[name].tobytes()
        expected = {k: v for k, v in values.items() if keep(k)}
        assert json.dumps(got_values, sort_keys=True) == json.dumps(expected, sort_keys=True)

    def test_empty_name_set_reads_nothing(self, tmp_path):
        path = tmp_path / "c.bin"
        path.write_bytes(container_bytes({"v": np.ones(3)}, {"t": "x"}))
        assert read_container(path, set()) == ({}, {})

    @pytest.mark.parametrize("damage", ["cut-in-tensor", "cut-in-header", "version", "magic"])
    def test_every_value_error_names_the_file(self, tmp_path, damage):
        data = container_bytes({"w": np.ones((64, 64))}, {"t": "x"})
        header_end = 16 + struct.unpack_from("<I", data, 12)[0]
        damaged = {
            "cut-in-tensor": data[: header_end + 13 * 8],
            "cut-in-header": data[: header_end - 5],
            "version": data[:8] + struct.pack("<I", 2) + data[12:],
            "magic": b"NOTACKPT" + data[8:],
        }[damage]
        path = tmp_path / "damaged.ckpt"
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            read_container(path)

    @pytest.mark.parametrize("layout", ["transposed", "strided", "int64", "big-endian", "0-d"])
    def test_any_array_is_written_as_its_c_ordered_float64_copy(self, layout):
        base = np.arange(12.0).reshape(3, 4)
        arr = {"transposed": base.T, "strided": base[:, ::2], "int64": base.astype(np.int64),
               "big-endian": base.astype(">f8"), "0-d": np.float64(-0.0)}[layout]
        copy = np.array(arr, dtype=np.float64, order="C")
        assert container_bytes({"a": arr}) == container_bytes({"a": copy})

    def test_values_key_omitted_when_empty(self):
        assert container_bytes({"a": np.ones(2)}) == container_bytes({"a": np.ones(2)}, {})
        assert b'"json"' not in container_bytes({"a": np.ones(2)})
