"""Numerical core: losses, analytic gradients, and the recurrence itself.

The recurrent forward pass is checked against an independent scalar-loop
reimplementation, and every analytic gradient is checked against central
finite differences of the loss.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

import htnrisk.nnet as nnet
from htnrisk.nnet import (
    GATES,
    LrParams,
    LstmParams,
    NumericalError,
    init_lr_params,
    init_lstm_params,
    lr_logits,
    lr_loss_and_grads,
    lstm_forward,
    lstm_input_gradients,
    lstm_logits,
    lstm_loss_and_grads,
    sigmoid,
    split_gates,
    softplus,
    weighted_bce,
)


def _random_lstm(rng, n_features=3, hidden=4):
    return init_lstm_params(n_features, hidden, rng)


def _random_batch(rng, n=3, T=6, F=3):
    X = rng.normal(0.0, 1.0, size=(n, T, F))
    y = rng.integers(0, 2, size=n).astype(np.float64)
    w = rng.uniform(0.5, 2.0, size=n)
    return X, y, w


# -- activations -----------------------------------------------------------------

def test_sigmoid_matches_reference_and_is_stable():
    z = np.array([-800.0, -30.0, -1.0, 0.0, 1.0, 30.0, 800.0])
    p = sigmoid(z)
    assert np.all(np.isfinite(p))
    assert p[3] == 0.5
    for zi, pi in zip(z[1:6], p[1:6]):
        assert pi == pytest.approx(1.0 / (1.0 + math.exp(-zi)), rel=1e-14)
    assert p[0] == pytest.approx(0.0, abs=1e-300)
    assert p[-1] == pytest.approx(1.0)


def test_softplus_matches_reference_and_is_stable():
    z = np.array([-800.0, -5.0, 0.0, 5.0, 800.0])
    s = softplus(z)
    assert s[2] == pytest.approx(math.log(2.0), rel=1e-14)
    assert s[1] == pytest.approx(math.log1p(math.exp(-5.0)), rel=1e-12)
    assert s[3] == pytest.approx(5.0 + math.log1p(math.exp(-5.0)), rel=1e-12)
    assert s[0] == pytest.approx(0.0, abs=1e-300)
    assert s[4] == pytest.approx(800.0)


def test_weighted_bce_equals_naive_formula_on_moderate_logits(rng):
    z = rng.normal(0.0, 3.0, size=50)
    y = rng.integers(0, 2, size=50).astype(float)
    w = rng.uniform(0.2, 3.0, size=50)
    p = 1.0 / (1.0 + np.exp(-z))
    naive = w * (-y * np.log(p) - (1.0 - y) * np.log(1.0 - p))
    np.testing.assert_allclose(weighted_bce(z, y, w), naive, rtol=1e-10)


def test_weighted_bce_extreme_logits_stay_finite():
    losses = weighted_bce(np.array([-800.0, 800.0]), np.array([1.0, 0.0]), np.array([2.0, 3.0]))
    assert losses[0] == pytest.approx(1600.0)
    assert losses[1] == pytest.approx(2400.0)


# -- logistic regression ------------------------------------------------------------

def test_lr_forward_hand_value():
    params = LrParams(w=np.array([2.0, -1.0]), b=0.5)
    p = sigmoid(lr_logits(params, np.array([[1.0, 3.0]])))
    assert p[0] == pytest.approx(1.0 / (1.0 + math.exp(0.5)), rel=1e-14)


def test_lr_shape_mismatch_raises():
    with pytest.raises(ValueError, match="features"):
        lr_logits(LrParams(w=np.zeros(3), b=0.0), np.ones((2, 4)))


def test_lr_gradients_match_finite_differences(rng):
    n, F = 12, 5
    X = rng.normal(size=(n, F))
    y = rng.integers(0, 2, size=n).astype(float)
    w = rng.uniform(0.5, 2.0, size=n)
    params = LrParams(w=rng.normal(size=F), b=0.3)
    _, grads = lr_loss_and_grads(params, X, y, w)
    vec = params.to_vector()
    gvec = grads.to_vector()
    eps = 1e-6
    for j in range(vec.size):
        step = np.zeros_like(vec); step[j] = eps
        hi, _ = lr_loss_and_grads(LrParams.from_vector(vec + step, F), X, y, w)
        lo, _ = lr_loss_and_grads(LrParams.from_vector(vec - step, F), X, y, w)
        numeric = (hi - lo) / (2 * eps)
        assert abs(numeric - gvec[j]) < 1e-8 + 1e-6 * abs(gvec[j])


def test_lr_init_is_zero():
    params = init_lr_params(7)
    assert params.b == 0.0
    assert np.all(params.w == 0.0)


def test_lr_vector_round_trip(rng):
    params = LrParams(w=rng.normal(size=3), b=0.3)
    vec = params.to_vector()
    restored = LrParams.from_vector(vec, 3)
    np.testing.assert_array_equal(restored.w, params.w)
    assert restored.b == params.b
    assert np.shares_memory(restored.w, vec)


def test_lr_nonfinite_input_raises(rng):
    params = LrParams(w=np.ones(2), b=0.0)
    X = np.array([[1.0, np.inf]])
    with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
        lr_loss_and_grads(params, X, np.array([1.0]), np.array([1.0]))


# -- LSTM initialization ---------------------------------------------------------

def test_lstm_init_ranges_and_forget_bias(rng):
    params = init_lstm_params(5, 16, rng)
    s = 1.0 / math.sqrt(16)
    assert params.W.shape == (5, 64)
    assert params.U.shape == (16, 64)
    assert params.b.shape == (64,)
    b_i, b_f, b_o, b_g = split_gates(params.b)
    np.testing.assert_array_equal(b_f, np.ones(16))
    for name, value in [
        ("W", params.W), ("U", params.U), ("b_i", b_i), ("b_o", b_o), ("b_g", b_g),
        ("dense_w", params.dense_w), ("dense_b", params.dense_b),
    ]:
        assert np.all(np.abs(np.atleast_1d(value)) <= s), name


def _per_gate_init(n_features, hidden, rng):
    """Reference draw: one block per gate, in the order of the per-gate
    model keys W_i..W_g, U_i..U_g, b_i..b_g (b_f fixed), dense_w, dense_b."""
    s = 1.0 / math.sqrt(hidden)
    blocks = {}
    for kind, shape in (("W", (n_features, hidden)), ("U", (hidden, hidden)), ("b", (hidden,))):
        for gate in "ifog":
            if kind == "b" and gate == "f":
                blocks["b_f"] = np.ones(hidden)
            else:
                blocks[f"{kind}_{gate}"] = rng.uniform(-s, s, size=shape)
    blocks["dense_w"] = rng.uniform(-s, s, size=hidden)
    blocks["dense_b"] = float(rng.uniform(-s, s))
    return blocks


def test_lstm_init_matches_per_gate_draw_order():
    params = init_lstm_params(5, 7, np.random.default_rng(42))
    ref = _per_gate_init(5, 7, np.random.default_rng(42))
    assert GATES == "ifog"
    for kind in ("W", "U", "b"):
        for gate, block in zip(GATES, split_gates(getattr(params, kind))):
            np.testing.assert_array_equal(block, ref[f"{kind}_{gate}"], err_msg=f"{kind}_{gate}")
    np.testing.assert_array_equal(params.dense_w, ref["dense_w"])
    assert params.dense_b == ref["dense_b"]


def test_lstm_init_is_seed_deterministic():
    a = init_lstm_params(3, 4, np.random.default_rng(7))
    b = init_lstm_params(3, 4, np.random.default_rng(7))
    c = init_lstm_params(3, 4, np.random.default_rng(8))
    np.testing.assert_array_equal(a.to_vector(), b.to_vector())
    assert not np.array_equal(a.to_vector(), c.to_vector())


def test_lstm_vector_round_trip(rng):
    params = _random_lstm(rng, n_features=3, hidden=4)
    vec = params.to_vector()
    restored = LstmParams.from_vector(vec, 3, 4)
    # The input kernel leads the vector: training's L1 term is its first F*4H entries.
    assert np.array_equal(vec[: 3 * 4 * 4], params.W.ravel())
    for field in dataclasses.fields(LstmParams):
        np.testing.assert_array_equal(
            getattr(restored, field.name), getattr(params, field.name), err_msg=field.name
        )
    # The arrays are views of the vector: training rebuilds them every minibatch.
    for name in ("W", "U", "b", "dense_w"):
        assert np.shares_memory(getattr(restored, name), vec), name


# -- LSTM forward against a scalar-loop oracle --------------------------------------

def _scalar_forward(params, X_one):
    """Plain-Python recurrence for one sequence; no numpy vectorization.

    Gate a's weights are column block a of the fused W, U and b."""
    F, H = params.n_features, params.hidden
    W = dict(zip("ifog", split_gates(params.W)))
    U = dict(zip("ifog", split_gates(params.U)))
    b = dict(zip("ifog", split_gates(params.b)))
    T = X_one.shape[0]
    h = [0.0] * H
    c = [0.0] * H

    def gate(W, U, b, x, h_prev, j):
        z = b[j]
        for k in range(F):
            z += x[k] * W[k, j]
        for m in range(H):
            z += h_prev[m] * U[m, j]
        return z

    for t in range(T):
        x = X_one[t]
        nh = [0.0] * H
        nc = [0.0] * H
        for j in range(H):
            zi = gate(W["i"], U["i"], b["i"], x, h, j)
            zf = gate(W["f"], U["f"], b["f"], x, h, j)
            zo = gate(W["o"], U["o"], b["o"], x, h, j)
            zg = gate(W["g"], U["g"], b["g"], x, h, j)
            i = 1.0 / (1.0 + math.exp(-zi))
            f = 1.0 / (1.0 + math.exp(-zf))
            o = 1.0 / (1.0 + math.exp(-zo))
            g = math.tanh(zg)
            nc[j] = f * c[j] + i * g
            nh[j] = o * math.tanh(nc[j])
        h, c = nh, nc
    logit = params.dense_b
    for j in range(H):
        logit += h[j] * params.dense_w[j]
    return 1.0 / (1.0 + math.exp(-logit)), h


def test_lstm_forward_matches_scalar_oracle(rng):
    params = _random_lstm(rng, n_features=3, hidden=4)
    X, _, _ = _random_batch(rng, n=5, T=6, F=3)
    p, tape = lstm_forward(params, X)
    for idx in range(5):
        p_ref, h_ref = _scalar_forward(params, X[idx])
        assert p[idx] == pytest.approx(p_ref, abs=1e-12)
        np.testing.assert_allclose(tape.h[-1][idx], h_ref, atol=1e-12)


def test_lstm_forward_batch_equals_per_sample(rng):
    params = _random_lstm(rng, n_features=3, hidden=4)
    X, _, _ = _random_batch(rng, n=4)
    batch_p, _ = lstm_forward(params, X)
    single_p = np.array([lstm_forward(params, X[i])[0][0] for i in range(4)])
    np.testing.assert_allclose(batch_p, single_p, atol=1e-14)


def test_lstm_forward_shape_mismatch_raises(rng):
    params = _random_lstm(rng, n_features=3, hidden=4)
    with pytest.raises(ValueError, match="features"):
        lstm_forward(params, np.ones((2, 6, 5)))


def test_lstm_forward_nonfinite_input_raises(rng):
    params = _random_lstm(rng)
    X = np.zeros((1, 6, 3))
    X[0, 2, 1] = np.nan
    with pytest.raises(NumericalError):
        lstm_forward(params, X)


# -- tape-free inference ------------------------------------------------------------

def _inference_lstm(seed, F=62, H=120):
    return init_lstm_params(F, H, np.random.default_rng(seed))


@pytest.mark.parametrize("n", [1, 2, 3, 66, 67, 70, 255, 256, 257, 319, 320, 610, 2936])
def test_lstm_logits_equal_the_taped_forward(n):
    params = _inference_lstm(n)
    X = np.random.default_rng(n + 1).normal(0.0, 0.5, size=(n, 6, 62))
    logits = lstm_logits(params, X)
    assert np.array_equal(logits, lstm_forward(params, X)[1].logits)
    assert np.array_equal(sigmoid(logits), lstm_forward(params, X)[0])


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("chunk_rows", [2, 3])
def test_lstm_logits_equal_the_taped_forward_in_small_chunks(
    monkeypatch, blas_threads, chunk_rows, threads
):
    from htnrisk.parallel import blas_thread_control

    blas_thread_control()[1](threads)
    monkeypatch.setattr(nnet, "CHUNK_ROWS", chunk_rows)
    params = _inference_lstm(chunk_rows)
    for n in (1, 2, 3, 4, 5, 7, 66, 67, 70):
        X = np.random.default_rng(n).normal(0.0, 0.5, size=(n, 6, 62))
        assert np.array_equal(lstm_logits(params, X), lstm_forward(params, X)[1].logits), n


def test_lstm_chunks_never_leave_one_row_alone(monkeypatch):
    for chunk_rows in (2, 3, 256):
        monkeypatch.setattr(nnet, "CHUNK_ROWS", chunk_rows)
        for n in range(1, 600):
            chunks = nnet._chunks(n)
            assert [i for rows in chunks for i in rows] == list(range(n))
            assert n == 1 or min(map(len, chunks)) >= 2
            assert max(map(len, chunks)) <= chunk_rows + 1


def test_lstm_logits_raise_like_the_taped_forward(rng):
    params = _random_lstm(rng)
    with pytest.raises(ValueError, match="^expected 3 features, got 5$"):
        lstm_logits(params, np.ones((2, 6, 5)))
    X = np.zeros((300, 6, 3))
    X[280, 2, 1] = np.nan
    for forward in (lstm_forward, lstm_logits):
        with pytest.raises(NumericalError, match="^non-finite values in lstm activations at step 2$"):
            forward(params, X)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_lstm_logits_memory_grows_only_by_the_final_states():
    T, F, H = 6, 62, 120
    params = _inference_lstm(0, F, H)
    small, large = (np.random.default_rng(n).normal(size=(n, T, F)) for n in (1024, 4096))
    growth = _peak_bytes(lstm_logits, params, large) - _peak_bytes(lstm_logits, params, small)
    extra_rows = 4096 - 1024
    # The (n, H) final states and a few (n,) vectors, not a T*n*4H tape.
    assert growth < 1.25 * extra_rows * H * 8
    assert _peak_bytes(lstm_forward, params, large) > extra_rows * T * 4 * H * 8


# -- LSTM gradients against finite differences --------------------------------------

def test_lstm_parameter_gradients_match_finite_differences(rng):
    F, H = 3, 4
    params = _random_lstm(rng, F, H)
    X, y, w = _random_batch(rng, n=3, T=6, F=F)
    loss, grads = lstm_loss_and_grads(params, X, y, w)
    vec = params.to_vector()
    gvec = grads.to_vector()
    eps = 1e-5
    worst = 0.0
    for j in range(vec.size):
        step = np.zeros_like(vec); step[j] = eps
        hi, _ = lstm_loss_and_grads(LstmParams.from_vector(vec + step, F, H), X, y, w)
        lo, _ = lstm_loss_and_grads(LstmParams.from_vector(vec - step, F, H), X, y, w)
        numeric = (hi - lo) / (2 * eps)
        err = abs(numeric - gvec[j]) / (1e-7 + abs(gvec[j]))
        worst = max(worst, err)
        assert err < 1e-4, f"coordinate {j}: numeric {numeric} vs analytic {gvec[j]}"
    assert worst < 1e-4


def test_lstm_batch_loss_and_grads_average_single_samples(rng):
    F, H = 3, 4
    params = _random_lstm(rng, F, H)
    X, y, w = _random_batch(rng, n=4, T=6, F=F)
    batch_loss, batch_grads = lstm_loss_and_grads(params, X, y, w)
    losses = []
    gsum = np.zeros_like(batch_grads.to_vector())
    for i in range(4):
        loss_i, g_i = lstm_loss_and_grads(params, X[i : i + 1], y[i : i + 1], w[i : i + 1])
        losses.append(loss_i)
        gsum += g_i.to_vector()
    assert batch_loss == pytest.approx(np.mean(losses), rel=1e-12)
    np.testing.assert_allclose(batch_grads.to_vector(), gsum / 4.0, atol=1e-14)


def test_lstm_input_gradients_match_finite_differences(rng):
    F, H = 3, 4
    params = _random_lstm(rng, F, H)
    X = rng.normal(size=(2, 6, F))
    p, dX = lstm_input_gradients(params, X)
    np.testing.assert_allclose(p, sigmoid(lstm_logits(params, X)), atol=1e-14)
    eps = 1e-6
    for i in range(2):
        for t in range(6):
            for f in range(F):
                hi = X.copy(); hi[i, t, f] += eps
                lo = X.copy(); lo[i, t, f] -= eps
                numeric = (
                    sigmoid(lstm_logits(params, hi))[i] - sigmoid(lstm_logits(params, lo))[i]
                ) / (2 * eps)
                assert abs(numeric - dX[i, t, f]) < 1e-8


def _per_gate_bptt(params, X, dlogits, mask):
    """Reference forward and BPTT with one matmul per gate and step, in
    the loop form the fused code replaces: (per-gate grads, dX)."""
    n, T, F = X.shape
    H = params.hidden
    W = dict(zip("ifog", split_gates(params.W)))
    U = dict(zip("ifog", split_gates(params.U)))
    b = dict(zip("ifog", split_gates(params.b)))
    h = np.zeros((n, H)); c = np.zeros((n, H))
    steps = []
    for t in range(T):
        x = X[:, t, :]
        act = {a: x @ W[a] + h @ U[a] + b[a] for a in "ifog"}
        i, f, o = (1.0 / (1.0 + np.exp(-act[a])) for a in "ifo")
        g = np.tanh(act["g"])
        steps.append((x, h, c, i, f, o, g))
        c = f * c + i * g
        h = o * np.tanh(c)
    grads = {f"{k}_{a}": np.zeros_like(v[a]) for k, v in (("W", W), ("U", U), ("b", b)) for a in "ifog"}
    dX = np.zeros_like(X)
    dh = dlogits[:, None] * params.dense_w[None, :] * mask
    dc_next = np.zeros((n, H))
    c_t = c
    for t in reversed(range(T)):
        x, h_prev, c_prev, i, f, o, g = steps[t]
        tc = np.tanh(c_t)
        dc = dc_next + dh * o * (1.0 - tc * tc)
        dz = {
            "i": dc * g * i * (1.0 - i),
            "f": dc * c_prev * f * (1.0 - f),
            "o": dh * tc * o * (1.0 - o),
            "g": dc * i * (1.0 - g * g),
        }
        for a in "ifog":
            grads[f"W_{a}"] += x.T @ dz[a]
            grads[f"U_{a}"] += h_prev.T @ dz[a]
            grads[f"b_{a}"] += dz[a].sum(axis=0)
        dX[:, t, :] = sum(dz[a] @ W[a].T for a in "ifog")
        dh = sum(dz[a] @ U[a].T for a in "ifog")
        dc_next = dc * f
        c_t = c_prev
    grads["dense_w"] = (h * mask).T @ dlogits
    grads["dense_b"] = float(dlogits.sum())
    return grads, dX


def test_lstm_fused_gradients_equal_per_gate_reference(rng):
    F, H = 3, 5
    params = _random_lstm(rng, F, H)
    X, y, w = _random_batch(rng, n=4, T=6, F=F)
    dropout_rng = np.random.default_rng(3)
    _, grads = lstm_loss_and_grads(params, X, y, w, 0.3, dropout_rng)
    p, tape = lstm_forward(params, X, 0.3, np.random.default_rng(3))
    ref, _ = _per_gate_bptt(params, X, w * (p - y) / len(y), tape.mask)
    for kind in ("W", "U", "b"):
        for gate, block in zip(GATES, split_gates(getattr(grads, kind))):
            np.testing.assert_allclose(block, ref[f"{kind}_{gate}"], rtol=0, atol=1e-12)
    np.testing.assert_allclose(grads.dense_w, ref["dense_w"], rtol=0, atol=1e-12)
    assert grads.dense_b == pytest.approx(ref["dense_b"], abs=1e-12)


def test_lstm_input_gradients_equal_full_bptt_input_gradient(rng):
    F, H = 4, 5
    params = _random_lstm(rng, F, H)
    X = rng.normal(size=(3, 6, F))
    p, dX = lstm_input_gradients(params, X)
    assert dX.shape == X.shape
    _, ref_dX = _per_gate_bptt(params, X, p * (1.0 - p), np.ones((3, H)))
    np.testing.assert_allclose(dX, ref_dX, rtol=0, atol=1e-12)


# -- dropout -----------------------------------------------------------------------

def test_dropout_mask_statistics_and_scaling(rng):
    params = _random_lstm(rng, n_features=3, hidden=50)
    X = rng.normal(size=(4, 3, 3))
    rate = 0.2
    zeros = 0
    total = 0
    mask_sum = 0.0
    for k in range(200):
        mask_rng = np.random.default_rng(10_000 + k)
        _, tape = lstm_forward(params, X, dropout_rate=rate, rng=mask_rng)
        np.testing.assert_array_equal(tape.h_drop, tape.h[-1] * tape.mask)
        nonzero = tape.mask[tape.mask != 0.0]
        np.testing.assert_allclose(nonzero, 1.0 / (1.0 - rate), atol=1e-15)
        zeros += int((tape.mask == 0.0).sum())
        total += tape.mask.size
        mask_sum += float(tape.mask.sum())
    observed_rate = zeros / total
    # 40000 draws: 4 sigma around 0.2 is under 0.009
    assert abs(observed_rate - rate) < 0.009
    assert mask_sum / total == pytest.approx(1.0, abs=0.02)  # inverted scaling keeps E[mask] = 1


def test_dropout_requires_rng(rng):
    params = _random_lstm(rng)
    with pytest.raises(ValueError, match="rng"):
        lstm_forward(params, np.zeros((1, 6, 3)), dropout_rate=0.5)


def test_dropout_is_rng_deterministic(rng):
    params = _random_lstm(rng)
    X = rng.normal(size=(2, 6, 3))
    _, tape_a = lstm_forward(params, X, 0.3, np.random.default_rng(5))
    _, tape_b = lstm_forward(params, X, 0.3, np.random.default_rng(5))
    np.testing.assert_array_equal(tape_a.mask, tape_b.mask)


def test_dropout_gradients_still_match_finite_differences(rng):
    # with a FIXED mask the loss is deterministic, so FD still applies
    F, H = 3, 4
    params = _random_lstm(rng, F, H)
    X, y, w = _random_batch(rng, n=2, T=6, F=F)
    rate = 0.5

    def loss_at(vec):
        prm = LstmParams.from_vector(vec, F, H)
        loss, grads = lstm_loss_and_grads(prm, X, y, w, rate, np.random.default_rng(99))
        return loss, grads

    vec = params.to_vector()
    loss, grads = loss_at(vec)
    gvec = grads.to_vector()
    eps = 1e-5
    check = np.linspace(0, vec.size - 1, 25, dtype=int)
    for j in check:
        step = np.zeros_like(vec); step[j] = eps
        hi, _ = loss_at(vec + step)
        lo, _ = loss_at(vec - step)
        numeric = (hi - lo) / (2 * eps)
        assert abs(numeric - gvec[j]) < 1e-7 + 1e-4 * abs(gvec[j])
