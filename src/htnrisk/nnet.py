"""From-scratch numerical core: logistic regression and a single-layer LSTM.

Forward passes, hand-derived backward passes (backpropagation through
time for the LSTM), weighted binary cross-entropy evaluated in log-space
from logits, and inverted dropout on the final hidden state. The loss
functions return that data term only: the training loop adds the L1
penalty on the input kernel, the block that leads each model's flat
parameter vector. Everything is 64-bit numpy; a non-finite value at any
point raises instead of propagating.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: "Matrix" throughout this package is a row-major float64 numpy array.
Matrix = np.ndarray


class NumericalError(Exception):
    """Non-finite value produced where the contract requires finiteness."""


def _require_finite(name: str, *arrays: np.ndarray) -> None:
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise NumericalError(f"non-finite values in {name}")


def sigmoid(z):
    """Numerically stable logistic function, elementwise.

    exp only ever sees -|z|, so it cannot overflow: 1/(1+e^-z) for z >= 0
    and e^z/(1+e^z) below, selected without branching.
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    out = np.where(z >= 0, 1.0, e) / (1.0 + e)
    return float(out) if out.ndim == 0 else out


def softplus(z):
    """log(1 + e^z) without overflow."""
    return np.logaddexp(0.0, z)


def weighted_bce(logits, labels, weights):
    """Per-sample weighted binary cross-entropy, from logits.

    Equals weight * [-y log p - (1-y) log(1-p)] with p = sigmoid(logit),
    but evaluated as y*softplus(-z) + (1-y)*softplus(z) so extreme logits
    lose no precision to cancellation.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return np.asarray(weights) * (
        labels * softplus(-logits) + (1.0 - labels) * softplus(logits)
    )


# -- logistic regression ------------------------------------------------------

@dataclass
class LrParams:
    """Dense sigmoid classifier: probability = sigmoid(w.x + b)."""

    w: Matrix  # (F,)
    b: float

    def to_vector(self) -> np.ndarray:
        return np.concatenate([self.w, [self.b]])

    @classmethod
    def from_vector(cls, vec: np.ndarray, n_features: int) -> "LrParams":
        return cls(w=vec[:n_features], b=float(vec[n_features]))


def init_lr_params(n_features: int) -> LrParams:
    # Zero start: the loss is convex, so no symmetry needs breaking.
    return LrParams(w=np.zeros(n_features), b=0.0)


def lr_logits(params: LrParams, X: Matrix) -> np.ndarray:
    X = np.atleast_2d(X)
    if X.shape[1] != params.w.shape[0]:
        raise ValueError(f"expected {params.w.shape[0]} features, got {X.shape[1]}")
    return X @ params.w + params.b


def lr_loss_and_grads(
    params: LrParams,
    X: Matrix,
    y: np.ndarray,
    sample_weights: np.ndarray,
) -> tuple[float, LrParams]:
    """Mean weighted BCE, with exact analytic gradients."""
    X = np.atleast_2d(X)
    n = X.shape[0]
    z = lr_logits(params, X)
    p = sigmoid(z)
    loss = float(np.mean(weighted_bce(z, y, sample_weights)))
    dz = sample_weights * (p - y) / n
    grad_w = X.T @ dz
    grad_b = float(dz.sum())
    _require_finite("lr gradients", grad_w, np.array([grad_b, loss]))
    return loss, LrParams(w=grad_w, b=grad_b)


# -- LSTM ----------------------------------------------------------------------

#: Order of the gate blocks along the last axis of the fused W, U and b.
GATES = "ifog"


def split_gates(fused: np.ndarray) -> list[np.ndarray]:
    """Views of the four gate blocks of a fused (..., 4H) array, in GATES order."""
    H = fused.shape[-1] // len(GATES)
    return [fused[..., k * H : (k + 1) * H] for k in range(len(GATES))]


@dataclass
class LstmParams:
    """Single-layer LSTM with a dense sigmoid head on the final hidden state.

    Gates i, f, o use the logistic function, candidate g uses tanh:
    c_t = f*c_{t-1} + i*g, h_t = o*tanh(c_t), with c_0 = h_0 = 0. The four
    gates are fused along the last axis in GATES order, so column block k
    of W, U and b belongs to gate GATES[k].
    """

    W: Matrix  # input kernel (F, 4H)
    U: Matrix  # recurrent kernel (H, 4H)
    b: Matrix  # bias (4H,)
    dense_w: Matrix  # (H,)
    dense_b: float

    @property
    def n_features(self) -> int:
        return self.W.shape[0]

    @property
    def hidden(self) -> int:
        return self.U.shape[0]

    def to_vector(self) -> np.ndarray:
        return np.concatenate(
            [self.W.ravel(), self.U.ravel(), self.b, self.dense_w, [self.dense_b]]
        )

    @classmethod
    def from_vector(cls, vec: np.ndarray, n_features: int, hidden: int) -> "LstmParams":
        width = 4 * hidden
        u_start = n_features * width
        b_start = u_start + hidden * width
        dense_start = b_start + width
        return cls(
            W=vec[:u_start].reshape(n_features, width),
            U=vec[u_start:b_start].reshape(hidden, width),
            b=vec[b_start:dense_start],
            dense_w=vec[dense_start : dense_start + hidden],
            dense_b=float(vec[dense_start + hidden]),
        )


def init_lstm_params(n_features: int, hidden: int, rng: np.random.Generator) -> LstmParams:
    """Uniform(-s, s) with s = 1/sqrt(H); forget-gate bias fixed at 1.

    Blocks are drawn one gate at a time in GATES order: the four input
    kernels, then the four recurrent kernels, then the biases (the forget
    bias consumes no draws), then dense_w and dense_b. That is the order of
    the per-gate model keys, so a given seed always produces the same
    initialization.
    """
    s = 1.0 / np.sqrt(hidden)
    W = np.concatenate([rng.uniform(-s, s, size=(n_features, hidden)) for _ in GATES], axis=1)
    U = np.concatenate([rng.uniform(-s, s, size=(hidden, hidden)) for _ in GATES], axis=1)
    b = np.concatenate(
        [np.ones(hidden) if gate == "f" else rng.uniform(-s, s, size=hidden) for gate in GATES]
    )
    dense_w = rng.uniform(-s, s, size=hidden)
    return LstmParams(W=W, U=U, b=b, dense_w=dense_w, dense_b=float(rng.uniform(-s, s)))


@dataclass
class LstmTape:
    """Per-timestep activations cached by the forward pass for backward."""

    X: Matrix  # (T, n, F) time-major inputs
    gates: Matrix  # (T, n, 4H) gate activations, fused in GATES order
    c: Matrix; tanh_c: Matrix; h: Matrix  # (T, n, H)
    mask: Matrix  # (n, H) inverted-dropout mask (ones when disabled)
    h_drop: Matrix  # (n, H)
    logits: np.ndarray  # (n,)


def _activate_gates(z: Matrix, hidden: int) -> None:
    """Gate pre-activations (n, 4H) -> activations, in place.

    One tanh covers all four blocks; the logistic gates i, f, o use
    sigmoid(z) = 0.5*(1 + tanh(z/2)), exact in absolute terms to rounding.
    """
    logistic = z[:, : 3 * hidden]
    logistic *= 0.5
    np.tanh(z, out=z)
    logistic += 1.0
    logistic *= 0.5


def _lstm_step(params: LstmParams, z: Matrix, t: int, h: Matrix, c: Matrix, out) -> None:
    """Step t of the recurrence, in place.

    z (n, 4H) holds x_t W on entry and the gate activations on exit; h and
    c are h_{t-1} and c_{t-1}. c_t, tanh(c_t) and h_t are written into the
    three (n, H) arrays of `out`, which may be c and h themselves.
    """
    if t > 0:  # h_0 = 0 adds nothing
        z += h @ params.U
    z += params.b
    _activate_gates(z, params.hidden)
    i, f, o, g = split_gates(z)
    c_t, tc, h_t = out
    np.multiply(f, c, out=c_t)
    c_t += i * g
    np.tanh(c_t, out=tc)
    np.multiply(o, tc, out=h_t)
    _require_finite(f"lstm activations at step {t}", c_t, h_t)


def _batch(params: LstmParams, X: Matrix) -> Matrix:
    """X as a float64 (n, T, F) batch; one (T, F) sequence is a batch of one."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 2:
        X = X[None, :, :]
    if X.shape[2] != params.n_features:
        raise ValueError(f"expected {params.n_features} features, got {X.shape[2]}")
    return X


def _input_projection(params: LstmParams, X: Matrix) -> tuple[Matrix, Matrix]:
    """(time-major X (T, n, F), x_t W of all T steps (T, n, 4H)) in one matmul."""
    n, T, F = X.shape
    X = np.ascontiguousarray(X.transpose(1, 0, 2))
    return X, (X.reshape(T * n, F) @ params.W).reshape(T, n, 4 * params.hidden)


def lstm_forward(
    params: LstmParams,
    X: Matrix,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, LstmTape]:
    """Run the recurrence over a batch (n, T, F) -> probabilities (n,),
    keeping every step's activations for backward.

    The input projections of all T steps take one matmul; each step then
    adds its recurrent term and the bias to its slice and turns the slice
    into gate activations in place. Inverted dropout at `dropout_rate`
    (training only; 0 switches it off) is applied to the final hidden
    state only: kept units are scaled by 1/(1-rate) so the expected
    pre-dense activation matches the evaluation-mode forward.
    """
    X = _batch(params, X)
    n, T, _ = X.shape
    H = params.hidden
    X, gates = _input_projection(params, X)
    c_s = np.empty((T, n, H)); tc_s = np.empty((T, n, H)); h_s = np.empty((T, n, H))
    h = c = np.zeros((n, H))
    for t in range(T):
        _lstm_step(params, gates[t], t, h, c, (c_s[t], tc_s[t], h_s[t]))
        c, h = c_s[t], h_s[t]
    if dropout_rate > 0.0:
        if rng is None:
            raise ValueError("dropout requires an rng")
        mask = (rng.random((n, H)) >= dropout_rate) / (1.0 - dropout_rate)
    else:
        mask = np.ones((n, H))
    h_drop = h * mask
    logits = h_drop @ params.dense_w + params.dense_b
    p = sigmoid(logits)
    _require_finite("lstm output", logits)
    return p, LstmTape(
        X=X, gates=gates, c=c_s, tanh_c=tc_s, h=h_s,
        mask=mask, h_drop=h_drop, logits=logits,
    )


#: Rows per chunk of the tape-free inference forward (`lstm_logits`).
CHUNK_ROWS = 256


def _chunks(n: int) -> list[range]:
    """Row ranges of CHUNK_ROWS rows; a 1-row remainder joins the chunk
    before it, so no chunk has 1 row unless n = 1."""
    starts = list(range(0, n, CHUNK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [range(start, stop) for start, stop in zip(starts, starts[1:] + [n])]


def _final_hidden(params: LstmParams, X: Matrix) -> Matrix:
    """h_T (m, H) of a batch, through the steps of `lstm_forward`, but
    overwriting one set of state arrays instead of keeping a tape."""
    _, gates = _input_projection(params, X)
    m, H = X.shape[0], params.hidden
    h, c, tc = np.zeros((m, H)), np.zeros((m, H)), np.empty((m, H))
    for t, z in enumerate(gates):
        _lstm_step(params, z, t, h, c, (c, tc, h))
    return h


def lstm_logits(params: LstmParams, X: Matrix) -> np.ndarray:
    """Evaluation-mode logits (n,) without a tape.

    The recurrence runs over row chunks (see `_chunks`), so memory grows
    with n only by the (n, H) final hidden states; the dense head then
    runs once over all of them. The result is bitwise equal to
    `lstm_forward(params, X)[1].logits`: with OpenBLAS each row of X W and
    h U comes out the same in any batch of two rows or more, but a 1-row
    h U takes the matrix-vector kernel, and a head run per chunk would
    give a short last chunk other bits than the whole batch.
    """
    X = _batch(params, X)
    h_last = np.empty((X.shape[0], params.hidden))
    for rows in _chunks(X.shape[0]):
        h_last[rows.start : rows.stop] = _final_hidden(params, X[rows.start : rows.stop])
    logits = h_last @ params.dense_w + params.dense_b
    _require_finite("lstm output", logits)
    return logits


def _bptt(params: LstmParams, tape: LstmTape, dlogits: np.ndarray) -> np.ndarray:
    """Backpropagation through time: d loss / d gate pre-activations,
    fused like the tape's gates, (T, n, 4H), from d loss / d logit.

    Derivation sketch, per timestep t (elementwise products):
      dh_t collects the head path (t = T only) and the recurrent path;
      dc_t = dc_{t+1}*f_{t+1} + dh_t*o_t*(1 - tanh(c_t)^2)
      d(gate pre-activations): dzi = dc*g*i*(1-i), dzf = dc*c_{t-1}*f*(1-f),
        dzo = dh*tanh(c_t)*o*(1-o), dzg = dc*i*(1-g^2)
      dh_{t-1} = dz U^T over the fused blocks.
    """
    T, n, _ = tape.gates.shape
    H = params.hidden
    dZ = np.empty_like(tape.gates)
    dh = (dlogits[:, None] * params.dense_w[None, :]) * tape.mask
    dc = np.zeros((n, H))  # holds dc_{t+1}*f_{t+1} on entry to step t
    for t in reversed(range(T)):
        act = tape.gates[t]
        i, f, o, g = split_gates(act)
        tc = tape.tanh_c[t]
        dz = dZ[t]
        dzi, dzf, dzo, dzg = split_gates(dz)
        dc += dh * o * (1.0 - tc * tc)
        np.multiply(dc, g, out=dzi)
        if t > 0:
            np.multiply(dc, tape.c[t - 1], out=dzf)
        else:  # c_0 = 0
            dzf.fill(0.0)
        np.multiply(dh, tc, out=dzo)
        logistic = dz[:, : 3 * H]
        logistic *= act[:, : 3 * H]
        logistic *= 1.0 - act[:, : 3 * H]
        np.multiply(dc, i, out=dzg)
        dzg *= 1.0 - g * g
        if t > 0:
            dh = dz @ params.U.T
            dc *= f
    return dZ


def lstm_backward(params: LstmParams, tape: LstmTape, dlogits: np.ndarray) -> LstmParams:
    """Parameter gradients (same shapes as params) from d loss / d logit.

    After BPTT, each fused kernel gradient is one matmul over all steps:
    dW = sum_t x_t^T dz_t, dU = sum_t h_{t-1}^T dz_t, db = sum_t sum(dz_t).
    """
    dlogits = np.asarray(dlogits, dtype=np.float64)
    dZ = _bptt(params, tape, dlogits)
    T, n, F = tape.X.shape
    H = params.hidden
    dZ = dZ.reshape(T * n, 4 * H)
    return LstmParams(
        W=tape.X.reshape(T * n, F).T @ dZ,
        U=tape.h[:-1].reshape((T - 1) * n, H).T @ dZ[n:],  # h_0 = 0
        b=dZ.sum(axis=0),
        dense_w=tape.h_drop.T @ dlogits,
        dense_b=float(dlogits.sum()),
    )


def lstm_loss_and_grads(
    params: LstmParams,
    X: Matrix,
    y: np.ndarray,
    sample_weights: np.ndarray,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
) -> tuple[float, LstmParams]:
    """Mean weighted BCE over a batch, with exact BPTT gradients."""
    p, tape = lstm_forward(params, X, dropout_rate, rng)
    n = p.shape[0]
    loss = float(np.mean(weighted_bce(tape.logits, y, sample_weights)))
    dlogits = np.asarray(sample_weights) * (p - np.asarray(y, dtype=np.float64)) / n
    grads = lstm_backward(params, tape, dlogits)
    _require_finite("lstm loss", np.array([loss]))
    return loss, grads


def lstm_input_gradients(params: LstmParams, X: Matrix) -> tuple[np.ndarray, np.ndarray]:
    """(probabilities, d probability / d input (n, T, F)), dropout disabled.

    The upstream seed is dp/dlogit = p(1-p), so the returned gradients
    are of the output probability itself, as attribution requires. Only
    the input gradient is formed: dX_t = dz_t W^T, in one matmul.
    """
    p, tape = lstm_forward(params, X)
    dZ = _bptt(params, tape, p * (1.0 - p))
    T, n, _ = dZ.shape
    dX = (dZ.reshape(T * n, -1) @ params.W.T).reshape(T, n, params.n_features)
    return p, dX.transpose(1, 0, 2)
