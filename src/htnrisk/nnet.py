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


def _plan(X: Matrix, skip_padding: bool = True) -> tuple[np.ndarray, list[int]]:
    """(row order, per-step block widths) of the padding-free recurrence.

    Rows are sorted, stably, by their count of leading all-zero steps, so
    the rows that have started by step t lead the order. Until a row
    starts, its state is the one that t zero inputs give, which is the
    same for every such row, so step t computes the started rows and one
    stand-in row for all the others: the first row that has not started.
    A block never has one row unless n = 1 (see `lstm_logits`). With
    `skip_padding` off, every step computes every row in caller order.
    """
    n, T, _ = X.shape
    if not skip_padding:
        return np.arange(n), [n] * T
    started = np.any(X != 0.0, axis=2)  # a NaN counts as started, and raises
    lead = np.where(started.any(axis=1), started.argmax(axis=1), T)
    order = np.argsort(lead, kind="stable")
    counts = np.searchsorted(lead[order], np.arange(T), side="right")
    return order, [min(n, max(int(k) + 1, 2)) for k in counts]


def _recurrence(params: LstmParams, X: Matrix, tape: dict | None, skip_padding: bool = True):
    """h_T (n, H) of a batch in caller row order, computing only the
    blocks of `_plan`.

    State lives in (n, H) arrays in sorted order; a block grows by copying
    the stand-in row into the rows it takes on. The input projections of
    every computed cell, step-major, take one matmul. If `tape` is a dict,
    it receives what backward needs, one row per computed cell: the
    inputs, the gate activations, the state entering the cell and
    tanh(c_t), with the order and the widths.
    """
    n, T, _ = X.shape
    H = params.hidden
    order, widths = _plan(X, skip_padding)
    bounds = np.cumsum([0] + widths)
    X_cells = X[np.concatenate([order[:m] for m in widths]), np.repeat(np.arange(T), widths)]
    gates = X_cells @ params.W
    h, c = np.zeros((n, H)), np.zeros((n, H))
    if tape is None:
        tanh_c = np.empty((n, H))
    else:
        h_in, c_in, tanh_c = (np.empty((bounds[-1], H)) for _ in range(3))
        tape.update(order=order, widths=widths, X=X_cells, gates=gates,
                    h_in=h_in, c_in=c_in, tanh_c=tanh_c)
    width = widths[0]
    for t, m in enumerate(widths):
        if m > width:
            h[width:m] = h[width - 1]
            c[width:m] = c[width - 1]
        width = m
        cells = slice(bounds[t], bounds[t + 1])
        if tape is not None:
            h_in[cells] = h[:m]
            c_in[cells] = c[:m]
        tc = tanh_c[cells] if tape is not None else tanh_c[:m]
        _lstm_step(params, gates[cells], t, h[:m], c[:m], (c[:m], tc, h[:m]))
    if width < n:  # rows that never start end in the stand-in's state
        h[width:] = h[width - 1]
    h_last = np.empty_like(h)
    h_last[order] = h
    return h_last


@dataclass
class LstmTape:
    """What the forward pass keeps for backward. The per-cell arrays have
    one row per computed (row, step) cell of `_plan`, step-major."""

    order: np.ndarray  # (n,) caller row of each sorted row
    widths: list  # rows computed at each step
    X: Matrix  # (cells, F) inputs
    gates: Matrix  # (cells, 4H) gate activations, fused in GATES order
    h_in: Matrix; c_in: Matrix  # (cells, H) state entering the cell
    tanh_c: Matrix  # (cells, H)
    h_last: Matrix  # (n, H) final hidden state, caller order
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


def dropout_mask(rows: int, hidden: int, rate: float, rng: np.random.Generator | None) -> Matrix:
    """Inverted-dropout mask (rows, H): kept units are scaled by
    1/(1-rate), so the expected pre-dense activation matches the
    evaluation-mode forward; all ones at rate 0. Drawing two masks of r1
    and r2 rows in turn gives the doubles of one (r1 + r2)-row draw."""
    if rate == 0.0:
        return np.ones((rows, hidden))
    if rng is None:
        raise ValueError("dropout requires an rng")
    return (rng.random((rows, hidden)) >= rate) / (1.0 - rate)


def _taped_forward(params, X, mask, skip_padding=True) -> tuple[np.ndarray, LstmTape]:
    tape = {}
    h_last = _recurrence(params, X, tape, skip_padding)
    h_drop = h_last * mask
    logits = h_drop @ params.dense_w + params.dense_b
    p = sigmoid(logits)
    _require_finite("lstm output", logits)
    return p, LstmTape(**tape, h_last=h_last, mask=mask, h_drop=h_drop, logits=logits)


def lstm_forward(
    params: LstmParams,
    X: Matrix,
    dropout_rate: float = 0.0,
    rng: np.random.Generator | None = None,
    mask: Matrix | None = None,
) -> tuple[np.ndarray, LstmTape]:
    """Run the recurrence over a batch (n, T, F) -> probabilities (n,),
    keeping what backward needs.

    Each row's leading all-zero steps are skipped (see `_plan`). Inverted
    dropout (training only) is applied to the final hidden state only:
    `mask` is a drawn `dropout_mask`, or one is drawn from `rng` at
    `dropout_rate` (0 switches it off).
    """
    X = _batch(params, X)
    if mask is None:
        mask = dropout_mask(X.shape[0], params.hidden, dropout_rate, rng)
    return _taped_forward(params, X, mask)


#: Rows per chunk of the tape-free inference forward (`lstm_logits`).
CHUNK_ROWS = 256


def _chunks(n: int) -> list[range]:
    """Row ranges of CHUNK_ROWS rows; a 1-row remainder joins the chunk
    before it, so no chunk has 1 row unless n = 1."""
    starts = list(range(0, n, CHUNK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [range(start, stop) for start, stop in zip(starts, starts[1:] + [n])]


def lstm_logits(params: LstmParams, X: Matrix) -> np.ndarray:
    """Evaluation-mode logits (n,) without a tape.

    The padding-free recurrence runs over row chunks (see `_chunks`), so
    memory grows with n only by the (n, H) final hidden states; the dense
    head then runs once over all of them. The result is bitwise equal to
    `lstm_forward(params, X)[1].logits`: with OpenBLAS each row of X W and
    h U comes out the same in any batch of two rows or more, but a 1-row
    h U takes the matrix-vector kernel, and a head run per chunk would
    give a short last chunk other bits than the whole batch. So no chunk,
    and no block of a step, has one row unless n = 1.
    """
    X = _batch(params, X)
    h_last = np.empty((X.shape[0], params.hidden))
    for rows in _chunks(X.shape[0]):
        h_last[rows.start : rows.stop] = _recurrence(params, X[rows.start : rows.stop], None)
    logits = h_last @ params.dense_w + params.dense_b
    _require_finite("lstm output", logits)
    return logits


def _bptt_step(params: LstmParams, act: Matrix, tc: Matrix, c_prev: Matrix | None,
               dh: Matrix, dc: Matrix, dz: Matrix) -> None:
    """One step of backpropagation through time, in place: d loss / d gate
    pre-activations into dz (m, 4H), from dh = d loss / d h_t and dc =
    d loss / d c_t through the next step (dc_{t+1}*f_{t+1}), which is
    turned into the full d loss / d c_t. c_prev is c_{t-1}, None for c_0 = 0.

    Per step (elementwise products):
      dc_t = dc_{t+1}*f_{t+1} + dh_t*o_t*(1 - tanh(c_t)^2)
      dzi = dc*g*i*(1-i), dzf = dc*c_{t-1}*f*(1-f),
      dzo = dh*tanh(c_t)*o*(1-o), dzg = dc*i*(1-g^2)
    """
    H = params.hidden
    i, f, o, g = split_gates(act)
    dzi, dzf, dzo, dzg = split_gates(dz)
    dc += dh * o * (1.0 - tc * tc)
    np.multiply(dc, g, out=dzi)
    if c_prev is not None:
        np.multiply(dc, c_prev, out=dzf)
    else:
        dzf.fill(0.0)
    np.multiply(dh, tc, out=dzo)
    logistic = dz[:, : 3 * H]
    logistic *= act[:, : 3 * H]
    logistic *= 1.0 - act[:, : 3 * H]
    np.multiply(dc, i, out=dzg)
    dzg *= 1.0 - g * g


def _bptt(params: LstmParams, tape: LstmTape, dh_last: Matrix) -> np.ndarray:
    """Backpropagation through time over the tape's cells: d loss / d
    gate pre-activations (cells, 4H), from d loss / d h_T (n, H, caller
    order).

    Rows that a step did not compute held copies of its stand-in row, so
    before each step their (dh, dc) are added into the stand-in's: the
    step's Jacobian is the same for all of them. Then dh_{t-1} = dz U^T
    over the fused blocks, and dc_t*f_t carries to the step before.
    """
    dZ = np.empty_like(tape.gates)
    bounds = np.cumsum([0] + tape.widths)
    dh = dh_last[tape.order]
    dc = np.zeros_like(dh)
    for t in reversed(range(len(tape.widths))):
        m = tape.widths[t]
        if len(dh) > m:
            dh[m - 1] += dh[m:].sum(axis=0)
            dc[m - 1] += dc[m:].sum(axis=0)
            dh, dc = dh[:m], dc[:m]
        cells = slice(bounds[t], bounds[t + 1])
        c_prev = tape.c_in[cells] if t > 0 else None
        _bptt_step(params, tape.gates[cells], tape.tanh_c[cells], c_prev, dh, dc, dZ[cells])
        if t > 0:
            dh = dZ[cells] @ params.U.T
            dc *= split_gates(tape.gates[cells])[1]
    return dZ


def lstm_backward(params: LstmParams, tape: LstmTape, dlogits: np.ndarray) -> LstmParams:
    """Parameter gradients (same shapes as params) from d loss / d logit.

    After BPTT, each fused kernel gradient is one matmul over the computed
    cells: dW = sum x^T dz, dU = sum h_{t-1}^T dz, db = sum dz. The cells
    of step 0 enter with h = 0 and add nothing to dU.
    """
    dlogits = np.asarray(dlogits, dtype=np.float64)
    dZ = _bptt(params, tape, (dlogits[:, None] * params.dense_w[None, :]) * tape.mask)
    first = tape.widths[0]
    return LstmParams(
        W=tape.X.T @ dZ,
        U=tape.h_in[first:].T @ dZ[first:],
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
    mask: Matrix | None = None,
    batch_rows: int | None = None,
) -> tuple[float, LstmParams]:
    """Mean weighted BCE over a batch, with exact BPTT gradients.

    For a shard of a larger minibatch, `batch_rows` is that minibatch's
    row count n: the loss and gradients are then the shard's terms of
    the minibatch mean, sum over the shard / n, and `mask` its rows of
    the minibatch's dropout mask.
    """
    p, tape = lstm_forward(params, X, dropout_rate, rng, mask)
    n = p.shape[0] if batch_rows is None else batch_rows
    loss = float(weighted_bce(tape.logits, y, sample_weights).sum() / n)
    dlogits = np.asarray(sample_weights) * (p - np.asarray(y, dtype=np.float64)) / n
    grads = lstm_backward(params, tape, dlogits)
    _require_finite("lstm loss", np.array([loss]))
    return loss, grads


def lstm_input_gradients(params: LstmParams, X: Matrix) -> tuple[np.ndarray, np.ndarray]:
    """(probabilities, d probability / d input (n, T, F)), dropout disabled.

    The upstream seed is dp/dlogit = p(1-p), so the returned gradients
    are of the output probability itself, as attribution requires. Every
    cell is computed, padding included: BPTT adds the rows that have not
    started into one stand-in row, which leaves no input gradient of its
    own to each of them. Only the input gradient is formed: dX_t = dz_t
    W^T, in one matmul.
    """
    X = _batch(params, X)
    n, T, F = X.shape
    p, tape = _taped_forward(params, X, np.ones((n, params.hidden)), skip_padding=False)
    dZ = _bptt(params, tape, (p * (1.0 - p))[:, None] * params.dense_w[None, :])
    return p, (dZ @ params.W.T).reshape(T, n, F).transpose(1, 0, 2)


def lstm_integrated_gradients(params: LstmParams, x: Matrix, steps: int) -> Matrix:
    """Integrated gradients (T, F) of the output probability at one
    sequence x (T, F) against the all-zero baseline, with the midpoint
    rule at `steps` nodes: `attribution.integrated_gradients(
    lstm_scorer(params), x, 0, steps)` to rounding, in fewer operations.

    Every path point alpha_k x has the leading zero steps of x, so those
    steps run once, for all points. Past them, the points' input
    projections are alpha_k (x_t W), from one matmul. BPTT stops at the
    first non-zero step, since the attribution of a zero step is zero,
    and the mean of d loss / d gate pre-activations over the points is
    taken before the one matmul with W^T.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    x = _batch(params, x)[0]
    T, F = x.shape
    H = params.hidden
    attributions = np.zeros((T, F))
    started = np.flatnonzero(np.any(x != 0.0, axis=1))
    if started.size == 0:
        return attributions
    s = int(started[0])
    h, c, tc = np.zeros((1, H)), np.zeros((1, H)), np.empty((1, H))
    for t in range(s):
        _lstm_step(params, np.zeros((1, 4 * H)), t, h, c, (c, tc, h))
    alphas = (np.arange(1, steps + 1) - 0.5) / steps
    xW = x[s:] @ params.W
    gates = alphas[None, :, None] * xW[:, None, :]  # (T - s, steps, 4H)
    c_in = np.empty((T - s, steps, H))
    tanh_c = np.empty((T - s, steps, H))
    h, c = np.repeat(h, steps, axis=0), np.repeat(c, steps, axis=0)
    for j, t in enumerate(range(s, T)):
        c_in[j] = c
        _lstm_step(params, gates[j], t, h, c, (c, tanh_c[j], h))
    logits = h @ params.dense_w + params.dense_b
    _require_finite("lstm output", logits)
    p = sigmoid(logits)
    dh = (p * (1.0 - p))[:, None] * params.dense_w[None, :]
    dc = np.zeros((steps, H))
    dz = np.empty((steps, 4 * H))
    mean_dz = np.empty((T - s, 4 * H))
    for j in reversed(range(T - s)):
        c_prev = c_in[j] if s + j > 0 else None
        _bptt_step(params, gates[j], tanh_c[j], c_prev, dh, dc, dz)
        mean_dz[j] = dz.mean(axis=0)
        if j > 0:
            dh = dz @ params.U.T
            dc *= split_gates(gates[j])[1]
    attributions[s:] = x[s:] * (mean_dz @ params.W.T)
    return attributions
