"""Training loop: optimizers, class weighting, early stopping, grid search.

Both optimizers operate on flat parameter vectors. The epoch loop
shuffles with a per-epoch derived seed, steps over minibatches, then
monitors the weighted validation loss; training stops as soon as the
epoch-over-epoch improvement is at most 1e-7, or at the epoch cap.

The objective is written once here for both model kinds: the mean
class-weighted BCE that `nnet` computes from the logits, plus an L1 term
on the input kernel. That kernel leads the flat vector (`w` of the LR
model, `W.ravel()` of the LSTM), so the term and its subgradient are one
slice of the vector, added once per minibatch and to the validation loss.

An LSTM minibatch is computed as fixed shards of SHARD_ROWS rows at one
BLAS thread, some of them on persistent workers, one per extra usable
core up to the shard count (`_sharded_lstm`).
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace

import numpy as np

from . import nnet
from .artifacts import (
    INTEGER, LIST, NUMBER, OBJECT, STRING, DataError, derive_seed, format_number, require,
    require_each, require_format, require_keys, write_csv,
)
from .featurize import schema_from_dict, schema_to_dict
from .nnet import (
    GATES,
    LrParams,
    LstmParams,
    NumericalError,
    dropout_mask,
    init_lr_params,
    init_lstm_params,
    lr_logits,
    lr_loss_and_grads,
    lstm_logits,
    lstm_loss_and_grads,
    split_gates,
    weighted_bce,
)
from .parallel import blas_at_one_thread, usable_cores, workers

EARLY_STOP_DELTA = 1e-7
LR_MAX_EPOCHS = 500
LSTM_MAX_EPOCHS = 250

#: Hyperparameter grids searched over the validation split; rate grids
#: run over the decade points of their ranges.
SEARCH_GRIDS = {
    "learning_rate": (1e-5, 1e-4, 1e-3),
    "l1_lambda": (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1),
    "hidden_size": (6, 12, 80, 120),
    "batch_size": (128, 256, 512, 1024),
}


@dataclass
class TrainConfig:
    model_kind: str  # "lr" | "lstm"
    learning_rate: float = 1e-3
    l1_lambda: float = 1e-3
    hidden_size: int = 120  # ignored by the lr model
    batch_size: int = 256
    max_epochs: int = LR_MAX_EPOCHS
    early_stop_delta: float = EARLY_STOP_DELTA
    dropout_rate: float = 0.0
    optimizer: str = "adam"  # "adam" | "rmsprop"
    seed: int = 0
    # Optional two-phase schedule: first half of the epochs with Adam at
    # 1e-3, second half at 1e-5 with fresh optimizer state.
    two_phase_adam: bool = False

    def __post_init__(self):
        if self.model_kind not in ("lr", "lstm"):
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        if self.optimizer not in ("adam", "rmsprop"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.learning_rate <= 0 or self.batch_size <= 0 or self.max_epochs <= 0:
            raise ValueError("learning_rate, batch_size, and max_epochs must be positive")
        if self.hidden_size < 1:
            raise ValueError(f"hidden_size must be at least 1, got {self.hidden_size}")
        if self.l1_lambda < 0 or not 0 <= self.dropout_rate < 1:
            raise ValueError("l1_lambda must be >= 0 and dropout_rate in [0, 1)")


def default_config(model_kind: str) -> TrainConfig:
    """The optimized published setups: LR/Adam is the dataclass defaults,
    and LSTM/RMSProp differs from them in four fields."""
    if model_kind == "lr":
        return TrainConfig(model_kind="lr")
    return TrainConfig(
        model_kind="lstm",
        l1_lambda=1e-5,
        max_epochs=LSTM_MAX_EPOCHS,
        dropout_rate=0.2,
        optimizer="rmsprop",
    )


def model_inputs(model_kind: str, samples, schema) -> tuple[np.ndarray, np.ndarray]:
    """(X, y) for one model kind: flat rows for lr, (n, 6, F) sequences
    for lstm."""
    # Imported per call, so wrappers patched onto featurize (perfbench/tracing.py) run.
    from .featurize import featurize_lr, featurize_sequences

    build = featurize_lr if model_kind == "lr" else featurize_sequences
    return build(samples, schema)


# -- class weighting -----------------------------------------------------------

def class_weights(labels: np.ndarray) -> dict[int, float]:
    """Inverse-frequency weights, normalized so a balanced set gives 1.

    w_c = N / (2 * N_c); the weighted mean loss then keeps the scale of
    the unweighted loss while each class contributes equally.
    """
    labels = np.asarray(labels)
    n = len(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos == 0 or n_neg == 0:
        raise DataError("class weights need both classes present")
    return {0: n / (2.0 * n_neg), 1: n / (2.0 * n_pos)}


def sample_weights(labels: np.ndarray, weights: dict[int, float]) -> np.ndarray:
    labels = np.asarray(labels)
    return np.where(labels == 1, weights[1], weights[0]).astype(np.float64)


# -- optimizers ----------------------------------------------------------------

@dataclass
class AdamState:
    """Bias-corrected Adam accumulators over a flat parameter vector."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_size(cls, size: int) -> "AdamState":
        return cls(m=np.zeros(size), v=np.zeros(size))


def adam_step(params: np.ndarray, grads: np.ndarray, state: AdamState, lr: float) -> np.ndarray:
    """One Adam update; mutates the accumulator state, returns new params."""
    if not np.all(np.isfinite(grads)):
        raise NumericalError("non-finite gradient in adam_step")
    state.t += 1
    state.m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    m_hat = state.m / (1.0 - state.beta1**state.t)
    v_hat = state.v / (1.0 - state.beta2**state.t)
    return params - lr * m_hat / (np.sqrt(v_hat) + state.eps)


@dataclass
class RmspropState:
    """Running mean of squared gradients over a flat parameter vector."""

    sq: np.ndarray
    rho: float = 0.9
    eps: float = 1e-8

    @classmethod
    def for_size(cls, size: int) -> "RmspropState":
        return cls(sq=np.zeros(size))


def rmsprop_step(
    params: np.ndarray, grads: np.ndarray, state: RmspropState, lr: float
) -> np.ndarray:
    """One RMSProp update: params - lr * g / sqrt(E[g^2] + eps)."""
    if not np.all(np.isfinite(grads)):
        raise NumericalError("non-finite gradient in rmsprop_step")
    state.sq = state.rho * state.sq + (1.0 - state.rho) * grads * grads
    return params - lr * grads / np.sqrt(state.sq + state.eps)


def _make_optimizer(name: str, size: int):
    if name == "adam":
        state = AdamState.for_size(size)
        return lambda p, g, lr: adam_step(p, g, state, lr)
    state = RmspropState.for_size(size)
    return lambda p, g, lr: rmsprop_step(p, g, state, lr)


# -- training loop -------------------------------------------------------------

@dataclass
class EpochStat:
    epoch: int
    train_loss: float
    val_loss: float
    seconds: float


@dataclass
class TrainLog:
    epochs: list[EpochStat] = field(default_factory=list)
    stop_reason: str = ""

    def to_csv(self, path) -> None:
        rows = (
            [e.epoch, format_number(e.train_loss), format_number(e.val_loss), f"{e.seconds:.3f}"]
            for e in self.epochs
        )
        write_csv(path, ["epoch", "train_loss", "val_loss", "seconds"], rows)


class TrainingDiverged(NumericalError):
    """Validation loss became non-finite; carries the partial log."""

    def __init__(self, message: str, log: TrainLog):
        super().__init__(message)
        self.log = log


#: Rows per gradient shard of an LSTM minibatch.
SHARD_ROWS = 128


@contextmanager
def _sharded_lstm(config: TrainConfig, X: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Yield loss_and_grads(params, vec, batch, rng) -> (loss, gradient
    vector) of one LSTM minibatch, `batch` being its rows of X.

    The minibatch runs as shards of SHARD_ROWS rows in row order, and its
    dropout mask is drawn from `rng` as one draw, in shard order. Each
    shard's loss and gradients are its terms of the minibatch mean, over
    the minibatch's n (`lstm_loss_and_grads`' batch_rows), and they are
    added here in shard order. The body runs at one BLAS thread, and
    shard j of a minibatch runs in process j mod P: the calling process
    and one persistent worker (`parallel.workers`) per extra usable core,
    but no more workers than a minibatch has other shards. So the bytes
    of a model depend neither on the process count nor on the BLAS
    thread count. Where that count cannot be set, every shard runs here,
    serially, with BLAS as it is.
    """
    H = config.hidden_size
    meta = (X.shape[2], H)

    def shard(params, rows, mask, n):
        loss, grads = lstm_loss_and_grads(
            params, X[rows], y[rows], w[rows], mask=mask, batch_rows=n
        )
        return loss, grads.to_vector()

    def serve(request):
        vec, n, *pieces = request
        params = LstmParams.from_vector(np.frombuffer(vec), *meta)
        n = int(np.frombuffer(n, dtype=np.int64)[0])
        out = []
        for rows, mask in zip(pieces[::2], pieces[1::2]):
            rows = np.frombuffer(rows, dtype=np.int64)
            loss, grad = shard(params, rows, np.frombuffer(mask).reshape(len(rows), H), n)
            out += [np.array([loss]), grad]
        return out

    shards_per_batch = -(-min(config.batch_size, len(y)) // SHARD_ROWS)
    with blas_at_one_thread() as capped:
        count = min(usable_cores(), shards_per_batch) - 1 if capped else 0
        with workers(count, serve, "computing gradient shards") as pool:
            processes = 1 + len(pool)

            def loss_and_grads(params, vec, batch, rng):
                n = len(batch)
                mask = dropout_mask(n, H, config.dropout_rate, rng)
                shards = [slice(start, start + SHARD_ROWS) for start in range(0, n, SHARD_ROWS)]
                owners = list(zip(pool, range(1, len(shards))))
                for worker, first in owners:
                    request = [vec, np.array([n])]
                    for rows in shards[first::processes]:
                        request += [batch[rows], mask[rows]]
                    worker.send(request)
                parts = [None] * len(shards)
                for j in range(0, len(shards), processes):
                    parts[j] = shard(params, batch[shards[j]], mask[shards[j]], n)
                for worker, first in owners:
                    reply = worker.receive()
                    for j, loss, grad in zip(range(first, len(shards), processes),
                                             reply[::2], reply[1::2]):
                        parts[j] = float(np.frombuffer(loss)[0]), np.frombuffer(grad)
                loss, grad_vec = parts[0]  # the calling process's own new array
                for part_loss, part_grad in parts[1:]:
                    loss += part_loss
                    grad_vec += part_grad
                return loss, grad_vec

            yield loss_and_grads


def train_model(
    config: TrainConfig,
    train_data: tuple[np.ndarray, np.ndarray],
    val_data: tuple[np.ndarray, np.ndarray],
):
    """Fit one model; returns (params, TrainLog).

    `train_data`/`val_data` are (X, y): X is (n, F) for the lr model and
    (n, 6, F) for the lstm. Class weights come from the training labels
    and also weight the monitored validation loss. The L1 term at
    `l1_lambda` covers the input kernel only: biases, the LSTM's recurrent
    kernel and its dense head are exempt. Its subgradient takes sign(0) = 0.
    The LSTM's epochs, validation included, run inside `_sharded_lstm`.
    """
    X_train, y_train = train_data
    X_val, y_val = val_data
    if len(y_train) == 0 or len(y_val) == 0:
        raise DataError("training and validation splits must be non-empty")
    weights = class_weights(y_train)
    w_train = sample_weights(y_train, weights)
    w_val = sample_weights(y_val, weights)

    if config.model_kind == "lr":
        params = init_lr_params(X_train.shape[1])
        meta = (X_train.shape[1],)
        n_kernel = X_train.shape[1]
        from_vector = LrParams.from_vector

        def lr_batch(prm, vec, batch, rng):
            loss, grads = lr_loss_and_grads(prm, X_train[batch], y_train[batch], w_train[batch])
            return loss, grads.to_vector()

        batches = nullcontext(lr_batch)
    else:
        init_rng = np.random.default_rng(derive_seed(config.seed, "init"))
        params = init_lstm_params(X_train.shape[2], config.hidden_size, init_rng)
        meta = (X_train.shape[2], config.hidden_size)
        n_kernel = X_train.shape[2] * 4 * config.hidden_size
        from_vector = LstmParams.from_vector
        batches = _sharded_lstm(config, X_train, y_train, w_train)
    lam = config.l1_lambda
    l1_penalty = lambda vec: lam * float(np.abs(vec[:n_kernel]).sum())

    if config.two_phase_adam:
        phases = [
            ("adam", 1e-3, config.max_epochs // 2),
            ("adam", 1e-5, config.max_epochs - config.max_epochs // 2),
        ]
    else:
        phases = [(config.optimizer, config.learning_rate, config.max_epochs)]

    log = TrainLog()
    n = len(y_train)
    epoch = 0
    with batches as loss_and_grads:
        for optimizer_name, lr, phase_epochs in phases:
            vec = params.to_vector()
            step = _make_optimizer(optimizer_name, vec.size)
            prev_val = None
            for _ in range(phase_epochs):
                epoch += 1
                started = time.perf_counter()
                order = np.random.default_rng(
                    derive_seed(config.seed, f"shuffle:{epoch}")
                ).permutation(n)
                dropout_rng = np.random.default_rng(derive_seed(config.seed, f"dropout:{epoch}"))
                total = 0.0
                for start in range(0, n, config.batch_size):
                    batch = order[start : start + config.batch_size]
                    loss, grad_vec = loss_and_grads(params, vec, batch, dropout_rng)
                    loss += l1_penalty(vec)
                    grad_vec[:n_kernel] += lam * np.sign(vec[:n_kernel])
                    vec = step(vec, grad_vec, lr)
                    params = from_vector(vec, *meta)
                    total += loss * len(batch)
                train_loss = total / n
                val_logits = _logits(config.model_kind, params, X_val)
                val_loss = float(np.mean(weighted_bce(val_logits, y_val, w_val))) + l1_penalty(vec)
                log.epochs.append(
                    EpochStat(epoch, train_loss, val_loss, time.perf_counter() - started)
                )
                if not np.isfinite(val_loss):
                    log.stop_reason = "diverged"
                    raise TrainingDiverged(f"validation loss diverged at epoch {epoch}", log)
                if prev_val is not None and prev_val - val_loss <= config.early_stop_delta:
                    log.stop_reason = "early_stop"
                    return params, log
                prev_val = val_loss
    log.stop_reason = "max_epochs"
    return params, log


def _logits(model_kind: str, params, X: np.ndarray) -> np.ndarray:
    """Evaluation-mode logits (n,): dropout off, and no tape for the LSTM."""
    return (lr_logits if model_kind == "lr" else lstm_logits)(params, X)


def predict_proba(model_kind: str, params, X: np.ndarray) -> np.ndarray:
    # nnet.sigmoid is looked up per call, so a wrapper patched onto nnet
    # (perfbench/tracing.py) sees scoring too.
    return nnet.sigmoid(_logits(model_kind, params, X))


# -- grid search ----------------------------------------------------------------

@dataclass
class GridResult:
    config: TrainConfig
    val_auroc: float


def grid_search(
    base_config: TrainConfig,
    train_data: tuple[np.ndarray, np.ndarray],
    val_data: tuple[np.ndarray, np.ndarray],
    grids: dict | None = None,
) -> tuple[TrainConfig, LrParams | LstmParams, TrainLog, list[GridResult]]:
    """Exhaustive search over the hyperparameter cross-product.

    Every candidate trains to completion and is scored by validation
    AUROC; ties go to the smaller hidden size, then the smaller l1
    penalty, then enumeration order. Returns (best config, its params,
    its TrainLog, all results): training is deterministic, so the
    winner's run is the model a fresh run of its config would produce.
    """
    from .evaluate import auroc

    grids = dict(SEARCH_GRIDS if grids is None else grids)
    if not all(grids.get(key) for key in grids):
        raise ValueError("grid values must be non-empty")
    hidden_sizes = grids.get("hidden_size", (base_config.hidden_size,))
    if base_config.model_kind == "lr":
        hidden_sizes = (base_config.hidden_size,)  # no hidden layer to size
    results: list[GridResult] = []
    best_key = best = None
    for lr in grids.get("learning_rate", (base_config.learning_rate,)):
        for lam in grids.get("l1_lambda", (base_config.l1_lambda,)):
            for hidden in hidden_sizes:
                for batch in grids.get("batch_size", (base_config.batch_size,)):
                    config = replace(
                        base_config,
                        learning_rate=float(lr),
                        l1_lambda=float(lam),
                        hidden_size=int(hidden),
                        batch_size=int(batch),
                    )
                    params, log = train_model(config, train_data, val_data)
                    scores = predict_proba(config.model_kind, params, val_data[0])
                    results.append(GridResult(config, auroc(val_data[1], scores)))
                    key = (-results[-1].val_auroc, config.hidden_size, config.l1_lambda)
                    if best_key is None or key < best_key:  # strict: earlier wins ties
                        best_key, best = key, (config, params, log)
    return (*best, results)


# -- model artifact --------------------------------------------------------------

MODEL_FORMAT = "htnrisk-model/1"


def model_to_dict(model_kind: str, params, schema, training: dict) -> dict:
    """Versioned model artifact: weights at full precision plus the
    feature schema, so inference needs no other files. LSTM weights are
    stored per gate (W_i ... b_g), split from the fused blocks."""
    if model_kind == "lr":
        shapes = {"n_features": int(params.w.shape[0])}
        weights = {"w": params.w.tolist(), "b": params.b}
    else:
        shapes = {"n_features": params.n_features, "hidden": params.hidden}
        weights = {"dense_w": params.dense_w.tolist(), "dense_b": params.dense_b}
        for kind in ("W", "U", "b"):
            for gate, block in zip(GATES, split_gates(getattr(params, kind))):
                weights[f"{kind}_{gate}"] = block.tolist()
    return {
        "format": MODEL_FORMAT,
        "kind": model_kind,
        "shapes": shapes,
        "weights": weights,
        "schema": schema_to_dict(schema),
        "training": training,
    }


def _weight(weights: dict, name: str, shape: tuple) -> np.ndarray | float:
    """One stored weight, checked against its shape; entries are numbered row-major."""
    value = require(weights, name, LIST if shape else NUMBER, "model.weights")
    array = np.array(value, dtype=object)
    if array.shape != shape:
        raise DataError(f"model weight {name} has shape {array.shape}, expected {shape}")
    require_each(array.ravel().tolist(), NUMBER, f"model.weights.{name}")
    return array.astype(np.float64) if shape else float(value)


#: The JSON types of the keys of a model file, and of its shapes by model kind.
_MODEL_KINDS = {"kind": STRING, "shapes": OBJECT, "weights": OBJECT, "schema": OBJECT,
                "training": OBJECT}
_SHAPE_KINDS = {"lr": {"n_features": INTEGER}, "lstm": {"n_features": INTEGER, "hidden": INTEGER}}


def model_from_dict(data: dict):
    """Inverse of model_to_dict: (kind, params, schema, training).

    Every weight is checked against the recorded shapes before the LSTM
    gates are joined, and the shapes against the schema's feature width,
    so a damaged file is a DataError.
    """
    require_format(data, MODEL_FORMAT, "model")
    kind, shapes, weights, schema, training = require_keys(data, _MODEL_KINDS, "model")
    if kind not in _SHAPE_KINDS:
        raise DataError(f"unknown model kind {kind!r}")
    dims = require_keys(shapes, _SHAPE_KINDS[kind], "model.shapes")
    for name, value in zip(_SHAPE_KINDS[kind], dims):
        if value <= 0:
            raise DataError(f"model shapes.{name} must be a positive integer, got {value!r}")
    if kind == "lr":
        (F,) = dims
        params = LrParams(w=_weight(weights, "w", (F,)), b=_weight(weights, "b", ()))
    else:
        F, H = dims
        blocks = {"W": (F, H), "U": (H, H), "b": (H,)}
        fused = {
            name: np.concatenate(
                [_weight(weights, f"{name}_{gate}", shape) for gate in GATES], axis=-1
            )
            for name, shape in blocks.items()
        }
        params = LstmParams(
            **fused,
            dense_w=_weight(weights, "dense_w", (H,)),
            dense_b=_weight(weights, "dense_b", ()),
        )
    schema = schema_from_dict(schema)
    width = schema.lr_width if kind == "lr" else schema.width
    if F != width:
        raise DataError(f"model shapes.n_features is {F}, but its schema makes {width} features")
    return kind, params, schema, training


def save_model(path, model_kind: str, params, schema, training: dict) -> None:
    from .artifacts import write_json

    write_json(path, model_to_dict(model_kind, params, schema, training))


def load_model(path):
    from .artifacts import read_json

    return model_from_dict(read_json(path))


def grid_results_to_csv(results: list[GridResult], path) -> None:
    rows = (
        [
            format_number(r.config.learning_rate),
            format_number(r.config.l1_lambda),
            r.config.hidden_size,
            r.config.batch_size,
            format_number(r.val_auroc),
        ]
        for r in results
    )
    write_csv(path, ["learning_rate", "l1_lambda", "hidden_size", "batch_size", "val_auroc"], rows)
