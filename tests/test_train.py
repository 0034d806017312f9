"""Optimizers against reference recurrences, the training loop, and model IO."""

from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

import htnrisk.train as train
from htnrisk.artifacts import read_config
from htnrisk.ehr_core import DataError
from htnrisk.nnet import LrParams, NumericalError
from htnrisk.train import (
    AdamState,
    RmspropState,
    SEARCH_GRIDS,
    TrainConfig,
    adam_step,
    class_weights,
    default_config,
    grid_search,
    load_model,
    predict_proba,
    rmsprop_step,
    sample_weights,
    save_model,
    train_model,
)
from htnrisk.nnet import lr_loss_and_grads, weighted_bce


def _separable(rng, n=200, flip=0.0):
    """2D blobs split by the first coordinate."""
    y = rng.integers(0, 2, size=n).astype(np.float64)
    X = rng.normal(0.0, 0.6, size=(n, 2))
    X[:, 0] += np.where(y == 1, 2.0, -2.0)
    if flip:
        swap = rng.random(n) < flip
        y[swap] = 1.0 - y[swap]
    return X, y


def _sequence_toy(rng, n=200, T=6, F=3):
    """Label carried by the last step's first feature, with a wide margin."""
    X = rng.normal(0.0, 1.0, size=(n, T, F))
    y = rng.integers(0, 2, size=n).astype(np.float64)
    X[:, -1, 0] = np.where(y == 1, 1.0, -1.0) + rng.normal(0.0, 0.3, size=n)
    return X, y


# -- class weighting ---------------------------------------------------------------

def test_class_weights_formula():
    labels = np.array([1.0, 0.0, 0.0, 0.0])
    weights = class_weights(labels)
    assert weights[1] == pytest.approx(2.0)
    assert weights[0] == pytest.approx(4.0 / 6.0)


def test_class_weights_balanced_is_identity():
    weights = class_weights(np.array([0.0, 1.0, 0.0, 1.0]))
    assert weights == {0: 1.0, 1: 1.0}


def test_class_weights_single_class_raises():
    with pytest.raises(DataError):
        class_weights(np.ones(5))


def test_weighted_loss_equals_unweighted_on_duplicated_multiset(rng):
    # 12 samples, 3 positive. w_pos = 2, w_neg = 2/3. Scaling by 3 gives
    # integer repeat counts: each positive 6 times, each negative twice,
    # a 36-sample balanced multiset. The weighted mean loss and gradients
    # on the original set must match the unweighted mean on the multiset
    # exactly.
    F = 4
    X = rng.normal(size=(12, F))
    y = np.array([1.0] * 3 + [0.0] * 9)
    params = LrParams(w=rng.normal(size=F), b=0.1)
    w = sample_weights(y, class_weights(y))

    repeats = np.where(y == 1, 6, 2)
    X_dup = np.repeat(X, repeats, axis=0)
    y_dup = np.repeat(y, repeats)
    assert len(y_dup) == 36 and y_dup.sum() == 18

    loss_w, grads_w = lr_loss_and_grads(params, X, y, w)
    loss_dup, grads_dup = lr_loss_and_grads(params, X_dup, y_dup, np.ones(36))
    assert loss_w == pytest.approx(loss_dup, rel=1e-12)
    np.testing.assert_allclose(grads_w.to_vector(), grads_dup.to_vector(), rtol=1e-12)


# -- optimizers ---------------------------------------------------------------------

def _reference_adam(trajectory_grads, x0, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    x = x0.copy()
    m = np.zeros_like(x)
    v = np.zeros_like(x)
    out = []
    for t, g in enumerate(trajectory_grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1**t)
        v_hat = v / (1 - beta2**t)
        x = x - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.append(x.copy())
    return out


def _reference_rmsprop(trajectory_grads, x0, lr, rho=0.9, eps=1e-8):
    x = x0.copy()
    sq = np.zeros_like(x)
    out = []
    for g in trajectory_grads:
        sq = rho * sq + (1 - rho) * g * g
        x = x - lr * g / np.sqrt(sq + eps)
        out.append(x.copy())
    return out


def test_adam_matches_reference_recurrence(rng):
    grads = [rng.normal(size=6) for _ in range(10)]
    x0 = rng.normal(size=6)
    expected = _reference_adam(grads, x0, lr=0.01)
    state = AdamState.for_size(6)
    x = x0.copy()
    for g, want in zip(grads, expected):
        x = adam_step(x, g, state, 0.01)
        np.testing.assert_allclose(x, want, atol=1e-15)


def test_adam_first_step_is_signed_learning_rate(rng):
    # bias correction makes m_hat = g and v_hat = g*g on step one, so the
    # update is lr * sign(g) up to eps
    g = rng.normal(size=8) * 10.0
    x = adam_step(np.zeros(8), g, AdamState.for_size(8), lr=0.5)
    np.testing.assert_allclose(x, -0.5 * np.sign(g), rtol=1e-6)


def test_rmsprop_matches_reference_recurrence(rng):
    grads = [rng.normal(size=5) for _ in range(10)]
    x0 = rng.normal(size=5)
    expected = _reference_rmsprop(grads, x0, lr=0.005)
    state = RmspropState.for_size(5)
    x = x0.copy()
    for g, want in zip(grads, expected):
        x = rmsprop_step(x, g, state, 0.005)
        np.testing.assert_allclose(x, want, atol=1e-15)


def test_rmsprop_first_step_epsilon_inside_sqrt():
    g = np.array([2.0])
    x = rmsprop_step(np.zeros(1), g, RmspropState.for_size(1), lr=1.0)
    # E = 0.1 * 4; update = -g / sqrt(0.4 + 1e-8), NOT -g / (sqrt(0.4) + 1e-8)
    assert x[0] == pytest.approx(-2.0 / np.sqrt(0.4 + 1e-8), rel=1e-14)


@pytest.mark.parametrize("step,state_cls", [(adam_step, AdamState), (rmsprop_step, RmspropState)])
def test_optimizers_descend_a_quadratic_bowl(step, state_cls, rng):
    target = np.array([3.0, -2.0, 0.5])
    x = np.zeros(3)
    state = state_cls.for_size(3)
    for _ in range(2000):
        x = step(x, x - target, state, 0.01)
    np.testing.assert_allclose(x, target, atol=0.05)


def test_optimizer_rejects_nonfinite_gradients():
    with pytest.raises(NumericalError):
        adam_step(np.zeros(2), np.array([1.0, np.nan]), AdamState.for_size(2), 0.01)
    with pytest.raises(NumericalError):
        rmsprop_step(np.zeros(2), np.array([np.inf, 0.0]), RmspropState.for_size(2), 0.01)


# -- config -----------------------------------------------------------------------

def test_default_configs_follow_published_setups():
    lr = default_config("lr")
    assert (lr.optimizer, lr.learning_rate, lr.l1_lambda, lr.max_epochs) == (
        "adam",
        1e-3,
        1e-3,
        500,
    )
    lstm = default_config("lstm")
    assert (lstm.optimizer, lstm.hidden_size, lstm.dropout_rate, lstm.max_epochs) == (
        "rmsprop",
        120,
        0.2,
        250,
    )
    assert lstm.l1_lambda == 1e-5


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(model_kind="tree")
    with pytest.raises(ValueError):
        TrainConfig(model_kind="lr", optimizer="sgd")
    with pytest.raises(ValueError):
        TrainConfig(model_kind="lr", learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(model_kind="lstm", dropout_rate=1.0)
    with pytest.raises(ValueError, match="hidden_size must be at least 1, got 0"):
        TrainConfig(model_kind="lstm", hidden_size=0)


def test_config_from_file(tmp_path):
    # The CLI lays these over the defaults of --model; the flags win over
    # them (tests/test_cli.py::test_train_flags_win_over_the_config_file).
    path = tmp_path / "train.kv"
    path.write_text(
        "model_kind=lstm\nhidden_size=12\nlearning_rate=5e-4\ntwo_phase_adam=true\n",
        encoding="utf-8",
    )
    assert read_config(TrainConfig, path) == {
        "model_kind": "lstm", "hidden_size": 12, "learning_rate": 5e-4, "two_phase_adam": True,
    }

    path.write_text("model_kind=lstm\ntwo_phase_adam=ture\n", encoding="utf-8")
    with pytest.raises(ValueError, match="two_phase_adam='ture' is not a valid bool"):
        read_config(TrainConfig, path)


def test_config_from_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "train.kv"
    path.write_text("model_kind=lr\nmomentum=0.9\n", encoding="utf-8")
    with pytest.raises(ValueError, match="momentum"):
        read_config(TrainConfig, path)


# -- training loop ------------------------------------------------------------------

def test_lr_training_separates_the_toy_problem(rng):
    X, y = _separable(rng, n=300)
    X_val, y_val = _separable(rng, n=100)
    config = TrainConfig(
        model_kind="lr", learning_rate=0.05, l1_lambda=0.0, max_epochs=60, seed=1
    )
    params, log = train_model(config, (X, y), (X_val, y_val))
    accuracy = np.mean((predict_proba("lr", params, X_val) >= 0.5) == y_val)
    assert accuracy > 0.95
    assert log.stop_reason in ("early_stop", "max_epochs")
    assert [s.epoch for s in log.epochs] == list(range(1, len(log.epochs) + 1))


def test_lstm_training_learns_a_sequence_rule(rng):
    X, y = _sequence_toy(rng, n=300)
    X_val, y_val = _sequence_toy(rng, n=120)
    config = TrainConfig(
        model_kind="lstm",
        learning_rate=5e-3,
        l1_lambda=0.0,
        hidden_size=8,
        batch_size=64,
        max_epochs=60,
        dropout_rate=0.0,
        optimizer="rmsprop",
        seed=3,
    )
    params, _ = train_model(config, (X, y), (X_val, y_val))
    accuracy = np.mean((predict_proba("lstm", params, X_val) >= 0.5) == y_val)
    assert accuracy > 0.95


def _first_step(monkeypatch, config, data, init):
    """(parameter vector, gradient) of the first optimizer step of a
    one-epoch full-batch run, and its TrainLog; `init` patches the
    starting parameters."""
    steps = []
    for name in ("adam_step", "rmsprop_step"):
        real = getattr(train, name)

        def captured(vec, grads, state, lr, real=real):
            steps.append((vec.copy(), grads.copy()))
            return real(vec, grads, state, lr)

        monkeypatch.setattr(train, name, captured)
    init(monkeypatch)
    _, log = train_model(config, data, data)
    assert len(steps) == 1
    return (*steps[0], log)


def _lr_init(monkeypatch):
    monkeypatch.setattr(
        train, "init_lr_params", lambda F: LrParams(w=np.array([1.5, -2.0, 0.0, 0.25]), b=1.0)
    )


def _lstm_init(monkeypatch):
    real = train.init_lstm_params

    def with_zeros(F, H, rng):
        params = real(F, H, rng)
        params.W[0, H] = params.W[1, 3 * H + 2] = 0.0  # one entry of W_f and of W_g
        return params

    monkeypatch.setattr(train, "init_lstm_params", with_zeros)


@pytest.mark.parametrize("kind", ["lr", "lstm"])
def test_l1_term_is_added_once_to_the_input_kernel(monkeypatch, rng, kind):
    if kind == "lr":
        X, y = _separable(rng, n=40)
        X = np.hstack([X, rng.normal(size=(40, 2))])
        config = TrainConfig(model_kind="lr", batch_size=40, max_epochs=1)
        n_kernel, init = 4, _lr_init
    else:
        X, y = _sequence_toy(rng, n=40)
        config = replace(default_config("lstm"), hidden_size=4, batch_size=40, max_epochs=1)
        n_kernel, init = 3 * 4 * 4, _lstm_init
    lam = 0.01
    vec, g_lam, log_lam = _first_step(monkeypatch, replace(config, l1_lambda=lam), (X, y), init)
    vec0, g_0, log_0 = _first_step(monkeypatch, replace(config, l1_lambda=0.0), (X, y), init)
    assert np.array_equal(vec, vec0)
    kernel = vec[:n_kernel]
    assert 0.0 in kernel and np.count_nonzero(kernel) > 1
    np.testing.assert_array_equal(g_lam[:n_kernel], g_0[:n_kernel] + lam * np.sign(kernel))
    assert np.array_equal(g_lam[n_kernel:], g_0[n_kernel:])  # biases, U and the head exempt
    penalty = lam * np.abs(kernel).sum()
    assert log_lam.epochs[0].train_loss - log_0.epochs[0].train_loss == pytest.approx(
        penalty, rel=1e-12
    )


def test_early_stop_fires_on_second_epoch_when_delta_is_huge(rng):
    X, y = _separable(rng, n=100)
    config = TrainConfig(
        model_kind="lr", max_epochs=50, early_stop_delta=1e9, seed=0
    )
    _, log = train_model(config, (X, y), (X, y))
    assert log.stop_reason == "early_stop"
    assert len(log.epochs) == 2  # needs one previous loss to compare against


def test_early_stop_in_the_first_phase_skips_the_second(rng):
    X, y = _separable(rng, n=100)
    config = TrainConfig(
        model_kind="lr", max_epochs=50, early_stop_delta=1e9, seed=0, two_phase_adam=True
    )
    _, log = train_model(config, (X, y), (X, y))
    assert log.stop_reason == "early_stop"
    assert len(log.epochs) == 2


def test_max_epochs_cap_is_respected(rng):
    X, y = _separable(rng, n=60)
    config = TrainConfig(
        model_kind="lr", max_epochs=3, early_stop_delta=-1e18, seed=0
    )
    _, log = train_model(config, (X, y), (X, y))
    assert log.stop_reason == "max_epochs"
    assert len(log.epochs) == 3


def test_training_is_seed_deterministic(rng):
    X, y = _separable(rng, n=120)
    X_val, y_val = _separable(rng, n=40)
    config = TrainConfig(model_kind="lr", max_epochs=5, early_stop_delta=-1e18, seed=7)
    params_a, log_a = train_model(config, (X, y), (X_val, y_val))
    params_b, log_b = train_model(config, (X, y), (X_val, y_val))
    np.testing.assert_array_equal(params_a.to_vector(), params_b.to_vector())
    assert [s.val_loss for s in log_a.epochs] == [s.val_loss for s in log_b.epochs]


def test_shuffle_depends_on_seed(rng):
    X, y = _separable(rng, n=120)
    config_a = TrainConfig(model_kind="lr", max_epochs=4, batch_size=16,
                           early_stop_delta=-1e18, seed=7)
    config_b = replace(config_a, seed=8)
    params_a, _ = train_model(config_a, (X, y), (X, y))
    params_b, _ = train_model(config_b, (X, y), (X, y))
    assert not np.array_equal(params_a.to_vector(), params_b.to_vector())


def test_two_phase_adam_splits_epochs(rng):
    X, y = _separable(rng, n=80)
    config = TrainConfig(
        model_kind="lr",
        max_epochs=4,
        early_stop_delta=-1e18,
        two_phase_adam=True,
        seed=2,
    )
    params, log = train_model(config, (X, y), (X, y))
    assert len(log.epochs) == 4
    # the second phase runs at lr 1e-5: parameter movement collapses
    deltas = [abs(log.epochs[k].train_loss - log.epochs[k - 1].train_loss) for k in (1, 3)]
    assert deltas[1] < deltas[0]


def test_empty_split_raises(rng):
    X, y = _separable(rng, n=40)
    config = TrainConfig(model_kind="lr")
    with pytest.raises(DataError):
        train_model(config, (X[:0], y[:0]), (X, y))
    with pytest.raises(DataError):
        train_model(config, (X, y), (X[:0], y[:0]))


def test_train_log_csv_format(tmp_path, rng):
    X, y = _separable(rng, n=60)
    config = TrainConfig(model_kind="lr", max_epochs=2, early_stop_delta=-1e18, seed=0)
    _, log = train_model(config, (X, y), (X, y))
    path = tmp_path / "train_log.csv"
    log.to_csv(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "epoch,train_loss,val_loss,seconds"
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "1"
    float(first[1]); float(first[2])
    assert len(first[3].split(".")[1]) == 3  # seconds fixed to millisecond precision


# -- grid search ---------------------------------------------------------------------

def test_grid_search_selection_follows_the_documented_tie_break(rng):
    X, y = _separable(rng, n=150, flip=0.2)
    X_val, y_val = _separable(rng, n=80, flip=0.2)
    base = TrainConfig(model_kind="lr", max_epochs=5, seed=1)
    grids = {"learning_rate": (1e-4, 1e-2), "l1_lambda": (0.0, 0.5), "batch_size": (32, 64)}
    best, _, _, results = grid_search(base, (X, y), (X_val, y_val), grids)
    assert len(results) == 8  # full cross product
    # winner = max AUROC, ties to smaller hidden, then smaller l1, then order
    expected = min(
        range(len(results)),
        key=lambda k: (
            -results[k].val_auroc,
            results[k].config.hidden_size,
            results[k].config.l1_lambda,
            k,
        ),
    )
    assert best == results[expected].config


def test_grid_search_tie_goes_to_enumeration_order(rng):
    X, y = _separable(rng, n=80)
    base = TrainConfig(model_kind="lr", max_epochs=2, seed=0)
    # identical candidates by construction: AUROCs tie exactly
    grids = {"learning_rate": (1e-3, 1e-3), "l1_lambda": (0.0,), "batch_size": (64,)}
    best, _, _, results = grid_search(base, (X, y), (X, y), grids)
    assert results[0].val_auroc == results[1].val_auroc
    assert best == results[0].config


def test_grid_search_collapses_hidden_size_for_lr(rng):
    X, y = _separable(rng, n=80)
    base = TrainConfig(model_kind="lr", max_epochs=2, seed=0)
    grids = {
        "learning_rate": (1e-3,),
        "l1_lambda": (0.0,),
        "batch_size": (64,),
        "hidden_size": (6, 12, 80, 120),
    }
    *_, results = grid_search(base, (X, y), (X, y), grids)
    assert len(results) == 1  # hidden size is not an lr hyperparameter


def test_default_grids_match_published_search_space():
    assert SEARCH_GRIDS["learning_rate"] == (1e-5, 1e-4, 1e-3)
    assert SEARCH_GRIDS["l1_lambda"] == (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1)
    assert SEARCH_GRIDS["hidden_size"] == (6, 12, 80, 120)
    assert SEARCH_GRIDS["batch_size"] == (128, 256, 512, 1024)


# -- model artifact -------------------------------------------------------------------

def _tiny_schema(make_timeline):
    from htnrisk.cohort import build_samples
    from htnrisk.featurize import fit_schema

    return fit_schema(build_samples(make_timeline(4, gap_days=30)))


def test_model_save_load_round_trip(tmp_path, rng, make_timeline):
    from htnrisk.featurize import schema_to_dict

    schema = _tiny_schema(make_timeline)
    X, y = _separable(rng, n=60, flip=0.1)
    X = np.pad(X, ((0, 0), (0, schema.lr_width - X.shape[1])))  # loading checks the width
    config = TrainConfig(model_kind="lr", max_epochs=3, early_stop_delta=-1e18, seed=4)
    params, log = train_model(config, (X, y), (X, y))
    path = tmp_path / "model.json"
    save_model(path, "lr", params, schema, {"config": asdict(config)})
    kind, loaded, loaded_schema, training = load_model(path)
    assert kind == "lr"
    # w leads the vector: training's L1 term is its first F entries.
    assert np.array_equal(params.to_vector()[: schema.lr_width], params.w)
    np.testing.assert_array_equal(loaded.to_vector(), params.to_vector())
    assert schema_to_dict(loaded_schema) == schema_to_dict(schema)
    assert training["config"]["seed"] == 4


def test_lstm_model_round_trip_preserves_predictions(tmp_path, rng, make_timeline):
    schema = _tiny_schema(make_timeline)
    X, y = _sequence_toy(rng, n=60, F=schema.width)  # loading checks the width
    config = TrainConfig(
        model_kind="lstm", hidden_size=5, max_epochs=2, dropout_rate=0.0,
        early_stop_delta=-1e18, optimizer="rmsprop", seed=5,
    )
    params, _ = train_model(config, (X, y), (X, y))
    path = tmp_path / "model.json"
    save_model(path, "lstm", params, schema, {})
    kind, loaded, _, _ = load_model(path)
    assert kind == "lstm"
    np.testing.assert_allclose(
        predict_proba("lstm", loaded, X), predict_proba("lstm", params, X), atol=1e-15
    )


PER_GATE_MODEL = Path(__file__).parent / "data" / "lstm_per_gate_model.json"


def test_per_gate_model_file_loads_and_resaves_byte_identically(tmp_path):
    # Written by the per-gate LSTM code that predates the fused layout.
    kind, params, schema, training = load_model(PER_GATE_MODEL)
    assert kind == "lstm" and (params.n_features, params.hidden) == (24, 4)
    path = tmp_path / "model.json"
    save_model(path, kind, params, schema, training)
    assert path.read_bytes() == PER_GATE_MODEL.read_bytes()


def test_per_gate_model_file_predicts_with_its_per_gate_weights(rng):
    from htnrisk.artifacts import read_json

    raw = {k: np.asarray(v) for k, v in read_json(PER_GATE_MODEL)["weights"].items()}
    _, params, _, _ = load_model(PER_GATE_MODEL)
    X = rng.normal(size=(5, 6, 24))
    h = np.zeros((5, 4)); c = np.zeros((5, 4))
    for t in range(6):
        z = {a: X[:, t] @ raw[f"W_{a}"] + h @ raw[f"U_{a}"] + raw[f"b_{a}"] for a in "ifog"}
        i, f, o = (1.0 / (1.0 + np.exp(-z[a])) for a in "ifo")
        c = f * c + i * np.tanh(z["g"])
        h = o * np.tanh(c)
    expected = 1.0 / (1.0 + np.exp(-(h @ raw["dense_w"] + raw["dense_b"])))
    np.testing.assert_allclose(predict_proba("lstm", params, X), expected, rtol=0, atol=1e-14)


def test_load_model_rejects_unknown_format(tmp_path):
    from htnrisk.artifacts import write_json

    path = tmp_path / "model.json"
    write_json(path, {"format": "not-a-model/1"})
    with pytest.raises(DataError, match="format"):
        load_model(path)


# -- LSTM minibatches in fixed shards ----------------------------------------------


def _sharded_lstm_data(n, seed, F):
    """Sequences with 0-5 leading zero steps, as padded samples have."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 6, F))
    for row, lead in zip(X, rng.integers(0, 6, size=n)):
        row[:lead] = 0.0
    y = (X[:, -1, 0] + rng.normal(size=n) > 0).astype(np.float64)
    return X, y


def _lstm_model_bytes(tmp_path, schema, name) -> bytes:
    # 600 rows in batches of 512: one batch of four shards, then a partial
    # batch of one. Large enough that OpenBLAS runs two threads when asked.
    X, y = _sharded_lstm_data(600, 0, schema.width)
    X_val, y_val = _sharded_lstm_data(120, 1, schema.width)
    config = replace(default_config("lstm"), hidden_size=24, batch_size=512, max_epochs=2)
    params, _ = train_model(config, (X, y), (X_val, y_val))
    path = tmp_path / f"{name}.json"
    save_model(path, "lstm", params, schema, {})
    return path.read_bytes()


def test_lstm_model_bytes_do_not_depend_on_the_blas_thread_count(
    tmp_path, monkeypatch, make_timeline, blas_threads
):
    from htnrisk.parallel import blas_thread_control

    monkeypatch.setattr(train, "usable_cores", lambda: 1)
    schema = _tiny_schema(make_timeline)
    models = []
    for threads in (1, 2):
        blas_thread_control()[1](threads)
        models.append(_lstm_model_bytes(tmp_path, schema, f"threads_{threads}"))
        assert blas_threads() == threads
    assert models[0] == models[1]


def test_lstm_model_bytes_do_not_depend_on_the_worker_count(
    tmp_path, monkeypatch, make_timeline, blas_threads
):
    import multiprocessing

    schema = _tiny_schema(make_timeline)
    models = []
    for cores in (1, 2, 3, 4):  # the calling process and 0-3 workers
        monkeypatch.setattr(train, "usable_cores", lambda: cores)
        models.append(_lstm_model_bytes(tmp_path, schema, f"cores_{cores}"))
        assert multiprocessing.active_children() == []
        assert blas_threads() == 2
    assert models[1:] == models[:1] * 3


def test_lstm_shards_run_serially_without_blas_thread_control(
    tmp_path, monkeypatch, make_timeline, blas_threads
):
    import htnrisk.parallel as parallel

    schema = _tiny_schema(make_timeline)
    monkeypatch.setattr(train, "usable_cores", lambda: 1)
    serial = _lstm_model_bytes(tmp_path, schema, "serial")
    parallel.blas_thread_control()[1](1)  # as the cap would set it: the same bytes
    monkeypatch.setattr(train, "usable_cores", lambda: 3)
    monkeypatch.setattr(parallel, "blas_thread_control", lambda: None)
    counts = []

    def counted(count, *rest):
        counts.append(count)
        return parallel.workers(count, *rest)

    monkeypatch.setattr(train, "workers", counted)
    assert _lstm_model_bytes(tmp_path, schema, "uncapped") == serial
    assert counts == [0]


def test_no_more_workers_are_forked_than_a_minibatch_has_other_shards(monkeypatch):
    import htnrisk.parallel as parallel

    counts = []

    def counted(count, *rest):
        counts.append(count)
        return parallel.workers(count, *rest)

    monkeypatch.setattr(train, "usable_cores", lambda: 8)
    monkeypatch.setattr(train, "workers", counted)
    X, y = _sharded_lstm_data(300, 0, 3)
    w = np.ones(300)
    for batch_size in (128, 129, 256, 512):  # 300 rows: at most three shards
        config = replace(default_config("lstm"), hidden_size=4, batch_size=batch_size)
        with train._sharded_lstm(config, X, y, w):
            pass
    assert counts == [0, 1, 1, 2]


def test_lstm_shard_terms_add_up_to_the_minibatch_mean(rng):
    from htnrisk.nnet import dropout_mask, init_lstm_params, lstm_loss_and_grads

    params = init_lstm_params(3, 4, rng)
    X, y = _sharded_lstm_data(300, 2, 3)
    w = rng.uniform(0.5, 2.0, size=300)
    loss, grads = lstm_loss_and_grads(params, X, y, w, 0.3, np.random.default_rng(7))
    mask_rng = np.random.default_rng(7)
    masks = [dropout_mask(rows, 4, 0.3, mask_rng) for rows in (128, 128, 44)]
    parts = [
        lstm_loss_and_grads(params, X[s], y[s], w[s], mask=mask, batch_rows=300)
        for s, mask in zip((slice(0, 128), slice(128, 256), slice(256, 300)), masks)
    ]
    assert sum(part for part, _ in parts) == pytest.approx(loss, rel=1e-13)
    np.testing.assert_allclose(
        sum(g.to_vector() for _, g in parts), grads.to_vector(), rtol=1e-12, atol=1e-15
    )
