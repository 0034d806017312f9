"""Integrated gradients: axioms, quadrature nodes, and rankings."""

import multiprocessing
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import htnrisk.attribution as attribution
from htnrisk.attribution import (
    aggregate_sequence_attributions,
    completeness_gap,
    integrated_gradients,
    lstm_scorer,
    population_attributions,
    rank_features,
    write_ranked_csv,
    write_sequence_attribution_csv,
)
from htnrisk.nnet import init_lstm_params, lstm_integrated_gradients
from htnrisk.train import predict_proba


def _linear_scorer(w):
    w = np.asarray(w, dtype=np.float64)

    def fn(points):
        points = np.asarray(points, dtype=np.float64)
        flat = points.reshape(points.shape[0], -1)
        values = flat @ w.ravel()
        grads = np.broadcast_to(w, points.shape).copy()
        return values, grads

    return fn


# -- the integral itself -------------------------------------------------------------

def test_ig_exact_for_linear_scorer_hand_case():
    attributions = integrated_gradients(
        _linear_scorer([2.0, -1.0]), np.array([1.0, 3.0]), np.zeros(2), steps=1
    )
    np.testing.assert_allclose(attributions, [2.0, -3.0], atol=1e-15)


def test_ig_linear_exact_at_any_step_count(rng):
    w = rng.normal(size=5)
    x = rng.normal(size=5)
    baseline = rng.normal(size=5)
    expected = w * (x - baseline)
    for steps in (1, 3, 128):
        attributions = integrated_gradients(_linear_scorer(w), x, baseline, steps)
        np.testing.assert_allclose(attributions, expected, atol=1e-13)


def test_ig_uses_midpoint_nodes():
    seen = []

    def recording(points):
        seen.append(np.asarray(points).copy())
        return np.zeros(points.shape[0]), np.zeros_like(points)

    integrated_gradients(recording, np.array([1.0]), np.array([0.0]), steps=4)
    nodes = seen[0].ravel()
    np.testing.assert_allclose(nodes, [0.125, 0.375, 0.625, 0.875], atol=1e-15)


def test_ig_validates_inputs():
    scorer = _linear_scorer([1.0])
    with pytest.raises(ValueError, match="steps"):
        integrated_gradients(scorer, np.ones(1), np.zeros(1), steps=0)
    with pytest.raises(ValueError, match="shape"):
        integrated_gradients(scorer, np.ones(2), np.zeros(3))


def test_ig_sensitivity_null_feature(rng):
    # zero weight and/or input equal to baseline => zero attribution
    w = np.array([1.5, 0.0, -2.0])
    x = np.array([0.7, 0.9, 0.4])
    baseline = np.array([0.0, 0.0, 0.4])
    attributions = integrated_gradients(_linear_scorer(w), x, baseline, steps=16)
    assert attributions[1] == 0.0  # ignored by the model
    assert attributions[2] == 0.0  # identical to baseline


def test_ig_linearity_in_the_scorer(rng):
    w1 = rng.normal(size=4)
    w2 = rng.normal(size=4)
    x = rng.normal(size=4)
    baseline = np.zeros(4)

    def combined(points):
        v1, g1 = _linear_scorer(w1)(points)
        v2, g2 = _linear_scorer(w2)(points)
        return 2.0 * v1 + 3.0 * v2, 2.0 * g1 + 3.0 * g2

    lhs = integrated_gradients(combined, x, baseline, steps=8)
    rhs = 2.0 * integrated_gradients(
        _linear_scorer(w1), x, baseline, steps=8
    ) + 3.0 * integrated_gradients(_linear_scorer(w2), x, baseline, steps=8)
    np.testing.assert_allclose(lhs, rhs, atol=1e-13)


def test_ig_completeness_on_the_recurrent_model(rng):
    # the completeness axiom, on the real nonlinear scorer, over several
    # independently initialized models
    for seed in range(10):
        params = init_lstm_params(4, 5, np.random.default_rng(seed))
        scorer = lstm_scorer(params)
        x = np.random.default_rng(100 + seed).normal(size=(6, 4))
        baseline = np.zeros((6, 4))
        gap = completeness_gap(scorer, x, baseline, steps=512)
        values, _ = scorer(np.stack([x, baseline]))
        scale = abs(float(values[0] - values[1]))
        assert gap <= 1e-3 * max(scale, 1e-12), f"seed {seed}: gap {gap} vs scale {scale}"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    n_features=st.integers(1, 4),
    hidden=st.integers(1, 5),
    n_steps=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    weight_scale=st.sampled_from([1.0, 3.0]),
    input_scale=st.sampled_from([1.0, 3.0]),
)
def test_ig_completeness_gap_meets_the_midpoint_rule_bound_property(
    n_features, hidden, n_steps, seed, weight_scale, input_scale
):
    # With g(a) = f(a x) on the path from the zero baseline, the attributions
    # sum to the composite midpoint rule for the integral of g' over [0, 1],
    # which is f(x) - f(0). That rule's error with n nodes is g'''(xi) / (24 n^2)
    # for some xi in [0, 1], so the gap is at most max|g'''| / (24 n^2), plus
    # rounding (1e-13 here). max|g'''| comes from third differences of g with
    # spacing 1/64: each equals g''' somewhere in its window, so their largest
    # can fall short of the true maximum, and the bound doubles it.
    steps = 512
    rng = np.random.default_rng(seed)
    params = init_lstm_params(n_features, hidden, rng)
    params = replace(params, W=weight_scale * params.W, U=weight_scale * params.U)
    scorer = lstm_scorer(params)
    x = input_scale * rng.normal(size=(n_steps, n_features))
    g, _ = scorer(np.linspace(0.0, 1.0, 65)[:, None, None] * x)
    max_third_derivative = float(np.abs(np.diff(g, 3)).max()) * 64.0**3
    bound = 2.0 * max_third_derivative / (24 * steps**2) + 1e-13
    assert completeness_gap(scorer, x, np.zeros_like(x), steps) <= bound


def test_ig_completeness_gap_shrinks_with_steps(rng):
    params = init_lstm_params(3, 4, np.random.default_rng(0))
    scorer = lstm_scorer(params)
    x = rng.normal(size=(6, 3))
    baseline = np.zeros((6, 3))
    gaps = [completeness_gap(scorer, x, baseline, steps) for steps in (4, 16, 64)]
    assert gaps[1] < gaps[0]
    assert gaps[2] < gaps[1]


def test_lstm_scorer_is_deterministic_and_matches_predict(rng):
    params = init_lstm_params(3, 4, np.random.default_rng(2))
    scorer = lstm_scorer(params)
    points = rng.normal(size=(4, 6, 3))
    v1, g1 = scorer(points)
    v2, g2 = scorer(points)
    np.testing.assert_array_equal(v1, v2)
    np.testing.assert_array_equal(g1, g2)
    np.testing.assert_allclose(v1, predict_proba("lstm", params, points), atol=1e-14)


# -- aggregation and ranking -----------------------------------------------------------

def test_population_attributions_is_mean_of_per_sample_ig(rng):
    params = init_lstm_params(3, 4, np.random.default_rng(4))
    scorer = lstm_scorer(params)
    X = rng.normal(size=(3, 6, 3))
    baseline = np.zeros((6, 3))
    expected = np.mean(
        [integrated_gradients(scorer, X[i], baseline, steps=32) for i in range(3)], axis=0
    )
    np.testing.assert_allclose(
        population_attributions(params, X, steps=32), expected, atol=1e-12
    )


@pytest.mark.parametrize("cores", [1, 2, 3])
def test_population_attributions_in_blocks_equals_the_serial_loop(monkeypatch, rng, cores):
    monkeypatch.setattr(attribution, "usable_cores", lambda: cores)
    monkeypatch.setattr(attribution, "MIN_BLOCK_SAMPLES", 2)
    params = init_lstm_params(3, 4, np.random.default_rng(4))
    X = rng.normal(size=(7, 6, 3))
    X[2, :3] = 0.0
    X[5] = 0.0
    total = np.zeros((6, 3))
    for x in X:
        total += lstm_integrated_gradients(params, x, 32)
    assert np.array_equal(population_attributions(params, X, steps=32), total / 7)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("steps", [1, 3, 128])
@pytest.mark.parametrize("lead", [0, 1, 3, 5, 6], ids=lambda lead: f"lead{lead}")
def test_the_ig_kernel_equals_ig_of_the_lstm_scorer(steps, lead):
    # Leading zero steps (all six: an all-zero sample), and one interior
    # zero step that the kernel must not skip.
    params = init_lstm_params(5, 7, np.random.default_rng(steps))
    x = np.random.default_rng(lead).normal(size=(6, 5))
    x[:lead] = 0.0
    x[min(lead + 1, 5)] = 0.0
    expected = integrated_gradients(lstm_scorer(params), x, np.zeros_like(x), steps)
    got = lstm_integrated_gradients(params, x, steps)
    scale = np.abs(expected).max()
    assert np.abs(got - expected).max() <= 1e-12 * scale
    assert not got[:lead].any()
    if lead == 6:
        assert not got.any()


def test_the_ig_kernel_needs_a_step():
    params = init_lstm_params(2, 3, np.random.default_rng(0))
    with pytest.raises(ValueError, match="steps must be >= 1"):
        lstm_integrated_gradients(params, np.ones((6, 2)), 0)


def test_aggregate_sums_over_time():
    attributions = np.arange(12, dtype=np.float64).reshape(6, 2)
    np.testing.assert_array_equal(
        aggregate_sequence_attributions(attributions), [30.0, 36.0]
    )
    with pytest.raises(ValueError):
        aggregate_sequence_attributions(np.zeros(3))


def test_rank_features_by_magnitude_keeps_sign():
    ranked = rank_features(["a", "b", "c", "d"], np.array([0.1, -2.0, 1.5, -0.1]), k=3)
    assert ranked == [("b", -2.0), ("c", 1.5), ("a", 0.1)]


def test_rank_features_tie_keeps_column_order():
    ranked = rank_features(["a", "b", "c"], np.array([-1.0, 1.0, 0.5]), k=3)
    assert [name for name, _ in ranked] == ["a", "b", "c"]


def test_rank_features_caps_and_validates():
    ranked = rank_features(["a", "b"], np.array([1.0, 2.0]), k=10)
    assert len(ranked) == 2
    with pytest.raises(ValueError):
        rank_features(["a"], np.array([1.0]), k=0)
    with pytest.raises(ValueError):
        rank_features(["a", "b"], np.array([1.0]), k=1)


# -- exports ---------------------------------------------------------------------------

def test_write_ranked_csv(tmp_path):
    path = tmp_path / "ranked.csv"
    write_ranked_csv([("b", -2.0), ("a", 1.0)], path, value_column="total_score")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "feature,total_score,rank"
    assert lines[1] == "b,-2,1"
    assert lines[2] == "a,1,2"


def test_write_sequence_attribution_csv(tmp_path):
    path = tmp_path / "attr.csv"
    attributions = np.array([[0.5, -1.0], [0.25, 0.0]])
    write_sequence_attribution_csv(attributions, ["f1", "f2"], path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "feature,timestep,score"
    assert lines[1:] == ["f1,0,0.5", "f1,1,0.25", "f2,0,-1", "f2,1,0"]
