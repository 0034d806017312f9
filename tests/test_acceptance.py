"""Acceptance suite: ten criteria, one printed PASS/FAIL line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines as
they land. The two 5000-patient control runs dominate the runtime; the
whole suite stays well inside its documented budgets on a laptop.
"""

import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from htnrisk.artifacts import read_json
from htnrisk.attribution import completeness_gap, integrated_gradients, lstm_scorer
from htnrisk.cli import main
from htnrisk.cohort import select_cohort
from htnrisk.ehr_core import merge_patient_timeline, parse_table
from htnrisk.evaluate import auroc
from htnrisk.featurize import fit_schema, schema_hash
from htnrisk.nnet import (
    LrParams,
    LstmParams,
    init_lstm_params,
    lr_loss_and_grads,
    lstm_loss_and_grads,
    weighted_bce,
)
from htnrisk.train import (
    LR_MAX_EPOCHS,
    LSTM_MAX_EPOCHS,
    TrainConfig,
    default_config,
    train_model,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURE = Path(__file__).resolve().parent / "data" / "cohort_fixture"
POSITIVE_CONFIG = ROOT / "configs" / "acceptance_positive.kv"
NEGATIVE_CONFIG = ROOT / "configs" / "acceptance_negative.kv"

# Reduced-epoch training for the control runs; early stopping usually
# fires far sooner. Grid search and the full 500/250-epoch caps do not
# fit the end-to-end runtime budget and are exercised by unit tests.
LR_EPOCHS = "150"
LSTM_EPOCHS = "40"


def _verdict(number: int, name: str, failures: list[str], detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[criterion {number:2d}] {name}: {status}{suffix}", flush=True)
    assert not failures, f"criterion {number} {name}: " + "; ".join(failures)


# -- control pipelines ---------------------------------------------------------


def _run_pipeline(root: Path, generator_config: Path) -> SimpleNamespace:
    """Full CLI pipeline into `root`; returns paths and elapsed seconds."""
    t0 = time.monotonic()
    data = root / "data"
    cohort = root / "cohort"
    features = root / "features"
    lr_dir = root / "run_lr"
    lstm_dir = root / "run_lstm"
    eval_lr = root / "eval_lr"
    eval_lstm = root / "eval_lstm"
    samples = str(cohort / "samples.json")
    schema = str(features / "schema.json")
    stages = [
        ["generate", "--config", str(generator_config), "--out", str(data)],
        ["cohort", "--data", str(data), "--out", str(cohort), "--seed", "0"],
        ["featurize", "--samples", samples, "--out", str(features)],
        ["train", "--model", "lr", "--samples", samples, "--schema", schema,
         "--epochs", LR_EPOCHS, "--seed", "0", "--out", str(lr_dir)],
        ["train", "--model", "lstm", "--samples", samples, "--schema", schema,
         "--epochs", LSTM_EPOCHS, "--seed", "0", "--out", str(lstm_dir)],
        ["evaluate", "--model", str(lr_dir / "model.json"), "--samples", samples,
         "--split", "test", "--out", str(eval_lr)],
        ["evaluate", "--model", str(lstm_dir / "model.json"), "--samples", samples,
         "--split", "test", "--out", str(eval_lstm)],
    ]
    for argv in stages:
        code = main(argv)
        assert code == 0, f"stage {argv[0]} exited {code}"
    return SimpleNamespace(
        root=root,
        data=data,
        cohort=cohort,
        features=features,
        lr_dir=lr_dir,
        lstm_dir=lstm_dir,
        eval_lr=eval_lr,
        eval_lstm=eval_lstm,
        elapsed=time.monotonic() - t0,
    )


@pytest.fixture(scope="module")
def positive_run(tmp_path_factory):
    return _run_pipeline(tmp_path_factory.mktemp("control_pos"), POSITIVE_CONFIG)


@pytest.fixture(scope="module")
def negative_run(tmp_path_factory):
    return _run_pipeline(tmp_path_factory.mktemp("control_neg"), NEGATIVE_CONFIG)


# -- criterion 1: gradient correctness ------------------------------------------


def _max_rel_error(loss_at, analytic: np.ndarray, vec: np.ndarray, indices) -> float:
    eps = 1e-5
    worst = 0.0
    for i in indices:
        probe = vec.copy()
        probe[i] += eps
        hi = loss_at(probe)
        probe[i] -= 2 * eps
        lo = loss_at(probe)
        fd = (hi - lo) / (2 * eps)
        err = abs(analytic[i] - fd) / max(abs(analytic[i]), abs(fd), 1e-8)
        worst = max(worst, err)
    return worst


def test_criterion_1_gradients_match_finite_differences():
    t0 = time.monotonic()
    worst = 0.0

    for seed in range(10):  # logistic regression, every coordinate
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(8, 13))
        y = rng.integers(0, 2, 8).astype(float)
        w = rng.uniform(0.5, 2.0, 8)
        params = LrParams(w=rng.normal(size=13) * 0.5, b=float(rng.normal()) * 0.1)
        vec = params.to_vector()
        _, grads = lr_loss_and_grads(params, X, y, w)

        def lr_at(v):
            return lr_loss_and_grads(LrParams.from_vector(v, 13), X, y, w)[0]

        worst = max(worst, _max_rel_error(lr_at, grads.to_vector(), vec, range(vec.size)))

    def lstm_case(seed, n_features, hidden, n, T, coords):
        rng = np.random.default_rng(seed)
        params = init_lstm_params(n_features, hidden, rng)
        X = rng.normal(size=(n, T, n_features))
        y = rng.integers(0, 2, n).astype(float)
        w = rng.uniform(0.5, 2.0, n)
        vec = params.to_vector()
        _, grads = lstm_loss_and_grads(params, X, y, w)

        def lstm_at(v):
            return lstm_loss_and_grads(
                LstmParams.from_vector(v, n_features, hidden), X, y, w
            )[0]

        indices = (
            range(vec.size)
            if coords is None
            else rng.choice(vec.size, size=coords, replace=False)
        )
        return _max_rel_error(lstm_at, grads.to_vector(), vec, indices)

    for seed in range(100, 108):  # small hidden state, every coordinate
        worst = max(worst, lstm_case(seed, n_features=3, hidden=4, n=3, T=5, coords=None))
    for seed in (200, 201):  # published hidden size, sampled coordinates
        worst = max(worst, lstm_case(seed, n_features=9, hidden=120, n=2, T=4, coords=60))

    elapsed = time.monotonic() - t0
    failures = []
    if worst >= 1e-4:
        failures.append(f"max relative error {worst:.3e} >= 1e-4")
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _verdict(1, "gradient checks vs finite differences",
             failures, f"max rel err {worst:.2e}, {elapsed:.1f}s, 20 seeds")


# -- criterion 2: AUROC oracle ---------------------------------------------------


def test_criterion_2_auroc_equals_mann_whitney():
    t0 = time.monotonic()
    worst = 0.0
    rng = np.random.default_rng(7)
    for case in range(100):
        n = int(rng.integers(2, 501))
        labels = rng.integers(0, 2, n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        if case % 2 == 0:  # heavy ties from a coarse score grid
            scores = rng.integers(0, 4, n) / 3.0
        else:
            scores = rng.normal(size=n)
        pos = scores[labels == 1][:, None]
        neg = scores[labels == 0][None, :]
        oracle = float(((pos > neg).sum() + 0.5 * (pos == neg).sum()) / (pos.shape[0] * neg.shape[1]))
        worst = max(worst, abs(auroc(labels, scores) - oracle))
    elapsed = time.monotonic() - t0
    failures = []
    if worst > 1e-12:
        failures.append(f"max |trapezoid - brute force| {worst:.3e} > 1e-12")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _verdict(2, "AUROC vs O(n^2) Mann-Whitney oracle",
             failures, f"max gap {worst:.2e}, {elapsed:.1f}s, 100 instances")


# -- criterion 3: integrated-gradients completeness ------------------------------


def test_criterion_3_attribution_completeness():
    t0 = time.monotonic()
    failures = []
    worst_rel = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        params = init_lstm_params(5, 6, rng)
        x = rng.normal(size=(7, 5))
        baseline = np.zeros_like(x)
        gap = completeness_gap(lstm_scorer(params), x, baseline, steps=512)
        values, _ = lstm_scorer(params)(np.stack([x, baseline]))
        scale = max(abs(float(values[0] - values[1])), 1e-12)
        worst_rel = max(worst_rel, gap / scale)
    if worst_rel >= 1e-3:
        failures.append(f"relative completeness gap {worst_rel:.3e} >= 1e-3 at 512 steps")

    # exact for linear scorers at any step count
    rng = np.random.default_rng(42)
    w = rng.normal(size=6)
    linear = lambda points: (points @ w, np.tile(w, (points.shape[0], 1)))
    x = rng.normal(size=6)
    baseline = rng.normal(size=6)
    worst_linear = 0.0
    for steps in (1, 3, 16):
        attr = integrated_gradients(linear, x, baseline, steps=steps)
        worst_linear = max(worst_linear, abs(float(attr.sum() - (x @ w - baseline @ w))))
    if worst_linear > 1e-12:
        failures.append(f"linear scorer gap {worst_linear:.3e} > 1e-12")

    elapsed = time.monotonic() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _verdict(3, "integrated-gradients completeness",
             failures, f"max rel gap {worst_rel:.2e}, linear {worst_linear:.1e}, {elapsed:.1f}s")


# -- criterion 4: class-weighting oracle -----------------------------------------


def test_criterion_4_class_weights_equal_duplication():
    from htnrisk.train import class_weights, sample_weights

    # 3 positives, 9 negatives: w_pos = 12/6 = 2, w_neg = 12/18 = 2/3.
    # Scaling by 3 gives integer replication: positives x6, negatives x2,
    # a 36-row balanced set whose plain mean loss must match exactly.
    rng = np.random.default_rng(3)
    X = rng.normal(size=(12, 5))
    y = np.array([1, 1, 1] + [0] * 9, dtype=float)
    per_class = class_weights(y)
    assert per_class[1] == 2.0 and per_class[0] == pytest.approx(2.0 / 3.0)
    weights = sample_weights(y, per_class)
    params = LrParams(w=rng.normal(size=5), b=0.3)

    reps = np.where(y == 1, 6, 2)
    X_dup = np.repeat(X, reps, axis=0)
    y_dup = np.repeat(y, reps)
    ones = np.ones(len(y_dup))

    loss_w, grads_w = lr_loss_and_grads(params, X, y, weights)
    loss_d, grads_d = lr_loss_and_grads(params, X_dup, y_dup, ones)

    failures = []
    gap = abs(loss_w - loss_d)
    if gap > 1e-12:
        failures.append(f"loss gap {gap:.3e} > 1e-12")
    grad_gap = float(np.max(np.abs(grads_w.to_vector() - grads_d.to_vector())))
    if grad_gap > 1e-12:
        failures.append(f"gradient gap {grad_gap:.3e} > 1e-12")
    per_sample = weighted_bce(X @ params.w + params.b, y, weights)
    naive = float(np.mean(per_sample))
    if abs(naive - loss_w) > 1e-12:  # lam = 0, so penalty-free equality
        failures.append("weighted mean does not match the loss function")
    _verdict(4, "class weighting vs duplication oracle",
             failures, f"loss gap {gap:.1e}, grad gap {grad_gap:.1e}")


# -- criterion 5: cohort fixture -------------------------------------------------


def test_criterion_5_cohort_fixture_matches_hand_count(tmp_path):
    from htnrisk.cohort import write_exclusion_report

    events = {}
    for kind in ("encounters", "medications", "labs", "diagnoses"):
        rows, _ = parse_table(FIXTURE / f"{kind}.csv", kind)
        events[kind] = rows
    timelines, _ = merge_patient_timeline(
        events["encounters"], events["medications"], events["labs"], events["diagnoses"]
    )
    cohort = select_cohort(timelines, seed=0)

    failures = []
    expected_tally = {
        "deceased": 1,
        "age": 1,
        "records_per_year": 1,
        "no_vitals": 1,
        "last_gap_90d": 1,
    }
    if cohort.exclusion_tally != expected_tally:
        failures.append(f"tally {cohort.exclusion_tally} != {expected_tally}")
    if len(cohort.timelines) != 3:
        failures.append(f"{len(cohort.timelines)} included patients != 3")
    report = tmp_path / "exclusions.csv"
    write_exclusion_report(cohort.exclusion_tally, cohort.total_patients, report)
    golden = (FIXTURE / "exclusions_golden.csv").read_bytes()
    if report.read_bytes() != golden:
        failures.append("cascade report differs from the golden file")
    _verdict(5, "handcrafted cohort fixture",
             failures, f"included {sorted(cohort.timelines)}")


# -- criteria 6/7: control cohorts -----------------------------------------------


def _aurocs(run) -> tuple[float, float, float]:
    lr_report = read_json(run.eval_lr / "report.json")
    lstm_report = read_json(run.eval_lstm / "report.json")
    return (
        lr_report["baseline"]["auroc"],
        lr_report["model"]["auroc"],
        lstm_report["model"]["auroc"],
    )


def test_criterion_6_positive_control_ordering(positive_run):
    base, lr, lstm = _aurocs(positive_run)
    failures = []
    if not lr >= base + 0.03:
        failures.append(f"lr {lr:.4f} < baseline {base:.4f} + 0.03")
    if not abs(lstm - lr) <= 0.05:
        failures.append(f"|lstm {lstm:.4f} - lr {lr:.4f}| > 0.05")
    if positive_run.elapsed >= 900.0:
        failures.append(f"end-to-end {positive_run.elapsed:.0f}s >= 900s")
    _verdict(6, "positive control (covariates on)",
             failures,
             f"baseline {base:.4f}, lr {lr:.4f}, lstm {lstm:.4f}, "
             f"{positive_run.elapsed:.0f}s end-to-end")


def test_criterion_7_negative_control_no_leakage(negative_run):
    base, lr, lstm = _aurocs(negative_run)
    failures = []
    if lr - base > 0.02:
        failures.append(f"lr beats baseline by {lr - base:.4f} > 0.02")
    if lstm - base > 0.02:
        failures.append(f"lstm beats baseline by {lstm - base:.4f} > 0.02")
    _verdict(7, "negative control (covariates zeroed)",
             failures, f"baseline {base:.4f}, lr {lr:.4f}, lstm {lstm:.4f}")


# -- criterion 8: determinism ----------------------------------------------------


def test_criterion_8_full_rerun_is_byte_identical(positive_run, tmp_path):
    rerun = _run_pipeline(tmp_path / "again", POSITIVE_CONFIG)

    def attribute(run, out_name):
        out = run.root / out_name
        lr_out = out / "lr"
        lstm_out = out / "lstm"
        samples = str(run.cohort / "samples.json")
        assert main(["attribute", "--model", str(run.lr_dir / "model.json"),
                     "--out", str(lr_out)]) == 0
        assert main(["attribute", "--model", str(run.lstm_dir / "model.json"),
                     "--samples", samples, "--steps", "32",
                     "--out", str(lstm_out)]) == 0
        return lr_out, lstm_out

    first_lr_attr, first_lstm_attr = attribute(positive_run, "attr")
    second_lr_attr, second_lstm_attr = attribute(rerun, "attr")

    pairs = [
        (positive_run.cohort / "samples.json", rerun.cohort / "samples.json"),
        (positive_run.features / "schema.json", rerun.features / "schema.json"),
        (positive_run.lr_dir / "model.json", rerun.lr_dir / "model.json"),
        (positive_run.lstm_dir / "model.json", rerun.lstm_dir / "model.json"),
        (positive_run.eval_lr / "report.json", rerun.eval_lr / "report.json"),
        (positive_run.eval_lstm / "report.json", rerun.eval_lstm / "report.json"),
        (positive_run.eval_lr / "roc_model.csv", rerun.eval_lr / "roc_model.csv"),
        (first_lr_attr / "lr_weights.csv", second_lr_attr / "lr_weights.csv"),
        (first_lstm_attr / "attributions.csv", second_lstm_attr / "attributions.csv"),
        (first_lstm_attr / "attributions_agg.csv", second_lstm_attr / "attributions_agg.csv"),
    ]
    for kind in ("encounters", "medications", "labs", "diagnoses"):
        pairs.append((positive_run.data / f"{kind}.csv", rerun.data / f"{kind}.csv"))

    failures = [
        f"{a.name} differs between reruns"
        for a, b in pairs
        if a.read_bytes() != b.read_bytes()
    ]
    _verdict(8, "byte-identical pipeline rerun",
             failures, f"{len(pairs)} artifacts compared")


def test_lstm_evaluation_does_not_depend_on_the_blas_thread_count(
    positive_run, tmp_path, blas_threads
):
    from htnrisk.parallel import blas_thread_control

    set_threads = blas_thread_control()[1]
    samples = str(positive_run.cohort / "samples.json")
    files = []
    for threads in (1, 2):
        set_threads(threads)
        out = tmp_path / f"threads_{threads}"
        assert main(["evaluate", "--model", str(positive_run.lstm_dir / "model.json"),
                     "--samples", samples, "--split", "train", "--out", str(out)]) == 0
        files.append([(out / name).read_bytes() for name in ("report.json", "roc_model.csv")])
    assert read_json(tmp_path / "threads_1" / "report.json")["n"] > 2 * 256
    assert files[0] == files[1]


# -- criterion 9: schema leakage -------------------------------------------------


def test_criterion_9_test_split_cannot_touch_the_schema(positive_run):
    from htnrisk.cohort import cohort_from_dict

    def mutate(split):
        cohort = cohort_from_dict(read_json(positive_run.cohort / "samples.json"))
        victim = next(s for s in cohort.samples_in(split) if s.final and s.history)
        for enc in victim.history:
            enc.systolic = 500.0
            enc.diastolic = 300.0
        return schema_hash(fit_schema(cohort.samples_in("train")))

    cohort = cohort_from_dict(read_json(positive_run.cohort / "samples.json"))
    clean_hash = schema_hash(fit_schema(cohort.samples_in("train")))

    failures = []
    if mutate("test") != clean_hash:
        failures.append("mutating a test patient changed the fitted schema hash")
    if mutate("train") == clean_hash:
        failures.append("sanity check failed: mutating a train patient left the hash unchanged")
    _verdict(9, "schema hash ignores the test split",
             failures, f"hash {clean_hash[:12]}...")


# -- criterion 10: early stopping ------------------------------------------------


def test_criterion_10_early_stop_and_epoch_caps():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 4))
    y = np.array([1.0, 0.0] * 10)  # both classes, so weighting is defined

    # A vanishing learning rate freezes the validation loss, so the
    # <= 1e-7 improvement rule must fire at the first comparison.
    frozen = TrainConfig(model_kind="lr", learning_rate=1e-300, max_epochs=50)
    _, log = train_model(frozen, (X, y), (X, y))

    capped = TrainConfig(model_kind="lr", learning_rate=1e-3, max_epochs=4,
                         early_stop_delta=-1e18)
    _, cap_log = train_model(capped, (X, y), (X, y))

    failures = []
    if len(log.epochs) != 2 or log.stop_reason != "early_stop":
        failures.append(
            f"constant loss stopped after {len(log.epochs)} epochs ({log.stop_reason}), expected 2"
        )
    if frozen.early_stop_delta != 1e-7:
        failures.append(f"default early-stop delta {frozen.early_stop_delta} != 1e-7")
    if len(cap_log.epochs) != 4 or cap_log.stop_reason != "max_epochs":
        failures.append("max_epochs cap not honored on a capped run")
    if LR_MAX_EPOCHS != 500 or default_config("lr").max_epochs != 500:
        failures.append("lr epoch cap is not 500")
    if LSTM_MAX_EPOCHS != 250 or default_config("lstm").max_epochs != 250:
        failures.append("lstm epoch cap is not 250")
    _verdict(10, "early stopping and epoch caps",
             failures,
             f"constant-loss stop at epoch {len(log.epochs)}, caps 500/250")
