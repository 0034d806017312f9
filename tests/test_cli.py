"""End-to-end CLI runs: artifacts, manifests, exit codes, reruns."""

import gc
import json
import multiprocessing
import os
import shutil
import weakref

import pytest

import htnrisk.attribution as attribution
import htnrisk.cli as cli
import htnrisk.cohort as cohort
import htnrisk.parallel as parallel
import htnrisk.synth as synth
from htnrisk.artifacts import canonical_json, read_json, sha256_file, write_json
from htnrisk.cli import build_parser, main
from htnrisk.cohort import cohort_from_dict, cohort_to_dict, select_cohort
from htnrisk.ehr_core import TABLE_COLUMNS, DataError, merge_patient_timeline, parse_table
from htnrisk.nnet import NumericalError

# Small LSTM so the pipeline fixture stays fast.
LSTM_KV = "hidden_size=8\nlearning_rate=0.05\nmax_epochs=2\n"


def _pipeline_stages(root):
    """The paths and argv lists of one full six-stage run under `root`."""
    paths = {name: root / name for name in (
        "data", "cohort", "features", "lr", "lstm", "evaluate", "attr_lr", "attr_lstm",
    )}
    paths["root"] = root
    lstm_config = root / "lstm.kv"
    lstm_config.write_text(LSTM_KV, encoding="utf-8")
    samples = str(paths["cohort"] / "samples.json")
    schema = str(paths["features"] / "schema.json")
    stages = [
        ["generate", "--out", str(paths["data"]), "--seed", "11", "--patients", "150"],
        ["cohort", "--data", str(paths["data"]), "--out", str(paths["cohort"]), "--seed", "0"],
        ["featurize", "--samples", samples, "--out", str(paths["features"]), "--export-csv"],
        ["train", "--model", "lr", "--samples", samples, "--schema", schema,
         "--epochs", "3", "--seed", "0", "--out", str(paths["lr"])],
        ["train", "--model", "lstm", "--samples", samples, "--schema", schema,
         "--config", str(lstm_config), "--seed", "0", "--out", str(paths["lstm"])],
        ["evaluate", "--model", str(paths["lr"] / "model.json"), "--samples", samples,
         "--out", str(paths["evaluate"])],
        ["attribute", "--model", str(paths["lr"] / "model.json"),
         "--out", str(paths["attr_lr"])],
        ["attribute", "--model", str(paths["lstm"] / "model.json"), "--samples", samples,
         "--steps", "16", "--top", "5", "--out", str(paths["attr_lstm"])],
    ]
    return paths, stages


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full six-stage run shared by the read-only assertions below."""
    paths, stages = _pipeline_stages(tmp_path_factory.mktemp("pipeline"))
    for argv in stages:
        assert main(argv) == 0, f"stage {argv[0]} failed"
    return paths


def _lines(path):
    return path.read_text(encoding="utf-8").splitlines()


# -- per-stage artifacts ------------------------------------------------------


def test_generate_writes_tables_and_hashed_manifest(pipeline):
    data = pipeline["data"]
    manifest = read_json(data / "manifest.json")
    assert manifest["stage"] == "generate"
    assert manifest["seed"] == 11
    assert manifest["inputs"] == {}
    assert manifest["config"]["n_patients"] == 150
    for kind in ("encounters", "medications", "labs", "diagnoses"):
        path = data / f"{kind}.csv"
        assert path.exists()
        assert manifest["outputs"][kind]["sha256"] == sha256_file(path)


def test_cohort_stage_artifacts(pipeline):
    out = pipeline["cohort"]
    manifest = read_json(out / "manifest.json")
    assert manifest["stage"] == "cohort"
    for kind in ("encounters", "medications", "labs", "diagnoses"):
        source = pipeline["data"] / f"{kind}.csv"
        assert manifest["inputs"][kind]["sha256"] == sha256_file(source)
    assert manifest["config"]["row_errors"] == 0
    assert manifest["config"]["horizon_days"] == 90

    cohort = cohort_from_dict(read_json(out / "samples.json"))
    assert cohort.total_patients == 150
    assert cohort.samples
    assert {cohort.splits[s.patient] for s in cohort.samples} == {
        "train", "validation", "test",
    }
    assert _lines(out / "exclusions.csv")[0] == "rule,excluded_count,remaining_count"
    assert _lines(out / "row_errors.csv")  # header row even when clean


def test_featurize_stage_artifacts(pipeline):
    out = pipeline["features"]
    manifest = read_json(out / "manifest.json")
    config = manifest["config"]
    assert config["n_train_samples"] > 0
    assert config["n_columns"] > 0
    assert config["n_lr_columns"] > config["n_columns"]  # lag block widens it
    assert len(config["schema_hash"]) == 64
    for name in ("schema", "sequence_features", "lr_features"):
        path = out / manifest["outputs"][name]["path"].split("/")[-1]
        assert path.exists()
        assert manifest["outputs"][name]["sha256"] == sha256_file(path)


def test_train_stage_artifacts(pipeline):
    out = pipeline["lr"]
    manifest = read_json(out / "manifest.json")
    model = read_json(out / "model.json")
    assert model["format"] == "htnrisk-model/1"
    assert model["kind"] == "lr"
    assert model["training"]["config"]["max_epochs"] == 3
    log_lines = _lines(out / "train_log.csv")
    assert log_lines[0] == "epoch,train_loss,val_loss,seconds"
    assert len(log_lines) - 1 == model["training"]["epochs_run"]
    # timing log is recorded by path only: identical reruns differ there
    assert "train_log" in manifest["unhashed_outputs"]
    assert "train_log" not in manifest["outputs"]


def test_train_frees_the_decoded_cohort_before_training(pipeline, tmp_path, monkeypatch, capsys):
    import htnrisk.train as train
    from htnrisk.cohort import Cohort

    def cohorts():
        return {id(obj) for obj in gc.get_objects() if isinstance(obj, Cohort)}

    before = cohorts()
    alive_at_start = []
    train_model = train.train_model

    def watched(*args, **kwargs):
        alive_at_start.append(cohorts() - before)
        return train_model(*args, **kwargs)

    monkeypatch.setattr(train, "train_model", watched)
    assert main(["train", "--model", "lr", "--samples", str(pipeline["cohort"] / "samples.json"),
                 "--schema", str(pipeline["features"] / "schema.json"), "--epochs", "1",
                 "--out", str(tmp_path / "lr")]) == 0
    assert alive_at_start == [set()]


def test_train_lstm_uses_config_file(pipeline):
    model = read_json(pipeline["lstm"] / "model.json")
    assert model["kind"] == "lstm"
    assert model["shapes"]["hidden"] == 8
    assert model["training"]["config"]["hidden_size"] == 8
    assert model["training"]["stop_reason"] in ("early_stop", "max_epochs")
    # Fields the file leaves out keep the defaults of the --model kind.
    assert model["training"]["config"]["dropout_rate"] == 0.2
    assert model["training"]["config"]["optimizer"] == "rmsprop"


def test_train_flags_win_over_the_config_file(pipeline, tmp_path):
    config = tmp_path / "train.kv"
    config.write_text(
        "model_kind=lstm\nseed=7\nmax_epochs=50\nlearning_rate=0.01\n", encoding="utf-8"
    )
    out = tmp_path / "lr"
    assert main(["train", "--model", "lr", "--samples", str(pipeline["cohort"] / "samples.json"),
                 "--schema", str(pipeline["features"] / "schema.json"), "--config", str(config),
                 "--seed", "3", "--epochs", "1", "--out", str(out)]) == 0
    trained = read_json(out / "model.json")["training"]["config"]
    assert (trained["model_kind"], trained["seed"], trained["max_epochs"]) == ("lr", 3, 1)
    assert trained["learning_rate"] == 0.01
    # The defaults are those of --model lr, not of the file's model_kind.
    assert (trained["optimizer"], trained["dropout_rate"]) == ("adam", 0.0)


def test_evaluate_stage_artifacts(pipeline):
    out = pipeline["evaluate"]
    report = read_json(out / "report.json")
    assert report["model_kind"] == "lr"
    assert report["split"] == "test"
    for section in ("model", "baseline"):
        assert 0.0 <= report[section]["auroc"] <= 1.0
    roc = _lines(out / "roc_model.csv")
    assert roc[0] == "threshold,fpr,tpr"
    assert roc[1] == "inf,0,0"
    assert (out / "roc_baseline.csv").exists()


def test_attribute_lr_ranks_weights(pipeline, tmp_path):
    lines = _lines(pipeline["attr_lr"] / "lr_weights.csv")
    assert lines[0] == "feature,weight,rank"
    assert lines[1].endswith(",1")
    # min(--top, F) rows, never the bias: a --top beyond F ranks each
    # weight once and nothing else.
    columns = read_json(pipeline["features"] / "schema.json")["lr_columns"]
    assert main(["attribute", "--model", str(pipeline["lr"] / "model.json"),
                 "--top", str(len(columns) + 5), "--out", str(tmp_path)]) == 0
    for top, out in ((20, pipeline["attr_lr"]), (len(columns) + 5, tmp_path)):  # 20: default
        names = [line.split(",")[0] for line in _lines(out / "lr_weights.csv")[1:]]
        assert len(names) == min(top, len(columns))
        assert set(names) <= set(columns) and len(set(names)) == len(names)


def test_attribute_lstm_writes_per_step_and_aggregate(pipeline):
    out = pipeline["attr_lstm"]
    per_step = _lines(out / "attributions.csv")
    assert per_step[0] == "feature,timestep,score"
    agg = _lines(out / "attributions_agg.csv")
    assert agg[0] == "feature,total_score,rank"
    assert len(agg) - 1 == 5  # --top 5
    manifest = read_json(out / "manifest.json")
    assert manifest["config"]["steps"] == 16


def test_every_csv_is_utf8_with_lf_line_endings(pipeline):
    paths = sorted(pipeline["root"].rglob("*.csv"))
    assert {path.name for path in paths} == {
        "encounters.csv", "medications.csv", "labs.csv", "diagnoses.csv",
        "exclusions.csv", "row_errors.csv", "sequence_features.csv", "lr_features.csv",
        "train_log.csv", "roc_model.csv", "roc_baseline.csv", "lr_weights.csv",
        "attributions.csv", "attributions_agg.csv",
    }
    for path in paths:
        assert "\r" not in path.read_bytes().decode("utf-8"), path


# -- reruns -------------------------------------------------------------------


def test_rerun_reproduces_artifacts_byte_for_byte(pipeline, tmp_path):
    again = tmp_path / "data2"
    assert main(["generate", "--out", str(again), "--seed", "11", "--patients", "150"]) == 0
    for kind in ("encounters", "medications", "labs", "diagnoses"):
        assert (again / f"{kind}.csv").read_bytes() == (
            pipeline["data"] / f"{kind}.csv"
        ).read_bytes()

    retrain = tmp_path / "lr2"
    samples = str(pipeline["cohort"] / "samples.json")
    schema = str(pipeline["features"] / "schema.json")
    assert main(["train", "--model", "lr", "--samples", samples, "--schema", schema,
                 "--epochs", "3", "--seed", "0", "--out", str(retrain)]) == 0
    assert (retrain / "model.json").read_bytes() == (
        pipeline["lr"] / "model.json"
    ).read_bytes()

    reeval = tmp_path / "eval2"
    assert main(["evaluate", "--model", str(pipeline["lr"] / "model.json"),
                 "--samples", samples, "--out", str(reeval)]) == 0
    assert (reeval / "report.json").read_bytes() == (
        pipeline["evaluate"] / "report.json"
    ).read_bytes()


def test_different_seed_changes_the_model(pipeline, tmp_path):
    out = tmp_path / "lr_seed1"
    samples = str(pipeline["cohort"] / "samples.json")
    schema = str(pipeline["features"] / "schema.json")
    assert main(["train", "--model", "lr", "--samples", samples, "--schema", schema,
                 "--epochs", "3", "--seed", "1", "--out", str(out)]) == 0
    assert (out / "model.json").read_bytes() != (
        pipeline["lr"] / "model.json"
    ).read_bytes()


# -- cyclic garbage collector ---------------------------------------------------


def _with_collector_disabled(run):
    """Call `run` with the cyclic collector disabled and drop its result.
    Returns whether the collector was still disabled afterwards and how
    many unreachable objects a collection then found."""
    gc.collect()
    gc.disable()
    try:
        run()
        return not gc.isenabled(), gc.collect()
    finally:
        gc.enable()


def test_stages_leave_no_cyclic_garbage_beyond_the_parser(
    pipeline, tmp_path, monkeypatch, capsys
):
    # main pauses the collector for each stage, which is safe only while
    # stages build no reference cycles; argparse's parser is the one
    # cyclic structure main makes. The fixture has run every lazy import.
    _, parser_only = _with_collector_disabled(build_parser)
    assert parser_only > 0
    paths, stages = _pipeline_stages(tmp_path)
    lr_model = str(paths["lr"] / "model.json")
    failing = [
        (["attribute", "--model", lr_model, "--top", "0", "--out", str(tmp_path / "x")], 1),
        (["featurize", "--samples", str(tmp_path / "missing.json"),
          "--out", str(tmp_path / "x")], 2),
    ]

    def check(argv, code):
        codes = []
        still_disabled, found = _with_collector_disabled(lambda: codes.append(main(argv)))
        assert codes == [code], argv[0]
        assert still_disabled, f"{argv[0]} re-enabled a collector its caller disabled"
        assert found <= parser_only, f"{argv[0]} left {found} cyclic objects"

    for argv, code in [(argv, 0) for argv in stages] + failing:
        check(argv, code)
    # The 150 patients are one block; with two, generate forks a child.
    _split_into_blocks(monkeypatch, cores=2)
    check(stages[0], 0)


def _raise_key_error(args):
    raise KeyError("not caught by main")


def test_main_leaves_an_enabled_collector_enabled(pipeline, tmp_path, monkeypatch, capsys):
    lr_model = str(pipeline["lr"] / "model.json")
    out = str(tmp_path / "out")
    for argv, code in (
        (["attribute", "--model", lr_model, "--out", out], 0),
        (["attribute", "--model", lr_model, "--top", "0", "--out", out], 1),
        (["featurize", "--samples", str(tmp_path / "missing.json"), "--out", out], 2),
    ):
        assert main(argv) == code
        assert gc.isenabled(), f"exit {code}"
    monkeypatch.setattr(cli, "cmd_attribute", _raise_key_error)
    with pytest.raises(KeyError):
        main(["attribute", "--model", lr_model, "--out", out])
    assert gc.isenabled()


# -- generation in patient blocks ------------------------------------------------


def _split_into_blocks(monkeypatch, cores):
    """Make generate use `cores` blocks for any cohort of at least that many
    patients; returns the block count of each run, as it reaches run_blocks."""
    monkeypatch.setattr(synth, "usable_cores", lambda: cores)
    monkeypatch.setattr(synth, "MIN_BLOCK_PATIENTS", 1)
    block_counts = []

    def counted(blocks, *rest):
        block_counts.append(len(blocks))
        return parallel.run_blocks(blocks, *rest)

    monkeypatch.setattr(synth, "run_blocks", counted)
    return block_counts


@pytest.mark.parametrize("n_patients, cores", [(7, 2), (7, 3), (2, 3)])
def test_generated_files_do_not_depend_on_the_block_count(
    tmp_path, monkeypatch, capsys, n_patients, cores
):
    block_counts = []

    def generate(name, cores):
        # Each run writes to "data" in its own directory, so the manifests'
        # paths agree too.
        run_dir = tmp_path / name
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        counts = _split_into_blocks(monkeypatch, cores)
        argv = ["generate", "--out", "data", "--seed", "4", "--patients", str(n_patients)]
        assert main(argv) == 0
        block_counts.extend(counts)
        files = {path.name: path.read_bytes() for path in (run_dir / "data").iterdir()}
        out = capsys.readouterr().out
        # The count the blocks return is the number of rows they wrote.
        rows = files["encounters.csv"].count(b"\n") - 1
        assert out.startswith(f"generate: wrote {rows} encounters for {n_patients} patients")
        return files, out

    one_block = generate("one", 1)
    assert sorted(one_block[0]) == [
        "diagnoses.csv", "encounters.csv", "labs.csv", "manifest.json", "medications.csv",
    ]
    assert generate("many", cores) == one_block
    assert block_counts == [1, min(cores, n_patients)]


@pytest.mark.parametrize("failing", ["P00000", "P00004"])  # in block 0; in the last, forked one
def test_a_data_error_in_any_block_is_a_data_error(tmp_path, monkeypatch, capsys, failing):
    _split_into_blocks(monkeypatch, cores=3)
    generate_patient = synth._generate_patient

    def fail_for_one_patient(pid, rng, config):
        if pid == failing:
            raise DataError(f"cannot generate {pid}")
        return generate_patient(pid, rng, config)

    monkeypatch.setattr(synth, "_generate_patient", fail_for_one_patient)
    assert main(["generate", "--out", str(tmp_path / "d"), "--seed", "1", "--patients", "6"]) == 2
    assert capsys.readouterr().err == f"error: generate: cannot generate {failing}\n"
    assert multiprocessing.active_children() == []


def test_a_block_process_that_dies_is_a_data_error(tmp_path, monkeypatch, capsys):
    _split_into_blocks(monkeypatch, cores=3)
    generate_patient = synth._generate_patient

    def die_in_block_1(pid, rng, config):
        if pid == "P00002":
            os._exit(7)
        return generate_patient(pid, rng, config)

    monkeypatch.setattr(synth, "_generate_patient", die_in_block_1)
    assert main(["generate", "--out", str(tmp_path / "d"), "--seed", "1", "--patients", "6"]) == 2
    assert capsys.readouterr().err == (
        "error: generate: the process generating patients 2-3 exited with code 7 "
        "before sending them\n"
    )
    assert multiprocessing.active_children() == []


# -- integrated gradients in sample blocks ---------------------------------------


def _attribute_in_blocks(monkeypatch, cores):
    """Make attribute use `cores` blocks for any split of at least that many
    samples; returns the block count of each run, as it reaches run_blocks."""
    monkeypatch.setattr(attribution, "usable_cores", lambda: cores)
    monkeypatch.setattr(attribution, "MIN_BLOCK_SAMPLES", 1)
    block_counts = []

    def counted(blocks, *rest):
        block_counts.append(len(blocks))
        return parallel.run_blocks(blocks, *rest)

    monkeypatch.setattr(attribution, "run_blocks", counted)
    return block_counts


def _attribute_lstm(pipeline, out):
    return main(["attribute", "--model", str(pipeline["lstm"] / "model.json"),
                 "--samples", str(pipeline["cohort"] / "samples.json"),
                 "--steps", "16", "--top", "5", "--out", str(out)])


def _attribute_with_cores(pipeline, tmp_path, monkeypatch, name, cores):
    """The files of one LSTM attribute run in `cores` blocks, and the block
    counts it used. Each run writes "attr" in its own directory, so the
    manifests' output paths agree too."""
    run_dir = tmp_path / name
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    block_counts = _attribute_in_blocks(monkeypatch, cores)
    assert _attribute_lstm(pipeline, "attr") == 0
    return {path.name: path.read_bytes() for path in (run_dir / "attr").iterdir()}, block_counts


@pytest.mark.parametrize("cores", [2, 3])
def test_attributions_do_not_depend_on_the_block_count(
    pipeline, tmp_path, monkeypatch, capsys, blas_threads, cores
):
    one_block, counts = _attribute_with_cores(pipeline, tmp_path, monkeypatch, "one", 1)
    assert sorted(one_block) == ["attributions.csv", "attributions_agg.csv", "manifest.json"]
    assert counts == [1]
    many, counts = _attribute_with_cores(pipeline, tmp_path, monkeypatch, "many", cores)
    assert many == one_block
    assert counts == [cores]
    assert blas_threads() == 2
    assert multiprocessing.active_children() == []


def test_attribute_uses_one_block_when_blas_threads_cannot_be_capped(
    pipeline, tmp_path, monkeypatch, capsys
):
    one_block, _ = _attribute_with_cores(pipeline, tmp_path, monkeypatch, "one", 1)
    monkeypatch.setattr(parallel, "blas_thread_control", lambda: None)
    uncapped, counts = _attribute_with_cores(pipeline, tmp_path, monkeypatch, "uncapped", 3)
    assert counts == [1]
    assert uncapped == one_block
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("in_child", [False, True], ids=["block-0", "forked-block"])
def test_a_numerical_error_in_any_sample_block_exits_3(
    pipeline, tmp_path, monkeypatch, capsys, blas_threads, in_child
):
    _attribute_in_blocks(monkeypatch, cores=3)
    parent = os.getpid()
    input_gradients = attribution.lstm_input_gradients

    def fail_in_one_process(params, points):
        if (os.getpid() != parent) == in_child:
            raise NumericalError("non-finite values in lstm activations at step 0")
        return input_gradients(params, points)

    monkeypatch.setattr(attribution, "lstm_input_gradients", fail_in_one_process)
    assert _attribute_lstm(pipeline, tmp_path / "attr") == 3
    assert capsys.readouterr().err == (
        "error: attribute: non-finite values in lstm activations at step 0\n"
    )
    assert blas_threads() == 2
    assert multiprocessing.active_children() == []


def test_a_sample_block_process_that_dies_is_a_data_error(
    pipeline, tmp_path, monkeypatch, capsys, blas_threads
):
    _attribute_in_blocks(monkeypatch, cores=2)
    parent = os.getpid()
    input_gradients = attribution.lstm_input_gradients

    def die_in_the_child(params, points):
        if os.getpid() != parent:
            os._exit(7)
        return input_gradients(params, points)

    monkeypatch.setattr(attribution, "lstm_input_gradients", die_in_the_child)
    n = len(cli._evaluation_samples(pipeline["cohort"] / "samples.json", "test"))
    assert _attribute_lstm(pipeline, tmp_path / "attr") == 2
    assert capsys.readouterr().err == (
        f"error: attribute: the process attributing samples {n // 2}-{n - 1} "
        "exited with code 7 before sending them\n"
    )
    assert blas_threads() == 2
    assert multiprocessing.active_children() == []


# -- exit codes and error reporting -------------------------------------------


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert "error: usage:" in capsys.readouterr().err


def test_missing_required_flag_is_a_usage_error(capsys):
    assert main(["generate"]) == 1
    assert "error: usage:" in capsys.readouterr().err


def test_bad_model_choice_is_a_usage_error(capsys):
    assert main(["train", "--model", "xgb", "--samples", "s", "--schema", "c",
                 "--out", "o"]) == 1
    assert "error: usage:" in capsys.readouterr().err


_BAD_GENERATOR_SETTINGS = [
    ("gap_mean=0", "gap_mean and gap_sd must be positive"),
    ("gap_sd=0", "gap_mean and gap_sd must be positive"),
    ("phi=1", "phi must be in (-1, 1), got 1.0"),
    ("phi=-1.5", "phi must be in (-1, 1), got -1.5"),
    ("visits_min=1.5", "visits_min='1.5' is not a valid int"),
    ("flux=1", "unknown config key 'flux'"),
    ("visits_min=0", "1 <= visits_min <= visits_max, got 0 and 10"),
    ("visits_min=11", "1 <= visits_min <= visits_max, got 11 and 10"),
    ("miss_bp=2", "miss_bp must be in [0, 1], got 2.0"),
    ("hi_prob=-0.1", "hi_prob must be in [0, 1], got -0.1"),
    ("deceased_rate=0.95", "last_gap_rate sum to 1.06, more than 1"),
    ("gap_mean=inf", "gap_mean='inf' is not a valid float"),
    ("noise_sd=nan", "noise_sd='nan' is not a valid float"),
]


@pytest.mark.parametrize(
    ("setting", "message"), _BAD_GENERATOR_SETTINGS, ids=[s for s, _ in _BAD_GENERATOR_SETTINGS]
)
def test_bad_generator_config_is_a_usage_error(tmp_path, capsys, setting, message):
    config = tmp_path / "gen.kv"
    config.write_text(setting + "\n", encoding="utf-8")
    assert main(["generate", "--config", str(config), "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: generate: ") and err.endswith(f"{message}\n")
    assert err.count("\n") == 1


def test_undecodable_config_file_is_a_usage_error(tmp_path, capsys):
    # UnicodeDecodeError is a ValueError: exit 1, although it is raised reading a file.
    config = tmp_path / "gen.kv"
    config.write_bytes(b"seed=\xff\n")
    assert main(["generate", "--config", str(config), "--out", str(tmp_path / "d")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: generate: 'utf-8' codec can't decode byte 0xff")
    assert err.count("\n") == 1


@pytest.mark.parametrize("setting", ["learning_rate=nan", "l1_lambda=inf"])
def test_non_finite_training_config_is_a_usage_error_before_any_input_is_read(
    tmp_path, capsys, setting
):
    config = tmp_path / "train.kv"
    config.write_text(setting + "\n", encoding="utf-8")
    missing, out = str(tmp_path / "missing"), tmp_path / "out"
    assert main(["train", "--model", "lr", "--samples", missing, "--schema", missing,
                 "--config", str(config), "--out", str(out)]) == 1
    key, value = setting.split("=")
    assert capsys.readouterr().err == (
        f"error: train: {config}: {key}={value!r} is not a valid float\n"
    )
    assert not out.exists()


def test_nonpositive_patient_count_is_a_data_error(tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path / "d"), "--patients", "0"]) == 2
    assert "error: generate: empty cohort" in capsys.readouterr().err


def test_missing_source_table_is_a_data_error(tmp_path, capsys):
    assert main(["cohort", "--data", str(tmp_path / "nowhere"),
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cohort: ")


def _copy_of_source_tables(pipeline, tmp_path):
    data = tmp_path / "data"
    shutil.copytree(pipeline["data"], data)
    return data


def test_undecodable_source_table_is_a_data_error(pipeline, tmp_path, capsys):
    data = _copy_of_source_tables(pipeline, tmp_path)
    labs = data / "labs.csv"
    labs.write_bytes(labs.read_bytes() + b"P00001,2013-01-01,\xff\xfe\n")
    assert main(["cohort", "--data", str(data), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: cohort: {labs}: not UTF-8 text (invalid start byte)\n"
    )


def test_short_rows_and_non_finite_readings_are_row_errors(pipeline, tmp_path, capsys):
    data = _copy_of_source_tables(pipeline, tmp_path)
    medications = data / "medications.csv"
    n_medications = len(_lines(medications)) - 1
    with medications.open("a", encoding="utf-8") as handle:
        handle.write("P00001,2013-01-01\n")
    encounters = data / "encounters.csv"
    header, first = _lines(encounters)[:2]
    n_encounters = len(_lines(encounters)) - 1
    columns = header.split(",")
    with encounters.open("a", encoding="utf-8") as handle:
        for column, cell in (("systolic", "nan"), ("diastolic", "inf")):
            cells = first.split(",")
            cells[columns.index(column)] = cell
            handle.write(",".join(cells) + "\n")
    out = tmp_path / "out"
    assert main(["cohort", "--data", str(data), "--out", str(out)]) == 0
    assert _lines(out / "row_errors.csv") == [
        "row,table,message",
        f"{n_encounters + 2},encounters,non-finite numeric 'nan' in column systolic",
        f"{n_encounters + 3},encounters,non-finite numeric 'inf' in column diastolic",
        f"{n_medications + 2},medications,\"expected 3 cells, got 2\"",
    ]
    assert read_json(out / "manifest.json")["config"]["row_errors"] == 3


def test_row_errors_are_reported_in_table_order(pipeline, tmp_path, capsys):
    data = _copy_of_source_tables(pipeline, tmp_path)
    expected = ["row,table,message"]
    for kind in ("encounters", "labs", "diagnoses"):
        path = data / f"{kind}.csv"
        header, *rows = _lines(path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("P00001,2013-01-01\n")
        width = len(header.split(","))
        expected.append(f'{len(rows) + 2},{kind},"expected {width} cells, got 2"')
    out = tmp_path / "out"
    assert main(["cohort", "--data", str(data), "--out", str(out)]) == 0
    assert (out / "row_errors.csv").read_bytes() == ("\n".join(expected) + "\n").encode()
    assert read_json(out / "manifest.json")["config"]["row_errors"] == 3


def test_a_bad_last_table_is_a_data_error_after_the_others_were_merged(
    pipeline, tmp_path, capsys
):
    data = _copy_of_source_tables(pipeline, tmp_path)
    diagnoses = data / "diagnoses.csv"
    header, *rows = _lines(diagnoses)
    code = header.split(",").index("code")
    diagnoses.write_text(
        "".join(",".join(c for i, c in enumerate(line.split(",")) if i != code) + "\n"
                for line in [header, *rows]),
        encoding="utf-8",
    )
    out = tmp_path / "out"
    assert main(["cohort", "--data", str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cohort: {diagnoses}: missing column(s) code\n"
    assert not (out / "samples.json").exists()


class _Referable(list):
    """A parsed table a weak reference can point to."""


class _ReferableDict(dict):
    """Merged timelines a weak reference can point to."""


def test_cohort_holds_one_parsed_table_at_a_time(pipeline, tmp_path, monkeypatch, capsys):
    parsed = []  # (kind, weak references to its list and its records), in parse order
    alive_at_parse = []  # the kinds still alive as each table was parsed
    merged = []
    alive_at_serialize = []
    parse_table, merge, rows = cli.parse_table, cli.merge_patient_timeline, cohort.sample_rows

    def alive(table, records):
        # The merge's loop variable may still hold the last record it read.
        return table() is not None or sum(ref() is not None for ref in records) > 1

    def tracked_parse(path, kind, *bounds):
        alive_at_parse.append([k for k, *refs in parsed if alive(*refs)])
        records, errors = parse_table(path, kind, *bounds)
        table = _Referable(records)
        parsed.append((kind, weakref.ref(table), [weakref.ref(r) for r in records]))
        return table, errors

    def tracked_merge(*tables):
        timelines, stats = merge(*tables)
        timelines = _ReferableDict(timelines)
        merged.append(weakref.ref(timelines))
        return timelines, stats

    def tracked_rows(samples):  # the first step of the encoding
        alive_at_serialize.append(merged[0]() is not None)
        return rows(samples)

    monkeypatch.setattr(cli, "parse_table", tracked_parse)
    monkeypatch.setattr(cli, "merge_patient_timeline", tracked_merge)
    monkeypatch.setattr(cohort, "sample_rows", tracked_rows)
    out = tmp_path / "out"
    assert main(["cohort", "--data", str(pipeline["data"]), "--out", str(out)]) == 0
    assert [kind for kind, *_ in parsed] == list(TABLE_COLUMNS)
    # main runs the stage with the collector off, so refcounting alone
    # must free each table before the next is parsed, and every patient's
    # merged timeline once selection keeps the included ones.
    assert alive_at_parse == [[]] * len(TABLE_COLUMNS)
    assert alive_at_serialize == [False]
    assert (out / "samples.json").read_bytes() == (pipeline["cohort"] / "samples.json").read_bytes()


# -- cohort in patient blocks ------------------------------------------------------


def _select_in_blocks(monkeypatch, cores):
    """Make cohort use `cores` blocks for any table of at least that many
    patient ids; returns the block count of each run, as it reaches run_blocks."""
    monkeypatch.setattr(cli, "usable_cores", lambda: cores)
    monkeypatch.setattr(cli, "MIN_BLOCK_PATIENTS", 1)
    block_counts = []

    def counted(blocks, *rest):
        block_counts.append(len(blocks))
        return parallel.run_blocks(blocks, *rest)

    monkeypatch.setattr(cli, "run_blocks", counted)
    return block_counts


def _damaged_source_tables(pipeline, tmp_path):
    """The pipeline's tables with, in every table, a short row, a bad date
    and an empty patient_id; order rows of a patient with no encounters,
    and order rows dated before a patient's first visit. In three blocks
    the bad dates fall in the last one and the other row errors in the
    first."""
    data = _copy_of_source_tables(pipeline, tmp_path)
    for kind in TABLE_COLUMNS:
        path = data / f"{kind}.csv"
        first = _lines(path)[1].split(",")
        rows = ["P00148,2013-01-01", ",".join(["P00140", "2013-02-30", *first[2:]]),
                ",".join(["", *first[1:]])]
        if kind != "encounters":
            rows += [",".join([patient, day, *first[2:]]) for patient, day in (
                ("P00075x", "2014-05-01"), (" P00120 ", "1990-01-01"))]
        with path.open("a", encoding="utf-8") as handle:
            handle.write("\n".join(rows) + "\n")
    return data


@pytest.mark.parametrize("damaged", [False, True], ids=["pipeline", "damaged"])
def test_cohort_files_do_not_depend_on_the_block_count(
    pipeline, tmp_path, monkeypatch, capsys, damaged
):
    source = _damaged_source_tables(pipeline, tmp_path) if damaged else pipeline["data"]
    block_counts = []

    def select(name, cores):
        # Each run reads "data" and writes "cohort" in its own directory,
        # so the manifests' paths agree too.
        run_dir = tmp_path / name
        shutil.copytree(source, run_dir / "data")
        monkeypatch.chdir(run_dir)
        counts = _select_in_blocks(monkeypatch, cores)
        assert main(["cohort", "--data", "data", "--out", "cohort", "--seed", "3"]) == 0
        block_counts.extend(counts)
        files = {path.name: path.read_bytes() for path in (run_dir / "cohort").iterdir()}
        return files, capsys.readouterr().out

    one_block = select("one", 1)
    assert sorted(one_block[0]) == [
        "exclusions.csv", "manifest.json", "row_errors.csv", "samples.json",
    ]
    assert select("two", 2) == one_block
    assert select("three", 3) == one_block
    assert block_counts == [1, 2, 3]
    # The file is the canonical JSON of the cohort selected in one piece.
    tables = [parse_table(source / f"{kind}.csv", kind) for kind in TABLE_COLUMNS]
    timelines, _ = merge_patient_timeline(*(records for records, _ in tables))
    expected = canonical_json(cohort_to_dict(select_cohort(timelines, seed=3))) + "\n"
    assert one_block[0]["samples.json"] == expected.encode("utf-8")
    errors = [error for _, table_errors in tables for error in table_errors]
    assert len(_lines(tmp_path / "one" / "cohort" / "row_errors.csv")) == 1 + len(errors)
    if damaged:
        assert len(errors) == 12


@pytest.mark.parametrize("failing_block", [0, 2])  # in this process; in the last, forked one
def test_a_data_error_in_any_cohort_block_is_a_data_error(
    pipeline, tmp_path, monkeypatch, capsys, failing_block
):
    _select_in_blocks(monkeypatch, cores=3)
    select_patients = cli.select_patients

    def fail_in_one_block(timelines, *rest):
        if "P00149" in timelines or failing_block == 0:
            raise DataError(f"cannot select block {failing_block}")
        return select_patients(timelines, *rest)

    monkeypatch.setattr(cli, "select_patients", fail_in_one_block)
    out = tmp_path / "out"
    assert main(["cohort", "--data", str(pipeline["data"]), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cohort: cannot select block {failing_block}\n"
    assert multiprocessing.active_children() == []
    assert not out.exists()


@pytest.mark.parametrize("cores", [1, 2])
def test_an_oversized_csv_cell_is_a_data_error_at_any_block_count(
    pipeline, tmp_path, monkeypatch, capsys, cores
):
    data = _copy_of_source_tables(pipeline, tmp_path)
    labs = data / "labs.csv"
    line = len(_lines(labs)) + 1
    with labs.open("a", encoding="utf-8") as handle:
        handle.write("P00001,2013-01-01," + "x" * 200_000 + "\n")
    block_counts = _select_in_blocks(monkeypatch, cores)
    out = tmp_path / "out"
    assert main(["cohort", "--data", str(data), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: cohort: {labs}: line {line}: field larger than field limit (131072)\n"
    )
    assert block_counts == [cores]
    assert multiprocessing.active_children() == []
    assert not out.exists()


def test_a_cohort_block_process_that_dies_is_a_data_error(
    pipeline, tmp_path, monkeypatch, capsys
):
    _select_in_blocks(monkeypatch, cores=3)
    select_patients = cli.select_patients

    def die_in_block_1(timelines, *rest):
        if "P00075" in timelines:
            os._exit(7)
        return select_patients(timelines, *rest)

    monkeypatch.setattr(cli, "select_patients", die_in_block_1)
    assert main(["cohort", "--data", str(pipeline["data"]), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == (
        "error: cohort: the process selecting patients 50-99 exited with code 7 "
        "before sending them\n"
    )
    assert multiprocessing.active_children() == []


def test_an_empty_cohort_across_all_blocks_is_a_data_error(
    pipeline, tmp_path, monkeypatch, capsys
):
    data = _copy_of_source_tables(pipeline, tmp_path)
    encounters = data / "encounters.csv"
    header, *rows = _lines(encounters)
    firsts = {}
    for row in rows:  # one visit each: every patient fails the last-gap rule
        firsts.setdefault(row.split(",", 1)[0], row)
    encounters.write_text("\n".join([header, *firsts.values()]) + "\n", encoding="utf-8")
    block_counts = _select_in_blocks(monkeypatch, cores=3)
    assert main(["cohort", "--data", str(data), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == "error: cohort: empty cohort after exclusions\n"
    assert block_counts == [3]
    assert multiprocessing.active_children() == []


def test_fiscal_year_start_outside_the_months_is_a_usage_error(pipeline, tmp_path, capsys):
    assert main(["cohort", "--data", str(pipeline["data"]), "--out", str(tmp_path / "out"),
                 "--fiscal-year-start", "13"]) == 1
    assert capsys.readouterr().err == (
        "error: cohort: fiscal year start month must be in 1..12, got 13\n"
    )


def test_malformed_fractions_are_a_usage_error(pipeline, tmp_path, capsys):
    assert main(["cohort", "--data", str(pipeline["data"]),
                 "--out", str(tmp_path / "out"), "--fractions", "0.5,0.5"]) == 1
    assert "error: cohort: expected 3 comma-separated fractions" in capsys.readouterr().err


def test_missing_samples_file_is_a_data_error(tmp_path, capsys):
    assert main(["featurize", "--samples", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: featurize: ")


def test_truncated_samples_file_is_a_data_error(pipeline, tmp_path, capsys):
    text = (pipeline["cohort"] / "samples.json").read_bytes()
    samples = tmp_path / "samples.json"
    samples.write_bytes(text[: len(text) // 2])
    assert main(["featurize", "--samples", str(samples), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: featurize: ") and "not valid JSON" in err
    assert err.count("\n") == 1


def _featurize_damaged_samples(pipeline, tmp_path, damage) -> int:
    data = read_json(pipeline["cohort"] / "samples.json")
    damage(data)
    path = tmp_path / "samples.json"
    write_json(path, data)
    return main(["featurize", "--samples", str(path), "--out", str(tmp_path / "out")])


def test_samples_file_missing_a_key_is_a_data_error(pipeline, tmp_path, capsys):
    assert _featurize_damaged_samples(pipeline, tmp_path, lambda d: d.pop("patients")) == 2
    assert capsys.readouterr().err == "error: featurize: samples file lacks patients\n"


def test_sample_of_an_unknown_patient_is_a_data_error(pipeline, tmp_path, capsys):
    def rename(data):
        data["samples"][0]["patient"] = "nobody"

    assert _featurize_damaged_samples(pipeline, tmp_path, rename) == 2
    assert capsys.readouterr().err == "error: featurize: sample of unknown patient 'nobody'\n"


@pytest.mark.parametrize("target_index", [0, 999])
def test_target_index_outside_the_timeline_is_a_data_error(
    pipeline, tmp_path, capsys, target_index
):
    def move(data):
        data["samples"][0]["target_index"] = target_index

    assert _featurize_damaged_samples(pipeline, tmp_path, move) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: featurize: patient ") and err.count("\n") == 1
    assert f"target_index {target_index} outside 1.." in err


@pytest.mark.parametrize(("key", "value"), [("label", 5), ("final", 1)])
def test_bad_label_or_final_is_a_data_error(pipeline, tmp_path, capsys, key, value):
    def damage(data):
        data["samples"][0][key] = value

    assert _featurize_damaged_samples(pipeline, tmp_path, damage) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: featurize: patient ") and err.count("\n") == 1
    assert f": {key} {value} is not " in err


def _first_train_patient(data) -> str:
    return next(p for p, entry in data["patients"].items() if entry["split"] == "train")


def _damage_encounter(key, value=None):
    """Set `key` of a train patient's first encounter, or delete it."""
    def damage(data):
        encounter = data["patients"][_first_train_patient(data)]["encounters"][0]
        if value is None:
            del encounter[key]
        else:
            encounter[key] = value
    return damage


def _swap_dated_encounters(data):
    """Swap a train patient's first two adjacent encounters of different dates."""
    encounters = data["patients"][_first_train_patient(data)]["encounters"]
    i = next(i for i in range(len(encounters) - 1)
             if encounters[i]["date"] != encounters[i + 1]["date"])
    encounters[i], encounters[i + 1] = encounters[i + 1], encounters[i]


def _drop_sample_patient(data):
    del data["samples"][0]["patient"]


def _tally(rule, value=None):
    """Set the exclusion tally's count of `rule`, or delete it."""
    def damage(data):
        if value is None:
            del data["exclusion_tally"][rule]
        else:
            data["exclusion_tally"][rule] = value
    return damage


_TALLY_KEYS = ("samples file exclusion_tally has keys {}, expected "
               "['age', 'deceased', 'last_gap_90d', 'no_vitals', 'records_per_year']")


_DAMAGED_SAMPLES = [
    pytest.param(lambda d: d.update(patients=[]), "samples file patients is not an object",
                 id="patients-list"),
    pytest.param(lambda d: d.update(samples={}), "samples file samples is not a list",
                 id="samples-object"),
    pytest.param(lambda d: d.update(format="htnrisk-samples/2"),
                 "unsupported samples format 'htnrisk-samples/2'", id="samples-format"),
    pytest.param(_drop_sample_patient, "sample lacks patient", id="sample-without-patient"),
    pytest.param(_damage_encounter("date"), "encounter lacks date", id="encounter-without-date"),
    pytest.param(_damage_encounter("date", "2020-13-01"),
                 "encounter date '2020-13-01' is not an ISO date", id="month-13"),
    pytest.param(_damage_encounter("systolic", "high"),
                 "encounter systolic 'high' is not a number or null", id="systolic-text"),
    pytest.param(_swap_dated_encounters, "encounters are not in date order",
                 id="dates-out-of-order"),
    pytest.param(lambda d: d.update(horizon_days=0),
                 "samples file horizon_days must be at least 1, got 0", id="horizon-0"),
    pytest.param(_tally("deceased", "many"),
                 "samples file exclusion_tally deceased 'many' is not an integer",
                 id="tally-text"),
    pytest.param(_tally("age", True), "samples file exclusion_tally age True is not an integer",
                 id="tally-bool"),
    pytest.param(_tally("no_vitals", -1), "samples file exclusion_tally no_vitals -1 is negative",
                 id="tally-negative"),
    pytest.param(_tally("bogus", 3), _TALLY_KEYS.format(
        "['age', 'bogus', 'deceased', 'last_gap_90d', 'no_vitals', 'records_per_year']"),
                 id="tally-unknown-rule"),
    pytest.param(_tally("age"), _TALLY_KEYS.format(
        "['deceased', 'last_gap_90d', 'no_vitals', 'records_per_year']"), id="tally-missing-rule"),
    pytest.param(lambda d: d.update(total_patients=-5), "samples file total_patients -5 is less",
                 id="total-negative"),
]


@pytest.mark.parametrize(("damage", "message"), _DAMAGED_SAMPLES)
def test_damaged_samples_file_is_a_data_error(pipeline, tmp_path, capsys, damage, message):
    assert _featurize_damaged_samples(pipeline, tmp_path, damage) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: featurize: ") and err.count("\n") == 1
    assert message in err
    if message.startswith("encounter"):
        patient = _first_train_patient(read_json(pipeline["cohort"] / "samples.json"))
        assert err == f"error: featurize: patient {patient}: {message}\n"


def test_total_patients_must_cover_the_patients_and_the_excluded(pipeline, tmp_path, capsys):
    data = read_json(pipeline["cohort"] / "samples.json")
    n_patients, excluded = len(data["patients"]), sum(data["exclusion_tally"].values())
    least = n_patients + excluded

    def total(value):
        return lambda d: d.update(total_patients=value)

    assert _featurize_damaged_samples(pipeline, tmp_path, total(least)) == 0
    capsys.readouterr()
    assert _featurize_damaged_samples(pipeline, tmp_path, total(least - 1)) == 2
    assert capsys.readouterr().err == (
        f"error: featurize: samples file total_patients {least - 1} is less than its "
        f"{n_patients} patients plus {excluded} excluded\n"
    )


def test_unknown_split_is_a_data_error(pipeline, tmp_path, capsys):
    def relabel(data):
        next(iter(data["patients"].values()))["split"] = "bogus"

    assert _featurize_damaged_samples(pipeline, tmp_path, relabel) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: featurize: patient ") and err.endswith(": unknown split 'bogus'\n")
    assert err.count("\n") == 1


def _renamed_first_encounter(data, patient, at):
    other = next(p for p in data["patients"] if p != patient)
    data["patients"][patient]["encounters"][0]["patient"] = other


_ROWS_DIFFER = "sample rows differ from the ones its timeline yields"

#: Damages to one patient of a samples file: each takes the file, the
#: patient and the positions of its sample rows, the final one last.
_PATIENT_DAMAGES = [
    pytest.param(lambda data, patient, at: data["samples"].insert(at[-1], dict(
        data["samples"][at[-1]])), _ROWS_DIFFER, id="duplicated-final-row"),
    pytest.param(lambda data, patient, at: data["samples"][at[0]].update(final=True),
                 _ROWS_DIFFER, id="second-final"),
    pytest.param(lambda data, patient, at: data["samples"][at[-1]].update(
        label=1 - data["samples"][at[-1]]["label"]), _ROWS_DIFFER, id="flipped-label"),
    pytest.param(lambda data, patient, at: data["samples"].pop(at[0]), _ROWS_DIFFER,
                 id="dropped-row"),
    pytest.param(_renamed_first_encounter, "an encounter names another patient",
                 id="encounter-of-another-patient"),
]


@pytest.mark.parametrize("split", ["test", "train"])
@pytest.mark.parametrize(("damage", "message"), _PATIENT_DAMAGES)
def test_sample_rows_other_than_the_timeline_yields_are_a_data_error(
    pipeline, tmp_path, capsys, damage, message, split
):
    # evaluate decodes the test split only: a train patient's damage does not stop it.
    data = read_json(pipeline["cohort"] / "samples.json")
    patient = next(p for p, entry in data["patients"].items() if entry["split"] == split
                   and sum(row["patient"] == p for row in data["samples"]) >= 2)
    damage(data, patient, [i for i, row in enumerate(data["samples"]) if row["patient"] == patient])
    path = tmp_path / "samples.json"
    write_json(path, data)
    code = main(["evaluate", "--model", str(pipeline["lr"] / "model.json"),
                 "--samples", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    if split == "train":
        assert (code, err) == (0, "")
    else:
        assert (code, err) == (2, f"error: evaluate: patient {patient}: {message}\n")


def _evaluate_damaged_model(pipeline, tmp_path, damage, kind="lstm") -> int:
    model = read_json(pipeline[kind] / "model.json")
    damage(model)
    path = tmp_path / "model.json"
    write_json(path, model)
    return main(["evaluate", "--model", str(path),
                 "--samples", str(pipeline["cohort"] / "samples.json"),
                 "--out", str(tmp_path / "out")])


def _evaluate_damaged_lstm(pipeline, tmp_path, damage) -> int:
    return _evaluate_damaged_model(pipeline, tmp_path, lambda model: damage(model["weights"]))


def test_model_missing_a_gate_weight_is_a_data_error(pipeline, tmp_path, capsys):
    assert _evaluate_damaged_lstm(pipeline, tmp_path, lambda w: w.pop("W_i")) == 2
    assert capsys.readouterr().err == "error: evaluate: model.weights lacks W_i\n"


def test_gate_weight_of_the_wrong_shape_is_a_data_error(pipeline, tmp_path, capsys):
    def drop_rows(weights):
        weights["W_i"] = weights["W_i"][:-3]

    F = read_json(pipeline["lstm"] / "model.json")["shapes"]["n_features"]
    assert _evaluate_damaged_lstm(pipeline, tmp_path, drop_rows) == 2
    assert capsys.readouterr().err == (
        f"error: evaluate: model weight W_i has shape ({F - 3}, 8), expected ({F}, 8)\n"
    )


def _set(*path, value):
    """Set the node of a model file at `path` to `value`."""
    def damage(model):
        node = model
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return damage


_DAMAGED_MODELS = [
    pytest.param("lstm", _set("weights", "dense_b", value=True),
                 "model.weights dense_b True is not a number", id="lstm-bool-bias"),
    pytest.param("lstm", _set("weights", "dense_b", value="1e-3"),
                 "model.weights dense_b '1e-3' is not a number", id="lstm-string-bias"),
    pytest.param("lstm", _set("weights", "W_i", 0, 0, value="0.25"),
                 "model.weights.W_i[0] '0.25' is not a number", id="lstm-string-kernel-entry"),
    pytest.param("lstm", _set("weights", "U_f", 1, 2, value=None),  # row-major: 1 * 8 + 2
                 "model.weights.U_f[10] None is not a number", id="lstm-null-recurrent-entry"),
    pytest.param("lr", _set("weights", "w", 0, value=False),
                 "model.weights.w[0] False is not a number", id="lr-bool-weight"),
    pytest.param("lstm", _set("training", value=[]), "model training is not an object",
                 id="training-list"),
    pytest.param("lr", _set("format", value="htnrisk-model/2"),
                 "unsupported model format 'htnrisk-model/2'", id="model-format"),
    pytest.param("lr", _set("schema", "format", value=None), "unsupported schema format None",
                 id="schema-format"),
]


@pytest.mark.parametrize(("kind", "damage", "message"), _DAMAGED_MODELS)
def test_damaged_model_is_a_data_error(pipeline, tmp_path, capsys, kind, damage, message):
    assert _evaluate_damaged_model(pipeline, tmp_path, damage, kind) == 2
    assert capsys.readouterr().err == f"error: evaluate: {message}\n"


def test_schema_missing_a_key_is_a_data_error(pipeline, tmp_path, capsys):
    damage = lambda model: model["schema"].pop("numeric")
    assert _evaluate_damaged_model(pipeline, tmp_path, damage) == 2
    assert capsys.readouterr().err == (
        "error: evaluate: schema lacks numeric\n"
    )


def test_schema_value_of_the_wrong_type_is_a_data_error(pipeline, tmp_path, capsys):
    def retype(model):
        model["schema"]["numeric"]["systolic"]["mean"] = "high"

    assert _evaluate_damaged_model(pipeline, tmp_path, retype) == 2
    assert capsys.readouterr().err == (
        "error: evaluate: schema.numeric.systolic mean 'high' is not a number\n"
    )


@pytest.mark.parametrize("key", ["columns", "lr_columns"])
def test_schema_one_column_short_is_a_data_error(pipeline, tmp_path, capsys, key):
    damage = lambda model: model["schema"][key].pop()
    assert _evaluate_damaged_model(pipeline, tmp_path, damage) == 2
    assert capsys.readouterr().err == (
        "error: evaluate: schema columns differ from the ones its statistics define\n"
    )


def test_model_width_other_than_its_schema_is_a_data_error(pipeline, tmp_path, capsys):
    # An LR model cut to the per-record width: its weights match its
    # shapes, but the flat input it reads is wider.
    def narrow(model):
        width = len(model["schema"]["columns"])
        model["shapes"]["n_features"] = width
        model["weights"]["w"] = model["weights"]["w"][:width]

    assert _evaluate_damaged_model(pipeline, tmp_path, narrow, kind="lr") == 2
    schema = read_json(pipeline["features"] / "schema.json")
    width, lr_width = len(schema["columns"]), len(schema["lr_columns"])
    assert capsys.readouterr().err == (
        f"error: evaluate: model shapes.n_features is {width}, "
        f"but its schema makes {lr_width} features\n"
    )


def test_grid_training_keeps_the_winners_run(pipeline, tmp_path, monkeypatch):
    import htnrisk.train as train

    monkeypatch.setattr(
        train, "SEARCH_GRIDS", {"learning_rate": (1e-3, 1e-2), "l1_lambda": (0.0, 1e-3)}
    )
    calls = []
    original = train.train_model

    def counted(config, *data):
        calls.append(config)
        return original(config, *data)

    monkeypatch.setattr(train, "train_model", counted)
    argv = ["train", "--model", "lr", "--samples", str(pipeline["cohort"] / "samples.json"),
            "--schema", str(pipeline["features"] / "schema.json"), "--epochs", "3",
            "--seed", "0"]
    grid_out = tmp_path / "grid"
    assert main(argv + ["--grid", "--out", str(grid_out)]) == 0
    assert len(calls) == 4  # one run per candidate, no retraining of the winner
    # Training the winning config from scratch writes the same bytes.
    winner = read_json(grid_out / "model.json")["training"]["config"]
    config = tmp_path / "winner.kv"
    config.write_text("".join(f"{k}={v}\n" for k, v in winner.items()), encoding="utf-8")
    plain_out = tmp_path / "plain"
    assert main(argv + ["--config", str(config), "--out", str(plain_out)]) == 0
    assert (grid_out / "model.json").read_bytes() == (plain_out / "model.json").read_bytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_exploding_training_is_a_numerical_error(pipeline, tmp_path, capsys):
    config = tmp_path / "boom.kv"
    config.write_text("learning_rate=1e308\nmax_epochs=6\nl1_lambda=0.0\n", encoding="utf-8")
    assert main(["train", "--model", "lr",
                 "--samples", str(pipeline["cohort"] / "samples.json"),
                 "--schema", str(pipeline["features"] / "schema.json"),
                 "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith("error: train: ")


def test_divergence_still_writes_the_partial_log(pipeline, tmp_path, monkeypatch, capsys):
    import htnrisk.train as train

    log = train.TrainLog([train.EpochStat(1, 0.7, float("nan"), 0.01)], "diverged")

    def explode(config, train_data, val_data):
        raise train.TrainingDiverged("validation loss is not finite", log)

    monkeypatch.setattr(train, "train_model", explode)
    out = tmp_path / "out"
    assert main(["train", "--model", "lr",
                 "--samples", str(pipeline["cohort"] / "samples.json"),
                 "--schema", str(pipeline["features"] / "schema.json"),
                 "--out", str(out)]) == 3
    assert "error: train: validation loss is not finite" in capsys.readouterr().err
    lines = _lines(out / "train_log.csv")
    assert lines[0] == "epoch,train_loss,val_loss,seconds"
    assert lines[1].startswith("1,0.7,nan,")
    assert not (out / "model.json").exists()


def test_empty_evaluation_split_is_a_data_error(pipeline, tmp_path, capsys):
    # 3 patients all land in the training split, so test is empty.
    data = tmp_path / "tiny"
    coh = tmp_path / "tinycoh"
    assert main(["generate", "--out", str(data), "--seed", "5", "--patients", "3"]) == 0
    assert main(["cohort", "--data", str(data), "--out", str(coh)]) == 0
    capsys.readouterr()
    assert main(["evaluate", "--model", str(pipeline["lr"] / "model.json"),
                 "--samples", str(coh / "samples.json"), "--split", "test",
                 "--out", str(tmp_path / "ev")]) == 2
    assert "error: evaluate: no evaluation samples in split 'test'" in capsys.readouterr().err


def test_lstm_attribution_without_samples_is_a_usage_error(pipeline, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["attribute", "--model", str(pipeline["lstm"] / "model.json"),
                 "--out", str(out)]) == 1
    assert "error: attribute: --samples is required" in capsys.readouterr().err
    assert not out.exists()


def test_lstm_attribution_of_a_damaged_samples_file_is_a_data_error(pipeline, tmp_path, capsys):
    data = read_json(pipeline["cohort"] / "samples.json")
    first = data["samples"].pop(0)
    data["samples"].append(first)  # after the rows of every later entry
    path = tmp_path / "samples.json"
    write_json(path, data)
    out = tmp_path / "out"
    assert main(["attribute", "--model", str(pipeline["lstm"] / "model.json"),
                 "--samples", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: attribute: patient {first['patient']}: sample rows are not in "
        f"patient-entry order\n")
    assert not out.exists()


def test_nonpositive_top_is_a_usage_error(pipeline, tmp_path, capsys):
    assert main(["attribute", "--model", str(pipeline["lr"] / "model.json"),
                 "--top", "0", "--out", str(tmp_path / "out")]) == 1
    assert "error: attribute: --top must be positive" in capsys.readouterr().err


def _model_with_a_nan_weight(pipeline, tmp_path, kind):
    model = read_json(pipeline[kind] / "model.json")
    if kind == "lr":
        model["weights"]["w"][0] = float("nan")
    else:
        model["weights"]["W_i"][0][0] = float("nan")
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model), encoding="utf-8")  # json.dumps writes NaN; write_json refuses
    return path


@pytest.mark.parametrize(("stage", "kind"), [("evaluate", "lr"), ("attribute", "lr"),
                                             ("evaluate", "lstm")])
def test_nan_in_a_model_file_is_a_data_error(pipeline, tmp_path, capsys, stage, kind):
    path = _model_with_a_nan_weight(pipeline, tmp_path, kind)
    assert main([stage, "--model", str(path),
                 "--samples", str(pipeline["cohort"] / "samples.json"),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"error: {stage}: {path}: not valid JSON: NaN is not a number\n"
    )


# A flag no stage may accept, given with an input that does not exist
# (MISSING) or, for the LR model that attribute reads no samples for, a
# real one (LR_MODEL).
_BAD_FLAGS = [
    ("cohort-fiscal-year-start", ["cohort", "--data", "MISSING", "--fiscal-year-start", "13"],
     "fiscal year start month must be in 1..12, got 13"),
    ("cohort-two-fractions", ["cohort", "--data", "MISSING", "--fractions", "0.5,0.5"],
     "expected 3 comma-separated fractions, got 2"),
    ("cohort-nan-fraction", ["cohort", "--data", "MISSING", "--fractions", "nan,0.5,0.5"],
     "fractions must be non-negative and sum to 1, got (nan, 0.5, 0.5)"),
    ("cohort-non-numeric-fraction", ["cohort", "--data", "MISSING", "--fractions", "0.7,x,0.15"],
     "--fractions must be three comma-separated numbers such as 0.7,0.15,0.15, got '0.7,x,0.15'"),
    ("cohort-negative-horizon", ["cohort", "--data", "MISSING", "--horizon", "-5"],
     "horizon must be at least 1 day, got -5"),
    ("cohort-zero-horizon", ["cohort", "--data", "MISSING", "--horizon", "0"],
     "horizon must be at least 1 day, got 0"),
    ("train-zero-epochs", ["train", "--samples", "MISSING", "--schema", "MISSING",
                           "--model", "lr", "--epochs", "0"],
     "learning_rate, batch_size, and max_epochs must be positive"),
    ("attribute-zero-steps", ["attribute", "--model", "MISSING", "--steps", "0"],
     "--steps must be positive"),
    ("attribute-lr-zero-steps", ["attribute", "--model", "LR_MODEL", "--steps", "0"],
     "--steps must be positive"),
    ("evaluate-nan-threshold", ["evaluate", "--model", "LR_MODEL", "--samples", "MISSING",
                                "--threshold", "nan"],
     "--threshold must be a finite number, got nan"),
]


@pytest.mark.parametrize(("argv", "message"), [case[1:] for case in _BAD_FLAGS],
                         ids=[case[0] for case in _BAD_FLAGS])
def test_bad_flags_are_usage_errors_before_any_input_is_read(
    pipeline, tmp_path, capsys, argv, message
):
    paths = {"MISSING": str(tmp_path / "missing"), "LR_MODEL": str(pipeline["lr"] / "model.json")}
    out = tmp_path / "out"
    assert main([paths.get(arg, arg) for arg in argv] + ["--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {argv[0]}: {message}\n"
    assert not out.exists()


def test_stage_summary_goes_to_stdout(tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path / "d"), "--seed", "1",
                 "--patients", "2"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("generate: wrote ")
    assert captured.err == ""
