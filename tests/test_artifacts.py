"""Artifact plumbing: canonical JSON, seed fan-out, manifests."""

import hashlib
import json
from dataclasses import dataclass

import pytest

from htnrisk.artifacts import (
    BOOL,
    INTEGER,
    LIST,
    NULL,
    NUMBER,
    OBJECT,
    STRING,
    DataError,
    canonical_json,
    derive_seed,
    format_number,
    read_config,
    read_json,
    read_kv_config,
    require,
    require_each,
    require_keys,
    sha256_file,
    write_json,
    write_manifest,
)


def test_canonical_json_sorts_keys_and_strips_whitespace():
    assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'


def test_canonical_json_is_repr_exact_for_floats():
    value = 0.1 + 0.2
    assert canonical_json(value) == repr(value)
    assert json.loads(canonical_json(value)) == value


def test_canonical_json_rejects_nan():
    with pytest.raises(ValueError):
        canonical_json(float("nan"))


def test_write_json_round_trips(tmp_path):
    path = tmp_path / "x.json"
    obj = {"k": [1.5, None, "s"], "m": {"inner": True}}
    write_json(path, obj)
    assert read_json(path) == obj
    assert path.read_bytes().endswith(b"}\n")


@pytest.mark.parametrize(
    ("text", "token"),
    [("[NaN]", "NaN"), ('{"a": Infinity}', "Infinity"), ("[-Infinity]", "-Infinity")],
)
def test_read_json_rejects_the_non_finite_tokens_write_json_never_writes(tmp_path, text, token):
    path = tmp_path / "x.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=f"not valid JSON: {token} is not a number"):
        read_json(path)


# -- checks of loaded JSON ----------------------------------------------------

def _message(check, *args) -> str:
    with pytest.raises(DataError) as raised:
        check(*args)
    message = str(raised.value)
    assert "\n" not in message
    return message


def test_require_returns_a_value_of_an_allowed_json_type():
    assert require({"n": 3}, "n", NUMBER, "x") == 3
    assert require({"n": 2.5}, "n", NUMBER, "x") == 2.5
    assert require({"n": None}, "n", NUMBER | NULL, "x") is None
    assert require({"flag": False}, "flag", BOOL, "x") is False


@pytest.mark.parametrize("kinds", [NUMBER, INTEGER, NUMBER | NULL])
def test_a_bool_is_never_a_number(kinds):
    assert _message(require, {"n": True}, "n", kinds, "x").startswith("x n True is not ")
    assert _message(require_each, [1, False], kinds, "x").startswith("x[1] False is not ")


def test_an_int_is_a_number_but_a_float_is_not_an_integer():
    assert require_each([1, 2.5, -3], NUMBER, "x") == [1, 2.5, -3]
    assert _message(require, {"n": 2.0}, "n", INTEGER, "x") == "x n 2.0 is not an integer"


@pytest.mark.parametrize(
    ("value", "kinds", "message"),
    [
        ("high", NUMBER | NULL, "encounter systolic 'high' is not a number or null"),
        ("a\nb", INTEGER, "encounter systolic 'a\\nb' is not an integer"),
        (None, STRING, "encounter systolic None is not a string"),
        (1.5, STRING | NULL, "encounter systolic 1.5 is not a string or null"),
        ([1, 2], NUMBER, "encounter systolic is not a number"),
        ({"a": 1}, LIST, "encounter systolic is not a list"),
        (0, BOOL, "encounter systolic 0 is not true or false"),
        ("x", OBJECT, "encounter systolic 'x' is not an object"),
    ],
)
def test_a_wrong_type_echoes_a_scalar_but_not_a_list_or_object(value, kinds, message):
    assert _message(require, {"systolic": value}, "systolic", kinds, "encounter") == message


def test_require_names_a_missing_key_and_a_container_that_is_not_an_object():
    assert _message(require, {}, "date", STRING, "encounter") == "encounter lacks date"
    assert _message(require, [1], "date", STRING, "encounter") == "encounter is not an object"
    assert _message(require, 7, "date", STRING, "encounter") == "encounter 7 is not an object"


def test_require_keys_returns_the_values_in_table_order_and_fails_as_require_does():
    table = {"b": INTEGER, "a": STRING}
    assert require_keys({"a": "s", "b": 1, "c": None}, table, "x") == [1, "s"]
    for obj in ({"a": "s"}, {"a": "s", "b": True}, ["a"], "ab", None):
        assert _message(require_keys, obj, table, "x") == _message(require, obj, "b", INTEGER, "x")


def test_require_each_names_the_first_item_or_value_of_another_type():
    assert require_each({"k": "v"}, STRING, "x") == {"k": "v"}
    assert require_each([], STRING, "x") == []
    assert _message(require_each, ["a", 1, None], STRING, "x") == "x[1] 1 is not a string"
    assert _message(require_each, {"k": "v", "m": []}, STRING, "x") == "x m is not a string"


def test_derive_seed_matches_the_documented_recipe():
    digest = hashlib.sha256(b"42:init").digest()
    assert derive_seed(42, "init") == int.from_bytes(digest[:8], "big")


def test_derive_seed_separates_labels_and_seeds():
    seeds = {
        derive_seed(0, "init"),
        derive_seed(0, "shuffle:0"),
        derive_seed(0, "shuffle:1"),
        derive_seed(1, "init"),
    }
    assert len(seeds) == 4


@pytest.mark.parametrize(
    ("value", "text"),
    [
        (3.0, "3"),
        (-2.0, "-2"),
        (0.0, "0"),
        (1.5, "1.5"),
        (0.1, "0.1"),
        (float("inf"), "inf"),
        (float("-inf"), "-inf"),
        (1e16, "1e+16"),
    ],
)
def test_format_number(value, text):
    assert format_number(value) == text


def test_format_number_round_trips_float64():
    value = 1.0 / 3.0
    assert float(format_number(value)) == value


def test_kv_config_round_trip(tmp_path):
    path = tmp_path / "c.kv"
    path.write_text("alpha=0.5\nn=3\nname=lr\n", encoding="utf-8")
    assert read_kv_config(path) == {"alpha": "0.5", "n": "3", "name": "lr"}


def test_kv_config_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "c.kv"
    path.write_text("# header\n\nalpha = 0.5\n", encoding="utf-8")
    assert read_kv_config(path) == {"alpha": "0.5"}


def test_kv_config_rejects_bare_lines(tmp_path):
    path = tmp_path / "c.kv"
    path.write_text("alpha\n", encoding="utf-8")
    with pytest.raises(ValueError, match="expected key=value"):
        read_kv_config(path)


@dataclass
class _Config:
    model_kind: str = "lr"
    hidden_size: int = 120
    learning_rate: float = 1e-3
    two_phase_adam: bool = False


def test_read_config_returns_the_typed_fields_a_file_sets(tmp_path):
    path = tmp_path / "c.kv"
    path.write_text("model_kind=lstm\nhidden_size=12\nlearning_rate=5e-4\n", encoding="utf-8")
    values = read_config(_Config, path)
    assert values == {"model_kind": "lstm", "hidden_size": 12, "learning_rate": 5e-4}
    assert type(values["hidden_size"]) is int and type(values["learning_rate"]) is float


@pytest.mark.parametrize(
    ("text", "value"),
    [
        ("true", True), ("True", True), ("YES", True), ("yes", True), ("1", True),
        ("false", False), ("FALSE", False), ("No", False), ("no", False), ("0", False),
    ],
)
def test_read_config_accepts_each_bool_spelling(tmp_path, text, value):
    path = tmp_path / "c.kv"
    path.write_text(f"two_phase_adam={text}\n", encoding="utf-8")
    assert read_config(_Config, path)["two_phase_adam"] is value


_BAD_LINES = [
    ("two_phase_adam=ture", "two_phase_adam='ture' is not a valid bool"),
    ("two_phase_adam=", "two_phase_adam='' is not a valid bool"),
    ("hidden_size=1.5", "hidden_size='1.5' is not a valid int"),
    ("learning_rate=fast", "learning_rate='fast' is not a valid float"),
    ("momentum=0.9", "unknown config key 'momentum'"),
    ("learning_rate=nan", "learning_rate='nan' is not a valid float"),
    ("learning_rate=inf", "learning_rate='inf' is not a valid float"),
    ("learning_rate=-Infinity", "learning_rate='-Infinity' is not a valid float"),
]


@pytest.mark.parametrize(("line", "message"), _BAD_LINES, ids=[line for line, _ in _BAD_LINES])
def test_read_config_rejects_unknown_keys_and_bad_values(tmp_path, line, message):
    path = tmp_path / "c.kv"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as raised:
        read_config(_Config, path)
    assert str(raised.value) == f"{path}: {message}"


def test_manifest_records_content_hashes(tmp_path):
    src = tmp_path / "in.csv"
    dst = tmp_path / "out.csv"
    src.write_bytes(b"a,b\n1,2\n")
    dst.write_bytes(b"x\n")
    path = write_manifest(
        tmp_path,
        stage="demo",
        inputs={"table": src},
        outputs={"result": dst},
        config={"k": 1},
        seed=7,
    )
    manifest = read_json(path)
    assert manifest["stage"] == "demo"
    assert manifest["seed"] == 7
    assert manifest["inputs"]["table"]["sha256"] == sha256_file(src)
    assert manifest["outputs"]["result"]["sha256"] == sha256_file(dst)
    assert "unhashed_outputs" not in manifest


def test_manifest_leaves_unhashed_outputs_without_digests(tmp_path):
    log = tmp_path / "log.csv"
    log.write_bytes(b"epoch,seconds\n")
    path = write_manifest(
        tmp_path,
        stage="train",
        inputs={},
        outputs={},
        config={},
        seed=0,
        unhashed_outputs={"train_log": log},
    )
    manifest = read_json(path)
    assert manifest["unhashed_outputs"]["train_log"] == {"path": str(log)}


def test_identical_runs_emit_identical_manifests(tmp_path):
    src = tmp_path / "in.csv"
    src.write_bytes(b"a\n")
    first = tmp_path / "r1"
    second = tmp_path / "r2"
    for out_dir in (first, second):
        out_dir.mkdir()
        dst = out_dir / "out.csv"
        dst.write_bytes(b"b\n")
        # same relative artifact name on both runs, hashed content equal
        write_manifest(out_dir, "demo", {"table": src}, {"result": dst}, {"k": 1}, 7)
    a = json.loads((first / "manifest.json").read_text())
    b = json.loads((second / "manifest.json").read_text())
    a["outputs"]["result"].pop("path")
    b["outputs"]["result"].pop("path")
    assert a == b
