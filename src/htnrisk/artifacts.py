"""Shared artifact plumbing: canonical JSON and the checks of loaded JSON,
LF CSV, hashing, key=value configs, and per-stage run manifests.

Every file the pipeline writes must be byte-reproducible under a fixed
seed, so all JSON goes through `canonical_json` (sorted keys, no
whitespace, repr-exact floats) and all CSVs through `write_csv` (UTF-8,
LF line endings).
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from typing import Any, Iterable, get_type_hints



class DataError(Exception):
    """Fatal data problem: bad header, unreadable file, empty cohort."""


def canonical_json(obj: Any) -> str:
    """Serialize to a canonical JSON string (stable across runs)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def write_json(path: str | Path, obj: Any) -> None:
    Path(path).write_text(canonical_json(obj) + "\n", encoding="utf-8")


def read_json(path: str | Path) -> Any:
    """Parse a JSON file; a truncated or malformed one is a DataError.

    So is one holding NaN, Infinity or -Infinity: Python's json reads
    those tokens, but `write_json` never writes them.
    """

    def reject(token):
        raise DataError(f"{path}: not valid JSON: {token} is not a number")

    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=reject)
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise DataError(f"{path}: not valid JSON: {err}") from None


# -- checks of loaded JSON ----------------------------------------------------
# Each takes the exact JSON types a value may have: a bool is never a number,
# an int always is. A failure is a one-line DataError: "<where> is not an
# object", "<where> lacks <key>" or "<where> <key> <value> is not <kinds>",
# where <value> is the repr of a scalar and left out for a list or object.

STRING, INTEGER, NUMBER = frozenset({str}), frozenset({int}), frozenset({int, float})
BOOL, OBJECT, LIST, NULL = (frozenset({kind}) for kind in (bool, dict, list, type(None)))
_KIND_NAMES = {str: "a string", int: "an integer", float: "a number", bool: "true or false",
               dict: "an object", list: "a list", type(None): "null"}


def _wrong_type(label: str, value, kinds: frozenset) -> DataError:
    shown = "" if type(value) in (dict, list) else f" {value!r}"
    names = [name for kind, name in _KIND_NAMES.items()
             if kind in kinds and not (kind is int and float in kinds)]
    return DataError(f"{label}{shown} is not {' or '.join(names)}")


def require_format(data, tag: str, name: str) -> None:
    """A DataError unless `data` is an object whose "format" is `tag`."""
    fmt = data.get("format") if type(data) is dict else None
    if fmt != tag:
        raise DataError(f"unsupported {name} format {fmt!r}")


def require(obj, key: str, kinds: frozenset, where: str):
    """obj[key], where `obj` is a JSON object holding `key` with a value of
    one of the JSON types `kinds`, else a DataError."""
    if type(obj) is not dict:
        raise _wrong_type(where, obj, OBJECT)
    if key not in obj:
        raise DataError(f"{where} lacks {key}")
    value = obj[key]
    if type(value) not in kinds:
        raise _wrong_type(f"{where} {key}", value, kinds)
    return value


def require_keys(obj, table: dict, where: str) -> list:
    """[require(obj, key, kinds, where) for key, kinds in table.items()], in
    one flat loop for the hot paths."""
    values = []
    try:
        for key, kinds in table.items():
            value = obj[key]
            if type(value) not in kinds:
                break
            values.append(value)
        else:
            return values
    except (KeyError, TypeError):
        pass
    require(obj, key, kinds, where)


def require_each(values: list | dict, kinds: frozenset, where: str):
    """`values`, every item of the list or value of the object being of one
    of the JSON types `kinds`, else a DataError naming the first that is not."""
    keyed = type(values) is dict
    if not kinds.issuperset(map(type, values.values() if keyed else values)):
        for key, value in values.items() if keyed else enumerate(values):
            if type(value) not in kinds:
                raise _wrong_type(f"{where} {key}" if keyed else f"{where}[{key}]", value, kinds)
    return values


def write_csv(path: str | Path, header: list, rows: Iterable[list]) -> None:
    """Write `header`, then each of `rows`, as UTF-8 CSV with LF line endings."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def sha256_hex(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def sha256_file(path: str | Path) -> str:
    return sha256_hex(Path(path).read_bytes())


def derive_seed(seed: int, label: str) -> int:
    """Fan a master seed out to a named stage/substream.

    Sub-seed = first 8 bytes of sha256("<seed>:<label>"), so stages are
    decorrelated but fully determined by (--seed, stage name).
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def format_number(value: float) -> str:
    """Format a numeric cell: integers without a trailing .0, floats via repr.

    repr round-trips float64 exactly, which keeps parse -> serialize
    byte-stable for files this package wrote.
    """
    value = float(value)
    if math.isfinite(value) and value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


# -- key=value config files -------------------------------------------------

def read_kv_config(path: str | Path) -> dict[str, str]:
    """Parse a flat key=value config file. '#' starts a comment line."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def read_config(cls: type, path: str | Path) -> dict[str, Any]:
    """The fields of dataclass `cls` that the key=value file at `path`
    sets, each converted to its annotated type.

    A key that is not a field of `cls`, or a value its type cannot take,
    is a ValueError, as is a float that is nan or infinite. A bool is one
    of true/false, yes/no or 1/0, in any case.
    """
    types = get_type_hints(cls)
    values = {}
    for key, text in read_kv_config(path).items():
        if key not in types:
            raise ValueError(f"{path}: unknown config key {key!r}")
        kind = types[key]
        try:
            values[key] = _BOOLS[text.lower()] if kind is bool else kind(text)
            if kind is float and not math.isfinite(values[key]):
                raise ValueError
        except (KeyError, ValueError):
            raise ValueError(f"{path}: {key}={text!r} is not a valid {kind.__name__}") from None
    return values


# -- run manifests -----------------------------------------------------------

def write_manifest(
    out_dir: str | Path,
    stage: str,
    inputs: dict[str, str | Path],
    outputs: dict[str, str | Path],
    config: dict[str, Any],
    seed: int,
    unhashed_outputs: dict[str, str | Path] | None = None,
) -> Path:
    """Record a stage run: input/output paths with content hashes plus the
    config snapshot and seed. The hash chain is the provenance trail.

    `unhashed_outputs` lists files that legitimately vary between
    identical reruns (wall-clock timing logs); they are recorded by path
    only so manifests of identical runs stay byte-identical.
    """
    from . import __version__

    manifest = {
        "stage": stage,
        "inputs": {
            name: {"path": str(p), "sha256": sha256_file(p)} for name, p in inputs.items()
        },
        "outputs": {
            name: {"path": str(p), "sha256": sha256_file(p)} for name, p in outputs.items()
        },
        "config": config,
        "seed": seed,
        "tool_version": __version__,
    }
    if unhashed_outputs:
        manifest["unhashed_outputs"] = {
            name: {"path": str(p)} for name, p in unhashed_outputs.items()
        }
    path = Path(out_dir) / "manifest.json"
    write_json(path, manifest)
    return path
