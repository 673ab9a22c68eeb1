"""Run manifests: every CLI command records the digest of each input that
produced each output, so artifacts are traceable and reruns comparable.
The timestamp field is informational and excluded from all digests.

This module also reads JSON: `read_config` is the one config reader, and
`KINDS` holds the kinds a config field's annotation or a JSON key names."""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import fields, is_dataclass
from pathlib import Path

from . import __version__
from .errors import ParseError, ValidationError


def is_finite(value) -> bool:
    """Whether `value` is a finite number and not a flag."""
    return type(value) in (int, float) and -math.inf < value < math.inf


# each kind by its annotation: the test of a value, and what it must be. A
# "number" may be NaN or infinite, as a statistic of no data is.
KINDS = {
    "int": (lambda v: type(v) is int, "an integer"),
    "float": (is_finite, "a finite number"),
    "float | None": (lambda v: v is None or is_finite(v), "a finite number or null"),
    "number": (lambda v: type(v) in (int, float), "a number"),
    "str": (lambda v: type(v) is str, "a string"),
    "str | None": (lambda v: v is None or type(v) is str, "a string or null"),
    "list": (lambda v: type(v) is list, "a list"),
    "tuple[float, float]": (lambda v: type(v) is tuple and len(v) == 2 and all(
        map(is_finite, v)), "a [low, high] pair of finite numbers"),
    "dict[str, float]": (lambda v: type(v) is dict and all(map(is_finite, v.values())),
                         "an object of finite numbers"),
    "CbmConfig": (lambda v: type(v).__name__ == "CbmConfig", "an object"),
}


def bytes_digest(data: bytes, name: str) -> str:
    """The digest of a file named `name` that holds `data`, as
    `file_digest` computes it."""
    if name == "manifest.json":
        # manifests feed other manifests' input digests; the timestamp is
        # informational and must never influence a digest
        payload = json.loads(data.decode())
        payload.pop("timestamp", None)
        data = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def file_digest(path: str | Path) -> str:
    path = Path(path)
    if path.name == "manifest.json":
        return bytes_digest(path.read_bytes(), path.name)
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_tree(path: str | Path, known: dict[str, str] | None = None
                ) -> dict[str, str]:
    """Digests for a file, or for every file under a directory, each named
    by its path relative to the directory. A name in `known` takes its
    digest from there: the digest of the bytes a stage parsed, so the file
    is not read again."""
    path = Path(path)
    if path.is_file():
        return {path.name: file_digest(path)}
    known = known or {}
    digests = {}  # in no order: write_json sorts the keys
    for p in path.rglob("*"):
        if p.is_file():
            name = str(p.relative_to(path))
            digests[name] = known.get(name) or file_digest(p)
    return digests


def config_digest(obj) -> str:
    payload = json.dumps(obj, sort_keys=True, default=str).encode()
    return hashlib.sha256(payload).hexdigest()


def write_json(path: str | Path, payload: dict) -> Path:
    """Write `payload` as indented JSON with sorted keys and a final
    newline, the form of every JSON artifact."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return Path(path)


def check_json(value, where: str, kinds: dict[str, str] | None = None,
               required: bool = True) -> dict:
    """`value` if it is a JSON object in which each key of `kinds` holds a
    value of its kind (see KINDS), and holds all of them if `required`;
    else ParseError naming `where` and the key."""
    if type(value) is not dict:
        raise ParseError(f"{where} must be a JSON object, got a "
                         f"{type(value).__name__}")
    for key, kind in (kinds or {}).items():
        test, name = KINDS[kind]
        if required and key not in value:
            raise ParseError(f"{where} lacks key {key!r}")
        if key in value and not test(value[key]):
            raise ParseError(f"{where} {key} must be {name}, got {value[key]!r}")
    return value


def check_fields(config) -> None:
    """Raise ValidationError naming the first field of the dataclass
    `config` whose value is not of the kind its annotation names."""
    for item in fields(config):
        test, name = KINDS[item.type]
        if not test(value := getattr(config, item.name)):
            raise ValidationError(f"{item.name} must be {name}, got {value!r}")


def read_json(path: str | Path, what: str, kinds: dict | None = None,
              required: bool = True) -> dict:
    """The JSON object in `path`, a `what`, checked by `check_json`."""
    with open(path) as fh:
        try:
            return check_json(json.load(fh), f"{path}: {what}", kinds, required)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {what} is not JSON: {exc}") from exc


def read_config(cls, path: str | Path, what: str):
    """The config dataclass `cls` from the JSON object in `path`, a `what`.
    Each key sets the field of its name, a list as a tuple and an object as
    the field's nested config; every other field keeps its default. An
    unknown key, nested ones too, or a value the config rejects raises
    ValidationError naming the file and the key."""
    return _config(cls, read_json(path, what), f"{path}: {what}", "")


def _config(cls, raw: dict, where: str, prefix: str):
    factories = {item.name: item.default_factory for item in fields(cls)}
    unknown = raw.keys() - factories.keys()
    if unknown:
        raise ValidationError(f"{where} has no key {min(unknown)!r}")
    args = {name: _config(factories[name], value, where, f"{name}: ")
            if type(value) is dict and is_dataclass(factories[name])
            else tuple(value) if type(value) is list else value
            for name, value in raw.items()}
    try:
        return cls(**args)
    except ValidationError as exc:
        raise ValidationError(f"{where} {prefix}{exc}") from exc


def write_manifest(out_dir: str | Path, command: str,
                   inputs: dict[str, str | Path | dict[str, str]],
                   outputs: list[str | Path],
                   config: dict | None = None) -> Path:
    """Write `out_dir`/manifest.json. Each input is a file or a directory,
    digested with `digest_tree`, or a prepared {relative name: digest}
    mapping, such as the digests of the bytes a stage parsed; each output
    is a file, digested with `file_digest`."""
    out_dir = Path(out_dir)
    manifest = {
        "command": command,
        "tool_version": __version__,
        "inputs": {name: p if isinstance(p, dict) else digest_tree(p)
                   for name, p in sorted(inputs.items())},
        "outputs": {Path(p).name: file_digest(p) for p in sorted(map(str, outputs))},
        "config_digest": config_digest(config or {}),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    return write_json(out_dir / "manifest.json", manifest)
