"""Run manifests: every CLI command records the digest of each input that
produced each output, so artifacts are traceable and reruns comparable.
The timestamp field is informational and excluded from all digests."""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from . import __version__
from .errors import ParseError

# the JSON values of each kind, and its name: a float is any number but a flag
_KINDS = {float: ((int, float), "a number"), int: ((int,), "an integer"),
          str: ((str,), "a string"), list: ((list,), "a list"),
          dict: ((dict,), "an object"), None: ((type(None),), "null")}


def file_digest(path: str | Path) -> str:
    path = Path(path)
    if path.name == "manifest.json":
        # manifests feed other manifests' input digests; the timestamp is
        # informational and must never influence a digest
        with open(path) as fh:
            payload = json.load(fh)
        payload.pop("timestamp", None)
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def digest_tree(path: str | Path | list[Path]) -> dict[str, str]:
    """Digests for a file, for every file under a directory, or for a list
    of files in one directory, each named by its file name."""
    if isinstance(path, list):
        return {p.name: file_digest(p) for p in path}
    path = Path(path)
    if path.is_file():
        return {path.name: file_digest(path)}
    return {str(p.relative_to(path)): file_digest(p)
            for p in sorted(path.rglob("*")) if p.is_file()}


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


def check_json(value, where: str, kinds: dict | None = None,
               required: bool = True) -> dict:
    """`value` if it is a JSON object in which each key of `kinds` holds a
    value of its kind (see _KINDS) or of a kind in its tuple, and holds all
    of them if `required`; else ParseError naming `where` and the key."""
    if type(value) is not dict:
        raise ParseError(f"{where} must be a JSON object, got a "
                         f"{type(value).__name__}")
    for key, kind in (kinds or {}).items():
        kind = kind if isinstance(kind, tuple) else (kind,)
        if required and key not in value:
            raise ParseError(f"{where} lacks key {key!r}")
        if key in value and not any(type(value[key]) in _KINDS[k][0] for k in kind):
            raise ParseError(f"{where} {key} must be "
                             f"{' or '.join(_KINDS[k][1] for k in kind)}, "
                             f"got {value[key]!r}")
    return value


def read_json(path: str | Path, what: str, kinds: dict | None = None,
              required: bool = True) -> dict:
    """The JSON object in `path`, a `what`, checked by `check_json`."""
    with open(path) as fh:
        try:
            return check_json(json.load(fh), f"{path}: {what}", kinds, required)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {what} is not JSON: {exc}") from exc


def write_manifest(out_dir: str | Path, command: str,
                   inputs: dict[str, str | Path | list[Path]],
                   outputs: list[str | Path],
                   config: dict | None = None) -> Path:
    out_dir = Path(out_dir)
    manifest = {
        "command": command,
        "tool_version": __version__,
        "inputs": {name: digest_tree(p) for name, p in sorted(inputs.items())},
        "outputs": {Path(p).name: file_digest(p) for p in sorted(map(str, outputs))},
        "config_digest": config_digest(config or {}),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    return write_json(out_dir / "manifest.json", manifest)
