"""Run manifests: every CLI command records the digest of each input that
produced each output, so artifacts are traceable and reruns comparable.
The timestamp field is informational and excluded from all digests."""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from . import __version__


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
