"""Byte-level edits of a saved tensor bundle, for tests that tamper with one.

A bundle's tensors lie back to back in its data file in manifest order, so
`tensor_span` finds a tensor's bytes from the manifest alone. The edits built
on it keep the data file and the manifest in step: a tensor written back with
another length, dtype or shape moves the bytes after it, and a dropped tensor
takes its bytes along.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from densepanoptic.bundle import DATA, DTYPES, MANIFEST


def edit_manifest(bundle_dir, fn) -> None:
    """Apply `fn` to the parsed manifest of `bundle_dir` and write it back."""
    path = Path(bundle_dir) / MANIFEST
    manifest = json.loads(path.read_text())
    fn(manifest)
    path.write_text(json.dumps(manifest))


def tensor_span(manifest: dict, name: str) -> tuple[int, int]:
    """Byte range [start, stop) of tensor `name` in the data file, from `manifest`."""
    start = 0
    for entry in manifest["tensors"]:
        stop = start + math.prod(entry["shape"]) * DTYPES[entry["dtype"]].itemsize
        if entry["name"] == name:
            return start, stop
        start = stop
    raise KeyError(name)


def _entry(manifest: dict, name: str) -> dict:
    return next(e for e in manifest["tensors"] if e["name"] == name)


def read_tensor(bundle_dir, name: str) -> np.ndarray:
    """A writable copy of tensor `name` as the bundle stores it."""
    root = Path(bundle_dir)
    manifest = json.loads((root / MANIFEST).read_text())
    start, stop = tensor_span(manifest, name)
    entry = _entry(manifest, name)
    raw = (root / DATA).read_bytes()[start:stop]
    return np.frombuffer(raw, DTYPES[entry["dtype"]]).reshape(entry["shape"]).copy()


def splice(bundle_dir, name: str, arr: np.ndarray | None) -> None:
    """Store `arr` (f32, u16 or u8) as tensor `name`, with its dtype and shape,
    or, if `arr` is None, remove the tensor: its manifest entry and its bytes."""
    root = Path(bundle_dir)
    manifest = json.loads((root / MANIFEST).read_text())
    start, stop = tensor_span(manifest, name)
    entry = _entry(manifest, name)
    if arr is None:
        manifest["tensors"].remove(entry)
        new = b""
    else:
        entry["dtype"] = next(k for k, dt in DTYPES.items() if arr.dtype == dt)
        entry["shape"] = list(arr.shape)
        new = np.ascontiguousarray(arr).tobytes()
    data = (root / DATA).read_bytes()
    (root / DATA).write_bytes(data[:start] + new + data[stop:])
    (root / MANIFEST).write_text(json.dumps(manifest))


def set_value(bundle_dir, name: str, index: int, value) -> None:
    """Set element `index` of the flattened tensor `name` to `value`."""
    arr = read_tensor(bundle_dir, name)
    arr.flat[index] = value
    splice(bundle_dir, name, arr)
