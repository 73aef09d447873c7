"""Canonical fingerprints of library results and their comparison.

A fingerprint splits a result into its exact part and its floats: `sha256`
hashes the canonical JSON of the result with every float replaced by a
placeholder, and `floats` lists the floats in that canonical order.  Two
results match when the exact parts are identical and each float agrees to
FLOAT_REL.  The float tolerance absorbs last-digit differences between
machines (numpy's SIMD log and BLAS kernels are chosen per CPU); anything
else, such as a count, a verdict kind or a word, must be identical.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

FLOAT_REL = 1e-9


def _skeleton(value, floats: list):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return int(value)
    if isinstance(value, float):
        floats.append(float(value))
        return "<float>"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        return {type(value).__name__: _skeleton(fields, floats)}
    if isinstance(value, dict):
        return {str(k): _skeleton(value[k], floats) for k in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [_skeleton(v, floats) for v in value]
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return _skeleton(value.tolist(), floats)
    raise TypeError(f"cannot fingerprint {type(value).__name__}")


def of(value) -> dict:
    floats: list[float] = []
    text = json.dumps(_skeleton(value, floats), sort_keys=True, separators=(",", ":"))
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "floats": floats}


def _close(a: float, b: float) -> bool:
    return a == b or abs(a - b) <= FLOAT_REL * max(abs(a), abs(b))


def matches(got: dict, want: dict) -> bool:
    """Same exact part and floats within FLOAT_REL (raw-byte hashes not compared)."""
    return (got["sha256"] == want["sha256"]
            and len(got["floats"]) == len(want["floats"])
            and all(_close(a, b) for a, b in zip(got["floats"], want["floats"])))
