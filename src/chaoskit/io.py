"""JSON file format for pairs.

The components f and g are written and read by a private codec.  A
component lists only its nonzero entries, in row-major order; unlisted
coefficients are zero and listed ones must be finite.  A component
stored with "symmetric": true is verified on load and rejected if the
coefficients are not actually symmetric.  One whose dense array would
exceed ``tensor.MAX_ARRAY_BYTES`` is refused before anything is
allocated.
"""

from __future__ import annotations

import json
import math
from itertools import chain
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .malliavin import MalliavinPair
from .tensor import Tensor, _require_array_size, is_symmetric

__all__ = [
    "SchemaError",
    "load_pair",
    "pair_from_dict",
    "pair_to_dict",
    "save_pair",
]

PathLike = Union[str, Path]


class SchemaError(ValueError):
    """A JSON document does not match the expected schema."""


def _require(obj: dict, key: str, kind, where: str):
    if key not in obj:
        raise SchemaError(f"{where}: missing key '{key}'")
    value = obj[key]
    if kind is float:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SchemaError(f"{where}: '{key}' must be a number")
        return float(value)
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaError(f"{where}: '{key}' must be an integer")
        return value
    if not isinstance(value, kind):
        raise SchemaError(f"{where}: '{key}' has wrong type {type(value).__name__}")
    return value


# -- pair components ----------------------------------------------------------


def _tensor_to_dict(t: Tensor) -> dict:
    """A pair component (order >= 1, as MalliavinPair requires)."""
    nz = np.nonzero(t.coeffs)  # row-major order
    entries = [
        {"index": index, "value": value}
        for index, value in zip(np.transpose(nz).tolist(), t.coeffs[nz].tolist())
    ]
    return {
        "dim": t.dim,
        "order": t.order,
        "symmetric": bool(t.symmetric),
        "entries": entries,
    }


def _all_of(items, kind) -> bool:
    """Every item is a kind (a bool is never an int), checked once per type seen."""
    return all(
        issubclass(t, kind) and not issubclass(t, bool) for t in set(map(type, items))
    )


def _entry_arrays(entries: list, dim: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The (N, order) indices and N values of the entries, checked in bulk.

    Anything the bulk checks refuse is looked up entry by entry, so the
    SchemaError names the first malformed entry in file order.
    """
    try:
        if _all_of(entries, dict):
            raw_index = [e["index"] for e in entries]
            raw_value = [e["value"] for e in entries]
            if (
                _all_of(raw_index, list)
                and _all_of(chain.from_iterable(raw_index), int)
                and _all_of(raw_value, (int, float))
            ):
                index = np.array(raw_index, dtype=np.int64).reshape(len(entries), order)
                values = np.array(raw_value, dtype=np.float64)
                if np.isfinite(values).all() and ((index >= 0) & (index < dim)).all():
                    return index, values
    except (KeyError, ValueError, OverflowError):  # missing key, ragged, huge number
        pass
    for pos, entry in enumerate(entries):
        where = f"tensor entry {pos}"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: must be an object")
        index = _require(entry, "index", list, where)
        value = _require(entry, "value", float, where)
        if not math.isfinite(value):
            raise SchemaError(f"{where}: value {value} at index {index} is not finite")
        if len(index) != order:
            raise SchemaError(f"{where}: index length {len(index)} != order {order}")
        for j in index:
            if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < dim:
                raise SchemaError(f"{where}: index {index} out of range for dim {dim}")
    raise AssertionError("bulk entry checks refused entries that each pass")


def _tensor_from_dict(obj: dict) -> Tensor:
    if not isinstance(obj, dict):
        raise SchemaError("tensor: document must be an object")
    dim = _require(obj, "dim", int, "tensor")
    order = _require(obj, "order", int, "tensor")
    flagged = _require(obj, "symmetric", bool, "tensor")
    entries = _require(obj, "entries", list, "tensor")
    if dim < 1 or order < 0:
        raise SchemaError(f"tensor: invalid dim {dim} or order {order}")
    _require_array_size("tensor", dim, order, SchemaError)
    index, values = _entry_arrays(entries, dim, order)
    coeffs = np.zeros(dim**order)
    # row-major positions; a repeated index keeps its last value in file order
    coeffs[index @ (dim ** np.arange(order - 1, -1, -1))] = values
    t = Tensor(dim, order, coeffs.reshape((dim,) * order), symmetric=flagged)
    if flagged and not is_symmetric(t):
        raise SchemaError("tensor: flagged symmetric but coefficients are not")
    return t


# -- pairs --------------------------------------------------------------------


def pair_to_dict(pair: MalliavinPair, seed: Optional[int] = None) -> dict:
    out = {
        "dim": pair.dim,
        "n": pair.n,
        "m": pair.m,
        "f": _tensor_to_dict(pair.f),
        "g": _tensor_to_dict(pair.g),
    }
    if seed is not None:
        out["seed"] = seed
    return out


def pair_from_dict(obj: dict) -> MalliavinPair:
    if not isinstance(obj, dict):
        raise SchemaError("pair: document must be an object")
    dim = _require(obj, "dim", int, "pair")
    n = _require(obj, "n", int, "pair")
    m = _require(obj, "m", int, "pair")
    f = _tensor_from_dict(_require(obj, "f", dict, "pair"))
    g = _tensor_from_dict(_require(obj, "g", dict, "pair"))
    if (f.dim, f.order) != (dim, n) or (g.dim, g.order) != (dim, m):
        raise SchemaError("pair: component shapes disagree with dim/n/m")
    try:
        return MalliavinPair(f, g)
    except ValueError as exc:
        raise SchemaError(f"pair: {exc}") from exc


def load_pair(path: PathLike) -> MalliavinPair:
    return pair_from_dict(_read_json(path))


def save_pair(pair: MalliavinPair, path: PathLike, seed: Optional[int] = None) -> None:
    _write_json(pair_to_dict(pair, seed=seed), path)


# -- files --------------------------------------------------------------------


def _read_json(path: PathLike) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON ({exc})") from exc


def _write_json(obj: dict, path: PathLike) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
