"""JSON file format for pairs.

The components f and g are written and read by a private codec.  A
component lists only its nonzero entries, in row-major order; unlisted
coefficients are zero and listed ones must be finite.  It has one of
two layouts:

* full (no "layout" key): every nonzero entry.  A component stored
  with "symmetric": true is verified on load and rejected if the
  coefficients are not actually symmetric.
* "layout": "orbits": one entry per permutation orbit, at its
  non-decreasing representative index, filled over the whole orbit on
  load; only a component flagged symmetric may use it.  The writer
  picks it for a symmetric component of order >= 2 whose every entry
  is bit-equal to its orbit representative's, so a save and a load
  give back the same bits in either layout.

One whose dense array, or for the orbit layout whose orbit grid, would
exceed ``tensor.MAX_ARRAY_BYTES`` is refused before anything is
allocated.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .malliavin import MalliavinPair
from .tensor import (
    Tensor,
    _require_array_size,
    _require_orbit_grid,
    is_symmetric,
    orbit_info,
)

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
        try:
            return float(value)
        except OverflowError:  # an integer beyond the largest double
            raise SchemaError(f"{where}: '{key}' is too large for a double") from None
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise SchemaError(f"{where}: '{key}' must be an integer")
        return value
    if not isinstance(value, kind):
        raise SchemaError(f"{where}: '{key}' has wrong type {type(value).__name__}")
    return value


# -- pair components ----------------------------------------------------------


def _row_major(dim: int, order: int) -> np.ndarray:
    """Weights taking an (N, order) index array to flat row-major positions."""
    return dim ** np.arange(order - 1, -1, -1)


def _orbit_entries(t: Tensor):
    """The representative indices and values of t's orbits in row-major
    order, when t is written by orbit: flagged symmetric, of order >= 2,
    every entry bit-equal to its orbit representative's, and its orbit
    grid within the cap.  None otherwise."""
    if not t.symmetric or t.order < 2:
        return None
    try:
        _require_orbit_grid(t.dim, t.order)
    except ValueError:
        return None
    info = orbit_info(t.dim, t.order)
    flat = t.coeffs.ravel()
    pos = info.positions
    if not np.array_equal(flat.view(np.int64), flat[pos][info.inverse].view(np.int64)):
        return None
    first = np.argsort(pos)
    return info.reps[first], flat[pos[first]]


def _tensor_to_dict(t: Tensor) -> dict:
    """A pair component (order >= 1, as MalliavinPair requires)."""
    doc = {"dim": t.dim, "order": t.order, "symmetric": bool(t.symmetric)}
    by_orbit = _orbit_entries(t)
    if by_orbit is None:
        nz = np.nonzero(t.coeffs)  # row-major order
        index, values = np.transpose(nz), t.coeffs[nz]
    else:
        doc["layout"] = "orbits"
        index, values = by_orbit
        keep = values != 0
        index, values = index[keep], values[keep]
    doc["entries"] = [
        {"index": i, "value": v} for i, v in zip(index.tolist(), values.tolist())
    ]
    return doc


def _entry_arrays(entries: list, dim: int, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The (N, order) indices and N values of the entries, checked one by one,
    so a SchemaError names the first malformed entry in file order."""
    indices, values = [], []
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
        indices.append(index)
        values.append(value)
    return np.array(indices, dtype=np.int64).reshape(len(entries), order), np.array(values)


def _tensor_from_dict(obj: dict) -> Tensor:
    if not isinstance(obj, dict):
        raise SchemaError("tensor: document must be an object")
    dim = _require(obj, "dim", int, "tensor")
    order = _require(obj, "order", int, "tensor")
    flagged = _require(obj, "symmetric", bool, "tensor")
    entries = _require(obj, "entries", list, "tensor")
    if dim < 1 or order < 0:
        raise SchemaError(f"tensor: invalid dim {dim} or order {order}")
    by_orbit = "layout" in obj  # no key: the full layout
    if by_orbit and obj["layout"] != "orbits":
        raise SchemaError(f"tensor: unknown layout {obj['layout']!r}, expected 'orbits'")
    if by_orbit and not flagged:
        raise SchemaError("tensor: layout 'orbits' requires \"symmetric\": true")
    _require_array_size("tensor", dim, order, SchemaError)
    if by_orbit:
        _require_orbit_grid(dim, order, SchemaError)
    index, values = _entry_arrays(entries, dim, order)
    pos = index @ _row_major(dim, order)
    # a repeated index keeps its last value in file order
    if by_orbit:
        _require_representatives(index)
        info = orbit_info(dim, order)
        orbit_values = np.zeros(len(info.counts))
        orbit_values[info.inverse[pos]] = values
        coeffs = orbit_values[info.inverse]
    else:
        coeffs = np.zeros(dim**order)
        coeffs[pos] = values
    t = Tensor(dim, order, coeffs.reshape((dim,) * order), symmetric=flagged)
    if flagged and not by_orbit and not is_symmetric(t):
        raise SchemaError("tensor: flagged symmetric but coefficients are not")
    return t


def _require_representatives(index: np.ndarray) -> None:
    """Every row of index is non-decreasing, the representative of its orbit."""
    ok = (np.diff(index, axis=1) >= 0).all(axis=1)
    if not ok.all():
        pos = int(np.argmin(ok))
        raise SchemaError(
            f"tensor entry {pos}: index {index[pos].tolist()} is not the "
            "non-decreasing representative of its orbit (layout 'orbits')"
        )


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
    with open(path, encoding="utf-8") as fh:
        try:
            return json.loads(fh.read())
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from exc
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON ({exc})") from exc
        except ValueError as exc:  # an integer literal past the interpreter's digit limit
            raise SchemaError(f"{path}: a number has too many digits") from exc


def _write_json(obj: dict, path: PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
