"""Serialization round-trips and schema validation."""

import contextlib
import copy
import io
import itertools
import json
import math
import re

import numpy as np
import pytest

from chaoskit import cli, tensor
from chaoskit.io import (
    SchemaError,
    load_pair,
    pair_from_dict,
    pair_to_dict,
    save_pair,
)
from chaoskit.io import _tensor_from_dict as tensor_from_dict
from chaoskit.io import _tensor_to_dict as tensor_to_dict
from chaoskit.malliavin import MalliavinPair, expected_det_closed_form, random_pair
from chaoskit.mc import Estimate
from chaoskit.tensor import (
    Tensor,
    basis_tensor,
    is_symmetric,
    random_symmetric,
    symmetrize,
)


class TestTensorFormat:
    def test_round_trip(self):
        t = random_symmetric(3, 3, 1)
        back = tensor_from_dict(json.loads(json.dumps(tensor_to_dict(t))))
        assert back.symmetric
        np.testing.assert_array_equal(back.coeffs, t.coeffs)

    def test_unlisted_entries_are_zero(self):
        doc = {
            "dim": 2,
            "order": 2,
            "symmetric": False,
            "entries": [{"index": [0, 1], "value": 2.0}],
        }
        t = tensor_from_dict(doc)
        assert t.coeffs[0, 1] == 2.0
        assert t.coeffs[1, 0] == 0.0

    def test_symmetric_flag_verified(self):
        doc = {
            "dim": 2,
            "order": 2,
            "symmetric": True,
            "entries": [{"index": [0, 1], "value": 2.0}],
        }
        with pytest.raises(SchemaError):
            tensor_from_dict(doc)

    def test_missing_key(self):
        with pytest.raises(SchemaError):
            tensor_from_dict({"dim": 2, "order": 1, "symmetric": True})

    def test_bad_index(self):
        doc = {
            "dim": 2,
            "order": 2,
            "symmetric": False,
            "entries": [{"index": [0, 5], "value": 1.0}],
        }
        with pytest.raises(SchemaError):
            tensor_from_dict(doc)

    def test_index_length_mismatch(self):
        doc = {
            "dim": 2,
            "order": 2,
            "symmetric": False,
            "entries": [{"index": [0], "value": 1.0}],
        }
        with pytest.raises(SchemaError):
            tensor_from_dict(doc)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entry_rejected(self, value):
        # order 1 skips the symmetry check, which used to let NaN through
        doc = {
            "dim": 2,
            "order": 1,
            "symmetric": True,
            "entries": [{"index": [0], "value": 1.0}, {"index": [1], "value": value}],
        }
        with pytest.raises(SchemaError, match=r"tensor entry 1: .* index \[1\] is not finite"):
            tensor_from_dict(doc)

    def test_oversized_tensor_refused(self):
        # 1000^4 doubles (7.3 TiB): refused before the dense array is allocated
        doc = {"dim": 1000, "order": 4, "symmetric": True, "entries": []}
        with pytest.raises(SchemaError, match=(
            r"^tensor: dim 1000 and order 4 need 8000000000000 bytes, "
            r"above the cap of 1073741824 bytes$"
        )):
            tensor_from_dict(doc)

    def test_huge_order_refused_on_the_order_alone(self):
        # 2^3000000 doubles: refused before the exact power is formed
        doc = {"dim": 2, "order": 3000000, "symmetric": True, "entries": []}
        with pytest.raises(SchemaError, match=(
            r"^tensor: dim 2 and order 3000000 need more than the cap of "
            r"1073741824 bytes$"
        )):
            tensor_from_dict(doc)

    def test_extra_keys_tolerated(self):
        doc = tensor_to_dict(basis_tensor(2, (0,)))
        doc["seed"] = 99
        t = tensor_from_dict(doc)
        assert t.coeffs[0] == 1.0


class TestPairFormat:
    def test_round_trip(self, tmp_path):
        pair = random_pair(2, 2, 3, 7)
        path = tmp_path / "pair.json"
        save_pair(pair, path, seed=7)
        back = load_pair(path)
        assert np.array_equal(back.f.coeffs, pair.f.coeffs)
        assert np.array_equal(back.g.coeffs, pair.g.coeffs)
        doc = json.loads(path.read_text())
        assert doc["seed"] == 7

    def test_shape_mismatch(self):
        pair = random_pair(2, 2, 2, 8)
        doc = pair_to_dict(pair)
        doc["n"] = 3
        with pytest.raises(SchemaError):
            pair_from_dict(doc)

    def test_non_symmetric_component_rejected(self):
        pair = random_pair(2, 2, 2, 9)
        doc = pair_to_dict(pair)
        doc["f"]["symmetric"] = False
        with pytest.raises(SchemaError, match="layout 'orbits' requires"):
            pair_from_dict(doc)
        del doc["f"]["layout"]  # the full layout loads, and the pair refuses it
        with pytest.raises(SchemaError, match="^pair: components must be symmetric tensors$"):
            pair_from_dict(doc)

    def test_oversized_integer_value_exits_2(self, tmp_path, capsys):
        # a 401-digit integer has no double: a schema error naming the entry,
        # not an OverflowError
        doc = pair_to_dict(random_pair(2, 2, 2, 3))
        doc["f"]["entries"][1]["value"] = 10**400
        code, err = _density(capsys, doc, tmp_path)
        assert code == 2
        assert err == (
            "chaoskit density: error: tensor entry 1: 'value' is too large for a double\n"
        )

    def test_integer_past_the_digit_limit_names_the_file(self, tmp_path, capsys):
        # json.load refuses to convert a 5000-digit integer literal (Python's
        # default limit is 4300 digits): a schema error naming the file, not
        # the interpreter's advice to raise the limit
        doc = pair_to_dict(random_pair(2, 2, 2, 3))
        doc["f"]["entries"][1]["value"] = "DIGITS"
        path = tmp_path / "long.json"
        path.write_text(json.dumps(doc).replace('"DIGITS"', "9" * 5000))
        code = cli.main(["density", "--pair", str(path), "-o", str(tmp_path / "out.json")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"chaoskit density: error: {path}: a number has too many digits\n"
        )

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(SchemaError):
            load_pair(path)


def edet_results(tmp_path, capsys, pair, *argv):
    """The `results` of `chaoskit edet --k 1` on `pair`, as written to stdout."""
    path = tmp_path / "pair.json"
    save_pair(pair, path)
    assert cli.main(["edet", "--pair", str(path), "--k", "1", *argv]) == 0
    return json.loads(capsys.readouterr().out)["results"]


class TestBreakdownFormat:
    def test_fields(self, tmp_path, capsys):
        (doc,) = edet_results(tmp_path, capsys, random_pair(2, 2, 2, 10))
        assert list(doc) == ["k", "t0", "tr", "remainder", "closed_form", "symbolic", "mc"]
        assert doc["mc"] is None
        assert doc["closed_form"] == pytest.approx(doc["t0"] + sum(doc["tr"]))

    def test_with_estimate(self, tmp_path, capsys, monkeypatch):
        est = Estimate(mean=1.0, stderr=0.1, samples=100, seed=3)
        monkeypatch.setattr(cli, "estimate_expected_det", lambda *a, **kw: est)
        (doc,) = edet_results(tmp_path, capsys, random_pair(2, 2, 2, 11), "--mc")
        assert doc["mc"] == {"mean": 1.0, "stderr": 0.1, "samples": 100, "seed": 3}

    def test_json_floats_round_trip(self, tmp_path, capsys):
        pair = random_pair(2, 2, 2, 12)
        (doc,) = edet_results(tmp_path, capsys, pair)
        assert doc["closed_form"] == expected_det_closed_form(pair, 1).closed_form


# -- the codec's entry read/write against the first per-entry codec ---------------
#
# The references are the loader and writer as first written, one Python object
# per entry and no array built from the entry list, kept here verbatim in
# behaviour: every outcome (coefficients or the exact error) of the codec's
# entry pass must be theirs.


def _reference_require(obj, key, kind, where):
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


def reference_tensor_from_dict(obj, request_symmetrize=False):
    if not isinstance(obj, dict):
        raise SchemaError("tensor: document must be an object")
    dim = _reference_require(obj, "dim", int, "tensor")
    order = _reference_require(obj, "order", int, "tensor")
    flagged = _reference_require(obj, "symmetric", bool, "tensor")
    entries = _reference_require(obj, "entries", list, "tensor")
    if dim < 1 or order < 0:
        raise SchemaError(f"tensor: invalid dim {dim} or order {order}")
    coeffs = np.zeros((dim,) * order)
    for pos, entry in enumerate(entries):
        where = f"tensor entry {pos}"
        if not isinstance(entry, dict):
            raise SchemaError(f"{where}: must be an object")
        index = _reference_require(entry, "index", list, where)
        value = _reference_require(entry, "value", float, where)
        if not math.isfinite(value):
            raise SchemaError(f"{where}: value {value} at index {index} is not finite")
        if len(index) != order:
            raise SchemaError(f"{where}: index length {len(index)} != order {order}")
        for j in index:
            if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < dim:
                raise SchemaError(f"{where}: index {index} out of range for dim {dim}")
        if order == 0:
            coeffs = np.asarray(value, dtype=np.float64)
        else:
            coeffs[tuple(index)] = value
    t = Tensor(dim, order, coeffs, symmetric=False)
    if flagged:
        if not is_symmetric(t):
            raise SchemaError("tensor: flagged symmetric but coefficients are not")
        return Tensor(dim, order, coeffs, symmetric=True)
    if request_symmetrize:
        return symmetrize(t)
    return t


def reference_tensor_to_dict(t):
    entries = []
    if t.order == 0:
        v = t.item()
        if v != 0.0:
            entries.append({"index": [], "value": v})
    else:
        for idx in np.argwhere(t.coeffs):
            entries.append(
                {"index": [int(j) for j in idx], "value": float(t.coeffs[tuple(idx)])}
            )
    return {
        "dim": t.dim,
        "order": t.order,
        "symmetric": bool(t.symmetric),
        "entries": entries,
    }


def reference_orbit_to_dict(t):
    """The orbit layout of an exactly symmetric t: the nonzero value of each
    orbit at its non-decreasing index, in row-major order."""
    entries = []
    for idx in itertools.combinations_with_replacement(range(t.dim), t.order):
        if t.coeffs[idx] != 0.0:
            entries.append({"index": list(idx), "value": float(t.coeffs[idx])})
    return {
        "dim": t.dim,
        "order": t.order,
        "symmetric": True,
        "layout": "orbits",
        "entries": entries,
    }


def outcome(load, doc):
    """What loading doc gives: the tensor's flag and coefficient bytes, or the error."""
    try:
        t = load(copy.deepcopy(doc))
    except Exception as exc:  # noqa: BLE001 - the exception itself is compared
        return type(exc), str(exc)
    return t.symmetric, t.coeffs.shape, t.coeffs.tobytes()


# one malformed entry of a (dim 3, order 2) tensor per kind
BAD_ENTRIES = {
    "list": [0, 1],
    "string": "entry",
    "null": None,
    "number": 3,
    "missing index": {"value": 1.0},
    "missing value": {"index": [0, 1]},
    "missing both": {},
    "index string": {"index": "01", "value": 1.0},
    "index tuple": {"index": (0, 1), "value": 1.0},
    "bool index": {"index": [True, 0], "value": 1.0},
    "false index": {"index": [0, False], "value": 1.0},
    "float index": {"index": [0.0, 1], "value": 1.0},
    "nested index": {"index": [[0], 1], "value": 1.0},
    "string index item": {"index": ["0", 1], "value": 1.0},
    "index above dim": {"index": [0, 3], "value": 1.0},
    "negative index": {"index": [-1, 0], "value": 1.0},
    "huge index": {"index": [2**70, 0], "value": 1.0},
    "short index": {"index": [0], "value": 1.0},
    "long index": {"index": [0, 1, 2], "value": 1.0},
    "empty index": {"index": [], "value": 1.0},
    "inf value": {"index": [0, 1], "value": float("inf")},
    "-inf value": {"index": [0, 1], "value": float("-inf")},
    "nan value": {"index": [0, 1], "value": float("nan")},
    "bool value": {"index": [0, 1], "value": True},
    "string value": {"index": [0, 1], "value": "1.0"},
    "null value": {"index": [0, 1], "value": None},
    "nan value and short index": {"index": [0], "value": float("nan")},
    "short index out of range": {"index": [7], "value": 1.0},
    "bool value and bad index": {"index": [9, 9], "value": False},
}
GOOD_ENTRIES = [
    {"index": [0, 1], "value": 0.5},
    {"index": [2, 2], "value": -3},
    {"index": [1, 0], "value": 2**70},
]


def _doc(entries, dim=3, order=2, symmetric=False):
    return {"dim": dim, "order": order, "symmetric": symmetric, "entries": entries}


class TestBulkEntries:
    @pytest.mark.parametrize("kind", sorted(BAD_ENTRIES))
    @pytest.mark.parametrize("pos", [0, 1, 3])
    def test_malformed_entry_message(self, kind, pos):
        entries = GOOD_ENTRIES + [GOOD_ENTRIES[0]]
        entries = entries[:pos] + [BAD_ENTRIES[kind]] + entries[pos:]
        expected = outcome(reference_tensor_from_dict, _doc(entries))
        assert expected[0] is SchemaError
        assert expected[1].startswith(f"tensor entry {pos}: ")
        assert outcome(tensor_from_dict, _doc(entries)) == expected

    @pytest.mark.parametrize("first", sorted(BAD_ENTRIES))
    def test_first_bad_entry_wins(self, first):
        for second in BAD_ENTRIES:
            entries = [GOOD_ENTRIES[0], BAD_ENTRIES[first], GOOD_ENTRIES[1],
                       BAD_ENTRIES[second]]
            got = outcome(tensor_from_dict, _doc(entries))
            assert got == outcome(reference_tensor_from_dict, _doc(entries))
            assert got[1].startswith("tensor entry 1: "), second

    def test_huge_value_is_a_schema_error(self):
        # float() of an integer beyond the double range raises OverflowError in
        # the reference; the codec names the entry instead, unless an earlier
        # entry is malformed
        entries = [GOOD_ENTRIES[0], {"index": [0, 1], "value": 10**400}]
        assert outcome(reference_tensor_from_dict, _doc(entries))[0] is OverflowError
        got = outcome(tensor_from_dict, _doc(entries))
        assert got == (SchemaError, "tensor entry 1: 'value' is too large for a double")
        entries.insert(1, BAD_ENTRIES["nan value"])
        got = outcome(tensor_from_dict, _doc(entries))
        assert got == outcome(reference_tensor_from_dict, _doc(entries))
        assert got[1].startswith("tensor entry 1: ")

    @pytest.mark.parametrize(
        "entries, order",
        [
            ([], 2),
            ([], 0),
            ([{"index": [], "value": 2.5}, {"index": [], "value": -1}], 0),
            ([{"index": [0, 1], "value": 1.0}, {"index": [0, 1], "value": 4.0}], 2),
            ([{"index": [1, 1], "value": 0.0}], 2),
            (GOOD_ENTRIES, 2),
            ([{"index": [2, 0, 1], "value": 1.5, "note": "extra keys tolerated"}], 3),
        ],
    )
    def test_well_formed_entries_load_alike(self, entries, order):
        # repeated indices keep the last value, in file order, as before
        for symmetric in (False, True):
            doc = _doc(entries, order=order, symmetric=symmetric)
            assert outcome(tensor_from_dict, doc) == outcome(reference_tensor_from_dict, doc)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_write_and_read_match_the_reference(self, dim):
        # a drawn component is exactly symmetric, so from order 2 on it is
        # written by orbit; it reads back as the full layout's reference gave it
        for order in range(1, 7):  # pair components have order >= 1
            t = random_symmetric(dim, order, 100 * dim + order)
            doc = tensor_to_dict(t)
            full = reference_tensor_to_dict(t)
            ref = full if order == 1 else reference_orbit_to_dict(t)
            assert json.dumps(doc, indent=2) == json.dumps(ref, indent=2)
            assert outcome(tensor_from_dict, doc) == outcome(reference_tensor_from_dict, full)
        sparse = Tensor(dim, 2, np.where(np.eye(dim) > 0, -0.0, 1.0) * 2.0)
        assert tensor_to_dict(sparse) == reference_tensor_to_dict(sparse)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_gen_matches_the_reference_bytes(self, dim, tmp_path):
        from chaoskit.cli import main

        for order in range(1, 7):
            path = tmp_path / f"p{dim}_{order}.json"
            seed = 10 * dim + order
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["gen", "--dim", str(dim), "--order", str(order),
                             "--seed", str(seed), "-o", str(path)]) == 0
            pair = load_pair(path)
            writer = reference_tensor_to_dict if order == 1 else reference_orbit_to_dict
            expected = {
                "dim": dim, "n": order, "m": order,
                "f": writer(pair.f),
                "g": writer(pair.g),
                "seed": seed,
            }
            assert path.read_text() == json.dumps(expected, indent=2) + "\n"

    def test_random_corruptions_match_the_reference(self):
        rng = np.random.default_rng(2024)
        kinds = sorted(BAD_ENTRIES)
        for trial in range(300):
            dim, order = int(rng.integers(1, 4)), int(rng.integers(0, 4))
            entries = [
                {"index": rng.integers(0, dim, order).tolist(),
                 "value": float(rng.normal())}
                for _ in range(int(rng.integers(0, 6)))
            ]
            for _ in range(int(rng.integers(0, 3))):
                pos = int(rng.integers(0, len(entries) + 1))
                entries.insert(pos, BAD_ENTRIES[kinds[int(rng.integers(len(kinds)))]])
            for symmetric in (False, True):
                doc = _doc(entries, dim, order, symmetric)
                assert outcome(tensor_from_dict, doc) == \
                    outcome(reference_tensor_from_dict, doc), (trial, doc)


# -- the orbit layout -----------------------------------------------------------


def _gen(tmp_path, name, *args):
    path = tmp_path / f"{name}.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["gen", *args, "-o", str(path)]) == 0
    return path


def _full_layout(t):
    """t written and read back in the full layout by the reference codec."""
    return reference_tensor_from_dict(json.loads(json.dumps(reference_tensor_to_dict(t))))


def _density(capsys, doc, tmp_path):
    """(exit code, stderr) of `chaoskit density` on the pair document doc."""
    path = tmp_path / "edited.json"
    path.write_text(json.dumps(doc))
    code = cli.main(["density", "--pair", str(path), "-o", str(tmp_path / "out.json")])
    return code, capsys.readouterr().err


class TestOrbitLayout:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("order", range(1, 7))
    def test_gen_loads_as_the_full_layout(self, dim, order, tmp_path):
        # the draws of gen: f and g from SeedSequence([seed, 0]) and ([seed, 1]),
        # or f from seed and g = C f with --proportional
        seed, other = 10 * dim + order, 7 - order

        def draw(o, i):
            return random_symmetric(dim, o, np.random.SeedSequence([seed, i]))

        f = random_symmetric(dim, order, seed)
        cases = {
            "equal": ([], draw(order, 0), draw(order, 1)),
            "unequal": (["--order-g", str(other)], draw(order, 0), draw(other, 1)),
            "proportional": (["--proportional", "2.5"], f, f.scaled(2.5)),
        }
        for name, (extra, *want) in cases.items():
            path = _gen(tmp_path, name, "--dim", str(dim), "--order", str(order),
                        "--seed", str(seed), *extra)
            doc = json.loads(path.read_text())
            pair = load_pair(path)
            for key, got, t in zip("fg", (pair.f, pair.g), want):
                assert ("layout" in doc[key]) == (t.order >= 2), (name, key)
                assert got.symmetric
                assert got.coeffs.tobytes() == _full_layout(t).coeffs.tobytes(), (name, key)

    def test_reports_match_the_full_layout_file(self, tmp_path, capsys):
        path = _gen(tmp_path, "orbits", "--dim", "3", "--order", "4", "--seed", "5")
        doc = json.loads(path.read_text())
        pair = load_pair(path)
        full = dict(doc, f=reference_tensor_to_dict(pair.f), g=reference_tensor_to_dict(pair.g))
        full_path = tmp_path / "full.json"
        full_path.write_text(json.dumps(full, indent=2) + "\n")
        assert len(path.read_bytes()) < len(full_path.read_bytes()) / 2
        reports = []
        for p in (path, full_path):
            for cmd in (["density"], ["edet", "--k", "all"]):
                assert cli.main([*cmd, "--pair", str(p)]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_near_symmetric_component_keeps_the_full_layout(self, tmp_path):
        # symmetric within is_symmetric's tolerance but not bit for bit: an
        # orbit would lose the odd entry, so the full layout is written
        coeffs = random_symmetric(3, 3, 1).coeffs.copy()
        coeffs[0, 1, 2] = np.nextafter(coeffs[0, 1, 2], np.inf)
        t = Tensor(3, 3, coeffs, symmetric=True)
        assert is_symmetric(t)
        assert tensor_to_dict(t) == reference_tensor_to_dict(t)
        path = tmp_path / "pair.json"
        save_pair(MalliavinPair(t, random_symmetric(3, 2, 2)), path)
        back = load_pair(path)
        assert back.f.coeffs.tobytes() == coeffs.tobytes()
        assert "layout" not in json.loads(path.read_text())["f"]

    def test_asymmetric_full_layout_still_refused(self, tmp_path, capsys):
        doc = pair_to_dict(random_pair(2, 2, 2, 3))
        doc["f"] = _doc([{"index": [0, 1], "value": 1.0}], dim=2, symmetric=True)
        code, err = _density(capsys, doc, tmp_path)
        assert code == 2
        assert "tensor: flagged symmetric but coefficients are not" in err

    def test_repeated_orbit_keeps_its_last_value(self):
        doc = _doc([{"index": [0, 1], "value": 1.0}, {"index": [0, 1], "value": 3.0}],
                   dim=2, symmetric=True)
        doc["layout"] = "orbits"
        np.testing.assert_array_equal(tensor_from_dict(doc).coeffs, [[0, 3], [3, 0]])

    # (edit of the f component of a gen file, expected message)
    REFUSALS = {
        "non-representative index": (
            lambda f: f["entries"][3].update(index=[2, 1, 0, 0]),
            r"tensor entry 3: index \[2, 1, 0, 0\] is not the non-decreasing "
            r"representative of its orbit \(layout 'orbits'\)"),
        "not flagged symmetric": (
            lambda f: f.update(symmetric=False),
            "tensor: layout 'orbits' requires \"symmetric\": true"),
        "unknown layout": (
            lambda f: f.update(layout="triangle"),
            "tensor: unknown layout 'triangle', expected 'orbits'"),
        "non-string layout": (
            lambda f: f.update(layout=["orbits"]),
            r"tensor: unknown layout \['orbits'\], expected 'orbits'"),
        "null layout": (
            lambda f: f.update(layout=None),
            "tensor: unknown layout None, expected 'orbits'"),
        "non-finite value": (
            lambda f: f["entries"][2].update(value=float("nan")),
            r"tensor entry 2: value nan at index \[\d, \d, \d, \d\] is not finite"),
        "index out of range": (
            lambda f: f["entries"][5].update(index=[0, 0, 0, 3]),
            r"tensor entry 5: index \[0, 0, 0, 3\] out of range for dim 3"),
    }

    @pytest.mark.parametrize("kind", sorted(REFUSALS))
    def test_refusal_exits_2_naming_the_entry(self, kind, tmp_path, capsys):
        path = _gen(tmp_path, "pair", "--dim", "3", "--order", "4", "--seed", "2")
        doc = json.loads(path.read_text())
        assert doc["f"]["layout"] == "orbits"
        edit, message = self.REFUSALS[kind]
        edit(doc["f"])
        code, err = _density(capsys, doc, tmp_path)
        assert code == 2
        assert re.search(r"^chaoskit density: error: " + message, err), err

    def test_oversized_orbit_grid_refused_before_it_is_built(self, tmp_path, capsys,
                                                             monkeypatch):
        # 2^26 doubles fit the cap, their 26 x 2^26 int64 orbit grid does not
        f = {"dim": 2, "order": 26, "symmetric": True, "layout": "orbits", "entries": []}
        doc = {"dim": 2, "n": 26, "m": 26, "f": f, "g": f}
        built = []
        monkeypatch.setattr("chaoskit.io.orbit_info", lambda *a: built.append(a))
        code, err = _density(capsys, doc, tmp_path)
        assert code == 2 and not built
        assert err == (
            "chaoskit density: error: orbit grid: dim 2 and order 26 need "
            f"{8 * 26 * 2**26} bytes, above the cap of 1073741824 bytes\n")

    def test_writer_keeps_the_full_layout_above_the_grid_cap(self, monkeypatch):
        # at d = 4, n = 6 the tensor is 32768 bytes and its orbit grid 196608
        t = random_symmetric(4, 6, 1)
        monkeypatch.setattr(tensor, "MAX_ARRAY_BYTES", 100_000)
        doc = tensor_to_dict(t)
        assert doc == reference_tensor_to_dict(t)
        assert tensor_from_dict(doc).coeffs.tobytes() == t.coeffs.tobytes()
        doc = tensor_to_dict(random_symmetric(4, 5, 1))  # 40960 bytes of grid
        assert doc["layout"] == "orbits"
