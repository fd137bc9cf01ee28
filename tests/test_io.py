"""Serialization round-trips and schema validation."""

import json

import numpy as np
import pytest

from chaoskit.chaos import ChaosExpansion
from chaoskit.io import (
    SchemaError,
    breakdown_to_dict,
    chaos_from_dict,
    chaos_to_dict,
    load_pair,
    load_tensor,
    pair_from_dict,
    pair_to_dict,
    save_pair,
    save_tensor,
    tensor_from_dict,
    tensor_to_dict,
)
from chaoskit.malliavin import expected_det_closed_form, random_pair
from chaoskit.mc import Estimate
from chaoskit.tensor import Tensor, basis_tensor, random_symmetric, tensors_allclose


class TestTensorFormat:
    def test_round_trip(self, tmp_path):
        t = random_symmetric(3, 3, 1)
        path = tmp_path / "t.json"
        save_tensor(t, path)
        back = load_tensor(path)
        assert back.symmetric
        assert tensors_allclose(back, t, rel=0)

    def test_order_zero_round_trip(self):
        t = Tensor.scalar(2, -1.5)
        back = tensor_from_dict(tensor_to_dict(t))
        assert back.item() == -1.5

    def test_unlisted_entries_are_zero(self):
        doc = {
            "dim": 2,
            "order": 2,
            "symmetric": False,
            "entries": [{"index": [0, 1], "value": 2.0}],
        }
        t = tensor_from_dict(doc)
        assert t[0, 1] == 2.0
        assert t[1, 0] == 0.0

    def test_symmetric_flag_verified(self):
        doc = {
            "dim": 2,
            "order": 2,
            "symmetric": True,
            "entries": [{"index": [0, 1], "value": 2.0}],
        }
        with pytest.raises(SchemaError):
            tensor_from_dict(doc)

    def test_requested_symmetrization(self):
        doc = {
            "dim": 2,
            "order": 2,
            "symmetric": False,
            "entries": [{"index": [0, 1], "value": 2.0}],
        }
        t = tensor_from_dict(doc, request_symmetrize=True)
        assert t.symmetric
        assert t[0, 1] == 1.0 and t[1, 0] == 1.0

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

    def test_extra_keys_tolerated(self):
        doc = tensor_to_dict(basis_tensor(2, (0,)))
        doc["seed"] = 99
        t = tensor_from_dict(doc)
        assert t[0] == 1.0


class TestChaosFormat:
    def test_round_trip(self):
        F = ChaosExpansion.integral(random_symmetric(2, 2, 5)) + ChaosExpansion.constant(
            2, 1.25
        )
        back = chaos_from_dict(chaos_to_dict(F))
        assert set(back.terms) == set(F.terms)
        for k in F.terms:
            assert tensors_allclose(back.terms[k], F.terms[k], rel=0)

    def test_duplicate_order_rejected(self):
        doc = chaos_to_dict(ChaosExpansion.constant(2, 1.0))
        doc["terms"].append(doc["terms"][0])
        with pytest.raises(SchemaError):
            chaos_from_dict(doc)


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
        with pytest.raises(SchemaError):
            pair_from_dict(doc)

    def test_not_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        with pytest.raises(SchemaError):
            load_pair(path)


class TestBreakdownFormat:
    def test_fields(self):
        pair = random_pair(2, 2, 2, 10)
        b = expected_det_closed_form(pair, 1)
        doc = breakdown_to_dict(b)
        assert set(doc) == {"k", "t0", "tr", "remainder", "closed_form", "symbolic", "mc"}
        assert doc["mc"] is None
        assert doc["closed_form"] == pytest.approx(doc["t0"] + sum(doc["tr"]))

    def test_with_estimate(self):
        pair = random_pair(2, 2, 2, 11)
        b = expected_det_closed_form(pair, 1)
        from chaoskit.malliavin import DetBreakdown

        b = DetBreakdown(
            k=b.k,
            t0=b.t0,
            tr=b.tr,
            remainder=b.remainder,
            closed_form=b.closed_form,
            symbolic=b.symbolic,
            mc=Estimate(mean=1.0, stderr=0.1, samples=100, seed=3),
        )
        doc = breakdown_to_dict(b)
        assert doc["mc"] == {"mean": 1.0, "stderr": 0.1, "samples": 100, "seed": 3}

    def test_json_floats_round_trip(self):
        pair = random_pair(2, 2, 2, 12)
        b = expected_det_closed_form(pair, 1)
        doc = breakdown_to_dict(b)
        again = json.loads(json.dumps(doc))
        assert again["closed_form"] == b.closed_form
