"""Each input check refuses with its own exception type and message.

One case per check that no other test reaches: a deleted ``raise`` lets
the bad input through, and its case fails.
"""

import re

import pytest

from chaoskit.chaos import ChaosExpansion, HValuedChaos, checked_factorial
from chaoskit.io import SchemaError, _tensor_from_dict, pair_from_dict
from chaoskit.mc import sample_gaussian_block
from chaoskit.tensor import Tensor, basis_tensor, random_symmetric


def _tensor_doc(**changes):
    return {"dim": 2, "order": 2, "symmetric": False, "entries": [], **changes}


# id -> (call, exception type, the whole message)
REFUSALS = {
    "checked_factorial negative": (
        lambda: checked_factorial(-1),
        ValueError, "factorial argument must be >= 0, got -1"),
    "ChaosExpansion dim 0": (
        lambda: ChaosExpansion(0, {}),
        ValueError, "dim must be >= 1, got 0"),
    "ChaosExpansion negative order": (
        lambda: ChaosExpansion(2, {-1: Tensor.scalar(2, 1.0)}),
        ValueError, "chaos order must be >= 0, got -1"),
    "ChaosExpansion term of another dim": (
        lambda: ChaosExpansion(2, {1: basis_tensor(3, (0,))}),
        ValueError, "term at order 1 has dim 3, order 1; expected dim 2, order 1"),
    "integral of an unflagged tensor": (
        lambda: ChaosExpansion.integral(basis_tensor(2, (0, 1))),
        ValueError, "multiple integrals require a symmetric tensor"),
    "HValuedChaos negative tensor order": (
        lambda: HValuedChaos(2, -1, {}),
        ValueError, "tensor_order must be >= 0"),
    "HValuedChaos entry count": (
        lambda: HValuedChaos(2, 1, {(0,): ChaosExpansion.constant(2, 1.0)}),
        ValueError, "expected 2 entries for tensor_order 1, got 1"),
    "HValuedChaos index length": (
        lambda: HValuedChaos(1, 1, {(0, 0): ChaosExpansion.constant(1, 1.0)}),
        ValueError, "entry index (0, 0) has wrong length"),
    "HValuedChaos entry dim": (
        lambda: HValuedChaos(2, 0, {(): ChaosExpansion.constant(3, 1.0)}),
        ValueError, "entry dimension mismatch"),
    "tensor dim not an integer": (
        lambda: _tensor_from_dict(_tensor_doc(dim=2.0)),
        SchemaError, "tensor: 'dim' must be an integer"),
    "tensor document not an object": (
        lambda: _tensor_from_dict([]),
        SchemaError, "tensor: document must be an object"),
    "tensor dim 0": (
        lambda: _tensor_from_dict(_tensor_doc(dim=0)),
        SchemaError, "tensor: invalid dim 0 or order 2"),
    "tensor negative order": (
        lambda: _tensor_from_dict(_tensor_doc(order=-1)),
        SchemaError, "tensor: invalid dim 2 or order -1"),
    "pair document not an object": (
        lambda: pair_from_dict([]),
        SchemaError, "pair: document must be an object"),
    "sample block negative start": (
        lambda: sample_gaussian_block(2, 0, -1, 1),
        ValueError, "start and count must be >= 0"),
    "sample block negative count": (
        lambda: sample_gaussian_block(2, 0, 0, -1),
        ValueError, "start and count must be >= 0"),
    "item at order 1": (
        lambda: Tensor.zeros(2, 1).item(),
        ValueError, "item() requires order 0, got order 1"),
    "basis index out of range": (
        lambda: basis_tensor(2, (0, 2)),
        ValueError, "basis index 2 out of range [0, 2)"),
    "random_symmetric dim 0": (
        lambda: random_symmetric(0, 2, 0),
        ValueError, "dim must be >= 1, got 0"),
    "random_symmetric negative order": (
        lambda: random_symmetric(2, -1, 0),
        ValueError, "order must be >= 0, got -1"),
}


@pytest.mark.parametrize("case", REFUSALS)
def test_refuses_with_its_message(case):
    call, kind, message = REFUSALS[case]
    with pytest.raises(kind, match=f"^{re.escape(message)}$") as info:
        call()
    assert info.type is kind
