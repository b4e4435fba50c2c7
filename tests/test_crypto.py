"""Tests of the simulated cryptographic substrate."""

import pytest

from repro.crypto import (
    CryptoCostModel,
    KeyStore,
    Signature,
    hash_bytes,
    hash_fields,
    proposer_permutation,
)
from repro.crypto.cost_model import C5_4XLARGE, M5_XLARGE
from repro.crypto.hashing import merkle_root
from repro.experiments import registry
from repro.experiments.harness import ExperimentScale


def test_hash_bytes_is_deterministic():
    assert hash_bytes(b"abc") == hash_bytes(b"abc")
    assert hash_bytes(b"abc") != hash_bytes(b"abd")


def test_hash_fields_sensitive_to_order_and_content():
    assert hash_fields("a", 1) != hash_fields(1, "a")
    assert hash_fields("a", [1, 2]) == hash_fields("a", [1, 2])
    assert hash_fields("a", [1, 2]) != hash_fields("a", [2, 1])


def test_hash_fields_digests_are_pinned():
    """The canonical byte string is part of every block digest and state
    root: these literals were recorded before ``hash_fields`` was rewritten
    to build it with one join and one ``sha256`` call."""
    assert hash_fields("exec", "0" * 64, 3, 1.5, None, True) == (
        "f67d33cef7a5d17f8d30f03758db32cd3503599c59e0289f03a166750afb63a9")
    assert hash_fields("block", 7, ["a", ("x", 2), 3], (), "tail") == (
        "50310bbeb4c879a70537fb08782661ca609b9122f2a78e292ce85639383b962c")
    # A transfer transaction's field list (ledger/transaction.py).
    assert hash_fields("tx", 41, 3, 512, 5, 9, 250, 17) == (
        "498cde4620f5363a7265096dab8010a7779d421f8a5354515adfb3e56960e970")


def test_merkle_root_empty_and_singleton():
    assert merkle_root([]) == "0" * 64
    leaf = hash_bytes(b"leaf")
    assert merkle_root([leaf]) == leaf


def test_merkle_root_changes_with_any_leaf():
    leaves = [hash_bytes(bytes([i])) for i in range(5)]
    base = merkle_root(leaves)
    mutated = list(leaves)
    mutated[3] = hash_bytes(b"other")
    assert merkle_root(mutated) != base


def test_sign_and_verify_roundtrip():
    keystore = KeyStore(4)
    signature = keystore.key_for(2).sign("digest")
    assert keystore.verify(signature, expected_signer=2, digest="digest")
    assert not keystore.verify(signature, expected_signer=1, digest="digest")
    assert not keystore.verify(signature, expected_signer=2, digest="other")


def test_forged_signature_never_verifies():
    """Anything but a node's own key pair can only make ``genuine=False``
    signatures, even ones naming the right signer over the right digest."""
    keystore = KeyStore(4)
    forged = Signature(signer=0, digest="digest", genuine=False)
    assert not keystore.verify(forged, expected_signer=0, digest="digest")


def test_cost_model_matches_paper_formula():
    model = CryptoCostModel(M5_XLARGE)
    beta, sigma = 1000, 512
    expected = beta * sigma * M5_XLARGE.hash_time_per_byte + M5_XLARGE.sign_constant
    assert model.block_sign_time(beta, sigma) == pytest.approx(expected)


def test_signature_rate_saturates_at_core_count():
    model = CryptoCostModel(M5_XLARGE)
    at_cores = model.signatures_per_second(100, 512, workers=M5_XLARGE.cores)
    beyond = model.signatures_per_second(100, 512, workers=M5_XLARGE.cores + 6)
    assert beyond == pytest.approx(at_cores)


def test_signature_rate_decreases_with_block_size():
    model = CryptoCostModel(M5_XLARGE)
    small = model.signatures_per_second(10, 512, workers=4)
    large = model.signatures_per_second(1000, 4096, workers=4)
    assert small > large


def test_tps_bound_scales_with_batch():
    """Figure 5's ``tps <= sps * beta`` column (Section 7.1) grows with the
    batch at every transaction size and worker count."""
    bounds: dict = {}
    for row in registry.get("fig05").run(ExperimentScale.quick()):
        assert row["max_tps_bound"] == pytest.approx(
            row["sps"] * row["batch_size"], rel=1e-3)
        bounds.setdefault((row["tx_size"], row["workers"]), []).append(
            (row["batch_size"], row["max_tps_bound"]))
    assert any(len(points) > 1 for points in bounds.values())
    for points in bounds.values():
        by_batch = [bound for _, bound in sorted(points)]
        assert by_batch == sorted(by_batch)


def test_c5_is_faster_than_m5():
    m5 = CryptoCostModel(M5_XLARGE)
    c5 = CryptoCostModel(C5_4XLARGE)
    assert (c5.signatures_per_second(1000, 512, 16)
            > m5.signatures_per_second(1000, 512, 16))


def test_machine_spec_scaled_override():
    spec = M5_XLARGE.scaled(cores=8)
    assert spec.cores == 8
    assert spec.name == M5_XLARGE.name


def test_proposer_permutation_is_deterministic_and_complete():
    first = proposer_permutation(10, seed="abc")
    second = proposer_permutation(10, seed="abc")
    other = proposer_permutation(10, seed="abd")
    assert first == second
    assert sorted(first) == list(range(10))
    assert first != other or len(first) <= 2

