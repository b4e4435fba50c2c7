"""Block and chain validation (the external ``valid`` method of BBFC)."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.crypto.keys import KeyStore
from repro.ledger.block import Block


class ValidationError(Exception):
    """Raised when a block or a chain version fails validation."""


def validate_block(block: Block, previous: Optional[Block],
                   keystore: Optional[KeyStore] = None,
                   expected_proposer: Optional[int] = None,
                   check_body: bool = True) -> None:
    """Validate ``block`` against its predecessor.

    Checks, in order: the proposer signature (if a keystore is supplied), the
    hash link to ``previous``, the round numbering, the expected proposer
    identity and the body/header consistency.  Raises
    :class:`ValidationError` on the first violation.
    """
    if keystore is not None and block.proposer >= 0:
        if block.signature is None:
            raise ValidationError(
                f"block r={block.round_number} from {block.proposer} is unsigned")
        if not keystore.verify(block.signature, block.proposer, block.digest):
            raise ValidationError(
                f"block r={block.round_number}: signature does not verify "
                f"against proposer {block.proposer}")
    if previous is not None:
        if block.previous_digest != previous.digest:
            raise ValidationError(
                f"block r={block.round_number}: previous digest mismatch "
                f"(chain fork or equivocation)")
        if block.round_number != previous.round_number + 1:
            raise ValidationError(
                f"block r={block.round_number} does not extend round "
                f"{previous.round_number}")
    if expected_proposer is not None and block.proposer != expected_proposer:
        raise ValidationError(
            f"block r={block.round_number} proposed by {block.proposer}, "
            f"expected {expected_proposer}")
    if check_body and not block.body_matches_header():
        raise ValidationError(
            f"block r={block.round_number}: body does not match header tx root")


def validate_chain(blocks: Sequence[Block], keystore: Optional[KeyStore] = None,
                   check_body: bool = True) -> None:
    """Validate that ``blocks`` form a hash-linked chain segment."""
    previous = None
    for block in blocks:
        validate_block(block, previous, keystore, check_body=check_body)
        previous = block


def distinct_proposers_window(blocks: Sequence[Block], window: int) -> bool:
    """Check that every ``window`` consecutive blocks have distinct proposers.

    Lemma 5.3.2: every ``f + 1`` consecutive decided blocks were proposed by
    ``f + 1`` different nodes.  Used when validating recovery versions.
    """
    if window <= 1:
        return True
    for start in range(max(0, len(blocks) - window + 1)):
        segment = blocks[start:start + window]
        if len(segment) < 2:
            continue
        proposers = [b.proposer for b in segment]
        if len(set(proposers)) != len(proposers):
            return False
    return True
