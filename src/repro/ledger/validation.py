"""Block and chain validation (the external ``valid`` method of BBFC)."""

from __future__ import annotations

from typing import Optional, Sequence

from repro.crypto.keys import KeyStore
from repro.ledger.block import Block


class ValidationError(Exception):
    """Raised when a block or a chain version fails validation."""


def validate_chain(blocks: Sequence[Block], keystore: KeyStore) -> None:
    """Validate that ``blocks`` form a signed, hash-linked chain segment.

    Checks, block by block: the proposer signature (the genesis placeholder,
    proposer -1, carries none), the hash link to the previous block and the
    round numbering.  Raises :class:`ValidationError` on the first violation.
    """
    previous: Optional[Block] = None
    for block in blocks:
        if block.proposer >= 0:
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
        previous = block


def distinct_proposers_window(blocks: Sequence[Block], window: int) -> bool:
    """Check that every ``window`` consecutive blocks have distinct proposers.

    Lemma 5.3.2: every ``f + 1`` consecutive decided blocks were proposed by
    ``f + 1`` different nodes.  Used when validating recovery versions.
    """
    for start in range(len(blocks) - window + 1):
        proposers = [b.proposer for b in blocks[start:start + window]]
        if len(set(proposers)) != len(proposers):
            return False
    return True
