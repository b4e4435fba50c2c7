"""Ledger data structures: transactions, blocks, the chain and the tx pool.

A :class:`Blockchain` distinguishes the *definite* prefix (blocks at depth
greater than ``f + 1`` which will never change, per BBFC-Finality) from the
*tentative* suffix (the last ``f + 1`` blocks which a recovery may still
rescind).  This is the core state every FireLedger node maintains.
"""

from repro.ledger.block import Block, BlockHeader, build_block, header_for_batch, make_genesis
from repro.ledger.chain import Blockchain, ChainSummary, ChainVersion
from repro.ledger.transaction import Batch, Transaction
from repro.ledger.txpool import TxPool
from repro.ledger.validation import ValidationError, validate_chain

__all__ = [
    "Transaction",
    "Batch",
    "build_block",
    "header_for_batch",
    "Block",
    "BlockHeader",
    "make_genesis",
    "Blockchain",
    "ChainSummary",
    "ChainVersion",
    "TxPool",
    "ValidationError",
    "validate_chain",
]
