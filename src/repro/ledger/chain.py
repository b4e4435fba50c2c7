"""The blockchain a node maintains, with a tentative suffix.

FireLedger implements BBFC(f + 1): the last ``f + 1`` blocks of the local
chain are *tentative* (a recovery may replace them), everything older is
*definite* and will never change.  :class:`Blockchain` keeps the live chain
plus the index of the newest definite block, and supports the operations the
recovery procedure needs (extract a version, adopt a version).

Long-horizon runs additionally bound memory with a **retention policy**: the
definite prefix older than ``max(retention_rounds, finality_depth +
PRUNE_SLACK)`` rounds below the head is folded into a running
:class:`ChainSummary` (block/transaction/byte counters plus a rolling digest)
and dropped from the live list.  This is safe by construction — a recovery of
round ``r`` only ever disputes rounds ``>= r - finality_depth`` (Algorithm 3),
and the prune boundary is kept strictly below the newest definite block — the
same definite-prefix garbage collection BBCA-LEDGER applies to delivered
slots and Conflux applies to its pivot chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.crypto.hashing import hash_bytes
from repro.ledger.block import Block, make_genesis

#: Extra definite rounds kept beyond ``finality_depth`` so that any recovery
#: version (which starts at ``recovery_round - finality_depth``) and its
#: hash-link anchor are always still live.
PRUNE_SLACK = 2


@dataclass(frozen=True)
class ChainVersion:
    """A version proposed during recovery: a contiguous chain suffix.

    ``blocks`` start at the oldest block the proposer considers possibly in
    disagreement (round ``r - (f+1)`` of the recovery round ``r``) and run up
    to the proposer's newest block.  An empty version means the sender was too
    far behind to have anything to contribute (Algorithm 3, line 4).
    """

    sender: int
    blocks: tuple[Block, ...]

    @property
    def is_empty(self) -> bool:
        """Whether this is the empty version."""
        return not self.blocks

    @property
    def newest_round(self) -> int:
        """Round of the newest block in the version (-1 when empty)."""
        if not self.blocks:
            return -1
        return self.blocks[-1].round_number

    @property
    def size_bytes(self) -> int:
        """Approximate wire size of the version."""
        return sum(block.size_bytes for block in self.blocks)


@dataclass
class ChainSummary:
    """Running digest of the pruned definite prefix of one chain.

    Pruned blocks are gone from memory but not from the ledger's history:
    the summary keeps their count, transaction and byte totals, the newest
    pruned round, and a rolling hash chaining every pruned block's digest so
    the compacted prefix stays commitment-checkable.
    """

    blocks: int = 0
    transactions: int = 0
    newest_round: int = -1
    rolling_digest: str = ""

    def fold(self, block: Block) -> None:
        """Absorb one pruned block (oldest first)."""
        if block.round_number >= 0:  # the genesis placeholder is not a block
            self.blocks += 1
            self.transactions += block.tx_count
        self.newest_round = max(self.newest_round, block.round_number)
        self.rolling_digest = hash_bytes(
            (self.rolling_digest + block.digest).encode("ascii"))


class Blockchain:
    """A single worker's local chain, optionally with bounded retention.

    ``retention_rounds=None`` (the default) keeps every block forever — the
    paper's behaviour.  With ``retention_rounds=k`` the chain retains the
    newest ``max(k, finality_depth + PRUNE_SLACK)`` rounds and folds older
    definite blocks into :attr:`summary`.  When :attr:`released_through` is
    set (FLO does this), pruning additionally waits until the round-robin
    merge has released a round to clients, so head-of-line blocked rounds are
    never dropped before delivery.
    """

    def __init__(self, finality_depth: int, worker_id: int = 0,
                 retention_rounds: Optional[int] = None) -> None:
        if finality_depth < 1:
            raise ValueError("finality_depth must be >= 1")
        if retention_rounds is not None and retention_rounds < 1:
            raise ValueError("retention_rounds must be >= 1 (or None)")
        self.finality_depth = finality_depth
        self.worker_id = worker_id
        self.retention_rounds = retention_rounds
        self.summary = ChainSummary()
        #: Newest round released to clients (FLO delivery watermark); ``None``
        #: disables release gating (standalone chains prune by retention only).
        self.released_through: Optional[int] = None
        self._blocks: list[Block] = [make_genesis(worker_id)]
        #: Round number of ``_blocks[0]`` (the chain is always contiguous).
        self._base_round = -1
        #: Index (into ``_blocks``) of the newest definite block.
        self._definite_index = 0
        self._snapshot_cache: Optional[tuple[Block, ...]] = None

    # ------------------------------------------------------------- inspection
    def __len__(self) -> int:
        """Number of *live* (unpruned) blocks, including the genesis entry."""
        return len(self._blocks)

    @property
    def height(self) -> int:
        """Round number of the newest (possibly tentative) block."""
        return self._blocks[-1].round_number

    @property
    def head(self) -> Block:
        """The newest block (possibly tentative)."""
        return self._blocks[-1]

    @property
    def total_blocks(self) -> int:
        """Non-genesis blocks ever appended and kept: live + pruned."""
        live = sum(1 for b in self._blocks if b.round_number >= 0)
        return live + self.summary.blocks

    @property
    def blocks(self) -> tuple[Block, ...]:
        """Snapshot of the live blocks, oldest first (cached tuple)."""
        if self._snapshot_cache is None:
            self._snapshot_cache = tuple(self._blocks)
        return self._snapshot_cache

    @property
    def definite_blocks(self) -> tuple[Block, ...]:
        """Live final blocks (excluding the genesis placeholder)."""
        return tuple(b for b in self._blocks[:self._definite_index + 1]
                     if b.round_number >= 0)

    @property
    def tentative_blocks(self) -> tuple[Block, ...]:
        """The still-revocable suffix."""
        return tuple(self._blocks[self._definite_index + 1:])

    @property
    def definite_height(self) -> int:
        """Round number of the newest definite block (-1 if only genesis)."""
        return self._blocks[self._definite_index].round_number

    def block_at_round(self, round_number: int) -> Optional[Block]:
        """The block decided at ``round_number``; None if absent or pruned."""
        offset = round_number - self._base_round
        if 0 <= offset < len(self._blocks):
            block = self._blocks[offset]
            if block.round_number == round_number:
                return block
        # Fallback scan (robust to adopted versions with gaps, which we forbid,
        # but better safe than returning a wrong block).
        for block in self._blocks:
            if block.round_number == round_number:
                return block
        return None

    def is_definite(self, round_number: int) -> bool:
        """Whether the block at ``round_number`` is definite.

        Pruned rounds are definite by construction (only definite blocks are
        ever pruned), so this answers correctly over the pruned prefix too.
        """
        return round_number <= self.definite_height

    # --------------------------------------------------------------- mutation
    def append(self, block: Block) -> None:
        """Append a tentatively decided block and advance finality."""
        if block.previous_digest != self.head.digest:
            raise ValueError(
                f"block r={block.round_number} does not extend the local head "
                f"r={self.height}")
        if block.round_number != self.height + 1:
            raise ValueError(
                f"expected round {self.height + 1}, got {block.round_number}")
        self._blocks.append(block)
        self._snapshot_cache = None
        self._advance_finality()
        self._prune()

    def _advance_finality(self) -> None:
        # Every block at depth > finality_depth becomes definite
        # (Algorithm 2, line b11 decides the block at depth f + 2).
        newest_definite = len(self._blocks) - 1 - (self.finality_depth + 1)
        if newest_definite > self._definite_index:
            self._definite_index = newest_definite

    # --------------------------------------------------------------- pruning
    @property
    def effective_retention(self) -> Optional[int]:
        """Rounds actually retained below the head (None = keep everything)."""
        if self.retention_rounds is None:
            return None
        return max(self.retention_rounds, self.finality_depth + PRUNE_SLACK)

    def mark_released(self, round_number: int) -> None:
        """Advance the delivery watermark (FLO calls this per released round)."""
        if self.released_through is None or round_number > self.released_through:
            self.released_through = round_number
            self._prune()

    def _prune(self) -> None:
        retention = self.effective_retention
        if retention is None:
            return
        cut = self.height - retention  # prune rounds <= cut
        if self.released_through is not None:
            cut = min(cut, self.released_through)
        drop = cut - self._base_round + 1
        if drop <= 0:
            return
        # Never prune into the tentative suffix or past the definite anchor
        # recovery adoption needs (effective_retention >= f + 3 guarantees
        # this already; the clamp guards against future retune mistakes).
        drop = min(drop, self._definite_index)
        if drop <= 0:
            return
        for block in self._blocks[:drop]:
            self.summary.fold(block)
        del self._blocks[:drop]
        self._base_round += drop
        self._definite_index -= drop
        self._snapshot_cache = None

    # -------------------------------------------------------------- recovery
    def version_for_recovery(self, recovery_round: int) -> ChainVersion:
        """Extract this node's version for a recovery of ``recovery_round``.

        Mirrors Algorithm 3 lines 3-7: if the node is too far behind it sends
        the empty version, otherwise it sends the blocks from round
        ``recovery_round - (finality_depth)`` (exclusive of anything already
        agreed) up to its newest block.  On a pruned chain the window is
        clamped to the oldest live round: anything older is definite at every
        correct node (it was pruned only after sitting ``>= finality_depth +
        PRUNE_SLACK`` rounds below the head), so no recovery can dispute it.
        """
        if self.height < recovery_round - 1:
            return ChainVersion(sender=-1, blocks=())
        oldest = max(0, recovery_round - self.finality_depth,
                     self.summary.newest_round + 1)
        blocks = tuple(b for b in self._blocks if b.round_number >= oldest)
        return ChainVersion(sender=-1, blocks=blocks)

    def adopt_version(self, version: ChainVersion) -> list[Block]:
        """Replace the tentative suffix with ``version``; returns removed blocks.

        The definite prefix is never modified (BBFC-Finality); the version must
        connect to it.  Blocks the version shares with the local chain are kept
        as is.  A version whose anchor round was pruned cannot connect — it
        would rewrite history older than the retention window — and is
        rejected exactly like one rewriting the live definite prefix.
        """
        if version.is_empty:
            return []
        removed: list[Block] = []
        first_round = version.blocks[0].round_number
        if first_round - 1 < self._base_round:
            raise ValueError(
                f"version starting at round {first_round} anchors in the "
                f"pruned prefix (oldest live round {self._base_round})")
        # Find the local block the version's first block must link to.
        anchor_index = None
        for index, block in enumerate(self._blocks):
            if block.round_number == first_round - 1:
                anchor_index = index
                break
        if anchor_index is None:
            raise ValueError(
                f"version starting at round {first_round} does not connect to "
                f"the local chain (height {self.height})")
        if anchor_index < self._definite_index:
            raise ValueError("version would rewrite the definite prefix")
        anchor = self._blocks[anchor_index]
        if version.blocks[0].previous_digest != anchor.digest:
            raise ValueError("version does not hash-link to the local prefix")
        # Keep every block the version shares with the local chain; replace
        # only from the first divergence onward.
        shared = 0
        local_suffix = self._blocks[anchor_index + 1:]
        for local_block, version_block in zip(local_suffix, version.blocks):
            if local_block.digest != version_block.digest:
                break
            shared += 1
        removed = self._blocks[anchor_index + 1 + shared:]
        replacement = list(version.blocks[shared:])
        if not removed and not replacement:
            return []
        self._blocks = (self._blocks[:anchor_index + 1 + shared] + replacement)
        self._snapshot_cache = None
        self._advance_finality()
        self._prune()
        return removed
