"""CPU cost model for cryptographic operations.

Section 7.1 of the paper models the time to sign a block of ``beta``
transactions of ``sigma`` bytes each as::

    t_sign = beta * sigma * t_hash + C

where ``t_hash`` is the per-byte hashing time and ``C`` the constant cost of
the asymmetric signature over the fixed-size header.  Figure 5 reports the
resulting signatures-per-second rate on a 4-vCPU ``m5.xlarge`` VM; the default
constants below are calibrated so the model reproduces those curves (a few
thousand signatures per second for small blocks, dropping to a few hundred for
4 KB x 1000 blocks).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MachineSpec:
    """CPU and NIC characteristics of one VM class."""

    name: str
    cores: int
    #: Per-byte SHA-256 hashing time in seconds (amortised, single core).
    hash_time_per_byte: float
    #: Constant cost of one ECDSA signing operation (header-sized payload).
    sign_constant: float
    #: Constant cost of one ECDSA verification operation.
    verify_constant: float
    #: Effective egress bandwidth of the NIC in bytes per second.
    egress_bandwidth: float
    #: Per-byte cost of moving a payload through the RPC/serialisation stack.
    network_stack_per_byte: float
    #: Fixed per-message cost of the RPC stack (syscalls, framing, dispatch).
    network_stack_per_message: float
    #: CPU time a protocol thread spends handling one received control
    #: message (deserialisation, dispatch, bookkeeping).  This is what makes
    #: a single FireLedger worker latency/CPU bound and lets additional
    #: workers raise throughput until the cores saturate (Figures 6 and 7).
    message_processing_cpu: float = 0.0

    def scaled(self, **overrides: float) -> "MachineSpec":
        """Return a copy with selected fields replaced (for ablations)."""
        data = self.__dict__.copy()
        data.update(overrides)
        return MachineSpec(**data)


#: The mid-range VM used for most of the paper's evaluation (Section 7).
#: The stack costs are calibrated so the effective per-node goodput
#: (~100 MB/s, gRPC + TLS + Java on a non-dedicated VM) and per-message RPC
#: overhead reproduce the paper's single data-center throughput envelope.
M5_XLARGE = MachineSpec(
    name="m5.xlarge",
    cores=4,
    hash_time_per_byte=6.0e-9,
    sign_constant=0.85e-3,
    verify_constant=1.0e-3,
    egress_bandwidth=1.25e9,  # "up to 10 Gbps"
    network_stack_per_byte=9.0e-9,
    network_stack_per_message=20.0e-6,
    message_processing_cpu=0.3e-3,
)

#: The high-end VM used for the HotStuff / BFT-SMaRt comparison (Section 7.6).
C5_4XLARGE = MachineSpec(
    name="c5.4xlarge",
    cores=16,
    hash_time_per_byte=4.5e-9,
    sign_constant=0.55e-3,
    verify_constant=0.65e-3,
    egress_bandwidth=1.25e9,
    network_stack_per_byte=6.0e-9,
    network_stack_per_message=12.0e-6,
    message_processing_cpu=0.12e-3,
)

MACHINE_PRESETS = {spec.name: spec for spec in (M5_XLARGE, C5_4XLARGE)}


@dataclass(frozen=True)
class RoundCostProfile:
    """Every per-round CPU constant for one block shape, computed once.

    The protocol round loop used to re-derive the same handful of durations
    through :class:`CryptoCostModel` calls on every round (and on every
    received message): ``sign_time(0)`` for the header signature,
    ``verify_time(0)`` for its verification, ``hash_time(body)`` for the
    Merkle re-hash.  All of them are pure functions of the immutable machine
    spec and the configured ``(batch_size, tx_size)`` shape, so a worker asks
    :meth:`CryptoCostModel.round_profile` once at start-up and charges plain
    attribute reads from then on.
    """

    #: Body payload size the profile was computed for (``batch_size * tx_size``).
    body_bytes: int
    #: Signing the fixed-size header (``sign_time(0)``).
    header_sign: float
    #: Verifying the header signature (``verify_time(0)``).
    header_verify: float
    #: Re-hashing a full body to check the Merkle root (``hash_time(body_bytes)``).
    body_hash: float
    #: Full block signing time, hash plus signature (Figure 5's ``t_sign``).
    block_sign: float
    #: Full block verification time.
    block_verify: float
    #: CPU cost of handling one received control message.
    message_cpu: float


class CryptoCostModel:
    """Computes simulated CPU durations for hashing, signing and verifying.

    Block-level lookups are memoised per ``(batch_size, tx_size)``: the
    protocol hot loop asks for the same handful of block shapes millions of
    times per run, and the model's inputs are immutable (``MachineSpec`` is a
    frozen dataclass), so the cache never goes stale.
    """

    def __init__(self, machine: MachineSpec = M5_XLARGE) -> None:
        self.machine = machine
        self._block_sign_cache: dict[tuple[int, int], float] = {}
        self._block_verify_cache: dict[tuple[int, int], float] = {}
        self._round_profile_cache: dict[tuple[int, int], RoundCostProfile] = {}

    # ------------------------------------------------------------- primitives
    def hash_time(self, size_bytes: int) -> float:
        """Time to hash ``size_bytes`` bytes on one core."""
        if size_bytes < 0:
            raise ValueError("size_bytes must be non-negative")
        return size_bytes * self.machine.hash_time_per_byte

    def sign_time(self, payload_bytes: int = 0) -> float:
        """Time to hash ``payload_bytes`` and sign the digest."""
        return self.hash_time(payload_bytes) + self.machine.sign_constant

    def verify_time(self, payload_bytes: int = 0) -> float:
        """Time to hash ``payload_bytes`` and verify a signature over it."""
        return self.hash_time(payload_bytes) + self.machine.verify_constant

    # --------------------------------------------------------------- blocks
    def block_sign_time(self, batch_size: int, tx_size: int) -> float:
        """``t_sign`` for a block of ``batch_size`` transactions of ``tx_size`` bytes."""
        key = (batch_size, tx_size)
        cached = self._block_sign_cache.get(key)
        if cached is None:
            cached = self._block_sign_cache[key] = self.sign_time(batch_size * tx_size)
        return cached

    def block_verify_time(self, batch_size: int, tx_size: int) -> float:
        """Verification counterpart of :meth:`block_sign_time`."""
        key = (batch_size, tx_size)
        cached = self._block_verify_cache.get(key)
        if cached is None:
            cached = self._block_verify_cache[key] = self.verify_time(batch_size * tx_size)
        return cached

    # -------------------------------------------------------------- rounds
    def round_profile(self, batch_size: int, tx_size: int) -> RoundCostProfile:
        """The :class:`RoundCostProfile` for one block shape (memoised)."""
        key = (batch_size, tx_size)
        cached = self._round_profile_cache.get(key)
        if cached is None:
            body_bytes = batch_size * tx_size
            cached = self._round_profile_cache[key] = RoundCostProfile(
                body_bytes=body_bytes,
                header_sign=self.sign_time(0),
                header_verify=self.verify_time(0),
                body_hash=self.hash_time(body_bytes),
                block_sign=self.block_sign_time(batch_size, tx_size),
                block_verify=self.block_verify_time(batch_size, tx_size),
                message_cpu=self.machine.message_processing_cpu,
            )
        return cached

    # ------------------------------------------------------------- figure 5
    def signatures_per_second(self, batch_size: int, tx_size: int, workers: int) -> float:
        """Aggregate signing rate of ``workers`` threads on this machine.

        This is the quantity plotted in Figure 5: the rate saturates at the
        core count because signing is purely CPU bound.
        """
        if workers < 1:
            raise ValueError("workers must be >= 1")
        effective_parallelism = min(workers, self.machine.cores)
        return effective_parallelism / self.block_sign_time(batch_size, tx_size)
