"""Configuration of the compressed-state simulator.

The defaults are laptop-scale versions of the paper's Theta configuration
(128 ranks per node, 1,048,576 amplitudes = 16 MB per block, five relative
error levels escalating from lossless to 1e-1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..compression.interface import PAPER_ERROR_LEVELS

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (config ← resilience)
    from ..resilience import FaultPolicy

__all__ = ["SimulatorConfig", "PAPER_BLOCK_AMPLITUDES"]

#: The paper's block size: 1,048,576 complex amplitudes = 16 MB per block.
PAPER_BLOCK_AMPLITUDES = 1 << 20


@dataclass
class SimulatorConfig:
    """Tunables of :class:`repro.core.simulator.CompressedSimulator`.

    Parameters
    ----------
    num_ranks:
        Simulated MPI ranks the state is partitioned over (power of two).
    block_amplitudes:
        Amplitudes per compressed block (power of two).  ``None`` picks a
        sensible laptop-scale size: the paper's 2^20 when it fits, otherwise
        enough blocks per rank to exercise the blocked code path.
    memory_budget_bytes:
        Total budget for all compressed blocks plus the two decompressed
        scratch blocks per rank (Eq. 8).  ``None`` disables the adaptive
        escalation (the simulator still compresses, it just never has to give
        up accuracy).
    error_levels:
        The ladder of pointwise relative error bounds the adaptive controller
        escalates through once lossless compression stops fitting.
    lossy_compressor:
        Registry name of the lossy compressor ("xor-bitplane" = Solution C,
        the paper's choice; "sz", "sz-complex", "reshuffle" also work).
    lossless_backend:
        Backend for the lossless stage(s): "zlib", "lzma" or "bz2".
    lossless_level:
        Compression level passed to the lossless backend, for lossless blocks
        and for the final stage of the lossy codecs.  The paper runs Zstd at
        a fast setting, and 3 is the highest of zlib's fast levels (1-3).
        Measured on the end-to-end workloads (2-CPU host): levels 1, 2 and 3
        ran within noise of each other over eleven seeds, and 3 kept the
        most ratio.  Against level 6 on the same three seeds, level 3 cut
        ``qaoa16_budget`` wall by 22 % and ``rcs16_seq`` by 35 %, for 1.0 %
        and 7.3 % less ``min_ratio``.  The level only affects encoding: any
        level decodes any blob, and checkpoints restore across levels.  Pass
        ``6`` for the ratios of versions before 1.13.
    use_block_cache:
        Enable the compressed block cache of Section 3.4 with the paper's
        constants: 64 lines (per rank on the ranked tier), disabled after
        256 straight misses (the paper disables it when the hit rate is
        "always zero").  It serves repeats across gate plans; repeats within
        one plan are grouped before the cache on every tier.
    start_lossless:
        Begin with lossless compression and only escalate to lossy when the
        memory budget forces it (Section 3.7).  When ``False`` the simulator
        starts directly at the first lossy level (used by the ablation bench).
    track_fidelity_bound:
        Maintain the Π(1 - δ_i) lower bound on simulation fidelity.
    fusion_enabled:
        Run the grouping pass (:func:`repro.circuits.fusion.form_runs`)
        before execution: each ``cx(c, t) · d(t) · cx(c, t)`` sandwich with
        ``d`` diagonal becomes one diagonal step (``d`` on ``x_c ⊕ x_t``),
        and consecutive steps that can share one staging — one-block steps
        (an in-block target, a diagonal 2x2 wherever its target lies, or
        such a sandwich) whatever their controls, or gates on one non-local
        target under one set of non-local controls — become a run whose
        steps are applied in order inside a single decompress/recompress
        round trip per block (or block pair).  **On by default** — nothing is
        reordered or multiplied, so lossless results equal the gate-by-gate
        schedule's and the dense simulator's, and compressor round trips
        only go down; set ``fusion_enabled=False`` to opt out
        (the seed behaviour, the differential tests' reference).  Lossy
        results differ between the two settings because a run is quantised
        once instead of once per gate.  While ``memory_budget_bytes`` is set
        and the state is still lossless, a run is taken step by step so the
        budget is checked after each (a sandwich stays one step).
    num_workers:
        ``1`` (the default) runs on the tier ``comm`` selects; any larger
        value is a spelling of the ranked tier described under ``comm``,
        whose workers *are* the ranks, so it must equal ``num_ranks``.
    executor:
        ``"thread"`` (the default) or ``"process"``; validated, but it
        selects nothing: ``num_workers`` alone picks the tier.
    mp_start_method:
        ``multiprocessing`` start method for the ranked tier's rank workers:
        ``"fork"``, ``"spawn"``, ``"forkserver"`` or ``None`` for the
        platform default.  Both fork and spawn produce bit-identical states.
    comm:
        Communication tier for the ``num_ranks`` partition.  ``"simulated"``
        (the default) keeps every rank's blocks in one process and only
        *counts* the block exchanges a distributed run would make, in the
        report's ``block_exchanges`` / ``communication_bytes``;
        ``"process"`` selects the ranked tier: each rank is a persistent
        worker process owning its partition slice, with entangling gates
        moving real compressed blobs between ranks over socket pairs
        (:mod:`repro.distributed.ranked`).  Results are
        bit-identical across both tiers.  The ranked tier is the only
        parallel mechanism and is scaled with ``num_ranks``; :attr:`tier`
        reports which of ``"sequential"`` or ``"ranked"`` ``comm`` and
        ``num_workers`` resolve to.
    fault_policy:
        Recovery policy (:class:`repro.resilience.FaultPolicy`) of the run:
        retries and the in-run checkpoint interval.  ``None``
        resolves through
        :func:`repro.resilience.resolve_fault_policy` — a
        recovery-enabled default when a fault plan is active (the CI chaos
        job), and otherwise an inert policy that keeps the historical
        fail-fast behaviour.
    """

    num_ranks: int = 1
    block_amplitudes: int | None = None
    memory_budget_bytes: int | None = None
    error_levels: tuple[float, ...] = PAPER_ERROR_LEVELS
    lossy_compressor: str = "xor-bitplane"
    lossless_backend: str = "zlib"
    lossless_level: int = 3
    use_block_cache: bool = True
    start_lossless: bool = True
    track_fidelity_bound: bool = True
    fusion_enabled: bool = True
    num_workers: int = 1
    # Read by the frozen rcs16_thread2 / rcs16_process2 workloads of
    # benchmarks/e2e; goes with them.
    executor: str = "thread"
    mp_start_method: str | None = None
    comm: str = "simulated"
    fault_policy: "FaultPolicy | None" = None

    def __post_init__(self) -> None:
        if self.num_ranks < 1 or self.num_ranks & (self.num_ranks - 1):
            raise ValueError("num_ranks must be a positive power of two")
        if self.block_amplitudes is not None:
            if self.block_amplitudes < 2 or self.block_amplitudes & (
                self.block_amplitudes - 1
            ):
                raise ValueError("block_amplitudes must be a power of two >= 2")
        if not self.error_levels:
            raise ValueError("error_levels must contain at least one level")
        levels = tuple(float(level) for level in self.error_levels)
        if any(level <= 0 for level in levels):
            raise ValueError("error levels must be positive")
        if list(levels) != sorted(levels):
            raise ValueError("error_levels must be sorted from tightest to loosest")
        self.error_levels = levels
        if not 0 <= self.lossless_level <= 9:
            raise ValueError(
                f"lossless_level must be 0-9 (zlib's range), got {self.lossless_level}"
            )
        if self.memory_budget_bytes is not None and self.memory_budget_bytes <= 0:
            raise ValueError(
                "memory_budget_bytes must be positive or None, got "
                f"{self.memory_budget_bytes}"
            )
        if self.executor not in ("thread", "process"):
            raise ValueError(
                f"executor must be 'thread' or 'process', got {self.executor!r}"
            )
        if self.mp_start_method not in (None, "fork", "spawn", "forkserver"):
            raise ValueError(
                "mp_start_method must be None, 'fork', 'spawn' or 'forkserver'"
            )
        if self.comm not in ("simulated", "process"):
            raise ValueError(
                f"comm must be 'simulated' or 'process', got {self.comm!r}"
            )
        if self.num_workers not in (1, self.num_ranks):
            raise ValueError(
                "the ranked tier (comm='process' or num_workers > 1) runs "
                f"one worker process per rank: num_workers={self.num_workers} "
                f"must be 1 or equal num_ranks={self.num_ranks}; scale it "
                "with num_ranks instead (see docs/migration.md)"
            )
        ranked = self.comm == "process" or self.num_workers > 1
        self._tier = "ranked" if ranked else "sequential"
        if self.fault_policy is not None:
            from ..resilience import FaultPolicy

            if not isinstance(self.fault_policy, FaultPolicy):
                raise ValueError(
                    "fault_policy must be a repro.resilience.FaultPolicy "
                    "instance or None"
                )

    @property
    def tier(self) -> str:
        """The execution tier this config selects, derived at validation:
        ``"sequential"`` or ``"ranked"`` (one worker process per rank)."""

        return self._tier

    @property
    def codec_engine(self) -> str:
        """Always ``"numpy"``; not a field (``codec_engine=...`` is a ``TypeError``)."""

        # Read by benchmarks/e2e/e2e_trace.py (frozen); goes with that line.
        return "numpy"

    def resolve_block_amplitudes(self, num_qubits: int, num_ranks: int) -> int:
        """Pick the block size for a given problem when not set explicitly.

        Prefers 4 or more blocks per rank (so the block-segment code path is
        exercised) while keeping blocks no larger than the paper's 2^20
        amplitudes.
        """

        per_rank = (1 << num_qubits) // num_ranks
        if per_rank < 2:
            raise ValueError("each rank must hold at least 2 amplitudes")
        if self.block_amplitudes is not None:
            if self.block_amplitudes > per_rank:
                raise ValueError(
                    f"block_amplitudes={self.block_amplitudes} exceeds the "
                    f"{per_rank} amplitudes per rank"
                )
            return self.block_amplitudes
        target = per_rank // 4
        target = max(2, min(target, PAPER_BLOCK_AMPLITUDES))
        # Round down to a power of two.
        return 1 << (target.bit_length() - 1)
