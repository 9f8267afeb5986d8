"""Per-simulation bookkeeping: the time breakdown and summary of Table 2.

The paper reports, for every benchmark run: total time, the percentage spent
in compression / decompression / communication / computation, time per gate,
the simulation fidelity (lower bound) and the minimum compression ratio seen
during the run.  :class:`SimulationReport` accumulates exactly those numbers
while the compressed simulator executes.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["SimulationReport"]


@dataclass
class SimulationReport:
    """Aggregated metrics of one compressed-simulation run."""

    num_qubits: int = 0
    num_ranks: int = 1
    block_amplitudes: int = 0
    gates_executed: int = 0

    compression_seconds: float = 0.0
    decompression_seconds: float = 0.0
    computation_seconds: float = 0.0
    communication_seconds: float = 0.0

    communication_bytes: int = 0
    block_exchanges: int = 0

    cache_hits: int = 0
    cache_misses: int = 0
    #: Tasks served by a byte-identical task of the same plan: no cache
    #: lookup, no codec call (:func:`repro.core.kernel.group_tasks`).
    duplicate_tasks: int = 0

    #: Compressor / decompressor invocations (one per block round trip side).
    #: Gate fusion exists to shrink these; cache hits skip them entirely.
    compress_calls: int = 0
    decompress_calls: int = 0

    #: Block tasks executed (a task covers one block or one block pair).
    tasks_executed: int = 0

    #: Gates fed into / emitted by the fusion pass (0/0 when fusion is off).
    fusion_gates_in: int = 0
    fusion_gates_out: int = 0

    #: Smallest compression ratio observed after any gate (Table 2, last row).
    min_compression_ratio: float = float("inf")
    #: Largest total footprint (compressed + scratch) observed, Eq. 8.
    peak_footprint_bytes: int = 0
    #: Most blob bytes one block cache's lines referenced at once — the
    #: simulator's cache, or the largest rank shard's on the ranked tier
    #: (``CacheStats.peak_bytes``).  Superseded blocks among them, so this is
    #: memory outside :attr:`peak_footprint_bytes` and the budget check.
    peak_cache_bytes: int = 0

    #: ``Π(1 - δ_i)`` over the gates executed (the Fig 6 lower bound).
    fidelity_lower_bound: float = 1.0
    final_error_bound: float = 0.0
    escalations: int = 0

    #: Per-rank communicator counters of the ranked tier
    #: (``SimulatorConfig.comm="process"``): one dict per rank — ``rank``
    #: plus the :class:`~repro.distributed.process_comm.CommunicationStats`
    #: of what that endpoint sent (``messages``, ``bytes_sent``,
    #: ``exchanges``) and its measured ``exchange_seconds``.  Their sums are
    #: ``communication_bytes`` and twice ``block_exchanges``.  ``None`` on
    #: the sequential tier, which counts the same exchanges (two messages
    #: of the larger block each) without measuring any time.
    rank_comm: list | None = None

    #: Fault-recovery accounting, or ``None`` when the run never recovered
    #: from (or prepared for) a failure: retries, gates replayed, time
    #: lost re-executing, checkpoints written and pool restarts.  Fed by
    #: :meth:`record_recovery` from the resilience machinery.
    recovery: dict | None = None

    # -- accumulation -----------------------------------------------------------------

    def add_time(self, bucket: str, seconds: float) -> None:
        """Add *seconds* to the named time bucket."""

        attr = f"{bucket}_seconds"
        if not hasattr(self, attr):
            raise KeyError(f"unknown time bucket {bucket!r}")
        setattr(self, attr, getattr(self, attr) + seconds)

    def add_count(self, counter: str, amount: int = 1) -> None:
        """Increment an integer counter field."""

        if not isinstance(getattr(self, counter, None), int):
            raise KeyError(f"unknown counter {counter!r}")
        setattr(self, counter, getattr(self, counter) + amount)

    def observe_ratio(self, ratio: float) -> None:
        """Track the worst (minimum) compression ratio seen so far."""

        if ratio < self.min_compression_ratio:
            self.min_compression_ratio = ratio

    def observe_footprint(self, footprint_bytes: int) -> None:
        """Track the peak memory footprint seen so far."""

        if footprint_bytes > self.peak_footprint_bytes:
            self.peak_footprint_bytes = footprint_bytes

    def record_recovery(
        self,
        *,
        retries: int = 0,
        gates_replayed: int = 0,
        time_lost_seconds: float = 0.0,
        checkpoints_written: int = 0,
        restarts: int = 0,
    ) -> None:
        """Accumulate into the :attr:`recovery` section.

        The section is created lazily on first call, so reports of runs that
        never exercised recovery keep ``recovery is None`` (and their JSON
        stays unchanged).
        """

        if self.recovery is None:
            self.recovery = {
                "retries": 0,
                "gates_replayed": 0,
                "time_lost_seconds": 0.0,
                "checkpoints_written": 0,
                "restarts": 0,
            }
        self.recovery["retries"] += retries
        self.recovery["gates_replayed"] += gates_replayed
        self.recovery["time_lost_seconds"] += time_lost_seconds
        self.recovery["checkpoints_written"] += checkpoints_written
        self.recovery["restarts"] += restarts

    # -- derived quantities --------------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        """Sum of every time bucket (the run's accounted wall time)."""

        return (
            self.compression_seconds
            + self.decompression_seconds
            + self.computation_seconds
            + self.communication_seconds
        )

    @property
    def seconds_per_gate(self) -> float:
        """Average accounted time per executed gate (0.0 before any gate)."""

        if self.gates_executed == 0:
            return 0.0
        return self.total_seconds / self.gates_executed

    def breakdown(self) -> dict[str, float]:
        """Fractions of total time per bucket (the Table 2 percentage rows)."""

        total = self.total_seconds
        if total <= 0:
            return {
                "compression": 0.0,
                "decompression": 0.0,
                "communication": 0.0,
                "computation": 0.0,
            }
        return {
            "compression": self.compression_seconds / total,
            "decompression": self.decompression_seconds / total,
            "communication": self.communication_seconds / total,
            "computation": self.computation_seconds / total,
        }

    def as_dict(self) -> dict:
        """JSON-ready mapping of every metric (used by benchmarks/docs)."""

        data = {
            "num_qubits": self.num_qubits,
            "num_ranks": self.num_ranks,
            "block_amplitudes": self.block_amplitudes,
            "gates_executed": self.gates_executed,
            "total_seconds": self.total_seconds,
            "seconds_per_gate": self.seconds_per_gate,
            "compression_seconds": self.compression_seconds,
            "decompression_seconds": self.decompression_seconds,
            "computation_seconds": self.computation_seconds,
            "communication_seconds": self.communication_seconds,
            "communication_bytes": self.communication_bytes,
            "block_exchanges": self.block_exchanges,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "duplicate_tasks": self.duplicate_tasks,
            "compress_calls": self.compress_calls,
            "decompress_calls": self.decompress_calls,
            "tasks_executed": self.tasks_executed,
            "fusion_gates_in": self.fusion_gates_in,
            "fusion_gates_out": self.fusion_gates_out,
            "min_compression_ratio": self.min_compression_ratio,
            "peak_footprint_bytes": self.peak_footprint_bytes,
            "peak_cache_bytes": self.peak_cache_bytes,
            "fidelity_lower_bound": self.fidelity_lower_bound,
            "final_error_bound": self.final_error_bound,
            "escalations": self.escalations,
            "rank_comm": self.rank_comm,
            "recovery": dict(self.recovery) if self.recovery is not None else None,
        }
        data.update({f"{k}_fraction": v for k, v in self.breakdown().items()})
        return data

    def summary(self) -> str:
        """Multi-line human-readable summary (used by the examples)."""

        breakdown = self.breakdown()
        lines = [
            f"qubits={self.num_qubits} ranks={self.num_ranks} "
            f"block={self.block_amplitudes} gates={self.gates_executed}",
            f"total time           : {self.total_seconds:.3f} s "
            f"({self.seconds_per_gate * 1e3:.2f} ms/gate)",
            f"  compression        : {breakdown['compression'] * 100:5.1f}%",
            f"  decompression      : {breakdown['decompression'] * 100:5.1f}%",
            f"  communication      : {breakdown['communication'] * 100:5.1f}%",
            f"  computation        : {breakdown['computation'] * 100:5.1f}%",
            f"communication volume : {self.communication_bytes / 2**20:.2f} MiB "
            f"in {self.block_exchanges} block exchanges",
            f"cache                : {self.cache_hits} hits / {self.cache_misses} misses"
            f" / {self.duplicate_tasks} same-plan duplicates",
            f"compressor calls     : {self.compress_calls} compress / "
            f"{self.decompress_calls} decompress over {self.tasks_executed} tasks",
            f"min compression ratio: {self.min_compression_ratio:.2f}",
            f"peak footprint       : {self.peak_footprint_bytes / 2**20:.2f} MiB",
            f"peak cache lines     : {self.peak_cache_bytes / 2**20:.2f} MiB "
            "(outside the footprint)",
            f"fidelity lower bound : {self.fidelity_lower_bound:.6f}",
            f"final error bound    : {self.final_error_bound:g}",
            f"escalations          : {self.escalations}",
        ]
        if self.recovery is not None:
            lines.append(
                f"recovery             : {self.recovery['retries']} retries, "
                f"{self.recovery['gates_replayed']} gates replayed, "
                f"{self.recovery['restarts']} restarts, "
                f"{self.recovery['checkpoints_written']} checkpoints, "
                f"{self.recovery['time_lost_seconds']:.3f} s lost"
            )
        return "\n".join(lines)
