"""The compressed-state quantum circuit simulator (the paper's contribution).

:class:`CompressedSimulator` executes a circuit Schrödinger-style while the
state vector stays compressed.  Per gate (Figure 2):

0. (optional) The grouping pass (:func:`repro.circuits.fusion.form_runs`)
   turns each ``cx · d · cx`` sandwich into one diagonal step and consecutive
   steps that can share one staging into runs, so each run pays one block
   round trip instead of one per gate (``SimulatorConfig.fusion_enabled``).
1. The gate plan (:func:`repro.distributed.exchange.plan_gate`) lists which
   (rank, block) buffers must be staged, and which of them together: only a
   gate that mixes amplitude pairs across blocks (a non-diagonal 2x2 on a
   target above the block boundary) needs a partner block, chosen by the
   target qubit's index segment; the control qubits prune blocks.
2. The state of the configured tier (``SimulatorConfig.tier``) runs the
   plan's tasks on the blocks it holds —
   :class:`~repro.core.compressed_state.CompressedStateVector` in this
   process by default; on the ranked tier
   :class:`~repro.distributed.ranked.RankedStateVector` ships them to the
   rank worker processes that own the blocks.
   Byte-identical tasks of the plan are grouped first
   (:meth:`repro.core.kernel.BlockKernel.run_tasks`) and each group is one
   :meth:`repro.core.kernel.BlockKernel.run`: the compressed block cache is
   consulted for repeats of earlier plans; on a miss the block (or block pair)
   is decompressed into the scratch pool, the 2x2 unitary (each of a run's,
   in order) is applied with the vectorised kernels of
   :mod:`repro.statevector.ops`, and the result is recompressed with the
   compressor chosen by the adaptive error controller.
3. Inter-rank tasks count their block exchange in the report — measured
   over real sockets on the ranked tier, counted on the sequential one; every
   task updates the time-breakdown report.
4. After the gate, the memory footprint (Eq. 8) is compared against the
   budget and the error bound escalates if needed; the fidelity tracker
   records the bound that was in force.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from ..circuits import Gate, QuantumCircuit
from ..circuits.fusion import Run, Step, form_runs, run_of
from ..compression.interface import Compressor, get_compressor
from ..distributed.exchange import plan_gate
from ..distributed.partition import Partition, QubitSegment
from ..errors import ProcessCommTimeout, WorkerCrashedError
from ..resilience import resolve_fault_policy
from .adaptive import AdaptiveErrorController
from .blocks import CompressedBlock
from .cache import BlockCache
from .compressed_state import CompressedStateVector
from .config import SimulatorConfig
from .fidelity import FidelityTracker
from .report import SimulationReport

__all__ = ["CompressedSimulator"]

logger = logging.getLogger(__name__)


class CompressedSimulator:
    """Full-state simulator that keeps the state vector compressed in memory.

    Parameters
    ----------
    num_qubits:
        Register size.
    config:
        :class:`~repro.core.config.SimulatorConfig`; defaults are laptop-scale
        equivalents of the paper's setup.
    initial_basis_state:
        Basis state to start from (default ``|0...0>``, as in the paper's
        benchmarks).
    """

    def __init__(
        self,
        num_qubits: int,
        config: SimulatorConfig | None = None,
        initial_basis_state: int = 0,
    ) -> None:
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        self._config = config or SimulatorConfig()
        self._num_qubits = int(num_qubits)
        self._initial_basis_state = int(initial_basis_state)
        self._policy = resolve_fault_policy(self._config.fault_policy)

        block_amplitudes = self._config.resolve_block_amplitudes(
            num_qubits, self._config.num_ranks
        )
        self._partition = Partition(
            num_qubits=num_qubits,
            num_ranks=self._config.num_ranks,
            block_amplitudes=block_amplitudes,
        )
        self._controller = AdaptiveErrorController(self._config)
        self._fidelity = FidelityTracker()

        # Decompression needs an instance of the same compressor class that
        # produced a blob; bounds are embedded in the blobs, so one instance
        # per class suffices.
        lossless = self._controller.lossless_compressor()
        lossy = get_compressor(
            self._config.lossy_compressor,
            bound=self._config.error_levels[0],
            level=self._config.lossless_level,
        )
        self._decompressors: dict[str, Compressor] = {
            lossless.name: lossless,
            lossy.name: lossy,
        }

        # In-run resilience bookkeeping (the ranked recovery path): gates
        # applied since the last resilience checkpoint, the path of that
        # checkpoint, and a lazily created temp directory for it when the
        # policy does not pin one.
        self._replay_log: list[Step | Run] = []
        self._resilience_ckpt: Path | None = None
        self._ckpt_tempdir: str | None = None
        # Lazily computed config every fork of this simulator shares; see
        # fork() — rebuilding it per fork re-ran SimulatorConfig validation
        # once per X/Y observable per circuit in a batch.
        self._fork_config: SimulatorConfig | None = None

        self._build_state(initial_basis_state)
        self._report = self._state.new_report()
        self._gate_index = 0

    def _build_state(self, initial_basis_state: int) -> None:
        """Build the configured tier's state, which holds the blocks and
        runs plans on them: :class:`CompressedStateVector` in this process,
        or on the ranked tier a
        :class:`~repro.distributed.ranked.RankedStateVector` over one worker
        process per rank (imported lazily to keep the repro.distributed
        package import-light).  Called from ``__init__`` and again from
        :meth:`_recover_ranked` after a rank death tears the pool down.
        """

        tier_args = dict(
            partition=self._partition,
            compressor=self._initial_compressor(),
            initial_basis_state=initial_basis_state,
            decompressors=self._decompressors,
            cache_enabled=self._config.use_block_cache,
        )
        if self._config.tier == "ranked":
            from ..distributed.ranked import RankedStateVector

            self._state = RankedStateVector(
                **tier_args, start_method=self._config.mp_start_method
            )
        else:
            self._state = CompressedStateVector(**tier_args)

    # -- public accessors -----------------------------------------------------------

    @property
    def num_qubits(self) -> int:
        """Number of qubits being simulated."""

        return self._num_qubits

    @property
    def config(self) -> SimulatorConfig:
        """The immutable configuration this simulator was built from."""

        return self._config

    @property
    def partition(self) -> Partition:
        """The rank/block partition of the simulated machine."""

        return self._partition

    @property
    def state(self) -> CompressedStateVector:
        """The compressed state vector being evolved."""

        return self._state

    @property
    def cache(self) -> BlockCache | None:
        """The block-transform cache, or ``None`` when disabled — and on the
        ranked tier, whose cache shards live in the rank workers."""

        return self._state.cache

    @property
    def controller(self) -> AdaptiveErrorController:
        """The adaptive error-bound controller steering the codecs."""

        return self._controller

    @property
    def fidelity_tracker(self) -> FidelityTracker:
        """The per-gate fidelity accountant (the Fig 6 lower bound)."""

        return self._fidelity

    @property
    def current_error_bound(self) -> float:
        """The error bound the controller currently applies (0 = lossless)."""

        return self._controller.current_bound

    @property
    def gate_count(self) -> int:
        """How many gates have been applied so far."""

        return self._gate_index

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """Release the ranked tier's worker processes (idempotent; a no-op
        for the sequential tier) and any temporary resilience-checkpoint
        directory this simulator created."""

        self._state.close()
        if self._ckpt_tempdir is not None:
            import shutil  # on first use: it loads lzma and bz2

            shutil.rmtree(self._ckpt_tempdir, ignore_errors=True)
            self._ckpt_tempdir = None
            self._resilience_ckpt = None

    def __enter__(self) -> "CompressedSimulator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _initial_compressor(self) -> Compressor:
        return (
            self._controller.lossless_compressor()
            if self._config.start_lossless
            else self._controller.compressor()
        )

    def reset(self, initial_basis_state: int = 0) -> None:
        """Reset to ``|initial_basis_state>`` in place, keeping workers warm.

        Behaviour after a reset is indistinguishable from a freshly
        constructed simulator with the same config: the adaptive controller,
        fidelity tracker, block cache, communication counters and the report
        all start over.  What survives is the expensive machinery — the state
        object (and its rank workers), the scratch pool and the decompressor
        instances — which is what makes batched runs over same-width circuits
        cheap (:class:`repro.backends.CompressedBackend` calls this between
        circuits).
        """

        self._controller = AdaptiveErrorController(self._config)
        self._state.reset(self._initial_compressor(), initial_basis_state)
        self._fidelity = FidelityTracker()
        self._report = self._state.new_report()
        self._gate_index = 0
        # Any in-run resilience checkpoint describes the pre-reset state.
        self._replay_log.clear()
        self._resilience_ckpt = None

    def fork(self) -> "CompressedSimulator":
        """Snapshot this simulator's state into an independent copy.

        The copy shares nothing mutable with the original: the compressed
        blobs are immutable ``bytes``, so copying the state is just
        rebuilding the block table (construction itself compresses one
        reusable zero block).  The fork always runs on the sequential tier —
        it exists for short side computations, so it never pays for rank
        worker processes — and its adaptive controller is
        forced to the original's current error level so further gates
        compress with the same bound.  Used by
        :meth:`repro.backends.PauliObservable.expectation` to evaluate X/Y
        terms via basis-change gates without disturbing the live state.
        """

        config = self._fork_config
        if config is None:
            config = self._config
            if config.tier != "sequential":
                # Forks exist for short side computations: always local,
                # single-worker, in-process communication — even when the
                # parent runs on the ranked tier.  Derived once per
                # simulator: dataclasses.replace re-runs the full config
                # validation, which must not execute per fork (batched runs
                # fork once per X/Y observable per circuit).
                config = replace(config, num_workers=1, comm="simulated")
            self._fork_config = config
        clone = CompressedSimulator(self._num_qubits, config)
        clone.restore(
            {"current_bound": self._controller.current_bound},
            (
                (rank, block, entry.compressor, entry.bound, entry.blob)
                for (rank, block), entry in self._state.iter_blocks()
            ),
        )
        return clone

    def restore(self, meta: dict, blocks: Iterable[tuple]) -> None:
        """Overwrite this simulator's state with a snapshot.

        *blocks* are ``(rank, block, compressor name, bound, blob)`` tuples
        and *meta* is checkpoint metadata
        (:func:`repro.core.checkpoint.read_checkpoint` returns both).  The
        gate index, the report's ``gates_executed`` and ``escalations``, the
        fidelity history and the adaptive error level are rewound to *meta*;
        a field it lacks takes its start-of-run value.  This is the one
        state-restore path: checkpoint load, suspend/resume, ranked recovery
        and :meth:`fork` all end here.
        """

        for rank, block, name, bound, blob in blocks:
            self._state.put_block(
                rank, block, CompressedBlock(blob=blob, compressor=name, bound=bound)
            )
        self._gate_index = int(meta.get("gate_count", 0))
        self._report.gates_executed = self._gate_index
        self._report.escalations = int(meta.get("escalations", 0))
        self._fidelity.reset()
        for bound in meta.get("fidelity_gate_bounds", ()):
            self._fidelity.record_gate(float(bound))
        self._controller = AdaptiveErrorController(self._config)
        if meta.get("current_bound"):
            self._controller.force_level(float(meta["current_bound"]))

    # -- gate execution -----------------------------------------------------------------

    def apply_circuit(self, circuit: QuantumCircuit | Iterable[Gate]) -> SimulationReport:
        """Apply every gate of *circuit*; returns the (running) report.

        With ``fusion_enabled`` the circuit first goes through the grouping
        pass, so consecutive gates that can share one staging share one round
        trip (``report.fusion_gates_in/out`` record the reduction).
        """

        for gate in self.prepare_gates(circuit):
            self.apply_gate(gate)
        return self.report()

    def prepare_gates(
        self, circuit: QuantumCircuit | Iterable[Gate]
    ) -> list[Step | Run]:
        """The exact schedule :meth:`apply_circuit` would execute.

        Runs the configured grouping pass (recording its statistics in the
        report) and returns the resulting elements as a list: plain gates, a
        :class:`~repro.circuits.fusion.ParityPhase` for every ``cx · d · cx``
        sandwich, and a :class:`~repro.circuits.fusion.Run` for every stretch
        of two or more consecutive steps that can share one staging under
        this simulator's partition.  Stepping the returned list through
        :meth:`apply_gate` one element at a time is bit-identical to a single
        :meth:`apply_circuit` call — this is the entry point for drivers that
        need control between elements (progress events, cancellation checks,
        suspend points), such as the :mod:`repro.serve` job executor.
        """

        gates = list(circuit)
        if self._config.fusion_enabled:
            self._report.fusion_gates_in += len(gates)
            gates = form_runs(gates, self._partition.offset_bits)
            self._report.fusion_gates_out += len(gates)
        return gates

    def apply_gate(self, gate: Step | Run) -> None:
        """Apply a single gate — or one parity phase or run — to the
        compressed state.

        On the ranked tier with an active :class:`~repro.resilience.FaultPolicy`
        (``max_retries > 0`` or a checkpoint interval), a rank-worker death or
        communicator timeout is *recovered* instead of raised: the rank pool
        is torn down and rebuilt, the state reloads from the last in-run
        resilience checkpoint (the initial state when none was written yet),
        the gates since then replay, and this gate retries — bit-identical to
        a failure-free run because every layer below is deterministic.  A
        checkpoint that no longer reads back raises
        :class:`~repro.errors.CheckpointError`: the replay log no longer
        holds the gates before it, so nothing else could rebuild the state.
        """

        if gate.max_qubit() >= self._num_qubits:
            raise ValueError(
                f"gate {gate.name} touches qubit {gate.max_qubit()} outside the register"
            )
        if self._ranked_resilience:
            self._apply_gate_resilient(gate)
        else:
            self._apply_gate_once(gate)

    def _apply_gate_once(self, gate: Step | Run) -> None:
        """One attempt at a schedule element.

        While a memory budget is set and the controller is still lossless,
        any single step can add a large share of the budget, so the footprint
        has to be checked after each one: a run then goes step by step until
        the first escalation and finishes as one round trip from there (the
        rest is planned afresh: what is left of a pair run may hold no
        mixing step, a one-block run).
        """

        if isinstance(gate, Run) and self._config.memory_budget_bytes is not None:
            steps = gate.gates
            while len(steps) > 1 and self._controller.is_lossless:
                self._run_element(steps[0])
                steps = steps[1:]
            gate = run_of(steps)
        self._run_element(gate)

    def _run_element(self, gate: Step | Run) -> None:
        """Plan, execute, then commit the per-gate bookkeeping (counters,
        fidelity, escalation) — once per element, however many steps it has.
        The bookkeeping only runs after ``run_plan`` returns, so a failed
        attempt leaves the parent-side counters untouched and replay stays
        exact."""

        plan = plan_gate(self._partition, gate)
        compressor = self._controller.compressor()
        op = plan.op._replace(
            compressor=compressor, op_key=plan.op.op_key + (compressor.describe(),)
        )
        self._state.run_plan(op, plan, self._report)

        self._gate_index += 1
        self._report.gates_executed = self._gate_index
        self._fidelity.record_gate(compressor.bound)

        footprint = self._state.footprint_bytes()
        self._report.observe_footprint(footprint)
        self._report.observe_ratio(self._state.compression_ratio())
        if self._controller.maybe_escalate(footprint, self._gate_index):
            self._report.escalations += 1

        self._sync_report()

    # -- ranked-tier fault recovery -----------------------------------------------------

    @property
    def _ranked_resilience(self) -> bool:
        return self._config.tier == "ranked" and (
            self._policy.max_retries > 0
            or self._policy.checkpoint_interval_waves > 0
        )

    def _apply_gate_resilient(self, gate: Step | Run) -> None:
        """Apply one gate with the detect → contain → recover loop around it."""

        policy = self._policy
        attempt = 0
        index_before = self._gate_index
        while True:
            try:
                self._apply_gate_once(gate)
                break
            except (WorkerCrashedError, ProcessCommTimeout) as error:
                if attempt >= policy.max_retries:
                    raise
                attempt += 1
                lost_start = time.perf_counter()
                replayed = self._recover_ranked()
                logger.warning(
                    "ranked retry %d at gate %d after %s: %d gates replayed",
                    attempt,
                    index_before,
                    type(error).__name__,
                    replayed,
                )
                self._report.record_recovery(
                    retries=1,
                    restarts=self._partition.num_ranks,
                    gates_replayed=replayed,
                    time_lost_seconds=time.perf_counter() - lost_start,
                )
        self._replay_log.append(gate)
        self._maybe_resilience_checkpoint(index_before)

    def _recover_ranked(self) -> int:
        """Tear down the rank pool, reload the last checkpoint, replay.

        Returns the number of gates replayed.  The sequence is:

        1. Close the (partially dead) state with a short join timeout —
           surviving ranks may be blocked in an exchange with the dead peer
           and need the SIGTERM escalation.
        2. Rebuild the pool (fresh workers, fresh rank↔rank links).
        3. :meth:`restore` the last resilience checkpoint — blocks into the
           fresh rank workers, parent-side bookkeeping (gate index, fidelity
           history, escalation count, adaptive-controller level) rewound —
           or the start of the run when none was written yet.  A checkpoint
           that does not read back raises
           :class:`~repro.errors.CheckpointError`.
        4. Replay the gates applied since the checkpoint through the normal
           per-gate path, which re-runs the same compressor bounds and
           escalation decisions (everything below is deterministic).
        """

        from .checkpoint import read_checkpoint

        self._state.close(join_timeout=0.5)

        meta, blocks = {}, ()
        if self._resilience_ckpt is not None:
            meta, blocks = read_checkpoint(self._resilience_ckpt)

        # Fresh controller *before* rebuilding: the fresh workers' initial
        # blocks must be compressed as at the start of a failure-free run.
        self._controller = AdaptiveErrorController(self._config)
        self._build_state(self._initial_basis_state)
        self.restore(meta, blocks)

        replay = list(self._replay_log)
        for logged_gate in replay:
            self._apply_gate_once(logged_gate)
        return len(replay)

    def _resilience_checkpoint_path(self) -> Path:
        directory = self._policy.checkpoint_dir
        if directory is None:
            if self._ckpt_tempdir is None:
                import tempfile  # on first use: it loads shutil, lzma and bz2

                self._ckpt_tempdir = tempfile.mkdtemp(prefix="repro-resilience-")
            directory = self._ckpt_tempdir
        else:
            os.makedirs(directory, exist_ok=True)
        return Path(directory) / "resilience.ckpt"

    def _maybe_resilience_checkpoint(self, index_before: int) -> None:
        """Write an in-run checkpoint every ``checkpoint_interval_waves``
        gates (atomically, see :func:`~repro.core.checkpoint.save_checkpoint`),
        clearing the replay log — recovery then replays at most one interval's worth of gates.
        Checkpoints fall between schedule elements only; one element can
        advance the gate index past a multiple of the interval (a run taken
        gate by gate under a budget), so the test is for a crossed multiple
        since *index_before*."""

        interval = self._policy.checkpoint_interval_waves
        if interval <= 0 or not self._replay_log:
            return
        if self._gate_index // interval == index_before // interval:
            return

        from .checkpoint import save_checkpoint

        path = self._resilience_checkpoint_path()
        written = save_checkpoint(self, path)
        logger.info(
            "in-run checkpoint at gate %d: %d bytes to %s",
            self._gate_index,
            written,
            path,
        )
        self._resilience_ckpt = path
        self._replay_log.clear()
        self._report.record_recovery(checkpoints_written=1)

    # -- report plumbing ----------------------------------------------------------------------

    def _sync_report(self) -> None:
        self._report.fidelity_lower_bound = self._fidelity.lower_bound
        self._report.final_error_bound = self._controller.current_bound

    def report(self) -> SimulationReport:
        """The up-to-date :class:`SimulationReport` for this simulation."""

        self._sync_report()
        return self._report

    # -- state queries ------------------------------------------------------------------------

    def statevector(self) -> np.ndarray:
        """Materialise the dense state (small registers only)."""

        return self._state.to_statevector()

    def norm_squared(self) -> float:
        """Σ|a_i|² (should stay ≈1 up to compression error): the sum of the
        per-block masses of :meth:`block_reduction`."""

        return float(self.block_reduction()[0].sum())

    def probability_of(self, basis_state: int) -> float:
        """Probability of one basis state, touching only its block."""

        rank, block, offset = self._partition.locate(basis_state)
        return float(self._state.probabilities_of_block(rank, block)[offset])

    def block_reduction(
        self, zmasks: Sequence[int] = ()
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-block mass and diagonal Pauli partials, one decompress per block.

        Returns ``(masses, partials)`` in rank-major flat block order:
        ``masses[i]`` is block *i*'s ``Σ|a|²`` and ``partials[i, t]`` its
        ``Σ_j |a_j|²·(-1)^{popcount(j & zmasks[t])}``, from one in-block
        Walsh–Hadamard transform whatever the number of terms
        (:func:`~repro.core.compressed_state.reduce_blocks`).  This is the
        readout primitive sampling and
        :meth:`repro.backends.PauliObservable.expectation` build on; on the
        ranked tier each rank reduces its own blocks and only the numbers
        reach this process.
        """

        return self._state.reduce_blocks(tuple(zmasks))

    def block_probabilities(self) -> np.ndarray:
        """Total probability mass per (rank, block), flattened in rank-major order."""

        return self.block_reduction()[0]

    def sample_counts(
        self,
        shots: int,
        rng: np.random.Generator | None = None,
        *,
        block_mass: np.ndarray | None = None,
    ) -> dict[int, int]:
        """Sample basis states without ever materialising the full vector.

        A block is drawn from the per-block probability mass first, then an
        offset within the (decompressed) block — two-level alias-free
        sampling that only decompresses the blocks actually hit.  A caller
        that already holds :meth:`block_probabilities` (from a
        :meth:`block_reduction` it ran for observables) passes them as
        *block_mass*, so only the hit blocks are decompressed here.

        Determinism contract: for a given compressed state and seeded *rng*,
        the returned counts are identical on every call.  The generator is
        consumed in a pinned order — one draw for the block choices, then one
        draw per hit block in ascending flat block index (rank-major).
        Nothing here depends on the execution tier: every tier stores the
        same blobs, and the masses are reduced by the same code wherever the
        blocks live.  Nor, under lossless compression, on
        ``fusion_enabled``: a run applies its gates' own 2x2 steps in order,
        so the stored amplitudes are the gate-by-gate schedule's bit for bit.
        Lossy counts do differ between the two settings, because a run is
        quantised once instead of once per gate.
        """

        if shots < 0:
            raise ValueError("shots must be non-negative")
        if rng is None:
            rng = np.random.default_rng()
        if block_mass is None:
            block_mass = self.block_probabilities()
        elif block_mass.shape != (self._partition.total_blocks,):
            raise ValueError(
                f"block_mass needs one mass per block "
                f"({self._partition.total_blocks}), got shape {block_mass.shape}"
            )
        total = block_mass.sum()
        if total <= 0:
            raise ValueError("cannot sample from a zero state")
        block_probs = block_mass / total
        chosen_blocks = rng.choice(block_mass.size, size=shots, p=block_probs)
        counts: dict[int, int] = {}
        partition = self._partition
        # np.unique returns the hit blocks in ascending order: the pinned rng
        # consumption order.
        hit_blocks, block_hits = np.unique(chosen_blocks, return_counts=True)
        for block_index, n_hits in zip(hit_blocks.tolist(), block_hits.tolist()):
            mass = block_mass[block_index]
            if mass <= 0:
                continue
            rank, block = divmod(block_index, partition.blocks_per_rank)
            probs = self._state.probabilities_of_block(rank, block)
            offsets = rng.choice(probs.size, size=n_hits, p=probs / mass)
            base = partition.global_index(rank, block, 0)
            unique_offsets, offset_counts = np.unique(offsets, return_counts=True)
            # Blocks are disjoint, so no key repeats across iterations.
            counts.update(
                zip((base + unique_offsets).tolist(), offset_counts.tolist())
            )
        return counts

    def fidelity_vs(self, reference_state: np.ndarray) -> float:
        """Exact pure-state fidelity against a dense reference (Eq. 9)."""

        state = self.statevector()
        norm = np.linalg.norm(state) * np.linalg.norm(reference_state)
        if norm == 0:
            return 0.0
        return float(abs(np.vdot(reference_state, state)) / norm)
