"""In-block gate kernels: the block kernel's step paths against their oracles.

Every step of a block task goes through
:meth:`repro.core.kernel.BlockKernel._apply_step` on the task's virtual
block, in the form :func:`repro.core.kernel.resolve_step` chose once for the
plan: a 2x2 (controlled or not) on two strided views, a phase as one
multiply per strided view whose entry is not exactly 1, or — on a small
buffer, for a phase that moves every amplitude — one gathered multiply.
This bench times four in-block step kinds — 2x2 (``h``), controlled 2x2
(``cx``), diagonal (``t``) and controlled diagonal (``cz``) — at 2^9, 2^10,
2^12 and 2^16 amplitudes, each against the controlled update
``tests/reference_kernels.py`` keeps as the oracle (index arrays, the 2x2
formula on every selected pair); three phase kinds — "controlled block
phase" (``rz`` on a qubit above the block under an in-block control),
"parity phase" (``rz`` on the parity of two in-block qubits) and
"controlled parity phase" (the same under an in-block control) — against
the boolean-mask phase oracle, the kernel's former path for them; and two
block-pair kinds — "pair 2x2" (``h``) and "controlled pair 2x2" (``cx``
under the lowest in-block bit) on the top bit of two such blocks side by
side — against the pairwise oracle on the two separate blocks, the kernel's
former pair path.  Best of 5.

The phase-form rows time both forms of a phase step — per-selection views
and the gathered multiply — for a one- and a two-bit parity, with and
without an entry at exactly 1, and name the form the kernel selects:
:data:`repro.core.kernel.GATHER_MAX_AMPLITUDES` is read off them.

Every case checks that both paths give equal values, the phase and pair
kinds bit for bit, and each phase form equals the boolean-mask oracle bit
for bit.  The only timing assertion is the wide gap: a ``cz`` at 2^12 and
2^16 amplitudes is faster on the diagonal path than on the oracle.
``sweep12_batch`` runs 2^9-amplitude blocks and 2^10-amplitude pairs.
Results land in ``BENCH_kernels.json`` under :func:`recordings.results_dir`.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis import format_table
from repro.circuits import standard_gate
from repro.circuits.gates import is_exactly_diagonal
from repro.core import ScratchPool, effective_cpu_count
from repro.core.kernel import (
    GATHER_MAX_AMPLITUDES,
    BlockKernel,
    _phase_table,
    _phase_views,
    resolve_step,
)
from repro.statevector import ops

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import reference_kernels  # noqa: E402

from recordings import merge_json  # noqa: E402

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))

SIZES = (1 << 9, 1 << 10, 1 << 12, 1 << 16)
REPEATS = 5
#: Step kind -> (mnemonic, target, local controls) inside the block.
KINDS = {
    "2x2": ("h", 3, ()),
    "controlled 2x2": ("x", 3, (5,)),
    "diagonal": ("t", 3, ()),
    "controlled diagonal": ("z", 3, (5,)),
}
#: Phase kind -> (gate, in-block parity bits, block parity, block index,
#: local controls) of an ``rz(0.7)`` step; where a row has a block parity,
#: its block index makes it odd, so the entries swap.
PHASE_KINDS = {
    "controlled block phase": ("crz", 0, 0b1, 0b1, (5,)),
    "parity phase": ("rzz", 0b1001000, 0, 0, ()),
    "controlled parity phase": ("crzz", 0b1001000, 0b1, 0b1, (5,)),
}
#: Block-pair kind -> (mnemonic, local controls) on the bit above the block.
PAIR_KINDS = {
    "pair 2x2": ("h", ()),
    "controlled pair 2x2": ("x", (0,)),
}
#: Phase-form kind -> (gate, in-block parity bits) of an uncontrolled
#: ``rz(0.7)`` (no entry at 1) or ``p(0.7)`` (``m[0, 0]`` exactly 1) step.
FORM_KINDS = {
    "1-bit phase": ("rz", 0b1000),
    "1-bit phase, entry 1": ("p", 0b1000),
    "2-bit phase": ("rz", 0b1001000),
    "2-bit phase, entry 1": ("p", 0b1001000),
}
#: Where the diagonal path must beat the oracle.
GAP_SIZES = (1 << 12, 1 << 16)


def _best_seconds(fn, state: np.ndarray, calls: int) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(calls):
            fn(state)
        best = min(best, (time.perf_counter() - start) / calls)
    return best


def _row(kind, gate, size, product, oracle, state, calls) -> dict:
    product_s = _best_seconds(product, state.copy(), calls)
    oracle_s = _best_seconds(oracle, state.copy(), calls)
    return {
        "kind": kind,
        "gate": gate,
        "amplitudes": size,
        "product_us": product_s * 1e6,
        "oracle_us": oracle_s * 1e6,
        "speedup": oracle_s / product_s,
    }


def _phase_form_rows(block: np.ndarray, size: int, calls: int) -> list[dict]:
    """Both forms of each :data:`FORM_KINDS` phase on a *size*-amplitude
    block, each checked against the boolean-mask oracle bit for bit, and the
    form :func:`resolve_step` selects."""

    rows = []
    for kind, (name, bits) in FORM_KINDS.items():
        matrix = standard_gate(name, 0, params=(0.7,)).matrix
        # The views skip an entry of exactly 1 (None); the gathered form
        # multiplies by it, which leaves these nonzero amplitudes' bytes.
        entries = (ops.block_phase(matrix, 0), ops.block_phase(matrix, 1))
        expected = block.copy()
        reference_kernels.apply_phase_step_masked(expected, matrix, bits, 0, ())
        timed = {}
        for form_name, (form, sides) in (
            ("views", _phase_views(size, bits, (), entries)),
            ("gathered", _phase_table(size, bits, tuple(matrix.diagonal()))),
        ):

            def apply(state, form=form, args=sides[0]):
                form(state, *args)

            actual = block.copy()
            apply(actual)
            assert np.array_equal(
                actual.view(np.uint64), expected.view(np.uint64)
            ), (kind, form_name, size)
            timed[form_name] = _best_seconds(apply, block.copy(), calls) * 1e6
        step = resolve_step(size, matrix, bits, 0, (), 0, False)
        selected = "gathered" if step.form is ops.apply_phase_table else "views"
        rows.append(
            {
                "kind": kind,
                "gate": name,
                "amplitudes": size,
                "views_us": timed["views"],
                "gathered_us": timed["gathered"],
                "selected": selected,
                "selected_vs_views": timed[selected] / timed["views"],
            }
        )
    return rows


def test_in_block_step_paths(emit):
    rng = np.random.default_rng(11)
    rows, forms = [], []
    for size in SIZES:
        kernel = BlockKernel(ScratchPool(size))
        calls = max(4, (1 << 18) // size) if QUICK else max(20, (1 << 21) // size)
        block = rng.normal(size=size) + 1j * rng.normal(size=size)
        for kind, (name, target, controls) in KINDS.items():
            matrix = standard_gate(name, target, controls=controls).matrix
            step = resolve_step(
                size, matrix, 1 << target, 0, controls, 0,
                not is_exactly_diagonal(matrix),
            )

            def product(state, step=step):
                kernel._apply_step(state, 0, step)

            def oracle(state, matrix=matrix, target=target, controls=controls):
                reference_kernels.apply_controlled_single_qubit(
                    state, matrix, target, controls
                )

            expected, actual = block.copy(), block.copy()
            oracle(expected)
            product(actual)
            assert np.array_equal(actual, expected), (kind, size)
            gate = "c" * len(controls) + name
            rows.append(_row(kind, gate, size, product, oracle, block, calls))

        phase = standard_gate("rz", 0, params=(0.7,)).matrix
        for kind, (gate, local, parity, index, controls) in PHASE_KINDS.items():
            step = resolve_step(size, phase, local, parity, controls, 0, False)
            side = (index & parity).bit_count() & 1

            def product(state, index=index, step=step):
                kernel._apply_step(state, index, step)

            def oracle(state, local=local, side=side, controls=controls):
                reference_kernels.apply_phase_step_masked(
                    state, phase, local, side, controls
                )

            expected, actual = block.copy(), block.copy()
            oracle(expected)
            product(actual)
            assert np.array_equal(
                actual.view(np.uint64), expected.view(np.uint64)
            ), (kind, size)
            rows.append(_row(kind, gate, size, product, oracle, block, calls))

        # A block pair: two blocks side by side, the pair's target the bit
        # above them, against the pairwise update of the separate blocks.
        top = size.bit_length() - 1
        pair = rng.normal(size=2 * size) + 1j * rng.normal(size=2 * size)
        for kind, (name, controls) in PAIR_KINDS.items():
            matrix = standard_gate(name, top, controls=controls).matrix
            mask = reference_kernels.local_control_mask(size, controls)

            step = resolve_step(2 * size, matrix, 1 << top, 0, controls, 0, True)

            def product(state, step=step):
                kernel._apply_step(state, 0, step)

            def oracle(state, matrix=matrix, mask=mask):
                reference_kernels.apply_single_qubit_pairwise_masked(
                    state[:size], state[size:], matrix, mask
                )

            expected, actual = pair.copy(), pair.copy()
            oracle(expected)
            product(actual)
            assert np.array_equal(
                actual.view(np.uint64), expected.view(np.uint64)
            ), (kind, size)
            gate = "c" * len(controls) + name
            rows.append(_row(kind, gate, size, product, oracle, pair, calls))

        forms.extend(_phase_form_rows(block, size, calls))

    meta = {
        "quick": QUICK,
        "repeats": REPEATS,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "available_cpus": effective_cpu_count(),
        "gather_max_amplitudes": GATHER_MAX_AMPLITUDES,
    }
    merge_json("BENCH_kernels.json", "rows", rows, meta)
    merge_json("BENCH_kernels.json", "phase_forms", forms, meta)
    emit(
        "Block-task step paths vs their oracles, and the two phase forms "
        f"(best of {REPEATS}, us per call)",
        format_table(rows, floatfmt="{:.3g}")
        + "\n\n"
        + format_table(forms, floatfmt="{:.3g}"),
    )

    for row in rows:
        if row["kind"] == "controlled diagonal" and row["amplitudes"] in GAP_SIZES:
            assert row["product_us"] < row["oracle_us"], row
