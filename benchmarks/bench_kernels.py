"""In-block gate kernels: the block kernel's step paths against their oracles.

Every step of a block task goes through
:meth:`repro.core.kernel.BlockKernel._apply_step` on the task's virtual
block: a 2x2 (controlled or not) on two strided views, and an exactly
diagonal 2x2 as a phase on the side(s) whose entry is not exactly 1.  This
bench times four in-block step kinds — 2x2 (``h``), controlled 2x2 (``cx``),
diagonal (``t``) and controlled diagonal (``cz``) — at 2^10, 2^12 and 2^16
amplitudes, each against the controlled update ``tests/reference_kernels.py``
keeps as the oracle (index arrays, the 2x2 formula on every selected pair),
and two block-pair kinds — "pair 2x2" (``h``) and "controlled pair 2x2"
(``cx`` under the lowest in-block bit) on the top bit of two such blocks side
by side — against the pairwise oracle on the two separate blocks, the
kernel's former pair path.  Best of 5.

Every case checks that both paths give equal values, the pair kinds bit for
bit.  The only timing assertion is the wide gap: a ``cz`` at 2^12 and 2^16
amplitudes is faster on the diagonal path than on the oracle.  Results land
in ``benchmarks/results/BENCH_kernels.json``.
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.analysis import format_table
from repro.circuits import standard_gate
from repro.core import ScratchPool, effective_cpu_count
from repro.core.kernel import BlockKernel
from repro.statevector import ops

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
import reference_kernels  # noqa: E402

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
RESULTS_DIR = Path(__file__).parent / "results"
JSON_PATH = RESULTS_DIR / "BENCH_kernels.json"

SIZES = (1 << 10, 1 << 12, 1 << 16)
REPEATS = 5
#: Step kind -> (mnemonic, target, local controls) inside the block.
KINDS = {
    "2x2": ("h", 3, ()),
    "controlled 2x2": ("x", 3, (5,)),
    "diagonal": ("t", 3, ()),
    "controlled diagonal": ("z", 3, (5,)),
}
#: Block-pair kind -> (mnemonic, local controls) on the bit above the block.
PAIR_KINDS = {
    "pair 2x2": ("h", ()),
    "controlled pair 2x2": ("x", (0,)),
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


def test_in_block_step_paths(emit):
    rng = np.random.default_rng(11)
    rows = []
    for size in SIZES:
        kernel = BlockKernel({}, ScratchPool(size))
        calls = max(4, (1 << 18) // size) if QUICK else max(20, (1 << 21) // size)
        block = rng.normal(size=size) + 1j * rng.normal(size=size)
        for kind, (name, target, controls) in KINDS.items():
            matrix = standard_gate(name, target, controls=controls).matrix

            def product(state, matrix=matrix, target=target, controls=controls):
                kernel._apply_step(state, 0, matrix, 1 << target, 0, controls, 0)

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

        # A block pair: two blocks side by side, the pair's target the bit
        # above them, against the pairwise update of the separate blocks.
        top = size.bit_length() - 1
        pair = rng.normal(size=2 * size) + 1j * rng.normal(size=2 * size)
        for kind, (name, controls) in PAIR_KINDS.items():
            matrix = standard_gate(name, top, controls=controls).matrix
            mask = ops.local_control_mask(size, controls)

            def product(state, matrix=matrix, controls=controls):
                kernel._apply_step(state, 0, matrix, 1 << top, 0, controls, 0)

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

    RESULTS_DIR.mkdir(exist_ok=True)
    JSON_PATH.write_text(
        json.dumps(
            {
                "meta": {
                    "quick": QUICK,
                    "repeats": REPEATS,
                    "numpy": np.__version__,
                    "python": platform.python_version(),
                    "machine": platform.machine(),
                    "available_cpus": effective_cpu_count(),
                },
                "rows": rows,
            },
            indent=2,
        )
    )
    emit(
        "Block-task step paths vs their oracles (best of "
        f"{REPEATS}, us per call)",
        format_table(rows, floatfmt="{:.3g}"),
    )

    for row in rows:
        if row["kind"] == "controlled diagonal" and row["amplitudes"] in GAP_SIZES:
            assert row["product_us"] < row["oracle_us"], row
