"""Schedule sizes of two end-to-end benchmark circuits, from the plans alone.

What a circuit costs is decided before any codec runs: the join rule
(:func:`repro.circuits.form_runs`) fixes the number of schedule elements —
each one decompress → apply → recompress over its tasks — and
:func:`repro.distributed.plan_gate` fixes the tasks and the rank exchanges.
The numbers pinned here are those of the e2e workloads ``rcs16_*`` and
``qft15_sz`` (``benchmarks/e2e``, seed 11); with every diagonal gate staged
pairwise and ending the surrounding run they were 103 elements / 4064 tasks /
288 exchanges and 53 / 214 / 64, and before one-block steps rode pair runs
without non-local controls 27 / 1152 / 128 and 16 / 72 / 12.
"""

from __future__ import annotations

import pytest

from repro.applications import random_supremacy_circuit
from repro.circuits import form_runs, qft_circuit
from repro.distributed import Partition, QubitSegment, plan_gate


@pytest.mark.parametrize(
    "circuit, partition, elements, tasks, exchanges, crossing_elements",
    [
        (
            random_supremacy_circuit(4, 4, depth=16, seed=11),
            Partition(16, 2, 1024),
            18,
            576,
            128,
            4,
        ),
        (qft_circuit(15), Partition(15, 2, 4096), 6, 24, 8, 2),
    ],
    ids=["rcs16", "qft15"],
)
def test_schedule_counts(
    circuit, partition, elements, tasks, exchanges, crossing_elements
):
    plans = [
        plan_gate(partition, element)
        for element in form_runs(circuit.gates, partition.offset_bits)
    ]
    assert len(plans) == elements
    assert sum(len(plan.tasks) for plan in plans) == tasks
    assert sum(plan.exchange_count for plan in plans) == exchanges
    assert (
        sum(plan.segment is QubitSegment.RANK and bool(plan.tasks) for plan in plans)
        == crossing_elements
    )
