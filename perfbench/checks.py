"""Correctness checks that do not trust the code under measurement.

``oracle_failures``
    Re-simulates every kept ``.aag`` on its task's regenerated
    train/valid/test splits with the per-node reference simulator
    (``repro.sim.engine.reference_simulate_packed_all``), not the
    default levelized backend the contest scored with, and compares the
    accuracies, ``num_ands`` and ``levels`` against the record; every
    solution must also fit under ``MAX_AND_NODES``.
``records_digest``
    SHA-256 over the key-sorted canonical record lines, which is
    independent of the completion order ``--jobs`` produces.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any

import numpy as np


def _reference_predictions(aig: Any, X: np.ndarray) -> np.ndarray:
    from repro.sim.engine import reference_simulate_packed_all
    from repro.utils.bitops import pack_bits, unpack_bits

    values = reference_simulate_packed_all(aig, pack_bits(X))
    (lit,) = aig.outputs
    out = values[lit >> 1]
    if lit & 1:
        out = ~out
    return unpack_bits(out[None, :], X.shape[0])[:, 0]


def oracle_failures(out_dir: Path) -> dict[str, list[str]]:
    """``{task key: [mismatch, ...]}`` for every disagreeing record."""
    from repro.aig.aiger import loads_aag
    from repro.contest.problem import MAX_AND_NODES
    from repro.ml.metrics import accuracy
    from repro.runner import RunStore, TaskSpec
    from repro.runner.task import make_task_problem

    store = RunStore(out_dir)
    failures: dict[str, list[str]] = {}
    for key, record in sorted(store.load_records().items()):
        text = store.solution_text(key)
        if text is None:
            failures[key] = ["no kept solution"]
            continue
        aig = loads_aag(text)
        problem = make_task_problem(TaskSpec(
            benchmark=record["benchmark"], flow=record["flow"],
            seed=record["seed"], n_train=record["n_train"],
            n_valid=record["n_valid"], n_test=record["n_test"],
        ))
        found = {
            f"{split}_accuracy": accuracy(
                data.y, _reference_predictions(aig, data.X))
            for split, data in (("train", problem.train),
                                ("valid", problem.valid),
                                ("test", problem.test))
        }
        found["num_ands"] = aig.count_used_ands()
        found["levels"] = aig.depth()
        for field, value in found.items():
            if value != record[field]:
                failures.setdefault(key, []).append(
                    f"{field} recorded {record[field]!r}, reference {value!r}")
        if found["num_ands"] > MAX_AND_NODES:
            failures.setdefault(key, []).append(
                f"{found['num_ands']} ANDs over the cap")
    return failures


def records_digest(out_dir: Path) -> str:
    from repro.runner import RunStore, canonical_line

    records = RunStore(out_dir).load_records()
    digest = hashlib.sha256()
    for key in sorted(records):
        digest.update(canonical_line(records[key]).encode("utf-8"))
    return digest.hexdigest()


def quality(out_dir: Path) -> tuple[int, float, int]:
    """(total used ANDs, mean test accuracy, records) in key order."""
    from repro.runner import RunStore

    records = RunStore(out_dir).load_records()
    ordered = [records[key] for key in sorted(records)]
    total = sum(r["num_ands"] for r in ordered)
    mean = sum(r["test_accuracy"] for r in ordered) / len(ordered)
    return total, mean, len(ordered)
