"""Quickstart: learn one contest benchmark end to end.

Builds benchmark ex30 (a 10-bit comparator) the way the IWLS 2020
contest did — 6400 training, validation and test minterms in PLA form —
runs the winning team's flow on it, scores the returned AIG on the
hidden test set and writes the circuit to an AIGER file.

Run:  python examples/quickstart.py
"""

from pathlib import Path

from repro.aig import write_aag
from repro.contest import build_suite, evaluate_solution, make_problem
from repro.flows import get_flow
from repro.twolevel.pla import write_pla


def main() -> None:
    suite = build_suite()
    spec = suite[30]
    print(f"benchmark {spec.name}: {spec.description} "
          f"({spec.n_inputs} inputs)")

    # Sample the train/validation/test triple (scaled down from the
    # contest's 6400/6400/6400 so the example runs in seconds).
    problem = make_problem(spec, n_train=1000, n_valid=1000, n_test=1000)
    print(f"train onset fraction: {problem.train.onset_fraction():.2f}")

    # The contest distributed the data as PLA files; write one to show
    # the format.
    out_dir = Path("examples_output")
    out_dir.mkdir(exist_ok=True)
    write_pla(problem.train.to_pla(), out_dir / f"{spec.name}.train.pla")
    print(f"wrote {out_dir / (spec.name + '.train.pla')}")

    # Run the contest winner's flow (Team 1: matching / espresso /
    # LUT network / random forest portfolio), resolved through the
    # flow registry.  ``run_detailed`` also returns the candidate
    # table: every circuit the flow's stages proposed, not just the
    # winner.  Only candidates that could still win are compressed;
    # the others show their size before compression.
    flow = get_flow("team01")
    print(f"flow stages:   {', '.join(flow.stage_names)}")
    result = flow.run_detailed(problem, effort="small")
    solution = result.solution
    score = evaluate_solution(problem, solution)

    for candidate in result.candidates:
        state = "finalized" if candidate.finalized else "uncompressed"
        print(f"  candidate {candidate.name:20s} "
              f"[{candidate.stage}] {candidate.num_ands} ANDs ({state})")
    print(f"method:        {solution.method}")
    print(f"test accuracy: {score.test_accuracy:.4f}")
    print(f"AND nodes:     {score.num_ands} (cap 5000, "
          f"legal={score.legal})")
    print(f"logic levels:  {score.levels}")
    print(f"overfit gap:   {score.overfit * 100:.2f}%")

    aig_path = out_dir / f"{spec.name}.solution.aag"
    write_aag(solution.aig, aig_path)
    print(f"wrote {aig_path}")


if __name__ == "__main__":
    main()
