"""NPN-library rewriting engine.

The optimization subsystem behind :mod:`repro.aig.optimize`:

- :mod:`~repro.aig.opt.npn` — NPN canonicalization of 4-input tables.
- :mod:`~repro.aig.opt.library` — per-class best-known structures,
  synthesized once per process and instantiated by table lookup.
- :mod:`~repro.aig.opt.counting` — mutation-free candidate pricing
  (strash-aware virtual builds, no checkpoint/rollback).
- :mod:`~repro.aig.opt.traverse` — iterative cone walks (no recursion,
  safe on chain-shaped graphs of any depth).
- :mod:`~repro.aig.opt.passes` — the passes: ``balance``, ``rewrite``,
  ``refactor``, ``fraig_lite`` and the ``compress`` script.

The seed build-measure-rollback passes that ``bench_opt_engine.py``
races the engine against live outside the package, in
``tests/reference_seed_opt.py``.

Submodules are imported lazily by their users to keep import edges
acyclic (``repro.aig.build`` prices SOP polarities through
``counting`` while ``library`` synthesizes recipes through ``build``).
"""
