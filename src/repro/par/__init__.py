"""repro.par — deterministic parallel trial execution.

The paper's evaluation (§5) and the conformance gate (Eqs 8–18) are
built from hundreds of independent seeded trials; this subpackage runs
them across a process pool **without changing a single output bit**:

* :mod:`repro.par.executor` — :class:`TrialExecutor`: serial default,
  ``ProcessPoolExecutor`` fan-out, chunked dispatch, index-ordered
  reassembly (``--jobs N|auto`` on ``python -m repro.bench`` and
  ``python -m repro.validate``).  A trial's randomness comes from its
  task alone: ``repro.sim.rng.derive_seed(root, *grid_point, trial)``
  (or ``derive_rng``), a SHA-256 of the labels, independent of
  platform, ``PYTHONHASHSEED`` and worker scheduling;
* :mod:`repro.par.checkpoint` — JSONL shard files for
  checkpoint/resume with byte-identical resumed aggregates;
* :mod:`repro.par.subtree` — :func:`run_sharded_dissemination`: one
  depth-1 subtree per shard of the struct-of-arrays kernel
  (:mod:`repro.sim.vector`), envelopes exchanged at round barriers,
  report and (single, Observer-delivered) trace identical at any
  worker count; ``src/`` runs it serially inside a trial.

The determinism contract is locked down by the ``tests/par``
equivalence suite; see docs/VALIDATION.md ("Parallel execution").
"""

from repro.par.checkpoint import CHECKPOINT_SCHEMA, ShardFile, task_key
from repro.par.executor import TrialExecutor, resolve_jobs
from repro.par.subtree import build_regular_spec, run_sharded_dissemination

__all__ = [
    "CHECKPOINT_SCHEMA",
    "ShardFile",
    "task_key",
    "TrialExecutor",
    "resolve_jobs",
    "build_regular_spec",
    "run_sharded_dissemination",
]
