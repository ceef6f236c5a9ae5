"""``repro.exec`` — the physical execution layer.

Both engines interpret :mod:`repro.algebra.ast` logical plans; this
package turns optimized logical plans into explicit *physical plans* and
executes them:

* :mod:`repro.exec.physical` — the physical plan IR (``HashJoin``,
  ``NLJoin``, ``FusedSelectProject``, ``HashAggregate``,
  ``HashExcept``, ``TopK``, ``ParallelScan``/``Exchange``, …), the cost-based
  ``lower()`` planner that makes every physical choice at plan time,
  and ``explain_physical()``;
* :mod:`repro.exec.batch` — :class:`ColumnBatch` / :class:`AUColumnBatch`
  columnar representations, and the batch → relation result edge;
* :mod:`repro.exec.compile` — fused predicate/projection compilation
  for both semantics (one generated Python loop per expression shape,
  no per-row AST dispatch; AU kernels read each cell's three bounds);
* :mod:`repro.exec.vectorized` — the vectorized interpreters for both
  engines (hash equi-join, single-pass hash aggregate with exact
  SUM/AVG accumulation, fused selection);
* :mod:`repro.exec.compressed_join` / :mod:`repro.exec.au_aggregate` /
  :mod:`repro.exec.au_setops` — the AU engine's Section 10.4 join,
  Section 9 / 10.5 aggregate, and ``Ψ``-based distinct, difference and
  top-k on column batches;
* :mod:`repro.exec.parallel` — morsel-style partition-parallel
  execution of ``Exchange`` regions for both vectorized executors.

The vectorized backend is the default (:data:`DEFAULT_BACKEND`) of
``evaluate_det``, ``EvalConfig`` and the CLI; ``backend="tuple"`` /
``--backend=tuple`` selects the tuple-at-a-time interpreters instead.
Add ``parallelism=N`` / ``--parallelism N`` for morsel parallelism.
Every logical operator lowers to one physical node that both engines'
executors implement on their own representation; the vectorized
executors keep batches from scan to result, and a relation exists only
at the result edge.
"""

from .batch import AUColumnBatch, ColumnBatch
from .compile import (
    CompileError,
    compile_filter,
    compile_projector,
    compile_range_filter,
    compile_range_pair_filter,
)
from .physical import (
    BACKENDS,
    DEFAULT_BACKEND,
    PhysicalConfig,
    explain_physical,
    lower,
)
from .vectorized import execute_audb, execute_det

__all__ = [
    "BACKENDS",
    "DEFAULT_BACKEND",
    "ColumnBatch",
    "AUColumnBatch",
    "CompileError",
    "compile_filter",
    "compile_projector",
    "compile_range_filter",
    "compile_range_pair_filter",
    "execute_det",
    "execute_audb",
    "PhysicalConfig",
    "lower",
    "explain_physical",
]
