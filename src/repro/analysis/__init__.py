"""``repro.analysis`` — static analysis over the logical and physical IRs.

Three passes, all compile-time, no execution:

* **Typed schema inference** (:mod:`repro.analysis.schema`) — a
  :class:`Schema` (column name → inferred type, nullability, and an
  annotation-certainty flag) computed bottom-up for every logical
  :class:`~repro.algebra.ast.Plan` node and every
  :class:`~repro.exec.physical.PhysNode`, replacing ad-hoc column
  lookups with one authority.
* **Plan well-formedness verification**
  (:mod:`repro.analysis.verify`) — :func:`verify_logical` /
  :func:`verify_physical` check that column references resolve,
  set operations are union-compatible, ``Aggregate`` group-by and
  output columns are consistent, parameter bindings are complete
  at execute time, ``Exchange`` / partial-aggregate placement is
  legal, every operator is legal for its engine, and ``Cpr`` budgets
  are resolved.
* **Semiring-safety lint** (:mod:`repro.analysis.lint`) — every
  optimizer rewrite declares the semantics it preserves (bag-only
  vs AU-safe); :func:`check_semiring_safety` rejects an AU plan
  that crossed a bag-only rewrite.

Verification is wired behind one process-wide switch (plus the
per-connection ``verify=`` knob of :class:`repro.session.Connection`
and the CLI ``--verify-plans`` flag): :func:`set_verification` /
:func:`verification_enabled` / the :func:`verified` context manager.
The environment variable ``REPRO_VERIFY_PLANS=1`` turns it on at
import time (how CI runs the whole fuzzer corpus through the
verifier).  When enabled, :func:`repro.algebra.optimizer.optimize`
re-verifies the plan after *each individual rewrite pass* and
:func:`repro.exec.physical.lower` verifies the lowered plan.

This module is imported by the optimizer and the physical planner, so
it stays import-light: the submodules load lazily on first attribute
access (PEP 562).
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Iterator, List

#: every public name of the submodules, by the submodule that defines it
_LAZY = {
    # errors (repro.analysis.errors)
    "PlanVerificationError": "errors",
    "PlanReferenceError": "errors",
    "PlanCompatibilityError": "errors",
    "PlanTypeError": "errors",
    "SemiringSafetyError": "errors",
    # schema inference (repro.analysis.schema)
    "Schema": "schema",
    "ColumnInfo": "schema",
    "infer_logical": "schema",
    "infer_expression": "schema",
    "TYPE_NUMBER": "schema",
    "TYPE_STRING": "schema",
    "TYPE_BOOL": "schema",
    "TYPE_ANY": "schema",
    # verification (repro.analysis.verify)
    "verify_logical": "verify",
    "verify_physical": "verify",
    "infer_physical": "verify",
    "verify_bound": "verify",
    "binding_sites": "verify",
    "binding_spine": "verify",
    "verify_delta": "verify",
    # semiring-safety lint (repro.analysis.lint)
    "RewriteRule": "lint",
    "REWRITE_RULES": "lint",
    "check_semiring_safety": "lint",
    "rule_allowed": "lint",
    "SEMANTICS": "lint",
}

__all__ = ["verification_enabled", "set_verification", "verified", *_LAZY]


def __getattr__(name: str) -> Any:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_LAZY))


_enabled: bool = os.environ.get("REPRO_VERIFY_PLANS", "").strip().lower() not in (
    "",
    "0",
    "false",
    "off",
    "no",
)


def verification_enabled() -> bool:
    """Is per-rewrite / post-lowering plan verification on process-wide?"""
    return _enabled


def set_verification(enabled: bool) -> bool:
    """Set the process-wide verification switch; returns the old value."""
    global _enabled
    old = _enabled
    _enabled = bool(enabled)
    return old


@contextmanager
def verified(enabled: bool = True) -> Iterator[None]:
    """Context manager scoping the verification switch (used by the
    differential fuzzer so every optimize/lower inside a case is
    verified, regardless of the ambient setting)."""
    old = set_verification(enabled)
    try:
        yield
    finally:
        set_verification(old)
