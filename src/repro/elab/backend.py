"""A no-op kept for the numabench harness.

``benchmarks/numabench/spec.py`` times a ``sync`` step after building a
workload.  Every machine now runs one set of station classes, so there is
nothing to put in place; see :func:`sync`.
"""

from __future__ import annotations


def sync(machine) -> None:
    """Do nothing.

    This stays only for numabench, whose ``spec.prepare`` calls it (its
    ``elab.compile_s`` metric times the call, so it reads about 0).  It
    goes with the benchmark change that ROADMAP item 5 lists.
    """
