"""What remains of the build-time elaborator: a no-op :func:`sync`.

Every machine runs the hand-written station classes; the generated
station core this package used to compile is gone.  :func:`sync` stays
only because the numabench harness (``benchmarks/numabench``) calls it;
it goes with the benchmark change that ROADMAP item 5 lists.
"""

from .backend import sync

__all__ = ["sync"]
