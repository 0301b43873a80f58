"""Operations a workload program may yield to its processor.

Workloads are Python generators — the execution-driven front-end replacing
the paper's Mint/MIPS-binary combination.  A program yields one op at a
time; for :class:`Read` and :class:`AtomicRMW` the loaded / previous value
is sent back into the generator, so kernels can be real data-dependent
algorithms::

    def worker(ctx):
        v = yield Read(a.addr(i))
        yield Write(b.addr(i), v + 1)
        yield Barrier(0, ctx.all_cpus)

Ops are values: the processor reads an op's fields and never mutates
them, so one op may be yielded any number of times, by any number of
programs.  The array views of :mod:`repro.workloads.base` rely on that:
they hand out one shared :class:`Read` per array word.  The ops stay
plain slotted classes, not ``frozen=True`` ones, because a frozen
dataclass's ``__init__`` is slower and many ops are still built per use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Tuple


@dataclass(slots=True)
class Read:
    """Load one word; the value is sent back into the generator."""

    addr: int


@dataclass(slots=True)
class Write:
    """Store one word."""

    addr: int
    value: Any


@dataclass(slots=True)
class ReadRun:
    """Load ``count`` words starting at ``addr``; the list of values is sent
    back into the generator.

    This is the *hit-run batching* op: the processor walks the run one cache
    line at a time and charges each line's worth of hits in a single
    closed-form time advance (first touch pays the L1-or-L2 hit cost, the
    rest of the line's words pay L1 hits), so a long run of hits costs one
    Python step per line instead of one generator round-trip per word.  A
    miss anywhere in the run suspends it, goes through the ordinary miss
    path, and the run resumes after the fill — misses, coherence traffic and
    per-op counters are exactly those of the equivalent word-by-word loop.

    ``stride`` is the byte distance between consecutive accesses; ``0``
    (default) means one word.  It must be a multiple of the word size.

    The addresses are computed arithmetically from ``addr``, so the run
    must cover a *physically contiguous* range — do not let a run straddle
    a region page boundary unless the backing pages are known adjacent
    (runs whose region offset is a multiple of the run's byte length never
    straddle, since the page size is a power of two).
    """

    addr: int
    count: int
    stride: int = 0


@dataclass(slots=True)
class WriteRun:
    """Store ``values`` to consecutive words starting at ``addr`` (same
    closed-form hit batching as :class:`ReadRun`)."""

    addr: int
    values: Tuple
    stride: int = 0


@dataclass(slots=True)
class AtomicRMW:
    """Atomic read-modify-write (LL/SC-style): the line is acquired
    exclusively, ``fn(old)`` is stored, and ``old`` is sent back.
    Used for spinlocks (test-and-set) and fetch-and-add counters."""

    addr: int
    fn: Callable[[Any], Any]


@dataclass(slots=True)
class Compute:
    """Local computation costing ``cycles`` CPU cycles (no memory traffic)."""

    cycles: int


@dataclass(slots=True)
class Barrier:
    """Hardware barrier over ``cpus`` (global ids) using the per-processor
    barrier registers and a multicast register write (§3.2)."""

    bid: int
    cpus: Tuple[int, ...]


@dataclass(slots=True)
class Phase:
    """Set the processor's phase-identifier register (monitoring, §3.3)."""

    pid: int


@dataclass(slots=True)
class SoftOp:
    """A system-software operation exposing low-level hardware control
    (§3.2): coherence bypass, kill/invalidate/writeback/prefetch, block
    operations, multicast updates, in-cache zero/copy."""

    kind: str
    args: dict = field(default_factory=dict)
