"""Performance harness: structured run records, an on-disk result cache,
and a parallel sweep runner.

The paper's evaluation (§4) is a grid of independent simulations —
``(workload, processor count, machine configuration)`` points.  Each point
is deterministic, so two things follow:

* points can be fanned out across OS processes with no coordination
  (``NUMACHINE_JOBS`` controls the worker count), and
* a point's results can be memoized on disk and reused until the code,
  configuration or scaling knobs change (``.numachine_cache``).

:class:`~repro.perf.record.RunRecord` captures everything the benches read
off a finished :class:`~repro.system.machine.Machine` in one picklable,
JSON-serializable object, so a run's results can cross a process boundary
or a cache file without dragging the machine along.
"""

from .record import RunRecord, collect_record
from .cache import RunCache, config_fingerprint, point_key, CACHE_SCHEMA
from .sweep import SweepPoint, default_jobs, run_sweep

__all__ = [
    "RunRecord",
    "collect_record",
    "RunCache",
    "config_fingerprint",
    "point_key",
    "CACHE_SCHEMA",
    "SweepPoint",
    "default_jobs",
    "run_sweep",
]
