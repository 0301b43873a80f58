"""Maintain the on-disk sweep-result cache from the command line::

    python -m repro.perf --stats | --prune [--max-mb N] | --clear [--dir D]

The entry lives here, not in :mod:`repro.perf.cache`: the package imports
that module first, so running it with ``-m`` would execute a second copy
of it (runpy warns).  The commands are :func:`repro.perf.cache.main`.
"""

from .cache import main

if __name__ == "__main__":
    raise SystemExit(main())
