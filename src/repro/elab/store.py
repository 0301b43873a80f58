"""Disk store for generated specialized-core modules.

Generated modules live under ``<cache>/elab/elab_<fingerprint>.py`` where
``<cache>`` follows the same conventions as the sweep-result cache
(:mod:`repro.perf.cache`): ``NUMACHINE_CACHE_DIR`` or ``.numachine_cache``
under the current working directory.  The fingerprint (config + package
version + elaborator schema + the ``instrumented`` axis, see
:mod:`repro.elab.ir`) is embedded in both the filename and the module's
``FINGERPRINT`` constant, so a stale module can never be picked up after a
config or code change — its name simply no longer matches — and the plain /
instrumented variants of one config (see :mod:`repro.elab.ir`) coexist as
separate entries.

* ``NUMACHINE_CACHE=0`` disables the disk layer entirely (modules are
  generated and executed in memory every time);
* ``NUMACHINE_CACHE_MAX_MB`` caps the elab directory like the result cache:
  least-recently-used modules are evicted after each write, and loads
  refresh an entry's mtime;
* loaded modules are memoized per process, keyed by fingerprint.
"""

from __future__ import annotations

import os
import sys
import tempfile
import types
from pathlib import Path
from typing import Dict, Optional

from ..perf.cache import _max_bytes
from . import codegen
from .ir import MachineIR

#: process-wide cache: fingerprint -> executed module
_memo: Dict[str, types.ModuleType] = {}


def elab_dir(root: Optional[Path] = None) -> Path:
    """The directory holding generated modules."""
    if root is None:
        root = Path(os.environ.get("NUMACHINE_CACHE_DIR", ".numachine_cache"))
    return Path(root) / "elab"


def _disk_enabled() -> bool:
    return os.environ.get("NUMACHINE_CACHE", "1") != "0"


def module_path(fingerprint: str, root: Optional[Path] = None) -> Path:
    return elab_dir(root) / f"elab_{fingerprint}.py"


def _exec_module(source: str, fingerprint: str, filename: str) -> types.ModuleType:
    mod = types.ModuleType(f"numachine_elab_{fingerprint}")
    mod.__file__ = filename
    code = compile(source, filename, "exec")
    exec(code, mod.__dict__)
    if getattr(mod, "FINGERPRINT", None) != fingerprint:
        raise RuntimeError(
            f"generated module fingerprint mismatch in {filename}"
        )
    sys.modules[mod.__name__] = mod
    return mod


def load_module(ir: MachineIR) -> types.ModuleType:
    """The specialized module for this machine IR: memoized, then disk,
    then freshly generated (and written back when the disk layer is on)."""
    fp = ir.fingerprint
    mod = _memo.get(fp)
    if mod is not None:
        return mod

    path = module_path(fp)
    source = None
    if _disk_enabled():
        try:
            source = path.read_text()
            os.utime(path)  # refresh: LRU eviction keys off mtime
        except OSError:
            source = None
    if source is None:
        source = codegen.generate_source(ir)
        if _disk_enabled():
            try:
                path.parent.mkdir(parents=True, exist_ok=True)
                # per-writer-unique temp name + atomic rename: concurrent
                # workers generating the same fingerprint must never
                # interleave writes into one shared temp file (a torn
                # module would fail its FINGERPRINT check at best)
                fd, tmp = tempfile.mkstemp(
                    prefix=f".{ir.fingerprint[:16]}.", suffix=".tmp",
                    dir=path.parent,
                )
                try:
                    with os.fdopen(fd, "w") as fh:
                        fh.write(source)
                    os.replace(tmp, path)
                except OSError:
                    try:
                        os.unlink(tmp)
                    except OSError:
                        pass
                    raise
                prune()
            except OSError:
                pass  # a read-only cache dir must never break a run

    mod = _exec_module(source, fp, str(path))
    _memo[fp] = mod
    return mod


# ----------------------------------------------------------------------
# hygiene (shared with `python -m repro.perf.cache`)
# ----------------------------------------------------------------------
def _entries(root: Optional[Path] = None):
    """(mtime, size, path) for every generated module, oldest first."""
    out = []
    d = elab_dir(root)
    if d.is_dir():
        for path in d.glob("elab_*.py"):
            try:
                st = path.stat()
            except OSError:
                continue
            out.append((st.st_mtime, st.st_size, path))
    out.sort()
    return out


def prune(max_bytes: Optional[int] = None, root: Optional[Path] = None) -> int:
    """Evict least-recently-used generated modules past the size cap."""
    cap = _max_bytes() if max_bytes is None else max_bytes
    entries = _entries(root)
    total = sum(size for _, size, _ in entries)
    removed = 0
    for _, size, path in entries:
        if total <= cap:
            break
        try:
            path.unlink()
        except OSError:
            continue
        total -= size
        removed += 1
    return removed


def clear(root: Optional[Path] = None) -> int:
    """Delete every generated module; returns the number removed."""
    removed = 0
    for _, _, path in _entries(root):
        try:
            path.unlink()
            removed += 1
        except OSError:
            pass
    return removed


def stats(root: Optional[Path] = None) -> dict:
    entries = _entries(root)
    return {
        "dir": str(elab_dir(root)),
        "modules": len(entries),
        "bytes": sum(size for _, size, _ in entries),
    }
