"""numabench workloads: frozen inputs, seeded values and output checks.

Four closed batches (README.md says why each one is in the benchmark):

* ``paper_grid`` -- the paper's evaluation grid (Figs. 13-18, Table 3) as
  69 literal sweep points, plus the nine Table 1 cells;
* ``hotspot_p64`` -- ``HotSpot(words=64, ops=400, hot_station=0)`` on all
  64 CPUs of the prototype;
* ``lu_p64`` -- suite ``lu_contig`` at bench size on 64 CPUs;
* ``checked_prodcons_p16`` -- ``ProducerConsumer(rounds=60)`` on CPUs 0-15
  with the coherence checker and the section 3.3 monitor attached.

The seed picks the *values* the workloads store, never their addresses,
CPUs or operation order.  Timing in the model does not depend on data, so
every seed simulates the same event stream -- the canonical surface pinned
in ``expected.json`` holds for all seeds -- while the outputs checked after
each run differ per seed.  The paper grid is fixed by the paper's problem
sizes and ignores the seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from pathlib import Path

from repro import Compute, Machine, MachineConfig
from repro.analysis.latency import PAPER_TABLE1, measure_table1
from repro.elab import backend as elab_backend
from repro.monitor import Monitor
from repro.perf import SweepPoint
from repro.protocol import canonical_surface
from repro.verify import CoherenceChecker
from repro.workloads import make
from repro.workloads.lu import LUContiguous, reference_lu
from repro.workloads.synthetic import HotSpot, ProducerConsumer

EXPECTED_PATH = Path(__file__).with_name("expected.json")

_SPREAD16 = (0, 1, 8, 9, 16, 17, 24, 25, 32, 33, 40, 41, 48, 49, 56, 57)

#: The paper grid as literal (workload, nprocs, cpus, compute_scale) points.
#: Frozen here, not derived from ``benchmarks/harness.py``, so edits to the
#: figure benches cannot move the benchmark.
GRID = (
    # Fig. 13: SPLASH-2 kernels on consecutive CPUs
    ("radix", 1, (), 32.0), ("radix", 2, (), 32.0), ("radix", 4, (), 32.0),
    ("radix", 8, (), 32.0), ("radix", 16, (), 32.0),
    ("lu_contig", 1, (), 32.0), ("lu_contig", 2, (), 32.0),
    ("lu_contig", 4, (), 32.0), ("lu_contig", 8, (), 32.0),
    ("lu_contig", 16, (), 32.0),
    ("lu_noncontig", 1, (), 32.0), ("lu_noncontig", 2, (), 32.0),
    ("lu_noncontig", 4, (), 32.0), ("lu_noncontig", 8, (), 32.0),
    ("lu_noncontig", 16, (), 32.0),
    ("fft", 1, (), 32.0), ("fft", 2, (), 32.0), ("fft", 4, (), 32.0),
    ("fft", 8, (), 32.0), ("fft", 16, (), 32.0),
    ("cholesky", 1, (), 32.0), ("cholesky", 2, (), 32.0),
    ("cholesky", 4, (), 32.0), ("cholesky", 8, (), 32.0),
    ("cholesky", 16, (), 32.0),
    # Fig. 14: SPLASH-2 applications on consecutive CPUs
    ("water_spatial", 1, (), 32.0), ("water_spatial", 2, (), 32.0),
    ("water_spatial", 4, (), 32.0), ("water_spatial", 8, (), 32.0),
    ("water_spatial", 16, (), 32.0),
    ("radiosity", 1, (), 32.0), ("radiosity", 2, (), 32.0),
    ("radiosity", 4, (), 32.0), ("radiosity", 8, (), 32.0),
    ("radiosity", 16, (), 32.0),
    ("barnes", 1, (), 32.0), ("barnes", 2, (), 32.0), ("barnes", 4, (), 32.0),
    ("barnes", 8, (), 32.0), ("barnes", 16, (), 32.0),
    ("water_nsq", 1, (), 32.0), ("water_nsq", 2, (), 32.0),
    ("water_nsq", 4, (), 32.0), ("water_nsq", 8, (), 32.0),
    ("water_nsq", 16, (), 32.0),
    ("ocean", 1, (), 32.0), ("ocean", 2, (), 32.0), ("ocean", 4, (), 32.0),
    ("ocean", 8, (), 32.0), ("ocean", 16, (), 32.0),
    ("fmm", 1, (), 32.0), ("fmm", 2, (), 32.0), ("fmm", 4, (), 32.0),
    ("fmm", 8, (), 32.0), ("fmm", 16, (), 32.0),
    ("raytrace", 1, (), 32.0), ("raytrace", 2, (), 32.0),
    ("raytrace", 4, (), 32.0), ("raytrace", 8, (), 32.0),
    ("raytrace", 16, (), 32.0),
    # Figs. 15-18 and Table 3: nine workloads at P=16 spread over all rings
    ("cholesky", 16, _SPREAD16, 32.0), ("fmm", 16, _SPREAD16, 32.0),
    ("ocean", 16, _SPREAD16, 32.0), ("radiosity", 16, _SPREAD16, 32.0),
    ("radix", 16, _SPREAD16, 32.0), ("barnes", 16, _SPREAD16, 32.0),
    ("fft", 16, _SPREAD16, 32.0), ("lu_contig", 16, _SPREAD16, 32.0),
    ("water_nsq", 16, _SPREAD16, 32.0),
)

#: the grid point whose set-up ``setup_s`` times (the first one a cold
#: reproduction reaches)
GRID_SETUP_POINT = GRID[0]
#: the grid point the backend and checker probes run: radix, the kernel
#: that takes the largest share of the grid, at a size that keeps three
#: probe rounds short
GRID_PROBE_POINT = ("radix", 8, (), 32.0)

#: CPUs each single-run workload runs on
SINGLE_CPUS = {
    "hotspot_p64": tuple(range(64)),
    "lu_p64": tuple(range(64)),
    "checked_prodcons_p16": tuple(range(16)),
}


def salt(seed: int) -> int:
    """The seed's value offset: every value a workload stores is shifted by
    it, so outputs differ per seed while addresses and timing do not."""
    return random.Random(seed).randrange(1 << 40)


class SeededHotSpot(HotSpot):
    """``HotSpot(words=64, ops=400, hot_station=0)`` storing seeded values.

    Same addresses, operation order and timing as the stock class.  Thread
    ``tid`` stores ``salt + (tid << 16) + k`` at step ``k``, so the final
    contents of each hot word name the store that landed last.
    """

    def __init__(self, seed: int) -> None:
        super().__init__(words=64, ops=400, hot_station=0)
        self.salt = salt(seed)

    def thread_program(self, tid, cpus):
        yield self.barrier(tid)
        for k in range(self.ops):
            idx = (tid * 7 + k) % self.words
            if k % 3:
                yield self.arr.read(idx)
            else:
                yield self.arr.write(idx, self.salt + (tid << 16) + k)
            yield Compute(4)
        yield self.barrier(tid)

    def outputs(self, machine) -> dict:
        """``[tid, k]`` of the last store to each hot word (seed-free)."""
        last = []
        for i in range(self.words):
            tid, k = divmod(machine.read_word(self.arr.addr(i)) - self.salt, 1 << 16)
            last.append([tid, k])
        return {"last_writer": last}


class SeededProducerConsumer(ProducerConsumer):
    """``ProducerConsumer(rounds=60)`` whose payload words carry the seed's
    offset; the flag protocol and the consumers' sequential-consistency
    check are the stock ones."""

    def __init__(self, seed: int) -> None:
        super().__init__(rounds=60)
        self.salt = salt(seed)

    def _payload(self, r: int, w: int) -> int:
        return self.salt + r * 100 + w

    def thread_program(self, tid, cpus):
        pairs = len(cpus) // 2
        yield self.barrier(tid)
        if pairs == 0:
            return
        pair = tid % pairs
        base = pair * self.payload
        if tid < pairs:
            for r in range(1, self.rounds + 1):
                for w in range(self.payload):
                    yield self.data.write(base + w, self._payload(r, w))
                yield self.flags.write(pair, r)
                while True:
                    v = yield self.flags.read(pair)
                    if v == -r:
                        break
        else:
            for r in range(1, self.rounds + 1):
                while True:
                    v = yield self.flags.read(pair)
                    if v == r:
                        break
                total = 0
                for w in range(self.payload):
                    total += yield self.data.read(base + w)
                expect = sum(self._payload(r, w) for w in range(self.payload))
                if total != expect:
                    raise AssertionError(
                        f"SC violation: consumer {tid} round {r} saw stale data "
                        f"({total} != {expect})"
                    )
                yield self.flags.write(pair, -r)
        yield self.barrier(tid)

    def outputs(self, machine) -> dict:
        """Final payload (offset removed) and flags of every pair."""
        data = [machine.read_word(self.data.addr(i)) - self.salt for i in range(self.data.n)]
        flags = [machine.read_word(self.flags.addr(i)) for i in range(self.flags.n)]
        return {"payload": data, "flags": flags}


class SeededLU(LUContiguous):
    """Suite ``lu_contig`` at bench size (96x96, 16x16 blocks) factoring a
    seeded diagonally dominant matrix instead of the fixed one."""

    def __init__(self, seed: int) -> None:
        super().__init__(n=96, block=16)
        self.seed = seed

    def build(self, machine, cpus) -> None:
        super().build(machine, cpus)
        rng = random.Random(self.seed)
        n = self.n
        self.input = [
            [rng.random() + (n if i == j else 0.0) for j in range(n)]
            for i in range(n)
        ]

    def outputs(self, machine) -> dict:
        """Whether the factors in simulated memory match ``reference_lu``."""
        ref = reference_lu(self.input)
        worst = 0.0
        for i in range(self.n):
            for j in range(self.n):
                got = machine.read_word(self._addr(i, j))
                worst = max(worst, abs(got - ref[i][j]) / max(1.0, abs(ref[i][j])))
        return {"matches_reference_lu": worst <= 1e-9}


_SEEDED = {
    "hotspot_p64": SeededHotSpot,
    "lu_p64": SeededLU,
    "checked_prodcons_p16": SeededProducerConsumer,
}


def grid_config(compute_scale: float) -> MachineConfig:
    cfg = MachineConfig.prototype()
    cfg.compute_scale = compute_scale
    return cfg


def grid_points():
    """The frozen grid as :class:`repro.perf.SweepPoint` objects."""
    return [
        SweepPoint(workload=w, nprocs=p, config=grid_config(cs), cpus=cpus)
        for w, p, cpus, cs in GRID
    ]


def prepare(name: str, seed: int = 0, *, point=None, backend=None, hooks="default"):
    """Build workload ``name`` up to its first simulated event.

    ``paper_grid`` builds one grid ``point`` (a ``GRID``-style tuple).
    ``hooks`` is ``"default"`` (checker + monitor for
    ``checked_prodcons_p16``, nothing elsewhere), ``"none"`` or
    ``"checker"``.  Returns ``(machine, workload, programs, spans)`` where
    ``spans`` times each set-up step in seconds: ``system`` (``Machine()``
    and hook attachment), ``workloads`` (build and program creation) and
    ``elab`` (:func:`repro.elab.backend.sync` against the process's store).
    """
    t0 = time.perf_counter()
    if name == "paper_grid":
        wname, nprocs, cpus, cs = point
        cpus = list(cpus) or list(range(nprocs))
        machine = Machine(grid_config(cs), backend=backend)
    else:
        cpus = list(SINGLE_CPUS[name])
        machine = Machine(MachineConfig.prototype(), backend=backend)
    monitored = hooks == "default" and name == "checked_prodcons_p16"
    if monitored or hooks == "checker":
        machine.attach_verifier(CoherenceChecker())
    if monitored:
        machine.attach_monitor(Monitor())
    t1 = time.perf_counter()
    workload = make(wname, "bench") if name == "paper_grid" else _SEEDED[name](seed)
    workload.build(machine, cpus)
    programs = {cpu: workload.thread_program(tid, cpus) for tid, cpu in enumerate(cpus)}
    t2 = time.perf_counter()
    elab_backend.sync(machine)
    t3 = time.perf_counter()
    return machine, workload, programs, {"system": t1 - t0, "workloads": t2 - t1, "elab": t3 - t2}


def surface_sha256(machine) -> str:
    blob = json.dumps(canonical_surface(machine), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def fingerprint(machine, workload, parallel_time_ns: float) -> dict:
    """What a single-run workload must reproduce exactly, for every seed."""
    fp = {
        "surface_sha256": surface_sha256(machine),
        "parallel_time_ns": parallel_time_ns,
        "outputs": workload.outputs(machine) if hasattr(workload, "outputs") else {},
    }
    if machine.verifier is not None:
        fp["checks"] = dict(sorted(machine.verifier.checks.items()))
    return fp


def record_view(record) -> dict:
    """A grid record's deterministic view without ``events``/``obs``."""
    view = record.deterministic_view()
    view.pop("events", None)
    view.pop("obs", None)
    return view


def table1() -> dict:
    """The nine Table 1 cells in ns, keyed ``"locality/kind"``."""
    return {f"{loc}/{kind}": ns for (loc, kind), ns in measure_table1().items()}


def table1_max_err_pct(cells: dict) -> float:
    """Largest relative error of the Table 1 cells against the paper, in %."""
    return max(
        100.0 * abs(cells[f"{loc}/{kind}"] - paper_ns) / paper_ns
        for (loc, kind), (paper_ns, _cycles) in PAPER_TABLE1.items()
    )


def load_expected() -> dict:
    try:
        with open(EXPECTED_PATH) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}
