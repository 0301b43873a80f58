"""The benchmark suite registry (paper Table 2).

Maps workload names to factories at three sizes:

* ``paper`` — the problem sizes of Table 2 (documented; far too large for
  cycle-level simulation in Python, provided for completeness),
* ``bench`` — the scaled sizes the benches run (shape-preserving),
* ``test`` — tiny sizes for the unit/integration tests.
"""

from __future__ import annotations

from typing import Dict, List

from .barnes import Barnes
from .cholesky import Cholesky
from .fft import FFT
from .fmm import FMM
from .lu import LUContiguous, LUNoncontiguous
from .ocean import Ocean
from .radiosity import Radiosity
from .radix import RadixSort
from .raytrace import Raytrace
from .water import WaterNsquared, WaterSpatial


#: name -> (paper size description, bench factory, test factory)
SUITE: Dict[str, Dict] = {
    "lu_contig": {
        "paper": "512x512 matrix, 16x16 blocks",
        "bench": lambda: LUContiguous(n=96, block=16),
        "test": lambda: LUContiguous(n=16, block=4),
        "kind": "kernel",
    },
    "lu_noncontig": {
        "paper": "512x512 matrix, 16x16 blocks",
        "bench": lambda: LUNoncontiguous(n=96, block=16),
        "test": lambda: LUNoncontiguous(n=16, block=4),
        "kind": "kernel",
    },
    "fft": {
        "paper": "65536 complex doubles (M=16)",
        "bench": lambda: FFT(n=1024),
        "test": lambda: FFT(n=256),
        "kind": "kernel",
    },
    "radix": {
        "paper": "262144 keys, radix 1024",
        "bench": lambda: RadixSort(n=4096, radix=128),
        "test": lambda: RadixSort(n=512, radix=64),
        "kind": "kernel",
    },
    "cholesky": {
        "paper": "tk18.O input file",
        "bench": lambda: Cholesky(nblocks=16, block=8, border=2),
        "test": lambda: Cholesky(nblocks=4, block=4, border=4),
        "kind": "kernel",
    },
    "barnes": {
        "paper": "16384 particles",
        "bench": lambda: Barnes(nbodies=128, steps=1),
        "test": lambda: Barnes(nbodies=32, steps=1),
        "kind": "app",
    },
    "fmm": {
        "paper": "16384 particles",
        "bench": lambda: FMM(nparticles=96, grid=4),
        "test": lambda: FMM(nparticles=32, grid=4),
        "kind": "app",
    },
    "ocean": {
        "paper": "258x258 grid",
        "bench": lambda: Ocean(n=50, sweeps=3),
        "test": lambda: Ocean(n=12, sweeps=3),
        "kind": "app",
    },
    "water_nsq": {
        "paper": "512 molecules, 3 steps",
        "bench": lambda: WaterNsquared(nmol=48, steps=1),
        "test": lambda: WaterNsquared(nmol=16, steps=1),
        "kind": "app",
    },
    "water_spatial": {
        "paper": "512 molecules, 3 steps",
        "bench": lambda: WaterSpatial(nmol=64, steps=1),
        "test": lambda: WaterSpatial(nmol=27, steps=1),
        "kind": "app",
    },
    "raytrace": {
        "paper": "Teapot geometry",
        "bench": lambda: Raytrace(image=16, nspheres=10),
        "test": lambda: Raytrace(image=8, nspheres=6),
        "kind": "app",
    },
    "radiosity": {
        "paper": "Room scene, batch mode",
        "bench": lambda: Radiosity(patches_per_wall=3, iterations=2),
        "test": lambda: Radiosity(patches_per_wall=2, iterations=2),
        "kind": "app",
    },
}

#: Fig. 13's kernels and Fig. 14's applications, in the paper's legends
FIG13_KERNELS: List[str] = ["radix", "lu_contig", "lu_noncontig", "fft", "cholesky"]
FIG14_APPS: List[str] = [
    "water_spatial", "radiosity", "barnes", "water_nsq", "ocean", "fmm", "raytrace",
]
#: the six workloads shown in Figs. 15-18
FIG15_APPS: List[str] = ["barnes", "radix", "fft", "lu_contig", "ocean", "water_nsq"]


def make(name: str, size: str = "bench"):
    """Instantiate a suite workload at the given size."""
    return SUITE[name][size]()
