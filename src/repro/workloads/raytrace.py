"""Ray tracing (SPLASH-2 'Raytrace').

Table 2: the Teapot geometry.  Without SPLASH's model files the scene is a
deterministic arrangement of spheres plus a ground plane — same memory
character: a read-only shared scene interrogated by every ray, dynamic
distribution of image tiles through a shared task-queue counter (the only
write-shared word, claimed with fetch-and-add), and private writes of each
thread's pixels into the shared framebuffer.

Primary rays plus one shadow ray and one specular bounce per hit — real
intersection geometry; the test renders the same scene host-side and
demands pixel-exact agreement.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from ..cpu.ops import Compute
from .base import BarrierFactory, SharedArray, Workload, fetch_add

Vec = Tuple[float, float, float]


def _sub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a: Vec, b: Vec) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _scale(a: Vec, s: float) -> Vec:
    return (a[0] * s, a[1] * s, a[2] * s)


def _add(a: Vec, b: Vec) -> Vec:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def _norm(a: Vec) -> Vec:
    m = math.sqrt(_dot(a, a)) or 1.0
    return _scale(a, 1.0 / m)


class Raytrace(Workload):
    name = "raytrace"
    paper_problem = "Teapot geometry"

    #: scene record: 4 words per sphere (x, y, z, r) + 1 shade word
    SPHERE_WORDS = 5

    def __init__(self, image: int = 24, nspheres: int = 12, tile: int = 4) -> None:
        self.image = image
        self.nspheres = nspheres
        self.tile = tile
        self.light: Vec = (5.0, 8.0, -3.0)

    def default_spheres(self) -> List[Tuple[Vec, float, float]]:
        out = []
        for i in range(self.nspheres):
            a = 2 * math.pi * i / self.nspheres
            r = 0.35 + ((i * 7) % 5) * 0.06
            out.append((
                (2.0 * math.cos(a), 0.3 + 0.25 * ((i * 3) % 4), 4.0 + 2.0 * math.sin(a)),
                r,
                0.3 + 0.7 * ((i * 11) % 9) / 9.0,
            ))
        return out

    def build(self, machine, cpus: Sequence[int]) -> None:
        self.barrier = BarrierFactory(cpus)
        npx = self.image * self.image
        self.scene = SharedArray(machine, self.nspheres * self.SPHERE_WORDS,
                                 name="rt_scene")
        self.frame = SharedArray(machine, npx, name="rt_frame")
        self.taskq = SharedArray(machine, 1, name="rt_taskq")
        self.spheres0 = self.default_spheres()

    # ------------------------------------------------------------------
    # geometry (register math)
    # ------------------------------------------------------------------
    @staticmethod
    def _hit_sphere(orig: Vec, dir: Vec, center: Vec, radius: float) -> Optional[float]:
        oc = _sub(orig, center)
        b = 2.0 * _dot(oc, dir)
        c = _dot(oc, oc) - radius * radius
        disc = b * b - 4 * c
        if disc < 0:
            return None
        t = (-b - math.sqrt(disc)) / 2.0
        if t < 1e-6:
            t = (-b + math.sqrt(disc)) / 2.0
        return t if t > 1e-6 else None

    def _primary_ray(self, px: int, py: int) -> Tuple[Vec, Vec]:
        n = self.image
        x = (px + 0.5) / n * 2 - 1
        y = 1 - (py + 0.5) / n * 2
        return (0.0, 1.0, 0.0), _norm((x * 1.2, y * 1.2, 1.0))

    def shade_with_scene(self, spheres, px: int, py: int) -> float:
        """Trace one pixel against a host-side scene list (also used by the
        reference renderer in tests)."""
        orig, d = self._primary_ray(px, py)
        colour = 0.05
        weight = 1.0
        for _bounce in range(2):
            best_t, best = None, None
            for (c, r, shade) in spheres:
                t = self._hit_sphere(orig, d, c, r)
                if t is not None and (best_t is None or t < best_t):
                    best_t, best = t, (c, r, shade)
            if best is None:
                # ground plane at y = 0
                if d[1] < -1e-9:
                    t = -orig[1] / d[1]
                    p = _add(orig, _scale(d, t))
                    check = (int(math.floor(p[0])) + int(math.floor(p[2]))) & 1
                    colour += weight * (0.6 if check else 0.25)
                else:
                    colour += weight * 0.1  # sky
                break
            c, r, shade = best
            p = _add(orig, _scale(d, best_t))
            nrm = _norm(_sub(p, c))
            ldir = _norm(_sub(self.light, p))
            # shadow ray
            lit = 1.0
            for (c2, r2, _s2) in spheres:
                if c2 == c:
                    continue
                if self._hit_sphere(_add(p, _scale(nrm, 1e-4)), ldir, c2, r2):
                    lit = 0.25
                    break
            colour += weight * shade * max(0.0, _dot(nrm, ldir)) * lit
            # specular bounce
            d = _norm(_sub(d, _scale(nrm, 2 * _dot(d, nrm))))
            orig = _add(p, _scale(nrm, 1e-4))
            weight *= 0.3
        return round(colour, 9)

    # ------------------------------------------------------------------
    def thread_program(self, tid: int, cpus: Sequence[int]):
        n = self.image
        tiles_per_side = -(-n // self.tile)
        ntiles = tiles_per_side * tiles_per_side
        if tid == 0:
            for i, (c, r, shade) in enumerate(self.spheres0):
                base = i * self.SPHERE_WORDS
                yield self.scene.write(base, c[0])
                yield self.scene.write(base + 1, c[1])
                yield self.scene.write(base + 2, c[2])
                yield self.scene.write(base + 3, r)
                yield self.scene.write(base + 4, shade)
            yield self.taskq.write(0, 0)
        yield self.barrier(tid)
        # read the scene once (it is read-only; stays resident in caches)
        spheres = []
        for i in range(self.nspheres):
            base = i * self.SPHERE_WORDS
            x = yield self.scene.read(base)
            y = yield self.scene.read(base + 1)
            z = yield self.scene.read(base + 2)
            r = yield self.scene.read(base + 3)
            s = yield self.scene.read(base + 4)
            spheres.append(((x, y, z), r, s))
        while True:
            t = yield from fetch_add(self.taskq.addr(0), 1)
            if t >= ntiles:
                break
            ty, tx = divmod(t, tiles_per_side)
            for py in range(ty * self.tile, min(n, (ty + 1) * self.tile)):
                for px in range(tx * self.tile, min(n, (tx + 1) * self.tile)):
                    colour = self.shade_with_scene(spheres, px, py)
                    yield Compute(40 * self.nspheres)
                    yield self.frame.write(py * n + px, colour)
        yield self.barrier(tid)

    # ------------------------------------------------------------------
    def framebuffer(self, machine) -> List[float]:
        n = self.image
        return [machine.read_word(self.frame.addr(i)) for i in range(n * n)]
