"""Barnes-Hut N-body simulation (SPLASH-2 'Barnes').

Table 2: 16384 particles.  Scaled default: 256 bodies, 2 timesteps.

Per timestep: thread 0 builds the octree over the shared body positions
(the brief serial phase), a barrier, then every thread walks the *shared*
tree to compute forces on its block of bodies (read-mostly traversal of
cells — the phase whose excellent locality gives Barnes its near-ideal
speedup in Fig. 14), then integrates its own bodies (local writes).

The tree is stored in shared arrays (node center-of-mass, mass, children
indices), so traversals generate real remote reads that the network caches
replicate — the migration effect of Fig. 15.  Physics is a real softened
gravitational kernel with the standard opening criterion; tests compare a
tiny instance against the direct O(n^2) sum.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

from ..cpu.ops import Compute
from .base import BarrierFactory, SharedArray, Workload, block_range

#: tree node fields, one shared word each
_NFIELDS = 8  # [mass, comx, comy, comz, child0..3 for 2D quad? -> see below]


class Barnes(Workload):
    name = "barnes"
    paper_problem = "16384 particles"

    #: node record layout in the shared node arrays
    # mass, comx, comy, comz, first_child, next_sibling, is_leaf/body_index, size
    F_MASS, F_X, F_Y, F_Z, F_CHILD, F_SIB, F_BODY, F_SIZE = range(8)

    def __init__(self, nbodies: int = 256, steps: int = 2, theta: float = 0.7) -> None:
        self.n = nbodies
        self.steps = steps
        self.theta = theta
        self.dt = 0.05
        self.eps2 = 0.05

    def default_bodies(self) -> List[Tuple[float, float, float, float]]:
        """(mass, x, y, z) in a deterministic Plummer-ish cloud."""
        out = []
        for i in range(self.n):
            a = 2 * math.pi * ((i * 61) % 97) / 97.0
            b = math.pi * ((i * 31) % 89) / 89.0
            r = 0.1 + 0.9 * ((i * 17) % 101) / 101.0
            out.append((
                1.0 / self.n,
                r * math.cos(a) * math.sin(b),
                r * math.sin(a) * math.sin(b),
                r * math.cos(b),
            ))
        return out

    def build(self, machine, cpus: Sequence[int]) -> None:
        self.barrier = BarrierFactory(cpus)
        n = self.n
        # body state: pos (3n), vel (3n), acc (3n), mass(n)
        self.pos = SharedArray(machine, 3 * n, name="bh_pos")
        self.vel = SharedArray(machine, 3 * n, name="bh_vel")
        self.acc = SharedArray(machine, 3 * n, name="bh_acc")
        self.mass = SharedArray(machine, n, name="bh_mass")
        # tree nodes: generous upper bound on node count
        self.max_nodes = 4 * n + 64
        self.nodes = SharedArray(machine, self.max_nodes * _NFIELDS, name="bh_nodes")
        self.tree_meta = SharedArray(machine, 2, name="bh_meta")  # root, count
        self.bodies0 = self.default_bodies()

    # ------------------------------------------------------------------
    # host-side octree (positions already read into locals)
    # ------------------------------------------------------------------
    def _build_tree(self, masses, xs, ys, zs):
        """Returns flat node records; children linked first-child/sibling."""
        nodes: List[List[float]] = []

        def new_node(size):
            nodes.append([0.0, 0.0, 0.0, 0.0, -1.0, -1.0, -1.0, size])
            return len(nodes) - 1

        half = max(
            max(abs(v) for v in xs), max(abs(v) for v in ys),
            max(abs(v) for v in zs),
        ) + 1e-9
        root = new_node(2 * half)

        # insert bodies into an octree kept as python dicts, then flatten
        tree = {root: {"bodies": [], "children": {}, "center": (0.0, 0.0, 0.0),
                       "size": 2 * half}}

        def insert(node, b, depth=0):
            entry = tree[node]
            if depth > 40:
                entry["bodies"].append(b)
                return
            if not entry["children"] and not entry["bodies"]:
                entry["bodies"].append(b)
                return
            if not entry["children"] and entry["bodies"]:
                olds = entry["bodies"]
                entry["bodies"] = []
                for ob in olds + [b]:
                    _push_child(node, ob, depth)
                return
            _push_child(node, b, depth)

        def _push_child(node, b, depth):
            entry = tree[node]
            cx, cy, cz = entry["center"]
            octant = ((xs[b] > cx) | ((ys[b] > cy) << 1) | ((zs[b] > cz) << 2))
            child = entry["children"].get(octant)
            if child is None:
                q = entry["size"] / 4
                ncx = cx + (q if xs[b] > cx else -q)
                ncy = cy + (q if ys[b] > cy else -q)
                ncz = cz + (q if zs[b] > cz else -q)
                child = new_node(entry["size"] / 2)
                tree[child] = {"bodies": [], "children": {},
                               "center": (ncx, ncy, ncz),
                               "size": entry["size"] / 2}
                entry["children"][octant] = child
            insert(child, b, depth + 1)

        for b in range(len(xs)):
            insert(root, b)

        # compute centers of mass bottom-up and link flat children
        def finalize(node):
            entry = tree[node]
            rec = nodes[node]
            m = x = y = z = 0.0
            kids = list(entry["children"].values())
            for c in kids:
                finalize(c)
                m += nodes[c][self.F_MASS]
                x += nodes[c][self.F_X] * nodes[c][self.F_MASS]
                y += nodes[c][self.F_Y] * nodes[c][self.F_MASS]
                z += nodes[c][self.F_Z] * nodes[c][self.F_MASS]
            for b in entry["bodies"]:
                m += masses[b]
                x += xs[b] * masses[b]
                y += ys[b] * masses[b]
                z += zs[b] * masses[b]
            rec[self.F_MASS] = m
            if m > 0:
                rec[self.F_X], rec[self.F_Y], rec[self.F_Z] = x / m, y / m, z / m
            # leaf marker: single body stored directly
            if not kids and len(entry["bodies"]) == 1:
                rec[self.F_BODY] = float(entry["bodies"][0])
            elif not kids and len(entry["bodies"]) > 1:
                rec[self.F_BODY] = -2.0 - 0.0  # multi-body leaf: treat as cell mass
            # link children as first-child / sibling chain
            prev = -1.0
            for c in reversed(kids):
                nodes[c][self.F_SIB] = prev
                prev = float(c)
            rec[self.F_CHILD] = prev
            return node

        finalize(root)
        return root, nodes

    # ------------------------------------------------------------------
    def thread_program(self, tid: int, cpus: Sequence[int]):
        n = self.n
        P = len(cpus)
        lo, hi = block_range(tid, P, n)
        if tid == 0:
            for i, (m, x, y, z) in enumerate(self.bodies0):
                yield self.mass.write(i, m)
                yield self.pos.write(3 * i, x)
                yield self.pos.write(3 * i + 1, y)
                yield self.pos.write(3 * i + 2, z)
                yield self.vel.write(3 * i, 0.0)
                yield self.vel.write(3 * i + 1, 0.0)
                yield self.vel.write(3 * i + 2, 0.0)
        yield self.barrier(tid)

        for _step in range(self.steps):
            # -- tree build (thread 0, serial phase) ----------------------
            if tid == 0:
                masses, xs, ys, zs = [], [], [], []
                for i in range(n):
                    masses.append((yield self.mass.read(i)))
                    xs.append((yield self.pos.read(3 * i)))
                    ys.append((yield self.pos.read(3 * i + 1)))
                    zs.append((yield self.pos.read(3 * i + 2)))
                root, nodes = self._build_tree(masses, xs, ys, zs)
                yield Compute(20 * n)
                for idx, rec in enumerate(nodes[: self.max_nodes]):
                    for f in range(_NFIELDS):
                        yield self.nodes.write(idx * _NFIELDS + f, rec[f])
                yield self.tree_meta.write(0, float(root))
                yield self.tree_meta.write(1, float(len(nodes)))
            yield self.barrier(tid)

            # -- force computation over my bodies --------------------------
            root = int((yield self.tree_meta.read(0)))
            theta2 = self.theta * self.theta
            for i in range(lo, hi):
                px = yield self.pos.read(3 * i)
                py = yield self.pos.read(3 * i + 1)
                pz = yield self.pos.read(3 * i + 2)
                ax = ay = az = 0.0
                stack = [root]
                flops = 0
                while stack:
                    node = stack.pop()
                    base = node * _NFIELDS
                    m = yield self.nodes.read(base + self.F_MASS)
                    if m == 0.0:
                        continue
                    cx = yield self.nodes.read(base + self.F_X)
                    cy = yield self.nodes.read(base + self.F_Y)
                    cz = yield self.nodes.read(base + self.F_Z)
                    size = yield self.nodes.read(base + self.F_SIZE)
                    body = yield self.nodes.read(base + self.F_BODY)
                    dx, dy, dz = cx - px, cy - py, cz - pz
                    d2 = dx * dx + dy * dy + dz * dz + self.eps2
                    flops += 10
                    if int(body) == i and body >= 0:
                        continue  # self leaf
                    child = yield self.nodes.read(base + self.F_CHILD)
                    is_leaf = child < 0
                    if is_leaf or size * size < theta2 * d2:
                        inv = m / (d2 * math.sqrt(d2))
                        ax += dx * inv
                        ay += dy * inv
                        az += dz * inv
                        flops += 10
                    else:
                        c = int(child)
                        while c >= 0:
                            stack.append(c)
                            sib = yield self.nodes.read(c * _NFIELDS + self.F_SIB)
                            c = int(sib)
                yield Compute(flops)
                yield self.acc.write(3 * i, ax)
                yield self.acc.write(3 * i + 1, ay)
                yield self.acc.write(3 * i + 2, az)
            yield self.barrier(tid)

            # -- integrate my bodies (leapfrog) ----------------------------
            for i in range(lo, hi):
                for d in range(3):
                    v = yield self.vel.read(3 * i + d)
                    a = yield self.acc.read(3 * i + d)
                    p = yield self.pos.read(3 * i + d)
                    v += a * self.dt
                    p += v * self.dt
                    yield self.vel.write(3 * i + d, v)
                    yield self.pos.write(3 * i + d, p)
                yield Compute(12)
            yield self.barrier(tid)

    # ------------------------------------------------------------------
    def accelerations(self, machine) -> List[Tuple[float, float, float]]:
        return [
            (
                machine.read_word(self.acc.addr(3 * i)),
                machine.read_word(self.acc.addr(3 * i + 1)),
                machine.read_word(self.acc.addr(3 * i + 2)),
            )
            for i in range(self.n)
        ]


def direct_forces(bodies, eps2: float):
    """O(n^2) reference accelerations for the same (mass, x, y, z) list."""
    n = len(bodies)
    out = []
    for i in range(n):
        _, xi, yi, zi = bodies[i]
        ax = ay = az = 0.0
        for j in range(n):
            if i == j:
                continue
            mj, xj, yj, zj = bodies[j]
            dx, dy, dz = xj - xi, yj - yi, zj - zi
            d2 = dx * dx + dy * dy + dz * dz + eps2
            inv = mj / (d2 * math.sqrt(d2))
            ax += dx * inv
            ay += dy * inv
            az += dz * inv
        out.append((ax, ay, az))
    return out
