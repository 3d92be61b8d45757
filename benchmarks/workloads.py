"""Seeded inputs for the three benchmark workloads.

Everything here is numpy and the standard library only: the package under
test never sees how its inputs were made, so a change to the package cannot
change them.  Each workload is a fixed list of operation *cells* (method,
family, size, ...).  Every shape, rotation and similarity transform comes
from a fixed corpus, because operation costs depend on them; the seed picks
the order of the operations, so every seed runs the same mix of work.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

WORKLOADS = ("compute-large", "certify-mid", "small-batch")

METHODS = ("a1", "a2", "a3", "a4", "interior-arc", "interior-tree")

# Inputs keep every turn at least this far (relative to span**2) above the
# package's own strict-convexity threshold of 1e-12 * span**2, so an input
# rejected by validation is the package's defect, not a borderline input.
CONVEX_MARGIN_REL = 1e-11

# seed of the fixed corpus: random hulls, and small-batch's polygons and twins
CORPUS_SEED = 2010

# Mutated barriers keep this share of the half perimeter, so by the
# half-perimeter bound they cannot be opaque.
MUTANT_SHARE = 0.8

SQRT3 = math.sqrt(3.0)
# the hard a3 instance of the paper (apex up, flat bottom, wide wings)
PENTAGON_FIG6 = ((0.0, 0.3806), (-1.4507, 0.2072), (-1.0, 0.0), (1.0, 0.0), (1.4507, 0.2072))


@dataclass(frozen=True)
class Op:
    """One closed-loop operation: validate ``points``, compute ``method``,
    and, when ``verify`` is set, check opaqueness of the computed barrier
    (or of its truncated prefix when ``mutated``)."""

    label: str                      # family and size, e.g. "ngon-4096"
    method: str
    points: tuple[tuple[float, float], ...]
    verify: bool = False
    mutated: bool = False
    twin_of: int | None = None      # index of the canonical op this twin copies
    scale: float = 1.0              # twin's similarity scale factor
    diameter: float = 0.0           # of the input points, for verify ops only
    perimeter: float = 0.0

    @property
    def canonical(self) -> bool:
        return self.twin_of is None


def _op(label, method, pts, verify=False, **kw) -> Op:
    arr = np.asarray(pts, dtype=float)
    d = np.roll(arr, -1, axis=0) - arr
    perimeter = float(np.hypot(d[:, 0], d[:, 1]).sum())
    return Op(label, method, tuple(map(tuple, arr.tolist())), verify=verify,
              diameter=_diameter(arr) if verify else 0.0, perimeter=perimeter, **kw)


def _diameter(arr: np.ndarray) -> float:
    dd = arr[:, None, :] - arr[None, :, :]
    return float(np.sqrt((dd ** 2).sum(axis=2)).max())


# ---------------------------------------------------------------------------
# polygon families


def _rotate(arr: np.ndarray, phi: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    return arr @ np.array([[c, s], [-s, c]])


def ngon(n: int, phase: float = 0.0) -> np.ndarray:
    t = phase + 2.0 * math.pi * np.arange(n) / n
    return np.column_stack([np.cos(t), np.sin(t)])


def reuleaux(m: int, phase: float = 0.0) -> np.ndarray:
    """Polygonal Reuleaux triangle of width 1, m chord points per arc."""
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2.0]])
    b, c, a = corners
    pts = []
    for center, start, end in ((a, b, c), (b, c, a), (c, a, b)):
        a0 = math.atan2(*(start - center)[::-1])
        a1 = math.atan2(*(end - center)[::-1])
        while a1 <= a0:
            a1 += 2.0 * math.pi
        ts = np.linspace(a0, a1, m, endpoint=False)
        pts.append(center + np.column_stack([np.cos(ts), np.sin(ts)]))
    return _rotate(np.concatenate(pts), phase)


def random_hull(rng: np.random.Generator, n: int, min_gap: float = 1e-3) -> np.ndarray:
    """Points at sorted random angles on a random ellipse, dropping angles
    closer than ``min_gap`` to the previous kept one (so large n saturates
    near 4.5k vertices), redrawn until every turn clears the margin."""
    for _ in range(100):
        ang = np.sort(rng.uniform(0.0, 2.0 * math.pi, n))
        keep = [0]
        for i in range(1, n):
            if ang[i] - ang[keep[-1]] > min_gap:
                keep.append(i)
        if 2.0 * math.pi - (ang[keep[-1]] - ang[keep[0]]) <= min_gap:
            keep.pop()
        aspect = rng.uniform(0.25, 0.6)
        rot = rng.uniform(0.0, math.pi)
        scale = rng.uniform(0.5, 2.0)
        if len(keep) < 3:
            continue
        a = ang[keep]
        pts = _rotate(np.column_stack([np.cos(a), aspect * np.sin(a)]), rot) * scale
        if _min_turn(pts) >= CONVEX_MARGIN_REL:
            return pts
    raise RuntimeError(f"no random hull with {n} points clears the convexity margin")


def _min_turn(arr: np.ndarray) -> float:
    """Smallest cross product of consecutive edges, relative to span**2."""
    d = np.roll(arr, -1, axis=0) - arr
    nd = np.roll(d, -1, axis=0)
    cross = d[:, 0] * nd[:, 1] - d[:, 1] * nd[:, 0]
    span2 = float(((arr.max(axis=0) - arr.min(axis=0)) ** 2).sum())
    return float(cross.min()) / span2


def _exact_turns(arr: np.ndarray) -> list[Fraction]:
    """Cross products of consecutive edges of the float input, exactly."""
    q = [(Fraction(float(x)), Fraction(float(y))) for x, y in arr]
    n = len(q)
    out = []
    for i in range(n):
        (x0, y0), (x1, y1), (x2, y2) = q[i], q[(i + 1) % n], q[(i + 2) % n]
        out.append((x1 - x0) * (y2 - y1) - (y1 - y0) * (x2 - x1))
    return out


# ---------------------------------------------------------------------------
# workloads


FAMILIES = ("ngon", "random-hull", "reuleaux")


def _shape(family: str, n: int, corpus: np.random.Generator):
    """(label, points) of about n vertices, drawn from the fixed corpus.  With
    seed-drawn rotations, operations on regular n-gons varied by up to 1.6x
    between seeds, against 1.3x for the corpus's random hulls."""
    if family == "ngon":
        pts = ngon(n, corpus.uniform(0.0, 2.0 * math.pi / n))
    elif family == "random-hull":
        pts = random_hull(corpus, n)
    else:
        pts = reuleaux(round(n / 3), corpus.uniform(0.0, 2.0 * math.pi))
    return f"{family}-{len(pts)}", pts


def compute_large(rng: np.random.Generator, corpus: np.random.Generator) -> list[Op]:
    """a1-a4 on polygons of 512-2896 vertices, interior barriers at 512-1024,
    and a2 on odd regular n-gons (every edge touches the incircle).  No
    verification.

    Each (size, method) cell gets one family, rotating over the three.  A
    pass stays near 3.5 s, so a 30 s run repeats every operation about eight
    times, and its median latency rests on that many samples.
    """
    cells = [(FAMILIES[(i + j) % 3], n, m)
             for i, n in enumerate((512, 724, 1024, 1448, 2048, 2896))
             for j, m in enumerate(("a1", "a2", "a3", "a4"))]
    cells += [("random-hull", 512, "interior-arc"), ("reuleaux", 1024, "interior-arc"),
              ("ngon", 512, "interior-tree"), ("random-hull", 1024, "interior-tree")]
    cells += [("ngon", n, "a2") for n in (161, 201)]
    ops = []
    for fam, n, method in cells:
        label, pts = _shape(fam, n, corpus)
        ops.append(_op(label, method, pts))
    rng.shuffle(ops)
    return ops


def certify_mid(rng: np.random.Generator, corpus: np.random.Generator) -> list[Op]:
    """Compute then verify on polygons of 32-200 vertices; about half of the
    operations verify a truncated (hence non-opaque) barrier.

    a1, a3, a4 and interior-arc each get their own size, spread evenly over
    40-200 (opaque) or 40-64 (mutated), so the latency distribution has no
    gap for a percentile to jump across.  The reject path costs about
    directions x polylines, so an interior-tree mutant at n=200 would take
    ~25 s alone: tree mutants stay at 32-40 vertices, and the others at 64
    to keep a pass near 4 s.
    """
    families = ("random-hull", "reuleaux")
    cells = []
    for mutated, top in ((False, 200), (True, 64)):
        for j in range(24):
            method = ("a1", "a3", "a4", "interior-arc")[j % 4]
            cells.append((families[j // 4 % 2], method, round(40 + j * (top - 40) / 23), mutated))
    cells += [(fam, "interior-tree", n, False) for fam in families for n in (40, 80, 120)]
    cells += [(fam, "interior-tree", n, True) for fam in families for n in (32, 40)]
    ops = []
    for fam, method, n, mutated in cells:
        label, pts = _shape(fam, n, corpus)
        ops.append(_op(label, method, pts, verify=True, mutated=mutated))
    rng.shuffle(ops)
    return ops


def _small_shapes(corpus: np.random.Generator) -> list[tuple[str, np.ndarray]]:
    shapes = [(f"random-hull-{n}", random_hull(corpus, n, min_gap=0.05)) for n in range(3, 25)]
    shapes += [
        ("square", np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])),
        ("equilateral", np.array([[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2.0]])),
        ("pentagon-fig6", np.array(PENTAGON_FIG6)),
        ("regular-pentagon", ngon(5)),
    ]
    for _ in range(2):
        b = 10.0 ** corpus.uniform(-3.0, -1.0)
        shapes.append(("thin-rectangle", np.array([[0.0, 0.0], [1.0, 0.0], [1.0, b], [0.0, b]])))
    return shapes


def _twin(rng: np.random.Generator, arr: np.ndarray, log_scale: float, log_shift: float):
    """Similarity copy: cyclic shift, rotation, scale, then a translation of
    10**log_shift twin diameters.  The translation shrinks by decades until
    the rounded copy keeps, exactly, at least half of every turn, so
    rounding cannot be what breaks strict convexity."""
    n = len(arr)
    s = 10.0 ** log_scale
    base = _rotate(np.roll(arr, -int(rng.integers(n)), axis=0), rng.uniform(0.0, 2.0 * math.pi)) * s
    psi = rng.uniform(0.0, 2.0 * math.pi)
    need = min(_exact_turns(arr)) * Fraction(s) ** 2 / 2
    diam = _diameter(base)
    while True:
        shift = 10.0 ** log_shift * diam * np.array([math.cos(psi), math.sin(psi)])
        twin = base + shift
        if min(_exact_turns(twin)) >= need:
            return twin, s
        log_shift -= 1.0


def small_batch(rng: np.random.Generator, corpus: np.random.Generator) -> list[Op]:
    """All six methods on 3-24 vertex polygons, validate + compute + verify;
    every canonical operation is followed by a similarity twin.  The regular
    pentagon also gets one twin per start vertex (a pure cyclic shift), where
    interior-tree's length is known to depend on the start vertex.

    The canonical polygons and their twins' transforms are a fixed corpus;
    the seed draws the order.  interior-tree's cost is heavy-tailed over
    shapes and transforms (about 3% of small random hulls take 10-60x the
    median, and one 4-vertex twin took 4 s against its canonical copy's
    23 ms), so with seed-drawn shapes or transforms throughput and peak
    memory would measure which cases a seed happened to draw.  The corpus
    keeps the cases it has in every run.
    """
    pairs = [(label, arr, m) for label, arr in _small_shapes(corpus) for m in METHODS]
    k = len(pairs)
    log_scales = -6.0 + 12.0 * (corpus.permutation(k) + corpus.uniform(size=k)) / k
    log_shifts = 9.0 * (corpus.permutation(k) + corpus.uniform(size=k)) / k
    twins = [_twin(corpus, arr, log_scales[i], log_shifts[i]) for i, (_, arr, _) in enumerate(pairs)]
    ops: list[Op] = []
    for i in rng.permutation(k):
        label, arr, method = pairs[i]
        twin, s = twins[i]
        ops.append(_op(label, method, arr, verify=True))
        canon = len(ops) - 1
        ops.append(_op(label + "-twin", method, twin, verify=True, twin_of=canon, scale=s))
        if label == "regular-pentagon":
            ops += [_op(f"{label}-start{j}", method, np.roll(arr, -j, axis=0), verify=True,
                        twin_of=canon) for j in range(1, len(arr))]
    return ops


GENERATORS = {"compute-large": compute_large, "certify-mid": certify_mid, "small-batch": small_batch}


def build(workload: str, seed: int) -> list[Op]:
    index = WORKLOADS.index(workload)
    return GENERATORS[workload](np.random.default_rng([seed, index]),
                                np.random.default_rng([CORPUS_SEED, index]))


def digest(ops: list[Op]) -> str:
    """sha256 of every generated input, in schedule order."""
    h = hashlib.sha256()
    for op in ops:
        h.update(f"{op.label}|{op.method}|{op.verify}|{op.mutated}|{op.twin_of}|{op.scale!r}|".encode())
        h.update(np.asarray(op.points, dtype=float).tobytes())
    return h.hexdigest()
