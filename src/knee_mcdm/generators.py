"""Analytic benchmark fronts for tests, demos and timing runs.

Shape families (all minimized, all on [0, 1]-scale except the offset family):

* ``convex2d``       f2 = 1 - sqrt(f1): bent toward the ideal point, the
                     selection lands on an interior knee sample.
* ``concave2d``      f2 = 1 - f1^2: bent away, the two extreme samples tie.
* ``line2d``         f1 + f2 = 1: every sample is equivalent.
* ``plane3d``        f1 + f2 + f3 = 0.5 simplex: every sample is equivalent.
* ``sphere3d``       unit-sphere octant, sum f^2 = 1: the three axis samples tie.
* ``disconnected2d`` five disjoint convex arcs (1 - sqrt(t) - t sin(10 pi t)
                     with dominated stretches excluded).
* ``table1``         fixed 16-point 5-objective reference front.
* ``table2like``     16 points whose first objective is five orders of
                     magnitude larger than its spread: weighted sums are
                     numerically indistinguishable, distances are not.

2-D families include their exact endpoints and label samples p0..p{M-1} in
ascending f1 order; the 3-D families lead with their exact corner/axis
samples.  Generation is deterministic per seed.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from numbers import Real
from typing import Callable, Iterator

import numpy as np

from .errors import InvalidSpec
from .front import Front

_FIXED_FAMILIES = {"table1", "table2like"}

# Nondominated parameter stretches of the five-segment discontinuous curve.
_DISCONNECTED_SEGMENTS = (
    (0.0, 0.0830015349),
    (0.1822287280, 0.2577623634),
    (0.4093136748, 0.4538821041),
    (0.6183967944, 0.6525117038),
    (0.8233317983, 0.8518328654),
)

# 16-point, 5-objective reference front (normalized archive of a 5-D
# benchmark run); mutually nondominated, winner under all three rules is x6.
TABLE1_ROWS = np.array(
    [
        [0.0074, 0.0026, 0.0152, 0.1500, 1.0080],
        [0.0084, 0.0281, 0.0476, 0.0830, 0.7508],
        [0.0397, 0.0009, 0.2390, 0.5895, 0.3838],
        [0.0786, 0.1104, 0.9212, 0.3954, 0.3643],
        [0.1045, 0.2175, 0.2645, 0.8646, 0.2316],
        [0.1075, 0.1562, 0.0634, 0.0403, 0.5492],
        [0.1081, 0.0656, 0.4108, 1.0403, 0.2550],
        [0.1494, 0.2953, 0.1129, 0.4294, 0.0080],
        [0.1845, 1.0010, 0.0744, 0.3853, 0.2971],
        [0.1915, 0.2743, 1.0152, 0.1228, 0.3714],
        [0.3801, 0.1362, 0.0425, 0.7685, 0.0800],
        [0.4236, 0.1452, 0.5504, 0.5501, 0.1205],
        [0.5124, 0.7438, 0.0866, 0.0797, 0.0101],
        [0.6835, 0.2687, 0.1543, 0.2769, 0.1571],
        [0.8185, 0.4825, 0.3371, 0.2555, 0.1091],
        [1.0074, 0.3698, 0.1104, 0.2089, 0.0911],
    ]
)
TABLE1_ROWS.flags.writeable = False


@dataclass(frozen=True)
class FrontSpec:
    """Parameters of one analytic benchmark front."""

    family: str
    samples: int = 16
    seed: int = 0
    noise: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidSpec(f"unknown family {self.family!r}; pick one of {FAMILIES}")
        _check_integers(samples=self.samples, seed=self.seed)
        if self.samples < 2:
            raise InvalidSpec(f"samples must be >= 2, got {self.samples}")
        if self.seed < 0:
            raise InvalidSpec(f"seed must be >= 0, got {self.seed}")
        noise = self.noise
        if not (isinstance(noise, Real) and math.isfinite(noise) and noise >= 0.0):
            raise InvalidSpec(f"noise must be finite and >= 0, got {noise!r}")
        if self.family in _FIXED_FAMILIES:
            if self.samples != 16:
                raise InvalidSpec(f"{self.family} is a fixed 16-point front")
            if self.noise != 0.0:
                raise InvalidSpec(f"{self.family} does not accept noise")
        if self.family in ("plane3d", "sphere3d") and self.samples < 3:
            raise InvalidSpec(f"{self.family} needs samples >= 3 (exact corner samples)")


def _check_integers(**values) -> None:
    """Raise InvalidSpec for a value ``operator.index`` rejects; a numpy
    integer passes, a float or a numeric string does not."""
    for name, value in values.items():
        try:
            operator.index(value)
        except TypeError:
            raise InvalidSpec(f"{name} must be an integer, got {value!r}") from None


def _curve_params(spec: FrontSpec) -> np.ndarray:
    """Sorted parameter grid on [0, 1] with exact endpoints."""
    rng = np.random.default_rng(spec.seed)
    interior = np.sort(rng.uniform(0.0, 1.0, spec.samples - 2))
    return np.concatenate(([0.0], interior, [1.0]))


def _gen_convex2d(spec: FrontSpec) -> np.ndarray:
    t = _curve_params(spec)
    return np.column_stack([t, 1.0 - np.sqrt(t)])


def _gen_concave2d(spec: FrontSpec) -> np.ndarray:
    t = _curve_params(spec)
    return np.column_stack([t, 1.0 - t**2])


def _gen_line2d(spec: FrontSpec) -> np.ndarray:
    t = _curve_params(spec)
    return np.column_stack([t, 1.0 - t])


def _gen_plane3d(spec: FrontSpec) -> np.ndarray:
    # exact corners pin every spread to 0.5, so all simplex samples share
    # one score sum
    corners = 0.5 * np.eye(3)
    rng = np.random.default_rng(spec.seed)
    g = rng.exponential(1.0, (spec.samples - 3, 3))
    interior = 0.5 * g / g.sum(axis=1, keepdims=True)
    return np.vstack([corners, interior])


def _gen_sphere3d(spec: FrontSpec) -> np.ndarray:
    axes = np.eye(3)
    rng = np.random.default_rng(spec.seed)
    g = np.abs(rng.standard_normal((spec.samples - 3, 3)))
    interior = g / np.linalg.norm(g, axis=1, keepdims=True)
    return np.vstack([axes, interior])


def _gen_disconnected2d(spec: FrontSpec) -> np.ndarray:
    rng = np.random.default_rng(spec.seed)
    lengths = np.array([b - a for a, b in _DISCONNECTED_SEGMENTS])
    shares = lengths / lengths.sum()
    counts = np.floor(spec.samples * shares).astype(int)
    for k in range(spec.samples - counts.sum()):
        counts[k % len(counts)] += 1
    ts = np.concatenate(
        [
            a + (b - a) * rng.uniform(0.0, 1.0, c)
            for (a, b), c in zip(_DISCONNECTED_SEGMENTS, counts)
        ]
    )
    ts.sort()
    f2 = 1.0 - np.sqrt(ts) - ts * np.sin(10.0 * np.pi * ts)
    return np.column_stack([ts, f2])


def _gen_table1(spec: FrontSpec) -> np.ndarray:
    return TABLE1_ROWS.copy()


def _gen_table2like(spec: FrontSpec) -> np.ndarray:
    # first objective: huge values, tiny spread; second: strongly bent
    # profile so distances spread over more than half of [0, 1]
    t = np.arange(16) / 15.0
    return np.column_stack([4e10 + 3.0 * t, (1.0 - t) ** 6])


_GENERATORS: dict[str, Callable[[FrontSpec], np.ndarray]] = {
    "convex2d": _gen_convex2d,
    "concave2d": _gen_concave2d,
    "line2d": _gen_line2d,
    "plane3d": _gen_plane3d,
    "sphere3d": _gen_sphere3d,
    "disconnected2d": _gen_disconnected2d,
    "table1": _gen_table1,
    "table2like": _gen_table2like,
}

FAMILIES = tuple(_GENERATORS)

#: The families whose shape (not a fixed table) is drawn per seed.
SHAPE_FAMILIES = tuple(f for f in FAMILIES if f not in _FIXED_FAMILIES)


def generate(spec: FrontSpec) -> Front:
    """Build the front described by ``spec``; identical specs give identical fronts."""
    values = _GENERATORS[spec.family](spec)
    if spec.noise > 0.0:
        rng = np.random.default_rng((spec.seed, 0xC0FFEE))
        values = values + rng.normal(0.0, spec.noise, values.shape)
    n = values.shape[1]
    if spec.family in _FIXED_FAMILIES:
        ids = tuple(f"x{k + 1}" for k in range(len(values)))
    else:
        ids = tuple(f"p{k}" for k in range(len(values)))
    return Front(
        objective_names=tuple(f"f{k + 1}" for k in range(n)),
        senses=("min",) * n,
        ids=ids,
        objectives=values,
    )


def random_nondominated_front(samples: int, dims: int, seed: int) -> Front:
    """Mutually nondominated point cloud: the positive octant of the unit
    sphere in ``dims`` dimensions.  Useful for cross-method checks and timing
    at arbitrary dimension."""
    _check_integers(samples=samples, dims=dims, seed=seed)
    if samples < 1 or dims < 2:
        raise InvalidSpec(f"need samples >= 1 and dims >= 2, got {samples}, {dims}")
    if seed < 0:
        raise InvalidSpec(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    g = np.abs(rng.standard_normal((samples, dims))) + 1e-12
    values = g / np.linalg.norm(g, axis=1, keepdims=True)
    return Front(
        objective_names=tuple(f"f{k + 1}" for k in range(dims)),
        senses=("min",) * dims,
        ids=tuple(f"p{k}" for k in range(samples)),
        objectives=values,
    )


def agreement_corpus(count: int) -> Iterator[tuple[str, Front]]:
    """Yield ``count`` labelled fronts for checking that the selection rules
    agree.  Front ``k`` is seeded with ``k``: every third one is a shape
    family (cycling through ``SHAPE_FAMILIES``, 8..47 samples), the others are
    sphere-octant clouds with 2..64 rows and 2..6 objectives."""
    for k in range(count):
        if k % 3 == 0:
            family = SHAPE_FAMILIES[(k // 3) % len(SHAPE_FAMILIES)]
            spec = FrontSpec(family=family, samples=8 + k % 40, seed=k)
            yield f"{family}[{k}]", generate(spec)
        else:
            m, n = 2 + k % 63, 2 + k % 5
            yield f"sphere(M={m},N={n})[{k}]", random_nondominated_front(m, n, seed=k)
