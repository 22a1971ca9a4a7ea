"""Coverage probability analytics for the downward-looking cone.

Cross-checks two routes to the node-coverage distribution: the analytic
binomial model with p = V_cone / V_cube, and seeded Monte-Carlo frequency
over random node placements. The cone volume itself is clipped to the
deployment cube by rejection sampling, since the closed form overestimates
p whenever the cone pokes out of the box.
"""

import math
from dataclasses import dataclass
from typing import Annotated, NamedTuple

import numpy as np

from .checks import NON_NEGATIVE, Bound, check_field_types
from .env3d import cone_reach2


@dataclass(frozen=True)
class ConeGeometry:
    """Right circular cone with a downward axis (+z grows with depth)."""

    apex: tuple[float, float, float]
    apex_angle_deg: Annotated[float, Bound(0, 180, True, True)]
    height_m: Annotated[float, NON_NEGATIVE]

    def __post_init__(self):
        check_field_types(self)

    @property
    def base_radius_m(self) -> float:
        """Radius of the base disc, from the apex angle and the height."""
        return self.height_m * math.tan(math.radians(self.apex_angle_deg / 2.0))


class VolumeEstimate(NamedTuple):
    volume_m3: float
    stderr_m3: float


class SweepRow(NamedTuple):
    start_x: float
    start_y: float
    n: int
    k: int
    p_analytic: float
    p_empirical: float
    stderr: float


def cone_volume(geom: ConeGeometry) -> float:
    """Unclipped cone volume pi * r^2 * h / 3 in cubic metres."""
    return math.pi * geom.base_radius_m**2 * geom.height_m / 3.0


def points_in_cone(geom: ConeGeometry, points: np.ndarray, scale) -> np.ndarray:
    """Boolean mask of points (N, 3) in the cone by ``cone_reach2``, down to its base.

    Each column is multiplied by its ``scale`` entry before the test, so
    unit draws can be tested as points of a box: the offset from the apex
    is ``fl(fl(u * c) - a)``, the same bits as scaling the points first.
    """
    pts = np.asarray(points, dtype=float)
    # One column at a time: broadcasting (N, 3) - (3,) runs numpy's inner
    # loop three elements long and cost more than the rest of the test
    # together. The squares, the reach and the masks reuse the temporaries
    # made here. A zero apex coordinate (every sweep cone has z = 0) is not
    # subtracted: ``v - 0.0`` is ``v``, and ``v - -0.0`` differs only by
    # turning a -0.0 offset into +0.0, which squares and compares the same.
    dx, dy, dz = (np.multiply(pts[:, i], float(s)) for i, s in enumerate(scale))
    for d, a in zip((dx, dy, dz), geom.apex):
        if a:
            d -= float(a)
    horiz2 = np.square(dx, out=dx)
    horiz2 += np.square(dy, out=dy)
    inside = dz <= geom.height_m
    inside &= horiz2 <= cone_reach2(dz, geom.apex_angle_deg, out=dy)
    return inside


# Points per sampled block. A block holds whole rows (one trial's
# placements), so a row longer than this is a block of its own. At the
# coverage-sweep bench scale, with the cone test making only the passes its
# mask needs, 2^14 ran 3-7% faster in process than 2^15 and 2^13 2-12%
# slower than 2^14 (fastest of 15 and of 30 alternating runs, on a 2-vCPU
# Xeon VM with 2 MB of L2 cache per core). A smaller block pays the cone
# test's fixed cost, 10-19 us a call, more often.
_BLOCK_POINTS = 1 << 14


def _uniform_blocks(rng: np.random.Generator, rows: int, per_row: int):
    """Yield ``rng``'s unit draws as (rows_in_block, per_row, 3) blocks.

    The blocks hold whole rows and, concatenated, equal
    ``rng.random((rows, per_row, 3))`` byte for byte. Scaling them by
    ``cube`` gives ``rng.uniform(0.0, cube, size=(rows, per_row, 3))``
    byte for byte: ``uniform`` computes ``0.0 + (cube - 0.0) * random()``
    element by element in C order, which is exactly ``random() * cube``.
    ``points_in_cone``'s ``scale`` applies it inside the test.
    """
    step = max(1, _BLOCK_POINTS // max(per_row, 1))  # rows per block
    for start in range(0, rows, step):
        yield rng.random((min(step, rows - start), per_row, 3))


def clipped_cone_volume_mc(
    geom: ConeGeometry,
    cube: tuple[float, float, float],
    samples: int,
    seed: int,
) -> VolumeEstimate:
    """Volume of cone-intersect-cube by uniform sampling of the cube.

    Unbiased; the standard error follows the binomial hit fraction and
    shrinks as 1/sqrt(samples). Samples are drawn and tested in blocks, so
    memory is O(block) whatever ``samples`` is.
    """
    if samples < 1000:
        raise ValueError(f"samples must be >= 1000, got {samples}")
    l, w, h = cube
    rng = np.random.default_rng(seed)
    hits = 0
    for block in _uniform_blocks(rng, samples, 1):
        inside = points_in_cone(geom, block.reshape(-1, 3), cube)
        hits += int(np.count_nonzero(inside))
    p_hat = hits / samples
    cube_volume = l * w * h
    stderr = cube_volume * math.sqrt(p_hat * (1.0 - p_hat) / samples)
    return VolumeEstimate(cube_volume * p_hat, stderr)


def coverage_pmf(n: int, p: float, k: int) -> float:
    """Binomial probability of covering exactly k of n nodes."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be in [0, 1], got {p}")
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, n], got k={k}, n={n}")
    return math.comb(n, k) * p**k * (1.0 - p) ** (n - k)


def coverage_tail(n: int, p: float, k: int) -> float:
    """Probability of covering k or more of n nodes."""
    if not 0 <= k <= n:
        raise ValueError(f"k must be in [0, n], got k={k}, n={n}")
    return float(sum(coverage_pmf(n, p, i) for i in range(k, n + 1)))


def coverage_sweep(
    dims: tuple[float, float, float],
    apex_angle_deg: float,
    n_values: list[int],
    start_grid: list[tuple[float, float]],
    trials: int,
    k_values: tuple[int, ...],
    volume_samples: int,
    seed: int,
) -> list[SweepRow]:
    """Analytic vs empirical P(cover >= k) per start position and node count.

    The cone, of apex angle ``apex_angle_deg``, hangs from each start at
    the surface (z = 0) down to the bottom of the box ``dims``; node
    placements are drawn uniformly over the continuous cube, matching the
    binomial model's assumptions. Placements are drawn and tested in blocks
    of whole trials, so memory is O(block) whatever ``trials``,
    ``n_values`` and ``volume_samples`` are.
    """
    if trials < 100:
        raise ValueError(f"trials must be >= 100, got {trials}")
    for n in n_values:
        if n < 0:
            raise ValueError(f"n_values entries must be >= 0, got {n}")
    for k in k_values:
        if k < 0:
            raise ValueError(f"k_values entries must be >= 0, got {k}")
    l, w, h = (float(d) for d in dims)
    cube_volume = l * w * h
    rows = []
    for si, (sx, sy) in enumerate(start_grid):
        geom = ConeGeometry(apex=(float(sx), float(sy), 0.0),
                            apex_angle_deg=apex_angle_deg, height_m=h)
        vol, _ = clipped_cone_volume_mc(
            geom, (l, w, h), volume_samples, seed=seed * 7919 + si
        )
        p = min(1.0, vol / cube_volume)
        for ni, n in enumerate(n_values):
            rng = np.random.default_rng([seed, si, ni])
            hist = np.zeros(n + 1, dtype=np.int64)  # trials covering exactly j nodes
            for block in _uniform_blocks(rng, trials, n):
                inside = points_in_cone(geom, block.reshape(-1, 3), (l, w, h))
                # Trial of each hit; a row sum would run n-long inner loops.
                counts = np.bincount(np.flatnonzero(inside) // max(n, 1),
                                     minlength=len(block))
                hist += np.bincount(counts, minlength=n + 1)
            at_least = np.cumsum(hist[::-1])[::-1].tolist()  # trials covering >= j
            for k in k_values:
                covered = at_least[k] if k <= n else 0
                p_emp = covered / trials
                if k > n:
                    # Covering more nodes than exist is impossible; this
                    # also handles the empty-deployment edge.
                    p_ana = 0.0
                elif n == 0:
                    p_ana = 1.0  # k == 0: covering none of nobody is certain
                else:
                    p_ana = coverage_tail(n, p, k)
                stderr = math.sqrt(p_emp * (1.0 - p_emp) / trials)
                rows.append(
                    SweepRow(
                        start_x=float(sx),
                        start_y=float(sy),
                        n=int(n),
                        k=int(k),
                        p_analytic=p_ana,
                        p_empirical=p_emp,
                        stderr=stderr,
                    )
                )
    return rows
