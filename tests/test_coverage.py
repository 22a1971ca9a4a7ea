"""Coverage-probability analytics tests."""

import csv
import math
import tracemalloc

import numpy as np
import pytest

from aquaswipt.campaign import desk_campaign_config, run_coverage, write_csv
from aquaswipt.coverage import (
    _BLOCK_POINTS,
    ConeGeometry,
    SweepRow,
    clipped_cone_volume_mc,
    cone_volume,
    coverage_pmf,
    coverage_sweep,
    coverage_tail,
    points_in_cone,
    _uniform_blocks,
)
from aquaswipt.auv import AuvSpec
from aquaswipt.channel import ModemSpec
from aquaswipt.env3d import EnvConfig, deploy
from reference_loop import covered


def test_cone_volume_hand_value():
    geom = ConeGeometry(apex=(0, 0, 0), apex_angle_deg=143.13010235415598, height_m=1.0)
    # tan(71.565...) = 3, so r = 3 and V = 3*pi
    assert geom.base_radius_m == pytest.approx(3.0, rel=1e-9)
    assert cone_volume(geom) == pytest.approx(9.42477796076938, rel=1e-9)


def test_cone_volume_degenerate_height():
    geom = ConeGeometry(apex=(0, 0, 0), apex_angle_deg=60.0, height_m=0.0)
    assert cone_volume(geom) == 0.0


def test_cone_volume_quadratic_in_radius():
    # tan(45) = 2 * tan(26.565...), so these cones have r and 2r at equal h.
    narrow = ConeGeometry(apex=(0, 0, 0), apex_angle_deg=53.13010235415598, height_m=5.0)
    wide = ConeGeometry(apex=(0, 0, 0), apex_angle_deg=90.0, height_m=5.0)
    assert wide.base_radius_m == pytest.approx(2.0 * narrow.base_radius_m, rel=1e-9)
    assert cone_volume(wide) == pytest.approx(4.0 * cone_volume(narrow), rel=1e-9)


def reference_points_in_cone(geom, points, scale):
    """The cone test written out in full: all three apex coordinates
    subtracted, the reach in its own temporary, both depth masks applied."""
    pts = np.asarray(points, dtype=float)
    dx, dy, dz = (np.multiply(pts[:, i], float(s)) - float(a)
                  for i, (s, a) in enumerate(zip(scale, geom.apex)))
    horiz2 = dx * dx + dy * dy
    reach = dz * math.tan(math.radians(geom.apex_angle_deg / 2.0))
    return (dz >= 0) & (dz <= geom.height_m) & (horiz2 <= reach * reach)


def test_points_in_cone_membership():
    geom = ConeGeometry(apex=(5.0, 5.0, 0.0), apex_angle_deg=60.0, height_m=10.0)
    pts = np.array([
        [5.0, 5.0, 4.0],    # on axis
        [5.0, 5.0, -1.0],   # above apex
        [5.0, 5.0, 11.0],   # below base
        [5.0 + 10.0 * math.tan(math.radians(30.0)) - 1e-9, 5.0, 10.0],  # inside rim
        [9.0, 5.0, 2.0],    # outside the slant at shallow depth
    ])
    before = pts.copy()
    inside = points_in_cone(geom, pts, (1.0, 1.0, 1.0))
    assert list(inside) == [True, False, False, True, False]
    assert np.array_equal(pts, before)  # the test works in its own temporaries


def test_clipped_volume_matches_analytic_when_inside():
    geom = ConeGeometry(apex=(50.0, 50.0, 0.0), apex_angle_deg=60.0, height_m=50.0)
    est, err = clipped_cone_volume_mc(geom, (100.0, 100.0, 50.0), 200_000, seed=4)
    assert abs(est - cone_volume(geom)) <= 3.0 * err


def test_clipped_volume_empty_when_disjoint():
    geom = ConeGeometry(apex=(500.0, 500.0, 0.0), apex_angle_deg=60.0, height_m=10.0)
    est, err = clipped_cone_volume_mc(geom, (100.0, 100.0, 50.0), 10_000, seed=4)
    assert est == 0.0
    assert err == 0.0


def test_clipped_volume_never_exceeds_cube():
    geom = ConeGeometry(apex=(50.0, 50.0, 0.0), apex_angle_deg=179.0, height_m=50.0)
    est, _ = clipped_cone_volume_mc(geom, (100.0, 100.0, 50.0), 50_000, seed=4)
    assert est <= 100.0 * 100.0 * 50.0


def test_clipped_volume_rejects_small_samples():
    geom = ConeGeometry(apex=(0, 0, 0), apex_angle_deg=60.0, height_m=10.0)
    with pytest.raises(ValueError):
        clipped_cone_volume_mc(geom, (10, 10, 10), 999, seed=1)


def test_clipped_volume_error_scales_inverse_sqrt():
    geom = ConeGeometry(apex=(50.0, 50.0, 0.0), apex_angle_deg=60.0, height_m=50.0)
    cube = (100.0, 100.0, 50.0)
    small = [clipped_cone_volume_mc(geom, cube, 4_000, seed=s).volume_m3 for s in range(30)]
    large = [clipped_cone_volume_mc(geom, cube, 16_000, seed=1000 + s).volume_m3 for s in range(30)]
    ratio = np.std(large) / np.std(small)
    # Quadrupling samples should halve the spread, within statistical slop.
    assert 0.3 < ratio < 0.75


def test_coverage_pmf_certainty_cases():
    assert coverage_pmf(5, 0.0, 0) == 1.0
    assert coverage_pmf(5, 0.0, 3) == 0.0
    assert coverage_pmf(2, 0.5, 1) == pytest.approx(0.5)


def test_coverage_pmf_normalizes():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(1, 60))
        p = float(rng.uniform(0, 1))
        assert sum(coverage_pmf(n, p, k) for k in range(n + 1)) == pytest.approx(1.0)


def test_coverage_pmf_rejects_bad_k():
    with pytest.raises(ValueError):
        coverage_pmf(5, 0.5, 6)
    with pytest.raises(ValueError):
        coverage_pmf(5, 0.5, -1)


def test_coverage_tail_total_probability():
    assert coverage_tail(7, 0.3, 0) == pytest.approx(1.0)


def test_coverage_tail_pmf_consistency():
    rng = np.random.default_rng(15)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        p = float(rng.uniform(0, 1))
        k = int(rng.integers(0, n))
        assert coverage_tail(n, p, k) - coverage_tail(n, p, k + 1) == pytest.approx(
            coverage_pmf(n, p, k), abs=1e-12
        )


def test_coverage_tail_monotonicity():
    for k in range(0, 10):
        assert coverage_tail(10, 0.3, k) >= coverage_tail(10, 0.3, k + 0) - 1e-15
    assert all(
        coverage_tail(10, 0.3, k) >= coverage_tail(10, 0.3, k + 1)
        for k in range(10)
    )
    assert all(
        coverage_tail(n, 0.3, 2) <= coverage_tail(n + 1, 0.3, 2)
        for n in range(2, 30)
    )
    assert all(
        coverage_tail(12, p, 3) <= coverage_tail(12, p + 0.05, 3)
        for p in np.linspace(0.05, 0.9, 15)
    )


def test_paper_scale_tail_claims():
    # 100x100x50 box, default 60-degree cone hanging from the centre.
    geom = ConeGeometry(apex=(50.0, 50.0, 0.0), apex_angle_deg=60.0, height_m=50.0)
    p = cone_volume(geom) / (100.0 * 100.0 * 50.0)
    assert coverage_tail(10, p, 1) > 0.5
    assert coverage_tail(50, p, 4) > 0.5


def test_coverage_sweep_analytic_vs_empirical():
    rows = coverage_sweep(
        (100, 100, 50),
        60.0,
        n_values=[10, 50],
        start_grid=[(50.0, 50.0), (0.0, 0.0)],
        trials=2000,
        k_values=(1, 4),
        volume_samples=100_000,
        seed=5,
    )
    assert len(rows) == 8
    for row in rows:
        stderr = max(row.stderr, 1e-3)
        assert abs(row.p_analytic - row.p_empirical) <= 4.0 * stderr, row


def test_coverage_sweep_centre_beats_corner():
    rows = coverage_sweep((100, 100, 50), 60.0, n_values=[10],
                          start_grid=[(50.0, 50.0), (0.0, 0.0)], trials=500, k_values=(1,),
                          volume_samples=50_000, seed=2)
    centre = next(r for r in rows if r.start_x == 50.0)
    corner = next(r for r in rows if r.start_x == 0.0)
    assert centre.p_analytic > corner.p_analytic
    assert centre.p_empirical > corner.p_empirical


def test_coverage_sweep_requires_trials():
    with pytest.raises(ValueError):
        coverage_sweep((10, 10, 5), 60.0, [5], [(0.0, 0.0)], trials=10, k_values=(1, 2, 4),
                       volume_samples=200_000, seed=0)


def test_coverage_sweep_empty_deployment_edge():
    rows = coverage_sweep((10, 10, 5), 60.0, n_values=[0], start_grid=[(5.0, 5.0)],
                          trials=100, k_values=(0, 1, 2), volume_samples=1000,
                          seed=1)
    by_k = {r.k: r for r in rows}
    assert by_k[0].p_analytic == 1.0 and by_k[0].p_empirical == 1.0
    for k in (1, 2):
        assert by_k[k].p_analytic == 0.0
        assert by_k[k].p_empirical == 0.0


def test_sweep_csv_columns(tmp_path):
    rows = [SweepRow(0.0, 0.0, 10, 1, 0.5, 0.49, 0.01)]
    path = tmp_path / "sweep.csv"
    write_csv(path, SweepRow._fields, rows)
    with open(path) as fh:
        reader = csv.reader(fh)
        header = next(reader)
        data = next(reader)
    assert header == ["start_x", "start_y", "n", "k", "p_analytic", "p_empirical", "stderr"]
    assert float(data[4]) == 0.5


@pytest.mark.parametrize(
    "rows, per_row",
    [
        (3 * (_BLOCK_POINTS // 50) + 7, 50),  # rows not a multiple of a block's
        (3, _BLOCK_POINTS + 1),  # a row longer than a block: one row per block
        (2 * _BLOCK_POINTS + 5, 1),  # the volume estimate's shape
        (100, 0),  # coverage_sweep takes n = 0
        # The same three shapes at fixed sizes, which hold for any block of
        # at most 2^15 points: 1972 rows of 50 do not fill whole blocks,
        # a row of 32769 exceeds a block, and 65541 = 2 * 2^15 + 5.
        (1972, 50),
        (3, 32769),
        (65541, 1),
    ],
)
def test_uniform_blocks_equal_one_uniform_draw(rows, per_row):
    """Blocking must not move a single sampled byte or the draws after it,
    and the unit draws scaled by the cube must be ``uniform``'s points."""
    cube = (100.0, 37.3, 50.0)
    rng = np.random.default_rng(11)
    blocks = list(_uniform_blocks(rng, rows, per_row))
    got = np.concatenate(blocks)
    unit_rng = np.random.default_rng(11)
    unit = unit_rng.random((rows, per_row, 3))
    assert got.shape == unit.shape
    assert got.tobytes() == unit.tobytes()
    expected_rng = np.random.default_rng(11)
    expected = expected_rng.uniform(0.0, cube, size=(rows, per_row, 3))
    scaled = got.copy()
    for axis, c in enumerate(cube):
        scaled[..., axis] *= c
    assert scaled.tobytes() == expected.tobytes()
    assert rng.random() == expected_rng.random() == unit_rng.random()
    if per_row:
        assert len(blocks) > 1
        assert all(len(b) * per_row <= max(_BLOCK_POINTS, per_row) for b in blocks)


@pytest.mark.parametrize(
    "geom",
    [
        # Apex at the surface, cone as deep as the box: the shape the sweep uses.
        ConeGeometry(apex=(40.0, 12.5, 0.0), apex_angle_deg=60.0, height_m=50.0),
        # Apex below the surface: the apex-depth mask rejects the points above.
        ConeGeometry(apex=(70.0, 30.0, 17.25), apex_angle_deg=120.0, height_m=50.0),
        # Shorter than the box: the base-depth mask rejects the points below.
        ConeGeometry(apex=(0.0, 37.3, 0.0), apex_angle_deg=90.0, height_m=21.7),
        # Apex outside the box, above the surface and beyond its x = 0 face.
        ConeGeometry(apex=(-10.0, 18.0, -5.0), apex_angle_deg=120.0, height_m=40.0),
        # Signed zeros in the apex, at a corner and along an edge of the box.
        ConeGeometry(apex=(-0.0, -0.0, -0.0), apex_angle_deg=60.0, height_m=50.0),
        ConeGeometry(apex=(-0.0, 20.0, 0.0), apex_angle_deg=90.0, height_m=30.0),
        ConeGeometry(apex=(100.0, 0.0, -0.0), apex_angle_deg=120.0, height_m=50.0),
    ],
)
def test_points_in_cone_scale_equals_scaling_first(geom):
    """Testing unit draws with ``scale`` must give the same mask, bit for bit,
    as scaling the points first and testing them with the default scale."""
    cube = (100.0, 37.3, 50.0)
    scale = np.array(cube)
    unit = np.random.default_rng(5).random((20_000, 3))
    # Points on the surface, at the apex, on the base plane and above the
    # apex, written in unit coordinates so the product lands on them or
    # within a rounding of them.
    ax, ay, az = geom.apex
    slope = math.tan(math.radians(geom.apex_angle_deg / 2.0))
    edge = []
    for depth in (0.0, 0.5 * geom.height_m, geom.height_m, -1.0, geom.height_m + 1.0):
        z = az + depth
        r = max(depth, 0.0) * slope
        for angle in np.linspace(0.0, 2.0 * math.pi, 16, endpoint=False):
            edge.append((ax + r * math.cos(angle), ay + r * math.sin(angle), z))
    edge.append((ax, ay, az))  # the apex
    edge.append((-ax, -ay, -az))  # its zero coordinates with the other sign
    edge = np.array(edge) / scale
    for points in (unit, edge):
        fused = points_in_cone(geom, points, cube)
        first = points_in_cone(geom, points * scale, (1.0, 1.0, 1.0))
        assert fused.tobytes() == first.tobytes()
        assert fused.tobytes() == reference_points_in_cone(geom, points, cube).tobytes()
    # The random points reach every mask: some are inside, and where a depth
    # mask can cut, some points within the slant's (double) cone are cut by it.
    d = unit * scale - np.array(geom.apex)
    slant = d[:, 0] ** 2 + d[:, 1] ** 2 <= (d[:, 2] * slope) ** 2
    assert 0 < points_in_cone(geom, unit, cube).sum() < len(unit)
    if az > 0:
        assert (slant & (d[:, 2] < 0)).any()
    if az + geom.height_m < cube[2]:
        assert (slant & (d[:, 2] > geom.height_m)).any()


# With the uplink SNR floor this low, every node in the cone has a usable
# uplink, so the cone alone decides which nodes the simulator covers.
NO_SNR_FLOOR = ModemSpec(min_snr_db=-1e9)


def simulator_and_figure_cover(env, pos):
    """The nodes ``Environment._links`` covers from grid position ``pos``, and
    the nodes ``points_in_cone`` finds in the cone hanging from ``pos`` to the
    bottom of the box, as ascending index lists."""
    env.auv_pos = pos
    x, y, z = pos
    geom = ConeGeometry((float(x), float(y), float(z)), env.config.auv.cone_apex_angle_deg,
                        float(env.dims[2] - z))
    return covered(env), np.flatnonzero(points_in_cone(geom, env.node_pos, (1, 1, 1))).tolist()


@pytest.mark.parametrize("dims, angle, nodes", [
    ((20, 20, 10), 30.0, 400),
    ((100, 100, 50), 30.0, 2000),
    ((13, 9, 7), 75.0, 60),
], ids=["desk", "paper", "odd-wide"])
def test_simulator_and_coverage_figure_cover_the_same_nodes(dims, angle, nodes):
    """The simulator and the coverage figure apply one cone rule: on a seeded
    layout, both cover the same nodes from every sampled AUV position."""
    env = deploy(EnvConfig(dims=dims, node_count=nodes, rng_seed=3, node_modem=NO_SNR_FLOOR,
                           auv=AuvSpec(cone_apex_angle_deg=angle)))
    rng = np.random.default_rng(29)
    seen = 0
    for pos in rng.integers(0, [d + 1 for d in dims], size=(300, 3)).tolist():
        simulator, figure = simulator_and_figure_cover(env, tuple(pos))
        assert simulator == figure, pos
        seen += len(simulator)
    assert seen > 300


@pytest.mark.parametrize("angle, node, inside", [
    (30.0, (4, 4, 3), True),
    (30.0, (4, 4, 2), False),
    # tan(radians(45)) is 0.9999999999999999, so the 90 degree cone's reach
    # 3 m down falls just short of 3 m.
    (90.0, (7, 4, 6), False),
], ids=["at-the-auv", "one-above", "90-degree-rim"])
def test_cone_rule_boundaries_on_both_paths(angle, node, inside):
    env = deploy(EnvConfig(dims=(10, 10, 8), node_count=1, node_modem=NO_SNR_FLOOR,
                           auv=AuvSpec(cone_apex_angle_deg=angle)))
    env.place_nodes([node])
    simulator, figure = simulator_and_figure_cover(env, (4, 4, 3))
    assert simulator == figure == ([0] if inside else [])


@pytest.mark.parametrize("field, kwargs", [
    ("apex", dict(apex=(float("nan"), 5.0, 0.0))),
    ("apex", dict(apex=(5.0, 5.0))),
    ("apex", dict(apex=(5.0, 5.0, 0.0, 1.0))),
    ("height_m", dict(height_m=float("nan"))),
    ("height_m", dict(height_m=float("inf"))),
    ("apex_angle_deg", dict(apex_angle_deg=float("nan"))),
])
def test_cone_geometry_rejects_bad_geometry(field, kwargs):
    good = dict(apex=(5.0, 5.0, 0.0), apex_angle_deg=60.0, height_m=10.0)
    with pytest.raises(ValueError, match=f"ConeGeometry.{field} must be"):
        ConeGeometry(**{**good, **kwargs})


def test_coverage_sweep_rejects_negative_node_count():
    with pytest.raises(ValueError, match="n_values.*-3"):
        coverage_sweep((10, 10, 5), 60.0, [5, -3], [(0.0, 0.0)], trials=100,
                       k_values=(1, 2, 4), volume_samples=1000, seed=0)


def test_coverage_sweep_rejects_negative_k_before_sampling(monkeypatch):
    def no_sampling(*args):
        raise AssertionError("sampled before checking k_values")

    monkeypatch.setattr("aquaswipt.coverage.points_in_cone", no_sampling)
    for n_values in ([0], [5]):
        with pytest.raises(ValueError, match="k_values.*-1"):
            coverage_sweep((10, 10, 5), 60.0, n_values, [(0.0, 0.0)], trials=100,
                           k_values=(1, -1), volume_samples=1000, seed=0)


@pytest.mark.parametrize("n", [0, 1, 7, 50])
def test_coverage_sweep_equals_per_trial_counting(n):
    """Every row equals one built from whole-array draws, the reference cone
    test, a per-trial row sum and one count per k, over several blocks."""
    starts = [(50.0, 50.0), (-0.0, 0.0)]
    trials = 3 * (_BLOCK_POINTS // max(n, 1)) + 7
    k_values = (0, 1, 2, n, n + 1, 1)
    samples = 2 * _BLOCK_POINTS + 5
    seed = 3
    rows = coverage_sweep((100, 100, 50), 60.0, [n], starts, trials, k_values=k_values,
                          volume_samples=samples, seed=seed)
    cube = (100.0, 100.0, 50.0)
    cube_volume = 100.0 * 100.0 * 50.0
    expected = []
    for si, (sx, sy) in enumerate(starts):
        geom = ConeGeometry(apex=(sx, sy, 0.0), apex_angle_deg=60.0, height_m=50.0)
        unit = np.random.default_rng(seed * 7919 + si).random((samples, 3))
        hits = int(np.count_nonzero(reference_points_in_cone(geom, unit, cube)))
        p = min(1.0, cube_volume * (hits / samples) / cube_volume)
        rng = np.random.default_rng([seed, si, 0])
        placed = rng.random((trials, n, 3)).reshape(-1, 3)
        counts = reference_points_in_cone(geom, placed, cube).reshape(trials, n).sum(axis=1)
        for k in k_values:
            p_emp = int(np.count_nonzero(counts >= k)) / trials
            if k > n:
                p_ana = 0.0
            elif n == 0:
                p_ana = 1.0
            else:
                p_ana = coverage_tail(n, p, k)
            stderr = math.sqrt(p_emp * (1.0 - p_emp) / trials)
            expected.append(SweepRow(sx, sy, n, k, p_ana, p_emp, stderr))
    assert rows == expected
    if n:
        assert 0 < rows[1].p_empirical < 1  # some trials cover a node, some none


def test_coverage_sweep_memory_does_not_grow_with_samples():
    """At 20,000 trials and 10^6 volume samples, whole-array sampling peaks
    near 86 MB of numpy allocations; blocked sampling stays near 1 MB."""
    config = desk_campaign_config(coverage_trials=20_000,
                                  coverage_volume_samples=1_000_000)
    tracemalloc.start()
    try:
        run_coverage(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
