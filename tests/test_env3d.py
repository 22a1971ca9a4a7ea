"""Environment tests: deployment determinism, cone coverage against a
brute-force oracle, step accounting, reward branches, and serialization."""

import dataclasses
import math
import re
import tracemalloc
import types
from typing import Annotated, get_args, get_origin

import numpy as np
import pytest

from aquaswipt import env3d
from aquaswipt.auv import AuvSpec
from aquaswipt.agents import Algorithm, LearnConfig, greedy_rollout, train
from aquaswipt.campaign import CampaignConfig, desk_campaign_config
from aquaswipt.channel import ChannelParams, ModemSpec
from aquaswipt.checks import Bound, check_field_types, config_from_dict
from aquaswipt.coverage import ConeGeometry
from aquaswipt.env3d import (
    _LINK_CACHE_LIMIT,
    ACTIONS,
    EnvConfig,
    StateKey,
    deploy,
    id_to_key,
    id_to_tuple,
    key_to_id,
)
from aquaswipt.harvest import HarvestSpec
from reference_loop import covered, reference_links


def small_config(**kwargs):
    defaults = dict(dims=(20, 20, 10), node_count=25, rng_seed=11)
    defaults.update(kwargs)
    return EnvConfig(**defaults)


# ---------------------------------------------------------------------------
# deploy


def test_deploy_is_deterministic():
    a = deploy(small_config(rng_seed=42))
    b = deploy(small_config(rng_seed=42))
    assert a.node_pos.tolist() == b.node_pos.tolist()


def test_deploy_seed_changes_layout():
    a = deploy(small_config(rng_seed=1))
    b = deploy(small_config(rng_seed=2))
    assert a.node_pos.tolist() != b.node_pos.tolist()


def test_deploy_count_and_bounds():
    env = deploy(EnvConfig(dims=(100, 100, 50), node_count=25, rng_seed=0))
    assert env.node_pos.shape == (25, 3)
    assert np.array_equal(env.node_pos, np.floor(env.node_pos))
    for x, y, z in env.node_pos:
        assert 0 <= x <= 100 and 0 <= y <= 100 and 0 <= z <= 50


def test_deploy_validates_node_choice():
    with pytest.raises(ValueError, match="node_count"):
        EnvConfig(node_count=0)
    # node_count is the only way to size the field: a config document can
    # not leave it null.
    with pytest.raises(ValueError, match="node_count"):
        config_from_dict(EnvConfig, {"node_count": None})


@pytest.mark.parametrize("name", ["node_count", "episode_length", "auv_start_z", "rng_seed"])
@pytest.mark.parametrize("value", [None, 2.5, 2.0, True, "3"])
def test_env_config_rejects_int_fields_of_other_types(name, value):
    with pytest.raises(ValueError, match=f"EnvConfig.{name} must be of type int"):
        EnvConfig(**{name: value})


@pytest.mark.parametrize("start", [(1.5, 2), (2, 2.0), (True, 2), (None, 2), ("1", 2)])
def test_env_config_rejects_start_column_of_other_types(start):
    # int() would truncate (1.5, 2) to the column (1, 2).
    with pytest.raises(ValueError, match="EnvConfig.auv_start_xy entries must be of type int"):
        EnvConfig(auv_start_xy=start)
    assert EnvConfig(auv_start_xy=(1, 2)).auv_start_xy == (1, 2)


@pytest.mark.parametrize("dims", [(20.0, 20, 10), (True, 2, 2), (2, None, 2), (2, 2, "2")])
def test_env_config_rejects_dims_of_other_types(dims):
    # (20.0, 20, 10) used to build and then fail in Environment with a
    # TypeError; (True, 2, 2) built a 1 x 2 x 2 box.
    with pytest.raises(ValueError, match="EnvConfig.dims entries must be of type int"):
        EnvConfig(dims=dims)
    assert EnvConfig(dims=(20, 20, 10)).dims == (20, 20, 10)


def unbounded(annotation):
    """``annotation`` without the ``Bound`` of an ``Annotated[X, Bound(...)]``."""
    return get_args(annotation)[0] if get_origin(annotation) is Annotated else annotation


def float_fields(cls):
    """Names of ``cls``'s fields annotated ``float`` or ``float | None``,
    with or without a bound."""
    return [f.name for f in dataclasses.fields(cls) if unbounded(f.type) in (float, float | None)]


NONFINITE_FIELDS = [(cls, name) for cls in (EnvConfig, AuvSpec, ChannelParams, ModemSpec,
                                            HarvestSpec, LearnConfig)
                    for name in float_fields(cls)]


@pytest.mark.parametrize("cls, name", NONFINITE_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in NONFINITE_FIELDS])
def test_configs_reject_nonfinite_floats(cls, name):
    # Range checks written as ``x <= 0`` let NaN through: EnvConfig(
    # step_duration_s=nan) used to build and step to a NaN reward.
    for value in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError, match=f"{cls.__name__}.{name} must be a finite number"):
            cls(**{name: value})


def test_float_tuples_reject_nan_entries_and_take_ints():
    cone = dict(apex_angle_deg=60.0, height_m=10.0)
    with pytest.raises(ValueError, match="ConeGeometry.apex must be a finite number"):
        ConeGeometry(apex=(float("nan"), 5.0, 0.0), **cone)
    with pytest.raises(ValueError, match="ConeGeometry.apex must be three numbers"):
        ConeGeometry(apex=(5.0, 5.0), **cone)
    assert ConeGeometry(apex=(5, 5.0, 0), **cone).apex == (5, 5.0, 0)
    assert CampaignConfig(coverage_starts=((1.0, 2),)).coverage_starts == ((1.0, 2),)


def test_tuple_fields_given_a_list_say_tuple():
    # A list is not a number either, but the old "must be a finite number"
    # message sent the caller looking at the values.
    with pytest.raises(ValueError, match=re.escape(
            "ConeGeometry.apex must be a tuple, got the list [5.0, 5.0, 0.0]")):
        ConeGeometry(apex=[5.0, 5.0, 0.0], apex_angle_deg=60.0, height_m=10.0)
    starts = ((1.0, 2.0), [3.0, 4.0])
    with pytest.raises(ValueError, match=re.escape(
            f"CampaignConfig.coverage_starts entries must be tuples, got {starts!r}")):
        CampaignConfig(coverage_starts=starts)
    # A list given for a scalar field is still not a finite number.
    with pytest.raises(ValueError, match=re.escape(
            "EnvConfig.step_duration_s must be a finite number, got [1.0]")):
        EnvConfig(step_duration_s=[1.0])


@pytest.mark.parametrize("start", [(1.0,), (1.0, 2.0, 3.0), (), 5.0])
def test_coverage_starts_reject_entries_of_other_lengths(start):
    starts = ((0.0, 0.0), start)
    with pytest.raises(ValueError, match=re.escape(
            f"CampaignConfig.coverage_starts entries must be two numbers, got {starts!r}")):
        CampaignConfig(coverage_starts=starts)


OTHER_TYPES = [
    (EnvConfig, "channel", None, "EnvConfig.channel must be of type ChannelParams, got None"),
    (EnvConfig, "auv_modem", 5, "EnvConfig.auv_modem must be of type ModemSpec, got 5"),
    (EnvConfig, "auv_start_xy", (1, 2, 3),
     "EnvConfig.auv_start_xy must be two numbers, got (1, 2, 3)"),
    (CampaignConfig, "env", None, "CampaignConfig.env must be of type EnvConfig, got None"),
    (CampaignConfig, "output_dir", 3, "CampaignConfig.output_dir must be of type str, got 3"),
    (CampaignConfig, "algorithms", ("q_learning", 5),
     "CampaignConfig.algorithms entries must be of type str, got ('q_learning', 5)"),
]


@pytest.mark.parametrize("cls, name, value, message", OTHER_TYPES,
                         ids=[f"{cls.__name__}.{name}" for cls, name, _, _ in OTHER_TYPES])
def test_configs_reject_values_of_other_types(cls, name, value, message):
    # Each of these used to build and fail later (an AttributeError inside
    # Environment, "too many values to unpack") or without naming the field.
    with pytest.raises(ValueError, match=re.escape(message)):
        cls(**{name: value})


def test_float_fields_take_any_int():
    # math.isfinite(10**400) raises OverflowError, so an int never goes to it.
    assert EnvConfig(node_buffer_bits=10**400).node_buffer_bits == 10**400


CONFIG_CLASSES = {ChannelParams, ModemSpec, AuvSpec, HarvestSpec, EnvConfig, LearnConfig,
                  CampaignConfig, ConeGeometry}


def checkable(annotation) -> bool:
    """Whether ``annotation`` is a form ``check_field_types`` handles."""
    if get_origin(annotation) is Annotated:
        inner, *marks = get_args(annotation)
        return len(marks) == 1 and isinstance(marks[0], Bound) and checkable(inner)
    if isinstance(annotation, types.UnionType):
        rest = [a for a in get_args(annotation) if a is not type(None)]
        return len(rest) == 1 < len(get_args(annotation)) and checkable(rest[0])
    if get_origin(annotation) is tuple:
        args = get_args(annotation)
        if args[-1] is Ellipsis:
            return len(args) == 2 and checkable(args[0])
        # Its length message says "two numbers".
        return all(a in (int, float) for a in args)
    return annotation in (int, float, bool, str) or dataclasses.is_dataclass(annotation)


def test_every_config_annotation_is_checked():
    # A field annotated list[int] or dict would otherwise go unchecked.
    seen, todo = set(), [CampaignConfig, ConeGeometry]
    while todo:
        cls = todo.pop()
        seen.add(cls)
        for f in dataclasses.fields(cls):
            assert checkable(f.type), f"{cls.__name__}.{f.name}: {f.type}"
            todo += [a for a in (f.type, *get_args(f.type))
                     if dataclasses.is_dataclass(a) and a not in seen]
    assert seen == CONFIG_CLASSES
    assert not any(map(checkable, (list[int], dict, tuple[int] | list[int], int | str | None,
                                   Annotated[int, "> 0"], Annotated[list[int], Bound(1)],
                                   Annotated[int, Bound(1), Bound(2)])))

    @dataclasses.dataclass
    class Unchecked:
        counts: list[int]

    @dataclasses.dataclass
    class Unbounded:
        count: Annotated[int, "> 0"]

    with pytest.raises(TypeError, match="Unchecked.counts has the annotation"):
        check_field_types(Unchecked([1]))
    with pytest.raises(TypeError, match="Unbounded.count has the annotation"):
        check_field_types(Unbounded(1))


# The fields a config class needs given, as the test below passes them.
REQUIRED = {ConeGeometry: dict(apex=(5.0, 5.0, 0.0), apex_angle_deg=60.0, height_m=10.0)}
BOUNDED_FIELDS = [(cls, f.name) for cls in sorted(CONFIG_CLASSES, key=lambda c: c.__name__)
                  for f in dataclasses.fields(cls) if get_origin(f.type) is Annotated]


@pytest.mark.parametrize("cls, name", BOUNDED_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in BOUNDED_FIELDS])
def test_configs_refuse_values_just_past_a_bound(cls, name):
    annotation, bound = get_args(next(f.type for f in dataclasses.fields(cls) if f.name == name))
    if isinstance(annotation, types.UnionType):  # X | None
        (annotation,) = (a for a in get_args(annotation) if a is not type(None))
    shape = get_args(annotation) if get_origin(annotation) is tuple else None
    kind = shape[0] if shape else annotation
    ends = [(end, is_open, away) for end, is_open, away in
            ((bound.low, bound.low_open, -1), (bound.high, bound.high_open, 1))
            if math.isfinite(end)]
    assert ends
    for end, is_open, away in ends:
        if is_open:
            past = kind(end)
        elif kind is int:
            past = end + away
        else:
            past = math.nextafter(float(end), away * math.inf)
        if shape is None:
            value, entries = past, ""
        else:
            value, entries = (past,) * (1 if shape[-1] is Ellipsis else len(shape)), " entries"
        with pytest.raises(ValueError, match=re.escape(
                f"{cls.__name__}.{name}{entries} must be {bound}, got {value!r}")):
            cls(**{**REQUIRED.get(cls, {}), name: value})


def test_bounds_read_as_ranges():
    phrases = {Bound(0, low_open=True): "> 0", Bound(1): ">= 1", Bound(0, 1): "in [0, 1]",
               Bound(0, 1, low_open=True): "in (0, 1]", Bound(0, 180, True, True): "in (0, 180)"}
    assert {bound: str(bound) for bound in phrases} == phrases


def test_env_config_validates_node_store():
    with pytest.raises(ValueError, match="node_store_charge_efficiency"):
        EnvConfig(node_store_charge_efficiency=0.0)
    with pytest.raises(ValueError, match="node_store_capacity_j"):
        EnvConfig(node_store_capacity_j=0.0, node_store_level_j=0.0)
    with pytest.raises(ValueError, match="node_store_level_j"):
        EnvConfig(node_store_capacity_j=1.0, node_store_level_j=2.0)


# ---------------------------------------------------------------------------
# covered


def brute_force_covered(env):
    """Independent point-in-cone + SNR check, scalar math only."""
    from aquaswipt.channel import received_snr_db

    ax, ay, az = env.auv_pos
    half = math.radians(env.config.auv.cone_apex_angle_deg / 2.0)
    out = []
    for i, (nx, ny, nz) in enumerate(env.node_pos.tolist()):
        dx, dy, dz = nx - ax, ny - ay, nz - az
        if dz < 0:
            continue
        if math.hypot(dx, dy) > dz * math.tan(half) + 1e-12:
            continue
        rng_m = max(1.0, math.sqrt(dx * dx + dy * dy + dz * dz))
        snr = received_snr_db(env.config.node_modem, rng_m, env.config.channel)
        if snr >= env.config.node_modem.min_snr_db:
            out.append(i)
    return out


def downlink_power_w(env, i):
    """Harvestable power reaching node ``i`` from the AUV, scalar math only."""
    from aquaswipt.channel import received_snr_db
    from aquaswipt.harvest import harvestable_power

    cfg = env.config
    auv_modem = cfg.auv_modem if cfg.auv_modem is not None else cfg.node_modem
    rng_m = max(1.0, math.dist(env.node_pos[i].tolist(), env.auv_pos))
    return harvestable_power(received_snr_db(auv_modem, rng_m, cfg.channel),
                             cfg.node_harvest)


def test_covered_node_directly_below():
    env = deploy(small_config(node_count=1, rng_seed=3))
    env.place_nodes([[10.0, 10.0, 7.0]])
    env.auv_pos = (10, 10, 0)
    assert covered(env) == [0]


def test_covered_node_above_is_not_covered():
    env = deploy(small_config(node_count=1, rng_seed=3))
    env.place_nodes([[10.0, 10.0, 2.0]])
    env.auv_pos = (10, 10, 6)
    assert covered(env) == []


def test_covered_matches_brute_force_on_synthetic_layout():
    env = deploy(small_config(node_count=5, rng_seed=3))
    layout = [(10, 10, 9), (11, 10, 2), (3, 3, 9), (10, 12, 5), (10, 10, 0)]
    env.place_nodes(layout)
    for auv_pos in [(10, 10, 0), (10, 10, 4), (3, 3, 0), (0, 0, 0), (10, 11, 3)]:
        env.auv_pos = auv_pos
        assert covered(env) == brute_force_covered(env), auv_pos


def test_covered_matches_brute_force_on_random_layouts():
    rng = np.random.default_rng(123)
    env = deploy(small_config(node_count=40, rng_seed=9))
    for _ in range(25):
        env.auv_pos = tuple(int(v) for v in rng.integers(0, [21, 21, 11]))
        assert covered(env) == brute_force_covered(env)


def links_at(env, pos):
    """The env's link record at grid position ``pos``, built afresh."""
    return env._links(key_to_id(StateKey(*pos, 0, 0, 0), env.dims) // 64)


def reference_record(env, pos):
    """``reference_links`` at ``pos`` in the link record's terms.

    Returns ``(covered, nodes, relay_bits, state_base, n_in_cone)``: each
    node triple carries the energy a step offers its store, ``harvest_w *
    dt * efficiency``, and the base is ``p * 64 + gain_bin`` with ``p`` the
    position index ``(x * (W + 1) + y) * (H + 1) + z``.
    """
    covered, nodes, relay_bits, gain_bin, n_in_cone = reference_links(env, pos)
    cfg = env.config
    dt, efficiency = cfg.step_duration_s, cfg.node_store_charge_efficiency
    offered = tuple((i, harvest_w * dt * efficiency, bits) for i, harvest_w, bits in nodes)
    _, w, h = cfg.dims
    x, y, z = pos
    p = (x * (w + 1) + y) * (h + 1) + z
    return covered, offered, relay_bits, p * 64 + gain_bin, n_in_cone


def box_face_and_corner_nodes(dims):
    """Grid points on every corner and at the middle of every face of the box."""
    l, w, h = dims
    corners = [(x, y, z) for x in (0, l) for y in (0, w) for z in (0, h)]
    faces = [(0, w // 2, h // 2), (l, w // 2, h // 2), (l // 2, 0, h // 2),
             (l // 2, w, h // 2), (l // 2, w // 2, 0), (l // 2, w // 2, h)]
    return corners + faces


def test_link_table_matches_reference_over_every_position():
    from aquaswipt.channel import received_snr_db

    cut_snr = received_snr_db(ModemSpec(), 3.0, ChannelParams())
    # (config, node positions given to place_nodes, or None to keep the
    # deployment's).
    cases = [
        # Odd dims put the surface station at x.5; the SNR floor drops the
        # nodes beyond 3 m, and the AUV modem shares it for the relay.
        (small_config(dims=(7, 5, 3), node_count=30, rng_seed=1,
                      node_modem=ModemSpec(min_snr_db=cut_snr)), None),
        (small_config(dims=(6, 4, 5), node_count=30, rng_seed=2, step_duration_s=0.5,
                      channel=ChannelParams(noise_override_db=90.0),
                      node_harvest=HarvestSpec(split_ratio=0.0)), None),
        (small_config(dims=(5, 7, 4), node_count=30, rng_seed=3, step_duration_s=2.5,
                      node_harvest=HarvestSpec(split_ratio=1.0)), None),
        # The widest reach decides which nodes ``_links`` tests: under 1 m
        # at a 2 degree apex, wider than the box at 170 degrees.
        (small_config(dims=(6, 5, 6), node_count=30, rng_seed=4,
                      auv=AuvSpec(cone_apex_angle_deg=2.0)), None),
        (small_config(dims=(6, 5, 6), node_count=30, rng_seed=5,
                      auv=AuvSpec(cone_apex_angle_deg=170.0)), None),
        # Nodes on the box's faces and corners, twice over.
        (small_config(dims=(6, 4, 5), node_count=28),
         2 * box_face_and_corner_nodes((6, 4, 5))),
        # Every node at z = 0: the widest reach is 0, so a node is covered
        # only from its own grid point.
        (small_config(dims=(5, 4, 3), node_count=8),
         [(0, 0, 0), (5, 4, 0), (2, 1, 0), (2, 2, 0), (3, 1, 0), (0, 4, 0), (5, 0, 0),
          (2, 1, 0)]),
        # Mixed depths under a wide apex: the bottom nodes reach across the
        # box, while the nodes at z = 0 and z = 1 reach 0 and 3.7 m, so each
        # node's own widest reach, not the box's, decides where it is tested.
        (small_config(dims=(8, 7, 6), node_count=12, auv=AuvSpec(cone_apex_angle_deg=150.0)),
         [(0, 0, 6), (8, 7, 6), (4, 3, 6), (1, 6, 6), (0, 0, 0), (8, 7, 0), (4, 3, 0),
          (6, 1, 0), (0, 7, 1), (4, 4, 1), (8, 0, 1), (3, 3, 1)]),
    ]
    for cfg, layout in cases:
        env = deploy(cfg)
        if layout is not None:
            env.place_nodes(layout)
        l, w, h = cfg.dims
        seen = dropped = 0
        for pos in np.ndindex(l + 1, w + 1, h + 1):
            pos = tuple(int(c) for c in pos)
            nodes, relay_bits, state_base, blocked = links_at(env, pos)
            covered, offered, ref_relay_bits, ref_base, n_in_cone = reference_record(env, pos)
            assert tuple(i for i, _, _ in nodes) == covered, (cfg.dims, pos)
            assert nodes == offered, (cfg.dims, pos)
            assert relay_bits == ref_relay_bits, (cfg.dims, pos)
            assert state_base == ref_base, (cfg.dims, pos)
            clamped = [a for a, move in enumerate(ACTIONS)
                       if not all(0 <= c + d <= top for c, d, top in zip(pos, move, cfg.dims))]
            assert blocked == sum(1 << a for a in clamped), (cfg.dims, pos)
            seen += len(covered)
            dropped += n_in_cone - len(covered)
        assert seen > 0
        if cfg.node_modem.min_snr_db > 0:
            assert dropped > 0
        if layout is not None and all(z == 0 for _, _, z in layout):
            assert seen == len(layout)


@pytest.mark.parametrize("cfg", [
    # The table-explore geometry and the desk geometry at its largest
    # node count: far more nodes per position than the exhaustive boxes.
    EnvConfig(dims=(100, 100, 50), node_count=50, rng_seed=0),
    dataclasses.replace(desk_campaign_config().env, node_count=50),
], ids=["table-explore", "desk-50"])
def test_links_match_reference_at_bench_scale(cfg):
    env = deploy(cfg)
    l, w, h = cfg.dims
    rng = np.random.default_rng(17)
    seen = set()
    for pos in rng.integers(0, [l + 1, w + 1, h + 1], size=(1000, 3)).tolist():
        nodes, relay_bits, state_base, _ = links_at(env, pos)
        covered, offered, ref_relay_bits, ref_base, _ = reference_record(env, pos)
        assert (nodes, relay_bits, state_base) == (offered, ref_relay_bits, ref_base), pos
        assert tuple(i for i, _, _ in nodes) == covered, pos
        seen.update(covered)
    assert len(seen) > 10


def test_mean_snr_on_a_gain_edge_takes_the_lower_bin():
    # The bin counts the edges strictly below the mean covered SNR.
    env = deploy(small_config(node_count=1, rng_seed=3))
    env.place_nodes([[10.0, 10.0, 7.0]])
    snr = env._range_links[7 * 7][0]  # the node is 7 m below (10, 10, 0)
    for edges, expected in [((snr - 1.0, snr, snr + 1.0), 1), ((snr, snr + 1.0, snr + 2.0), 0),
                            ((snr - 2.0, snr - 1.0, snr), 2),
                            ((snr - 3.0, snr - 2.0, snr - 1.0), 3)]:
        env._gain_edges = edges
        nodes, _, state_base, _ = links_at(env, (10, 10, 0))
        assert [i for i, _, _ in nodes] == [0]
        assert state_base == key_to_id(StateKey(10, 10, 0, 0, 0, expected), env.dims), edges


def test_gain_bin_mean_is_numpys_on_both_sides_of_the_8_node_fork():
    # ``_links`` averages the covered SNRs with a running sum below 8 nodes
    # and with numpy's pairwise sum from 8 on. An edge at numpy's mean must
    # give bin 0 and one a float below it bin 1, which pins the mean to the
    # bit for every node count.
    env = deploy(small_config(dims=(20, 20, 20), node_count=1, rng_seed=3))
    depths = [16, 3, 11, 7, 14, 1, 9, 5, 13, 2, 15, 8, 4, 12, 6, 10]
    for k in range(1, len(depths) + 1):
        layout = [[10, 10, z] for z in depths[:k]]
        env.place_nodes(layout)
        m = float(np.mean([env._range_links[z * z][0] for _, _, z in layout]))
        for edge, expected in [(m, 0), (np.nextafter(m, -np.inf), 1)]:
            env._gain_edges = (float(edge), math.inf, math.inf)
            nodes, _, state_base, _ = links_at(env, (10, 10, 0))
            assert [i for i, _, _ in nodes] == list(range(k))
            assert state_base % 64 == expected, (k, edge)


def test_links_reject_off_grid_node():
    env = deploy(small_config(node_count=3, rng_seed=4))
    placed = env.node_pos.tolist()
    links = links_at(env, (10, 10, 0))
    for off_grid in ([10.5, 10.0, 5.0], [10.0, 10.0, 500.0], [-1.0, 10.0, 5.0],
                     [21.0, 10.0, 5.0], [10.0, 10.0, float("nan")], [10.0, 10.0]):
        layout = [list(row) for row in placed]
        layout[1] = off_grid
        with pytest.raises(ValueError, match="grid points"):
            env.place_nodes(layout)
        # A rejected layout leaves the nodes and their cached links alone.
        assert env.node_pos.tolist() == placed
        assert links_at(env, (10, 10, 0)) == links
    # The link tables are built from node_pos, so it cannot be edited in place.
    with pytest.raises(ValueError):
        env.node_pos[1] = [10.5, 10.0, 5.0]
    # Placing nodes drops the links cached for the old layout.
    env.auv_pos = (10, 10, 0)
    before = covered(env)
    env.place_nodes([[0, 0, 0], [20, 20, 10], [10.0, 10.0, 5.0]])
    assert env.node_pos.tolist() == [[0, 0, 0], [20, 20, 10], [10, 10, 5]]
    assert covered(env) == brute_force_covered(env) == [2] != before


def test_place_nodes_with_a_new_count_sizes_the_node_lists():
    env = deploy(small_config(node_count=1, rng_seed=3))
    env.place_nodes([[0, 0, 7], [11, 10, 7]])
    env.auv_pos = (10, 10, 0)
    env.step(0)  # +x: to the column above the second node
    assert env.auv_pos == (11, 10, 0) and covered(env) == [1]
    assert len(env.store_level_j) == len(env.buffer_bits) == 2
    # The same count keeps the episode's node levels.
    levels, buffers = list(env.store_level_j), list(env.buffer_bits)
    env.place_nodes([[1, 0, 7], [12, 10, 7]])
    assert (env.store_level_j, env.buffer_bits) == (levels, buffers)


def test_transmit_energy_counts_every_placed_node():
    # The per-count transmit energies are sized from the placed nodes, not
    # from config.node_count.
    cfg = small_config(node_count=1, rng_seed=3, step_duration_s=0.7)
    env = deploy(cfg)
    layout = [[11, 10, z] for z in range(3, 9)]
    env.place_nodes(layout)
    env.auv_pos = (10, 10, 0)
    env.step(0)  # +x: to the column above every node
    k = len(layout)
    # Every node is covered, uplinked this step and still holds data.
    assert covered(env) == list(range(k))
    assert all(0.0 < b < cfg.node_buffer_bits for b in env.buffer_bits)
    dt = cfg.step_duration_s
    node_w = cfg.node_modem.electrical_power_w
    auv_w = (cfg.auv_modem or cfg.node_modem).electrical_power_w
    assert env.last_terms[5] == k * node_w * dt + auv_w * dt


def test_links_reject_nan_harvest_power():
    # The step books the store charge without a per-node check of the
    # harvested power; the environment checks once that its range table's
    # powers are finite. A sensitivity this far above the received level
    # overflows the downlink power, which would split into NaN.
    cfg = small_config(node_count=1, rng_seed=5,
                       node_harvest=HarvestSpec(sensitivity_db=3100.0))
    with (np.errstate(over="ignore"),
          pytest.raises(ValueError, match="downlink power overflows: check "
                                          "HarvestSpec.sensitivity_db")):
        deploy(cfg)


def test_the_range_table_survives_place_nodes():
    # The range table depends only on the config, so ``place_nodes`` keeps
    # it. An env that built every link record of layout A before placing
    # layout B must build the same records as a fresh env that placed only B.
    cfg = small_config()
    rng = np.random.default_rng(5)
    layout_a, layout_b = (rng.integers(0, [21, 21, 11], size=(25, 3)) for _ in range(2))
    positions = range(21 * 21 * 11)
    moved, fresh = deploy(cfg), deploy(cfg)
    moved.place_nodes(layout_a)
    for p in positions:
        moved._links(p)
    moved.place_nodes(layout_b)
    fresh.place_nodes(layout_b)
    for env in (moved, fresh):
        env._link_cache.clear()
    for p in positions:
        assert moved._links(p) == fresh._links(p), p


@pytest.mark.parametrize("dims, angle, ranges", [
    ((20, 20, 10), 30.0, 108),     # the desk box: 10^2 * (1 + tan(15 deg)^2) = 107.2
    ((100, 100, 50), 60.0, 3334),  # the paper box: 50^2 * (1 + tan(30 deg)^2) = 3333.3
    ((100, 100, 50), 30.0, 2680),
    ((13, 9, 7), 170.0, 300),      # the cone reaches past the box: 13^2 + 9^2 + 7^2 = 299
], ids=["desk", "paper", "paper-30", "cone-past-the-box"])
def test_range_table_holds_every_range_the_cone_reaches(dims, angle, ranges):
    # One entry per integer squared range up to the farthest node the cone
    # can cover, at the box floor, or up to the box diagonal if that is nearer.
    env = deploy(EnvConfig(dims=dims, node_count=1, auv=AuvSpec(cone_apex_angle_deg=angle)))
    assert list(env._range_links) == [float(d2) for d2 in range(ranges)]


def test_a_wide_box_builds_in_bounded_memory():
    # The range table is sized by the cone's reach, not by the box diagonal:
    # tabulating the 8 million squared ranges of this box's diagonal peaked
    # at about 450 MB.
    cfg = EnvConfig(dims=(2000, 2000, 50))
    tracemalloc.start()
    try:
        env = deploy(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6, peak
    assert len(env._range_links) == 3334


# Random starts on the table-explore box: 80 episodes build ~2,700 link
# records, past the default cache limit.
EXPLORE_ENV = EnvConfig(dims=(100, 100, 50), node_count=50, rng_seed=0)
EXPLORE_LEARN = LearnConfig(episodes=80, seed=0, randomize_start=True)


def test_link_cache_stays_under_its_limit():
    env = deploy(EXPLORE_ENV)
    sizes = []
    step = env.step

    def checked_step(action):
        result = step(action)
        sizes.append(len(env._link_cache))
        assert sizes[-1] <= _LINK_CACHE_LIMIT
        return result

    env.step = checked_step  # train binds env.step once, so set it first
    train(env, Algorithm.Q_LEARNING, EXPLORE_LEARN)
    assert len(sizes) == EXPLORE_LEARN.episodes * EXPLORE_ENV.episode_length
    assert any(b < a for a, b in zip(sizes, sizes[1:])), "the cache was never emptied"


def test_emptying_the_link_cache_changes_no_output(tmp_path, monkeypatch):
    outputs = []
    for limit in (64, _LINK_CACHE_LIMIT):
        monkeypatch.setattr(env3d, "_LINK_CACHE_LIMIT", limit)
        env = deploy(EXPLORE_ENV)
        table, trace = train(env, Algorithm.Q_LEARNING, EXPLORE_LEARN)
        metrics, trajectory = greedy_rollout(env, table)
        path = tmp_path / f"qtable_{limit}.json"
        table.save(path)
        outputs.append((path.read_bytes(), trace, dataclasses.asdict(metrics), trajectory))
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# step


def motion_j(env):
    """Motion energy of the env's latest step."""
    return env.last_terms[4]


def test_step_moves_and_clamps_to_bounds():
    env = deploy(small_config())
    env.reset()
    env.auv_pos = (0, 0, 0)
    env.step(1)  # -x, clamped
    assert env.auv_pos == (0, 0, 0)
    # Clamped dwell charges hotel load only.
    hotel = env.config.auv.hotel_load_w * env.config.step_duration_s
    assert motion_j(env) == pytest.approx(hotel)


def test_step_motion_energy_unit_move():
    from aquaswipt.auv import move_energy

    env = deploy(small_config())
    env.reset()
    env.step(0)
    expected = move_energy(env.config.auv, (0, 0, 0), (1, 0, 0))
    assert motion_j(env) == pytest.approx(expected)


def test_step_no_coverage_reward_is_motion_penalty():
    env = deploy(small_config(node_count=1, rng_seed=5))
    env.reset()
    env.place_nodes([[0.0, 0.0, 10.0]])
    env.auv_pos = (20, 20, 0)
    _, reward, _ = env.step(0)  # clamped at +x wall, far from the node
    assert covered(env) == []
    assert reward == pytest.approx(-motion_j(env) / env.motion_scale)
    assert env.last_terms[:2] == (0.0, 0.0)  # the reward's throughput and harvest terms


def test_step_saturated_and_empty_node_gives_penalty_only():
    env = deploy(small_config(node_count=1, rng_seed=5,
                              node_store_capacity_j=10.0, node_store_level_j=10.0))
    env.reset()
    env.place_nodes([[10.0, 10.0, 8.0]])
    env.store_level_j[0] = 10.0
    env.buffer_bits[0] = 0.0
    env.auv_pos = (10, 11, 0)
    _, reward, _ = env.step(3)  # -y onto the covering column
    assert covered(env) == [0]
    assert reward == pytest.approx(-motion_j(env) / env.motion_scale)


def test_step_gamma_one_ignores_harvest():
    env = deploy(small_config(reward_gamma=1.0))
    env.reset()
    for action in (4, 4, 0, 2, 4):
        env.step(action)
        assert env.last_terms[1] == 0.0  # the reward's harvest term


def test_step_gamma_zero_ignores_throughput():
    env = deploy(small_config(reward_gamma=0.0))
    env.reset()
    for action in (4, 4, 0, 2, 4):
        env.step(action)
        assert env.last_terms[0] == 0.0  # the reward's throughput term


def test_step_rejects_finished_episode():
    env = deploy(small_config(episode_length=2))
    env.reset()
    env.step(0)
    _, _, done = env.step(1)
    assert done
    with pytest.raises(RuntimeError):
        env.step(0)


def test_step_rejects_bad_action():
    env = deploy(small_config())
    env.reset()
    with pytest.raises(ValueError):
        env.step(6)


def test_done_exactly_at_episode_length():
    env = deploy(small_config(episode_length=5))
    env.reset()
    for i in range(5):
        _, _, done = env.step(i % 6)
        assert done == (i == 4)


def test_done_on_battery_depletion():
    auv = AuvSpec(battery_level_j=2000.0)
    env = deploy(small_config(auv=auv, episode_length=50))
    env.reset()
    steps = 0
    done = False
    while not done:
        _, _, done = env.step(0)
        steps += 1
    assert steps < 50
    assert env.auv_battery_j == 0.0


def test_position_always_in_bounds_under_fuzz():
    env = deploy(small_config(episode_length=400, dims=(6, 5, 4)))
    rng = np.random.default_rng(77)
    env.reset()
    for _ in range(400):
        env.step(int(rng.integers(6)))
        x, y, z = env.auv_pos
        assert 0 <= x <= 6 and 0 <= y <= 5 and 0 <= z <= 4


def test_step_conservation_invariants():
    env = deploy(small_config(episode_length=50))
    rng = np.random.default_rng(13)
    node_buffer_bits = env.config.node_buffer_bits
    initial_buffer_bits = node_buffer_bits * len(env.node_pos)
    for _ in range(6):
        env.reset(randomize_start=True)
        relayed = 0.0
        done = False
        while not done:
            levels_before = list(env.store_level_j)
            _, _, done = env.step(int(rng.integers(6)))
            covered_nodes = covered(env)
            dt = env.config.step_duration_s
            split = env.config.node_harvest.split_ratio
            eff = env.config.node_store_charge_efficiency
            for i, before in enumerate(levels_before):
                gained = env.store_level_j[i] - before
                if i in covered_nodes:
                    cap = (1.0 - split) * downlink_power_w(env, i) * dt * eff
                    assert 0.0 <= gained <= cap + 1e-12
                else:
                    assert gained == 0.0
            # Every bit the node buffers gave up was relayed or waits in the
            # relay buffer. The sums are float accumulators: allow ulp-scale drift.
            relayed += env.last_terms[2]
            collected = math.fsum(node_buffer_bits - bits for bits in env.buffer_bits)
            slack = 1e-9 * max(1.0, collected)
            assert relayed <= collected + slack
            assert collected <= initial_buffer_bits + slack
            assert abs(relayed + env.relay_buffer_bits - collected) <= slack
        assert relayed > 0.0


def test_identical_seed_and_actions_reproduce_rewards():
    actions = np.random.default_rng(1).integers(0, 6, size=50)
    totals = []
    for _ in range(2):
        env = deploy(small_config(rng_seed=21))
        env.reset()
        total = 0.0
        for a in actions:
            _, reward, _ = env.step(int(a))
            total += reward
        totals.append(total)
    assert totals[0] == totals[1]


# ---------------------------------------------------------------------------
# state ids / reset


def state_key(env):
    """The decoded view of the env's current state."""
    return id_to_key(env.state_id(), env.dims)


def test_state_key_empty_coverage():
    env = deploy(small_config(node_count=1, rng_seed=5))
    env.reset()
    env.place_nodes([[0.0, 0.0, 10.0]])
    env.auv_pos = (20, 20, 0)
    key = state_key(env)
    assert (key.covered_with_data, key.covered_undercharged, key.gain_bin) == (0, 0, 0)
    assert (key.x, key.y, key.z) == (20, 20, 0)


def test_state_key_clamps_counts_at_three():
    env = deploy(small_config(node_count=5, rng_seed=5))
    env.reset()
    env.place_nodes([[10.0, 10.0, 9.0]] * 5)
    env.auv_pos = (10, 10, 0)
    key = state_key(env)
    assert key.covered_with_data == 3
    assert key.covered_undercharged == 3


def test_state_id_deterministic():
    env = deploy(small_config())
    env.reset()
    assert env.state_id() == env.state_id()


def test_reset_fixed_start_is_stable():
    env = deploy(small_config())
    first = env.reset()
    env.step(0)
    env.step(2)
    assert env.reset() == first


def test_reset_randomized_start_reproducible_across_deployments():
    a = deploy(small_config(rng_seed=33))
    b = deploy(small_config(rng_seed=33))
    starts_a = [id_to_key(a.reset(randomize_start=True), a.dims) for _ in range(10)]
    starts_b = [id_to_key(b.reset(randomize_start=True), b.dims) for _ in range(10)]
    assert starts_a == starts_b
    assert len({(k.x, k.y) for k in starts_a}) > 1


def test_reset_does_not_move_nodes():
    env = deploy(small_config())
    before = env.node_pos.tolist()
    env.reset(randomize_start=True)
    env.step(0)
    env.reset()
    assert env.node_pos.tolist() == before


def test_reset_restores_buffers_stores_battery():
    env = deploy(small_config())
    env.reset()
    for _ in range(20):
        env.step(4)
    env.reset()
    assert env.auv_battery_j == env.config.auv.battery_level_j
    n = len(env.node_pos)
    assert env.buffer_bits == [env.config.node_buffer_bits] * n
    assert env.store_level_j == [env.config.node_store_level_j] * n
    assert env.relay_buffer_bits == 0.0


# ---------------------------------------------------------------------------
# serialization


def test_env_config_dict_round_trip():
    cfg = small_config(
        channel=ChannelParams(noise_override_db=-50.0),
        node_modem=ModemSpec(source_level_db=170.0),
        node_harvest=HarvestSpec(split_ratio=0.25),
        auv_start_xy=(3, 4),
        motion_scale=123.0,
    )
    assert config_from_dict(EnvConfig, dataclasses.asdict(cfg)) == cfg


def test_state_key_is_hashable_and_tuple_like():
    key = StateKey(1, 2, 3, 0, 1, 2)
    assert key == (1, 2, 3, 0, 1, 2)
    assert hash(key) == hash((1, 2, 3, 0, 1, 2))


def test_state_ids_decode_and_sort_in_state_key_order():
    dims = (4, 3, 2)
    keys = [StateKey(x, y, z, a, b, c)
            for x in range(5) for y in range(4) for z in range(3)
            for a in range(4) for b in range(4) for c in range(4)]
    ids = [key_to_id(key, dims) for key in keys]
    assert ids == sorted(ids) == list(range(len(keys)))
    assert [id_to_key(i, dims) for i in ids] == keys
    for bad in [(5, 0, 0, 0, 0, 0), (0, 0, -1, 0, 0, 0), (0, 0, 0, 4, 0, 0),
                (0, 0, 0, 0, 0), (0.0, 0, 0, 0, 0, 0)]:
        with pytest.raises(ValueError, match="state key"):
            key_to_id(bad, dims)


@pytest.mark.parametrize("dims", [(1, 1, 1), (5, 7, 3), (100, 100, 50), (2**19 - 1,) * 3])
def test_id_to_tuple_decodes_int64_arrays_as_each_id(dims):
    # QTable.save decodes a chunk of ids as one int64 array.
    corners = [key_to_id((x, y, z, code >> 4, (code >> 2) & 3, code & 3), dims)
               for x in (0, dims[0]) for y in (0, dims[1]) for z in (0, dims[2])
               for code in (0, 63)]
    top = key_to_id((*dims, 3, 3, 3), dims)
    rng = np.random.default_rng(5)
    ids = corners + rng.integers(top, size=200, endpoint=True).tolist()
    columns = id_to_tuple(np.array(ids, dtype=np.int64), dims)
    assert all(column.dtype == np.int64 for column in columns)
    assert list(zip(*[column.tolist() for column in columns])) == [
        id_to_tuple(i, dims) for i in ids]


@pytest.mark.parametrize("cfg, randomize_start", [
    (desk_campaign_config().env, False),
    (EnvConfig(dims=(100, 100, 50), node_count=25, rng_seed=0), True),
], ids=["desk", "table-explore"])
def test_reset_and_step_return_the_state_id(cfg, randomize_start):
    env = deploy(cfg)
    rng = np.random.default_rng(4)
    clamped = 0
    for _ in range(3):
        assert env.reset(randomize_start=randomize_start) == env.state_id()
        done = False
        while not done:
            # -z half the time: the box clamps it at the surface.
            action = int(rng.integers(6)) if rng.random() < 0.5 else 5
            before = env.auv_pos
            state, _, done = env.step(action)
            clamped += env.auv_pos == before
            assert state == env.state_id()
            assert id_to_key(state, env.dims)[:3] == env.auv_pos
    assert clamped > 0


def test_auv_pos_rejects_positions_outside_the_box():
    env = deploy(small_config())
    # A coordinate off the grid is refused, not truncated.
    for pos in [(21, 0, 0), (0, -1, 0), (0, 0, 11), (2.7, 3, 0), (0, 0, 0.5),
                (math.nan, 0, 0), (0, math.inf, 0), (1, 2)]:
        with pytest.raises(ValueError, match="off the grid or outside the box"):
            env.auv_pos = pos
    env.auv_pos = (2.0, np.int64(3), 0)
    assert env.auv_pos == (2, 3, 0) and all(type(c) is int for c in env.auv_pos)


def test_actions_are_six_unit_steps():
    assert len(ACTIONS) == 6
    assert sorted(ACTIONS) == sorted(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )


# ---------------------------------------------------------------------------
# mirror relations
#
# A mirror maps the box's grid onto itself, and each action onto the one
# that moves to the mirrored point: x -> L - x swaps +x and -x, y -> W - y
# swaps +y and -y, and swapping x and y swaps +x with +y and -x with -y.
# Stepping an environment whose nodes and start are mirrored, on the
# mirrored actions, must give the same reward, ``last_terms``, state
# features (the id mod 64) and ``done`` to the bit, at the mirrored
# position. Preconditions: the surface station sits at the centre of the
# surface plane, which every mirror fixes, and its offsets from grid points
# are exact halves, so relay ranges round alike; squared node ranges are
# integers; the nodes keep their index order, because the gain bin's mean
# SNR sums in node order; the swap needs a square box. The relations use no
# formula of the model, so they hold across any change to it that keeps
# the geometry.
MIRRORS = {
    "x": (lambda l, w, p: (l - p[0], p[1], p[2]), (1, 0, 2, 3, 4, 5)),
    "y": (lambda l, w, p: (p[0], w - p[1], p[2]), (0, 1, 3, 2, 4, 5)),
    "swap": (lambda l, w, p: (p[1], p[0], p[2]), (2, 3, 0, 1, 4, 5)),
}
MIRROR_BOXES = {
    "desk": desk_campaign_config().env,
    "paper": EnvConfig(dims=(100, 100, 50)),
    "odd": EnvConfig(dims=(13, 9, 7), node_count=40),  # the station sits on half-metres
}
MIRROR_CASES = [(box, mirror) for box in ("desk", "paper") for mirror in MIRRORS] + [
    ("odd", "x"), ("odd", "y")]


@pytest.mark.parametrize("box, mirror", MIRROR_CASES,
                         ids=[f"{box}-{mirror}" for box, mirror in MIRROR_CASES])
def test_mirrored_nodes_start_and_actions_step_alike(box, mirror):
    cfg = MIRROR_BOXES[box]
    l, w, _ = cfg.dims
    reflect, moves = MIRRORS[mirror]
    for a, b in enumerate(moves):  # action a maps to action b
        moved = tuple(c + d for c, d in zip((1, 1, 1), ACTIONS[a]))
        assert reflect(l, w, moved) == tuple(
            c + d for c, d in zip(reflect(l, w, (1, 1, 1)), ACTIONS[b]))
    harvesting_steps = 0
    for seed in range(10):
        env = deploy(dataclasses.replace(cfg, rng_seed=seed))
        start = reflect(l, w, env.auv_pos)
        twin = deploy(dataclasses.replace(cfg, rng_seed=seed, auv_start_xy=start[:2]))
        twin.place_nodes([reflect(l, w, p) for p in env.node_pos.tolist()])
        actions = np.random.default_rng(seed).integers(6, size=(5, 50)).tolist()
        for episode in actions:
            assert twin.reset() % 64 == env.reset() % 64
            assert twin.auv_pos == start
            for a in episode:
                state, reward, done = env.step(a)
                twin_state, twin_reward, twin_done = twin.step(moves[a])
                assert (twin_reward, twin.last_terms, twin_state % 64, twin.auv_pos,
                        twin_done) == (reward, env.last_terms, state % 64,
                                       reflect(l, w, env.auv_pos), done)
                harvesting_steps += env.last_terms[3] > 0.0
                if done:
                    break
    assert harvesting_steps > 0
