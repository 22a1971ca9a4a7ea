"""AUV energetics tests."""

import numpy as np
import pytest

from aquaswipt.auv import AuvSpec, drag_force, move_energy, propulsion_power


def unit_spec(**kwargs):
    defaults = dict(drag_coefficient=1.0, frontal_area_m2=1.0, water_density_kgm3=1.0,
                    motor_efficiency=1.0, speed_mps=1.0, hotel_load_w=0.0)
    defaults.update(kwargs)
    return AuvSpec(**defaults)


def test_drag_force_unit_constants():
    assert drag_force(unit_spec()) == pytest.approx(0.5)


def test_drag_force_hand_value():
    spec = AuvSpec(drag_coefficient=0.8, frontal_area_m2=0.5, water_density_kgm3=1025.0,
                   motor_efficiency=0.8, speed_mps=2.0)
    assert drag_force(spec) == pytest.approx(1025.0)


def test_drag_force_inverse_in_efficiency():
    full = drag_force(unit_spec(motor_efficiency=1.0))
    half = drag_force(unit_spec(motor_efficiency=0.5))
    assert half == pytest.approx(2.0 * full)


def test_propulsion_power_unit_constants():
    assert propulsion_power(unit_spec()) == pytest.approx(0.5)


def test_propulsion_power_hand_value():
    spec = AuvSpec(drag_coefficient=0.8, frontal_area_m2=0.5, water_density_kgm3=1025.0,
                   motor_efficiency=0.8, speed_mps=2.0)
    assert propulsion_power(spec) == pytest.approx(2050.0)


def test_propulsion_power_is_drag_times_speed():
    rng = np.random.default_rng(2)
    for _ in range(100):
        spec = AuvSpec(
            drag_coefficient=float(rng.uniform(0.1, 2.0)),
            frontal_area_m2=float(rng.uniform(0.05, 3.0)),
            water_density_kgm3=float(rng.uniform(950.0, 1060.0)),
            motor_efficiency=float(rng.uniform(0.2, 1.0)),
            speed_mps=float(rng.uniform(0.2, 6.0)),
        )
        assert propulsion_power(spec) == pytest.approx(drag_force(spec) * spec.speed_mps, rel=1e-14)


def test_propulsion_power_cubic_in_speed():
    base = propulsion_power(unit_spec(speed_mps=1.3))
    doubled = propulsion_power(unit_spec(speed_mps=2.6))
    assert doubled == pytest.approx(8.0 * base, rel=1e-12)


def test_move_energy_hover_without_hotel_load_is_free():
    assert move_energy(unit_spec(), (2.0, 3.0, 4.0), (2.0, 3.0, 4.0)) == 0.0
    # A zero-length move has no transit time, so a hotel load adds nothing:
    # the step books the idle charge itself.
    assert move_energy(unit_spec(hotel_load_w=40.0), (2, 3, 4), (2, 3, 4)) == 0.0


def test_move_energy_345_triangle():
    spec = AuvSpec(drag_coefficient=0.8, frontal_area_m2=0.5, water_density_kgm3=1025.0,
                   motor_efficiency=0.8, speed_mps=2.0, hotel_load_w=0.0)
    # distance 5 at 2050 W and 2 m/s -> 2050 * 5 / 2
    assert move_energy(spec, (0, 0, 0), (3, 4, 0)) == pytest.approx(5125.0)


def test_move_energy_hand_value_10m():
    spec = AuvSpec(drag_coefficient=0.8, frontal_area_m2=0.5, water_density_kgm3=1025.0,
                   motor_efficiency=0.8, speed_mps=2.0, hotel_load_w=0.0)
    assert move_energy(spec, (0, 0, 0), (10, 0, 0)) == pytest.approx(10250.0)


def test_move_energy_symmetric():
    spec = AuvSpec()
    rng = np.random.default_rng(4)
    for _ in range(100):
        a = tuple(rng.uniform(0, 50, size=3))
        b = tuple(rng.uniform(0, 50, size=3))
        assert move_energy(spec, a, b) == pytest.approx(move_energy(spec, b, a), rel=1e-14)


def test_move_energy_triangle_inequality():
    spec = AuvSpec()
    rng = np.random.default_rng(6)
    for _ in range(100):
        a, b, c = (tuple(rng.uniform(0, 50, size=3)) for _ in range(3))
        assert move_energy(spec, a, c) <= move_energy(spec, a, b) + move_energy(spec, b, c) + 1e-9


@pytest.mark.parametrize(
    "kwargs",
    [
        {"drag_coefficient": 0.0},
        {"frontal_area_m2": -1.0},
        {"motor_efficiency": 0.0},
        {"motor_efficiency": 1.5},
        {"speed_mps": 0.0},
        {"hotel_load_w": -5.0},
        {"cone_apex_angle_deg": 0.0},
        {"cone_apex_angle_deg": 180.0},
    ],
)
def test_auv_spec_validation(kwargs):
    with pytest.raises(ValueError):
        AuvSpec(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"battery_level_j": -1.0},
    ],
)
def test_auv_spec_battery_validation(kwargs):
    with pytest.raises(ValueError, match="battery_"):
        AuvSpec(**kwargs)
