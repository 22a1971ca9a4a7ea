"""Energy-harvesting chain tests."""

import numpy as np
import pytest

from aquaswipt.harvest import (
    HarvestSpec,
    harvestable_power,
    induced_voltage,
    split_power,
)
from reference_loop import charge


def spec(**kwargs):
    defaults = dict(sensitivity_db=0.0, load_resistance_ohm=25.0,
                    array_elements=1, ae_efficiency=0.5, split_ratio=0.5)
    defaults.update(kwargs)
    return HarvestSpec(**defaults)


def test_induced_voltage_unity():
    assert induced_voltage(0.0, spec(sensitivity_db=0.0)) == pytest.approx(1.0)


def test_induced_voltage_cancellation():
    # 10 x 0.1
    assert induced_voltage(20.0, spec(sensitivity_db=-20.0)) == pytest.approx(1.0)


def test_induced_voltage_hand_value():
    assert induced_voltage(40.0, spec(sensitivity_db=-20.0)) == pytest.approx(10.0)


def test_harvestable_power_hand_value():
    s = spec(ae_efficiency=0.5, sensitivity_db=0.0, load_resistance_ohm=25.0,
             array_elements=1)
    assert harvestable_power(20.0, s) == pytest.approx(0.5)


def test_harvestable_power_vanishes_at_low_intensity():
    s = spec()
    assert harvestable_power(-600.0, s) == pytest.approx(0.0, abs=1e-40)


def test_harvestable_power_scales_with_array_elements():
    one = harvestable_power(17.0, spec(array_elements=1))
    four = harvestable_power(17.0, spec(array_elements=4))
    assert four == pytest.approx(4.0 * one, rel=1e-15)


def test_harvestable_power_matches_voltage_form():
    # n * eta * V^2 / (4 R) route agrees to 1e-12 relative.
    rng = np.random.default_rng(11)
    for _ in range(300):
        s = spec(
            sensitivity_db=float(rng.uniform(-180.0, 0.0)),
            load_resistance_ohm=float(rng.uniform(1.0, 500.0)),
            array_elements=int(rng.integers(1, 8)),
            ae_efficiency=float(rng.uniform(0.05, 1.0)),
        )
        snr = float(rng.uniform(-40.0, 120.0))
        v = induced_voltage(snr, s)
        via_voltage = s.array_elements * s.ae_efficiency * v * v / (4.0 * s.load_resistance_ohm)
        assert harvestable_power(snr, s) == pytest.approx(via_voltage, rel=1e-12)


def test_harvestable_power_strictly_increasing_in_snr():
    s = spec()
    snrs = np.linspace(-50.0, 100.0, 500)
    powers = harvestable_power(snrs, s)
    assert np.all(np.diff(powers) > 0)


@pytest.mark.parametrize(("alpha", "expected"), [
    (0.5, (1.0, 1.0)),
    (0.0, (0.0, 2.0)),
    (1.0, (2.0, 0.0)),
])
def test_split_power_cases(alpha, expected):
    assert split_power(2.0, alpha) == pytest.approx(expected)


def test_split_power_conserves_exactly():
    rng = np.random.default_rng(5)
    for _ in range(500):
        p = float(rng.uniform(0.0, 1e4))
        a = float(rng.uniform(0.0, 1.0))
        info, harv = split_power(p, a)
        assert info + harv == p
        assert info >= 0.0 and harv >= 0.0


# ``charge`` is the reference loop's form of the step's store-charge stage.


def test_charge_saturated_store_accepts_nothing():
    level, accepted = charge(10.0, 10.0, 1.0, 1.0, 5.0)
    assert accepted == 0.0
    assert level == 10.0


def test_charge_arithmetic():
    level, accepted = charge(0.0, 10.0, 1.0, 1.0, 5.0)
    assert accepted == pytest.approx(5.0)
    assert level == pytest.approx(5.0)


def test_charge_clamps_at_capacity():
    level, accepted = charge(0.0, 10.0, 1.0, 1.0, 20.0)
    assert accepted == pytest.approx(10.0)
    assert level == pytest.approx(10.0)


def test_charge_never_decreases_or_overfills():
    rng = np.random.default_rng(19)
    capacity = 25.0
    level = 3.0
    for _ in range(200):
        before = level
        level, accepted = charge(level, capacity, 0.8, float(rng.uniform(0, 2.0)),
                                 float(rng.uniform(0.1, 5.0)))
        assert level >= before
        assert level <= capacity
        assert accepted >= 0.0


def test_charge_rejects_bad_inputs():
    with pytest.raises(ValueError):
        charge(0.0, 10.0, 1.0, -1.0, 5.0)
    with pytest.raises(ValueError):
        charge(0.0, 10.0, 1.0, 1.0, 0.0)
    # NaN compares false both ways: unchecked, it would fill the store.
    with pytest.raises(ValueError, match="harvest_w"):
        charge(0.0, 10.0, 1.0, float("nan"), 5.0)
    with pytest.raises(ValueError, match="duration_s"):
        charge(0.0, 10.0, 1.0, 1.0, float("nan"))


@pytest.mark.parametrize(
    "kwargs",
    [
        {"load_resistance_ohm": 0.0},
        {"array_elements": 0},
        {"ae_efficiency": 0.0},
        {"split_ratio": -0.1},
        {"split_ratio": 1.1},
    ],
)
def test_harvest_spec_validation(kwargs):
    with pytest.raises(ValueError):
        spec(**kwargs)
