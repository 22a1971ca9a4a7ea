"""Link-budget unit tests; frozen expected values come from 40-digit
mpmath evaluations of the same closed forms (see test_acceptance for the
full randomized oracle suite)."""

import math

import numpy as np
import pytest

from aquaswipt.channel import (
    ChannelParams,
    ModemSpec,
    noise_level_db,
    noise_psd_db,
    received_snr_db,
    shannon_throughput_bps,
    source_level,
    thorp_absorption,
    transmission_loss_db,
)


@pytest.mark.parametrize(
    ("f_khz", "expected"),
    [
        (10.0, 1.18702993870816),
        (24.0, 5.69122646739203),
    ],
)
def test_thorp_reference_values(f_khz, expected):
    assert thorp_absorption(f_khz) == pytest.approx(expected, rel=1e-12)


def test_thorp_low_frequency_limit():
    # Only the constant term survives as f -> 0.
    assert thorp_absorption(1e-6) == pytest.approx(0.003, abs=1e-9)


def test_thorp_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        thorp_absorption(0.0)
    with pytest.raises(ValueError):
        thorp_absorption(-3.0)


def test_thorp_strictly_increasing_above_1khz():
    grid = np.linspace(1.0, 500.0, 4000)
    vals = thorp_absorption(grid)
    assert np.all(np.diff(vals) > 0)


def test_source_level_unit_power():
    assert source_level(ModemSpec(electrical_power_w=1.0, ea_efficiency=1.0)) == pytest.approx(170.8)


def test_source_level_derived():
    modem = ModemSpec(electrical_power_w=1000.0, ea_efficiency=0.5,
                      directivity_index_db=0.0)
    assert source_level(modem) == pytest.approx(197.78970004336, rel=1e-12)


def test_source_level_override_wins():
    modem = ModemSpec(electrical_power_w=1000.0, ea_efficiency=0.5,
                      source_level_db=170.0)
    assert source_level(modem) == 170.0


def test_transmission_loss_reference_distance():
    # Spreading term vanishes at the 1 m reference.
    params = ChannelParams(frequency_khz=24.0)
    assert transmission_loss_db(1.0, params) == pytest.approx(0.00569122646739203, rel=1e-12)


@pytest.mark.parametrize(
    ("range_m", "k", "f", "expected"),
    [
        (1000.0, 1.5, 24.0, 50.691226467392),
        (100.0, 2.0, 10.0, 40.1187029938708),
    ],
)
def test_transmission_loss_hand_values(range_m, k, f, expected):
    params = ChannelParams(frequency_khz=f, spreading_factor_k=k)
    assert transmission_loss_db(range_m, params) == pytest.approx(expected, rel=1e-12)


def test_transmission_loss_monotone_in_range():
    params = ChannelParams()
    ranges = np.linspace(1.0, 5000.0, 2000)
    tl = transmission_loss_db(ranges, params)
    assert np.all(np.diff(tl) > 0)


def test_transmission_loss_rejects_below_reference():
    with pytest.raises(ValueError):
        transmission_loss_db(0.5, ChannelParams())


def test_noise_turbulence_at_1khz():
    comp = noise_psd_db(1.0, ChannelParams())
    assert comp.turbulence_db == pytest.approx(17.0)


def test_noise_thermal_at_100khz():
    comp = noise_psd_db(100.0, ChannelParams())
    assert comp.thermal_db == pytest.approx(25.0)


def test_noise_components_table_conditions():
    params = ChannelParams(frequency_khz=24.0, wind_speed_mps=10.0, shipping_factor=0.0)
    comp = noise_psd_db(24.0, params)
    assert comp.waves_db == pytest.approx(45.8257142319458, rel=1e-12)
    assert comp.total_db == pytest.approx(45.8277848408299, rel=1e-12)


def test_noise_total_bounded_by_components():
    rng = np.random.default_rng(7)
    for _ in range(200):
        params = ChannelParams(
            frequency_khz=float(rng.uniform(0.1, 200.0)),
            wind_speed_mps=float(rng.uniform(0.0, 20.0)),
            shipping_factor=float(rng.uniform(0.0, 1.0)),
        )
        comp = noise_psd_db(params.frequency_khz, params)
        peak = max(comp.turbulence_db, comp.shipping_db, comp.waves_db, comp.thermal_db)
        # Four power-summed terms add at most 10*log10(4) = 6.03 dB.
        assert peak <= comp.total_db <= peak + 6.03


def test_noise_level_constant_override_bypasses_model():
    params = ChannelParams(noise_override_db=-50.0)
    assert noise_level_db(params) == -50.0


def test_received_snr_composed_example():
    # SL 170 (override), r = 1 km, k = 1.5, f = 24, constant NL -50 dB.
    params = ChannelParams(noise_override_db=-50.0)
    modem = ModemSpec(source_level_db=170.0)
    assert received_snr_db(modem, 1000.0, params) == pytest.approx(169.308773532608, rel=1e-12)


def test_received_snr_lossless_identity():
    # TL = 0 cannot happen above 1 m, so check SL recovery at the reference
    # distance with zero-noise override and the absorption term removed.
    params = ChannelParams(noise_override_db=0.0)
    modem = ModemSpec(source_level_db=183.0)
    expected_tl = transmission_loss_db(1.0, params)
    assert received_snr_db(modem, 1.0, params) == pytest.approx(183.0 - expected_tl)


def test_received_snr_decreases_when_range_doubles():
    params = ChannelParams()
    modem = ModemSpec()
    for r in (1.0, 10.0, 250.0, 4000.0):
        assert received_snr_db(modem, 2 * r, params) < received_snr_db(modem, r, params)


def test_received_snr_affine_in_source_level():
    params = ChannelParams(noise_override_db=-50.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        sl = float(rng.uniform(120.0, 220.0))
        delta = float(rng.uniform(0.1, 40.0))
        r = float(rng.uniform(1.0, 3000.0))
        a = received_snr_db(ModemSpec(source_level_db=sl), r, params)
        b = received_snr_db(ModemSpec(source_level_db=sl + delta), r, params)
        assert b - a == pytest.approx(delta, abs=1e-9)


def test_shannon_outage_below_threshold():
    params = ChannelParams(bandwidth_hz=4000.0)
    assert shannon_throughput_bps(-5.0, params, 0.0) == 0.0
    assert shannon_throughput_bps(-300.0, params, 0.0) == 0.0


def test_shannon_hand_value():
    params = ChannelParams(bandwidth_hz=4000.0)
    assert shannon_throughput_bps(15.0, params, 0.0) == pytest.approx(20111.2306934021, rel=1e-12)


def test_shannon_unit_snr():
    params = ChannelParams(bandwidth_hz=4000.0)
    assert shannon_throughput_bps(0.0, params, 0.0) == pytest.approx(4000.0)


def test_shannon_nondecreasing_in_snr():
    params = ChannelParams(bandwidth_hz=4000.0)
    snrs = np.linspace(-30.0, 80.0, 1000)
    rates = shannon_throughput_bps(snrs, params, 0.0)
    assert np.all(np.diff(rates) >= 0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"frequency_khz": 0.0},
        {"bandwidth_hz": -1.0},
        {"spreading_factor_k": 0.9},
        {"spreading_factor_k": 2.1},
        {"wind_speed_mps": -0.1},
        {"shipping_factor": 1.5},
        {"shipping_factor": -0.1},
    ],
)
def test_channel_params_validation(kwargs):
    with pytest.raises(ValueError):
        ChannelParams(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"electrical_power_w": 0.0},
        {"ea_efficiency": 0.0},
        {"ea_efficiency": 1.2},
    ],
)
def test_modem_spec_validation(kwargs):
    with pytest.raises(ValueError):
        ModemSpec(**kwargs)


# The range checks and the scalar path avoid numpy's Python-level wrappers;
# these hold them to the np.any checks and the 0-d array arithmetic they
# replaced.
RANGE_CHECK_INPUTS = [
    0.5,                                # 0-d, below the bound
    np.float64(0.0),
    np.asarray(-2.0),
    3.0,                                # 0-d, in range
    float("nan"),                       # NaN compares False: no raise
    [5.0, 0.5, 7.0],                    # one bad entry
    [float("nan"), 0.5],                # NaN mixed with a bad entry
    [float("nan"), float("nan")],       # all NaN
    np.zeros(0),                        # empty
    [[2.0, 3.0], [4.0, -1.0]],
]


def _raises(fn, value) -> bool:
    try:
        fn(value)
    except ValueError:
        return True
    return False


@pytest.mark.parametrize("value", RANGE_CHECK_INPUTS)
def test_transmission_loss_range_check_matches_np_any(value):
    expected = bool(np.any(np.asarray(value, dtype=float) < 1.0))
    assert _raises(lambda r: transmission_loss_db(r, ChannelParams()), value) is expected


@pytest.mark.parametrize("value", RANGE_CHECK_INPUTS)
def test_frequency_checks_match_np_any(value):
    expected = bool(np.any(np.asarray(value, dtype=float) <= 0))
    assert _raises(thorp_absorption, value) is expected
    assert _raises(lambda f: noise_psd_db(f, ChannelParams()), value) is expected


def test_scalar_link_budget_matches_0d_array_arithmetic():
    # A single range or SNR is worked out on numpy scalars; the bits must be
    # those of the 0-d array expressions, ufunc for ufunc.
    rng = np.random.default_rng(3)
    params = ChannelParams(frequency_khz=18.0, spreading_factor_k=1.7)
    alpha = thorp_absorption(params.frequency_khz)
    ranges = np.concatenate([np.sqrt(np.arange(1.0, 3000.0)), 1.0 + rng.random(3000) * 1e4])
    for r in ranges.tolist():
        a = np.asarray(r)
        expected = float(params.spreading_factor_k * 10.0 * np.log10(a) + (a / 1000.0) * alpha)
        loss = transmission_loss_db(r, params)
        assert type(loss) is float and loss == expected, r
        snr = np.asarray(190.0 - loss - 70.0)
        rate = params.bandwidth_hz * np.log2(1.0 + 10.0 ** (snr / 10.0))
        for floor in (0.0, 60.0):
            expected = float(np.where(snr >= floor, rate, 0.0))
            got = shannon_throughput_bps(float(snr), params, floor)
            assert type(got) is float and got == expected, (r, floor)
    # Past about 3,083 dB, ``10 ** (snr / 10)`` overflows: Python's ``**``
    # raises where numpy's gives inf, and the rate is inf on both paths.
    for snr in (3083.0, 4000.0, 1e308, float("inf")):
        with np.errstate(over="ignore"):
            expected = float(params.bandwidth_hz * np.log2(1.0 + 10.0 ** (np.asarray(snr) / 10.0)))
        got = shannon_throughput_bps(snr, params, 0.0)
        assert type(got) is float and got == expected == math.inf, snr
    # A numpy scalar takes the float path and still gives a Python float,
    # with the bits of the 0-d array path.
    for r in (1.0, 250.0, 7777.7):
        loss = transmission_loss_db(np.float64(r), params)
        assert type(loss) is float and loss == transmission_loss_db(np.asarray(r), params), r
        rate = shannon_throughput_bps(np.float64(200.0 - loss), params, 0.0)
        assert type(rate) is float
        assert rate == shannon_throughput_bps(np.asarray(200.0 - loss), params, 0.0), r
    # A NaN range compares False and passes the range check; a NaN SNR is
    # in outage at any floor.
    assert math.isnan(transmission_loss_db(float("nan"), params))
    assert math.isnan(transmission_loss_db(np.asarray(float("nan")), params))
    for floor in (0.0, float("-inf")):
        assert shannon_throughput_bps(float("nan"), params, floor) == 0.0
        assert shannon_throughput_bps(np.asarray(float("nan")), params, floor) == 0.0
