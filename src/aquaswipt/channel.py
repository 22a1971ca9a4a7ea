"""Underwater acoustic link-budget computations.

- thorp_absorption: empirical seawater absorption (dB/km)
- source_level: projector source level from electrical input power
- transmission_loss_db: spreading + absorption loss over a range
- noise_psd_db: ambient noise components and their power sum
- received_snr_db: passive sonar equation
- shannon_throughput_bps: link capacity with an outage threshold

Frequencies are in kHz, ranges in metres, levels in dB re 1 uPa @ 1 m.
All functions are pure and accept numpy arrays in place of scalars.
``transmission_loss_db`` and ``shannon_throughput_bps`` work a single
value out in Python floats, with the same bits as the array path.
"""

import functools
import math
from dataclasses import dataclass
from typing import Annotated, NamedTuple

import numpy as np

from .checks import NON_NEGATIVE, POSITIVE, POSITIVE_UNIT, UNIT, Bound, check_field_types


@dataclass(frozen=True)
class ChannelParams:
    """Static description of one acoustic channel.

    ``noise_override_db`` replaces the composite ambient-noise model with a
    constant in-band noise level (dB) when set.
    """

    frequency_khz: Annotated[float, POSITIVE] = 24.0
    bandwidth_hz: Annotated[float, POSITIVE] = 4000.0
    spreading_factor_k: Annotated[float, Bound(1, 2)] = 1.5
    wind_speed_mps: Annotated[float, NON_NEGATIVE] = 10.0
    shipping_factor: Annotated[float, UNIT] = 0.0
    noise_override_db: float | None = None

    def __post_init__(self):
        check_field_types(self)


@dataclass(frozen=True)
class ModemSpec:
    """Acoustic modem: transmit side plus the receive decoding threshold.

    ``source_level_db`` overrides the level derived from electrical power
    when set; ``electrical_power_w`` is still used for energy accounting.
    """

    electrical_power_w: Annotated[float, POSITIVE] = 1000.0
    ea_efficiency: Annotated[float, POSITIVE_UNIT] = 0.5
    directivity_index_db: float = 0.0
    source_level_db: float | None = None
    min_snr_db: float = 0.0

    def __post_init__(self):
        check_field_types(self)


class NoiseComponents(NamedTuple):
    """Ambient noise PSDs in dB re 1 uPa^2/Hz plus their power-domain sum."""

    turbulence_db: float
    shipping_db: float
    waves_db: float
    thermal_db: float
    total_db: float


def thorp_absorption(frequency_khz):
    """Thorp seawater absorption coefficient in dB/km for f in kHz."""
    f = np.asarray(frequency_khz, dtype=float)
    if (f <= 0).any():
        raise ValueError("frequency_khz must be > 0")
    f2 = f * f
    out = 0.11 * f2 / (1.0 + f2) + 44.0 * f2 / (4100.0 + f2) + 2.75e-4 * f2 + 0.003
    return out if out.ndim else float(out)


@functools.lru_cache(maxsize=16)
def _absorption_db_per_km(frequency_khz: float) -> float:
    """``thorp_absorption`` of one frequency, worked out once per frequency."""
    return thorp_absorption(frequency_khz)


def source_level(modem: ModemSpec):
    """Source level in dB re 1 uPa @ 1 m, from electrical power unless overridden."""
    if modem.source_level_db is not None:
        return float(modem.source_level_db)
    return float(
        170.8
        + 10.0 * np.log10(modem.electrical_power_w)
        + 10.0 * np.log10(modem.ea_efficiency)
        + modem.directivity_index_db
    )


def transmission_loss_db(range_m, params: ChannelParams):
    """One-way transmission loss: k*10*log10(r) + absorption(f)*r_km, in dB.

    Ranges below the 1 m reference distance are rejected. A single range
    (a Python int or float, ``np.float64`` included) is worked out in
    Python floats, with only the logarithm a numpy call: IEEE ``+ - * /``
    round the same in Python as in numpy, so the bits are those of the
    array path at a fraction of its call overhead.
    """
    alpha = _absorption_db_per_km(params.frequency_khz)
    if isinstance(range_m, (int, float)):
        r = float(range_m)
        if r < 1.0:  # a NaN range compares False and passes, as below
            raise ValueError("range_m must be >= 1 m (reference distance)")
        return params.spreading_factor_k * 10.0 * float(np.log10(r)) + (r / 1000.0) * alpha
    r = np.asarray(range_m, dtype=float)
    # A NaN range compares False and passes; ``r.min()`` would instead let
    # a NaN entry hide a bad one.
    if (r < 1.0).any():
        raise ValueError("range_m must be >= 1 m (reference distance)")
    out = params.spreading_factor_k * 10.0 * np.log10(r) + (r / 1000.0) * alpha
    return out if out.ndim else float(out)


def noise_psd_db(frequency_khz, params: ChannelParams) -> NoiseComponents:
    """Turbulence, shipping, wave and thermal noise PSDs at f, plus the total.

    Components are summed in the linear power domain and converted back to dB.
    """
    f = np.asarray(frequency_khz, dtype=float)
    if (f <= 0).any():
        raise ValueError("frequency_khz must be > 0")
    s = params.shipping_factor
    w = params.wind_speed_mps
    n_t = 17.0 - 30.0 * np.log10(f)
    n_s = 30.0 + 20.0 * s + 26.0 * np.log10(f) - 60.0 * np.log10(f + 0.03)
    n_w = 50.0 + 7.5 * np.sqrt(w) + 20.0 * np.log10(f) - 40.0 * np.log10(f + 0.4)
    n_th = -15.0 + 20.0 * np.log10(f)
    total = 10.0 * np.log10(
        10.0 ** (n_t / 10.0)
        + 10.0 ** (n_s / 10.0)
        + 10.0 ** (n_w / 10.0)
        + 10.0 ** (n_th / 10.0)
    )
    if f.ndim:
        return NoiseComponents(n_t, n_s, n_w, n_th, total)
    return NoiseComponents(float(n_t), float(n_s), float(n_w), float(n_th), float(total))


def noise_level_db(params: ChannelParams) -> float:
    """In-band noise level: PSD total + 10*log10(B), or the constant override."""
    if params.noise_override_db is not None:
        return float(params.noise_override_db)
    total = noise_psd_db(params.frequency_khz, params).total_db
    return float(total + 10.0 * np.log10(params.bandwidth_hz))


def received_snr_db(source: ModemSpec, range_m, params: ChannelParams):
    """Received SNR in dB at an omnidirectional receiver: SL - TL - NL.

    The transmit directivity is already folded into the source level.
    """
    sl = source_level(source)
    tl = transmission_loss_db(range_m, params)
    nl = noise_level_db(params)
    out = sl - tl - nl
    return out if np.ndim(out) else float(out)


def shannon_throughput_bps(snr_db, params: ChannelParams, min_snr_db: float):
    """Capacity B*log2(1 + snr) in bit/s, exactly 0 below the outage threshold.

    A single SNR (a Python int or float, ``np.float64`` included) is worked
    out in Python floats, with only the logarithm a numpy call. Python's
    ``10 ** x`` calls libm ``pow``, as numpy's scalar power does, so the
    bits match the 0-d path; numpy's array power (``np.power``) can differ
    in the last bit. Where ``pow`` overflows, Python raises and numpy gives
    inf; the rate is then inf, as on the 0-d path.
    """
    if isinstance(snr_db, (int, float)):
        snr = float(snr_db)
        if not snr >= min_snr_db:  # a NaN SNR is in outage
            return 0.0
        try:
            linear = 10.0 ** (snr / 10.0)
        except OverflowError:
            linear = math.inf
        return params.bandwidth_hz * float(np.log2(1.0 + linear))
    snr = np.asarray(snr_db, dtype=float)
    rate = params.bandwidth_hz * np.log2(1.0 + 10.0 ** (snr / 10.0))
    if snr.ndim:
        return np.where(snr >= min_snr_db, rate, 0.0)
    return float(rate) if snr >= min_snr_db else 0.0
