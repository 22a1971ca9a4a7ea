"""Acoustic energy-harvesting receiver chain.

Converts a received SNR into an induced transducer voltage and harvestable
electrical power, and splits received power between information decoding
and power transfer. The environment step books the harvested share into the
node stores.
"""

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .checks import POSITIVE, POSITIVE_UNIT, UNIT, Bound, check_field_types


@dataclass(frozen=True)
class HarvestSpec:
    """Receiver-side harvesting parameters.

    ``sensitivity_db`` is 20*log10(M) for sensitivity M in V/uPa.
    """

    sensitivity_db: float = -160.0
    load_resistance_ohm: Annotated[float, POSITIVE] = 125.0
    array_elements: Annotated[int, Bound(1)] = 4
    ae_efficiency: Annotated[float, POSITIVE_UNIT] = 0.7
    split_ratio: Annotated[float, UNIT] = 0.5

    def __post_init__(self):
        check_field_types(self)


def induced_voltage(snr_db, spec: HarvestSpec):
    """Voltage induced across the transducer terminals, in volts."""
    out = 10.0 ** (np.asarray(snr_db, dtype=float) / 20.0) * 10.0 ** (
        spec.sensitivity_db / 20.0
    )
    return out if out.ndim else float(out)


def harvestable_power(snr_db, spec: HarvestSpec):
    """Electrical power available for harvesting, in watts.

    n * eta * 10^((snr + sensitivity)/10) / (4 * R_load); equals the
    induced-voltage form n * eta * V^2 / (4 * R_load).
    """
    snr = np.asarray(snr_db, dtype=float)
    out = (
        spec.array_elements
        * spec.ae_efficiency
        * 10.0 ** ((snr + spec.sensitivity_db) / 10.0)
        / (4.0 * spec.load_resistance_ohm)
    )
    return out if out.ndim else float(out)


def split_power(received_power_w: float, split_ratio: float) -> tuple[float, float]:
    """Split received power into (information, harvesting) watts.

    The pair sums to the input bit-exactly; the harvest share absorbs the
    rounding residue of the ratio multiply.
    """
    if received_power_w < 0:
        raise ValueError(f"received_power_w must be >= 0, got {received_power_w}")
    if not 0.0 <= split_ratio <= 1.0:
        raise ValueError(f"split_ratio must be in [0, 1], got {split_ratio}")
    info_w = split_ratio * received_power_w
    harvest_w = received_power_w - info_w
    for _ in range(4):
        residue = (info_w + harvest_w) - received_power_w
        if residue == 0.0:
            break
        harvest_w -= residue
    else:
        # Correction can dither by half an ulp; re-derive the info share so
        # the sum closes by construction.
        info_w = received_power_w - harvest_w
    if harvest_w < 0.0:
        info_w, harvest_w = received_power_w, 0.0
    elif info_w < 0.0:
        info_w, harvest_w = 0.0, received_power_w
    return info_w, harvest_w
