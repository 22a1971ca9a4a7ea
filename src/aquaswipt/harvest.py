"""Acoustic energy-harvesting receiver chain.

Converts a received SNR into an induced transducer voltage and harvestable
electrical power, splits received power between information decoding and
power transfer, and books harvested energy into a bounded store level.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class HarvestSpec:
    """Receiver-side harvesting parameters.

    ``sensitivity_db`` is 20*log10(M) for sensitivity M in V/uPa; passing
    only one of the pair fills in the other, passing both requires them to
    be consistent.
    """

    sensitivity_db: float = -160.0
    sensitivity_v_per_upa: float | None = None
    load_resistance_ohm: float = 125.0
    array_elements: int = 4
    ae_efficiency: float = 0.7
    split_ratio: float = 0.5

    def __post_init__(self):
        if self.sensitivity_v_per_upa is None:
            object.__setattr__(
                self, "sensitivity_v_per_upa", 10.0 ** (self.sensitivity_db / 20.0)
            )
        else:
            if self.sensitivity_v_per_upa <= 0:
                raise ValueError(
                    f"sensitivity_v_per_upa must be > 0, got {self.sensitivity_v_per_upa}"
                )
            derived = 20.0 * math.log10(self.sensitivity_v_per_upa)
            if not math.isclose(derived, self.sensitivity_db, rel_tol=1e-9, abs_tol=1e-9):
                raise ValueError(
                    "sensitivity_db and sensitivity_v_per_upa disagree: "
                    f"{self.sensitivity_db} vs {derived}"
                )
        if self.load_resistance_ohm <= 0:
            raise ValueError(
                f"load_resistance_ohm must be > 0, got {self.load_resistance_ohm}"
            )
        if self.array_elements < 1:
            raise ValueError(f"array_elements must be >= 1, got {self.array_elements}")
        if not 0.0 < self.ae_efficiency <= 1.0:
            raise ValueError(f"ae_efficiency must be in (0, 1], got {self.ae_efficiency}")
        if not 0.0 <= self.split_ratio <= 1.0:
            raise ValueError(f"split_ratio must be in [0, 1], got {self.split_ratio}")


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


def charge(level_j: float, capacity_j: float, efficiency: float,
           harvest_w: float, duration_s: float) -> tuple[float, float]:
    """Charge a store at ``level_j`` from ``harvest_w`` watts over ``duration_s``.

    ``efficiency`` scales the offered energy. Returns the new level and the
    energy actually accepted (J); the level never exceeds ``capacity_j``.
    """
    if not harvest_w >= 0:  # NaN fails too; min() would book the full headroom
        raise ValueError(f"harvest_w must be >= 0, got {harvest_w}")
    if not duration_s > 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    offered_j = harvest_w * duration_s * efficiency
    accepted_j = min(capacity_j - level_j, offered_j)
    return level_j + accepted_j, accepted_j
