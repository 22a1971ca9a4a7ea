"""AUV motion energetics: drag, propulsion power, per-move energy."""

import math
from dataclasses import dataclass
from typing import Annotated

from .checks import NON_NEGATIVE, POSITIVE, POSITIVE_UNIT, Bound, check_field_types

Point = tuple[float, float, float]


@dataclass(frozen=True)
class AuvSpec:
    """Hydrodynamic and propulsion constants of the vehicle.

    ``hotel_load_w`` is the subsystem power draw excluding propulsion;
    ``cone_apex_angle_deg`` is the full apex angle of the downward-looking
    coverage cone.
    """

    drag_coefficient: Annotated[float, POSITIVE] = 0.8
    frontal_area_m2: Annotated[float, POSITIVE] = 0.5
    water_density_kgm3: Annotated[float, POSITIVE] = 1025.0
    motor_efficiency: Annotated[float, POSITIVE_UNIT] = 0.7
    speed_mps: Annotated[float, POSITIVE] = 2.0
    hotel_load_w: Annotated[float, NON_NEGATIVE] = 20.0
    battery_level_j: Annotated[float, NON_NEGATIVE] = 5e5
    cone_apex_angle_deg: Annotated[float, Bound(0, 180, True, True)] = 60.0

    def __post_init__(self):
        check_field_types(self)


def drag_force(spec: AuvSpec) -> float:
    """Drag force in newtons: Cd * A * rho * v^2 / (2 * beta)."""
    return (
        spec.drag_coefficient
        * spec.frontal_area_m2
        * spec.water_density_kgm3
        * spec.speed_mps**2
        / (2.0 * spec.motor_efficiency)
    )


def propulsion_power(spec: AuvSpec) -> float:
    """Electrical propulsion power in watts (drag force times speed)."""
    return drag_force(spec) * spec.speed_mps


def move_energy(spec: AuvSpec, from_point: Point, to_point: Point) -> float:
    """Energy in joules to travel between two points at cruise speed.

    Propulsion plus hotel load over the transit time d/v, so a zero-length
    move costs nothing: ``Environment`` books the hotel load of an idle step.
    """
    d = math.dist(from_point, to_point)
    return (propulsion_power(spec) + spec.hotel_load_w) * d / spec.speed_mps
