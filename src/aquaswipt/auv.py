"""AUV motion energetics: drag, propulsion power, per-move energy."""

import math
from dataclasses import dataclass

from .checks import check_field_types

Point = tuple[float, float, float]


@dataclass(frozen=True)
class AuvSpec:
    """Hydrodynamic and propulsion constants of the vehicle.

    ``hotel_load_w`` is the subsystem power draw excluding propulsion;
    ``cone_apex_angle_deg`` is the full apex angle of the downward-looking
    coverage cone.
    """

    drag_coefficient: float = 0.8
    frontal_area_m2: float = 0.5
    water_density_kgm3: float = 1025.0
    motor_efficiency: float = 0.7
    speed_mps: float = 2.0
    hotel_load_w: float = 20.0
    battery_level_j: float = 5e5
    cone_apex_angle_deg: float = 60.0

    def __post_init__(self):
        check_field_types(self)
        for name in ("drag_coefficient", "frontal_area_m2", "water_density_kgm3",
                     "speed_mps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not 0.0 < self.motor_efficiency <= 1.0:
            raise ValueError(
                f"motor_efficiency must be in (0, 1], got {self.motor_efficiency}"
            )
        if self.hotel_load_w < 0:
            raise ValueError(f"hotel_load_w must be >= 0, got {self.hotel_load_w}")
        if self.battery_level_j < 0:
            raise ValueError(f"battery_level_j must be >= 0, got {self.battery_level_j}")
        if not 0.0 < self.cone_apex_angle_deg < 180.0:
            raise ValueError(
                f"cone_apex_angle_deg must be in (0, 180), got {self.cone_apex_angle_deg}"
            )


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


def move_energy(spec: AuvSpec, from_point: Point, to_point: Point,
                dwell_s: float = 0.0) -> float:
    """Energy in joules to travel between two points at cruise speed.

    Propulsion plus hotel load over the transit time d/v. A zero-length
    move consumes hotel load only, over ``dwell_s``.
    """
    d = math.dist(from_point, to_point)
    if d == 0.0:
        return spec.hotel_load_w * dwell_s
    return (propulsion_power(spec) + spec.hotel_load_w) * d / spec.speed_mps
