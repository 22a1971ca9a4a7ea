"""aquaswipt: underwater acoustic SWIPT network simulator with tabular RL.

A deterministic 3D sensor-field environment where an AUV jointly maximizes
data-collection throughput and wireless power transfer, plus the channel
physics, coverage analytics, agents, and experiment campaign around it.
"""

__version__ = "0.1.0"

from .agents import (
    Algorithm,
    EpisodeMetrics,
    LearnConfig,
    QTable,
    TabularMdpEnv,
    greedy_rollout,
    random_rollout,
    train,
    value_iteration_oracle,
)
from .auv import AuvSpec, drag_force, move_energy, propulsion_power
from .campaign import (
    AggregateResult,
    CampaignConfig,
    actions_to_target,
    campaign_config_to_dict,
    desk_campaign_config,
    emit_datasets,
    energy_efficiency,
    run_campaign,
    run_coverage,
)
from .channel import (
    ChannelParams,
    ModemSpec,
    NoiseComponents,
    noise_level_db,
    noise_psd_db,
    received_snr_db,
    shannon_throughput_bps,
    source_level,
    thorp_absorption,
    transmission_loss_db,
)
from .coverage import (
    ConeGeometry,
    clipped_cone_volume_mc,
    cone_volume,
    coverage_pmf,
    coverage_sweep,
    coverage_tail,
)
from .env3d import (
    ACTIONS,
    EnvConfig,
    Environment,
    StateKey,
    StepOutcome,
    config_from_dict,
    deploy,
    env_config_to_dict,
    id_to_key,
    key_to_id,
)
from .harvest import (
    HarvestSpec,
    charge,
    harvestable_power,
    induced_voltage,
    split_power,
)
