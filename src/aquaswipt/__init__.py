"""aquaswipt: underwater acoustic SWIPT network simulator with tabular RL.

A deterministic 3D sensor-field environment where an AUV jointly maximizes
data-collection throughput and wireless power transfer, plus the channel
physics, coverage analytics, agents, and experiment campaign around it.
The top level exports the names README.md documents; the physics and
analytics functions are imported from their modules.
"""

__version__ = "0.1.0"

from .agents import (
    Algorithm,
    EpisodeMetrics,
    LearnConfig,
    QTable,
    greedy_rollout,
    random_rollout,
    train,
)
from .auv import AuvSpec
from .campaign import CampaignConfig, desk_campaign_config, run_campaign
from .channel import ChannelParams, ModemSpec
from .checks import config_from_dict
from .env3d import (
    EnvConfig,
    Environment,
    StateKey,
    deploy,
    id_to_key,
    key_to_id,
)
from .harvest import HarvestSpec
