"""Pinned-output gate: the desk grid's seven CSVs must keep their exact bytes.

The other tests compare one run against another of the same code, so a
change that shifts every result alike would pass them. This test runs the
reduced desk grid (one Monte-Carlo run per cell, 200 training episodes,
seed 0: q_learning, sarsa and random at 10/25/50 nodes, the five-value
gamma sweep, actions-to-target and the coverage sweep) and compares the
sha256 of each CSV with a recorded digest. The digests are those of the
``desk-campaign`` workload in ``bench/pins.json``.

Float results depend on the interpreter and numpy builds, so the test
skips on any other pair than the one the digests were recorded with. A
deliberate change of the bytes must update these digests and the bench
pins together, and say why in CHANGES.md.
"""

import dataclasses
import hashlib
import platform

import numpy as np
import pytest

from aquaswipt.campaign import DATASET_FILES, desk_campaign_config, run_campaign

PINNED_PYTHON = "3.11.7"
PINNED_NUMPY = "2.4.6"

DESK_DIGESTS = {
    "fig_actions_harvest.csv":
        "e2e2f4347056a2ae4dc023411741ab64a4dfc5669fdacb7109744100d6728c1e",
    "fig_actions_throughput.csv":
        "d1ef6e4c135ebe0a04c4ee2e86b0474e4d5b6bce22b33385dc55afe7baae6740",
    "fig_coverage.csv":
        "1bcc87a3ff2042ba59bc69ee86cc1c3ab531fd7e68e69e718f5a5c35c9c42341",
    "fig_ee.csv":
        "7ebe383a47d7b8de727a503e157621027816abd4d9d728e513d3b42b54884375",
    "fig_gamma.csv":
        "783153079de2172295b2a6e60f5d063812d8be62455c8c9a94c3b97437c70dcc",
    "fig_harvest.csv":
        "3dfd233fdd8fb9a3a24bacbb4465888ee43274a29211df9557a4cae672b91ba5",
    "fig_throughput.csv":
        "dec0165b510309afbce3f6b7b0bf84d2d8c0d73014ef17ac30b088f1c8168a10",
}


def test_desk_grid_csvs_match_pinned_digests(tmp_path):
    found = (platform.python_version(), np.__version__)
    if found != (PINNED_PYTHON, PINNED_NUMPY):
        pytest.skip(f"digests pinned for Python {PINNED_PYTHON} / numpy "
                    f"{PINNED_NUMPY}; found Python {found[0]} / numpy {found[1]}")
    config = desk_campaign_config(mc_runs=1, gamma_mc_runs=1,
                                  output_dir=str(tmp_path))
    config = dataclasses.replace(
        config,
        env=dataclasses.replace(config.env, rng_seed=0),
        learn=dataclasses.replace(config.learn, episodes=200, seed=0),
    )
    run_campaign(config, write=True)
    assert set(DESK_DIGESTS) == set(DATASET_FILES)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in DATASET_FILES}
    assert digests == DESK_DIGESTS
