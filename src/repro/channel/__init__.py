"""Wireless channel and RF-hardware models (the paper's testbed stand-in)."""

from .doppler import (
    backscatter_fading,
    coherence_time_s,
    doppler_hz,
    jakes_fading,
)
from .dynamics import burst_interference, clock_drift, gain_step, hard_clip
from .environment import Scene, SceneConfig
from .geometry import (
    Room,
    build_geometric_scene,
    geometric_channel,
    image_method_paths,
)
from .hardware import (
    Adc,
    PaNonlinearity,
    carrier_frequency_offset,
    circulator_leakage_gain,
    coherence_impairment,
    iq_imbalance,
)
from .multipath import (
    apply_channel,
    channel_gain_db,
    exponential_pdp_channel,
    los_channel,
    rician_channel,
)
from .noise import awgn, complex_normal, noise_power_mw, thermal_noise_dbm
from .pathloss import (
    backscatter_roundtrip_loss_db,
    friis_pathloss_db,
    log_distance_pathloss_db,
)

__all__ = [
    "backscatter_fading",
    "coherence_time_s",
    "doppler_hz",
    "jakes_fading",
    "burst_interference",
    "clock_drift",
    "gain_step",
    "hard_clip",
    "Scene",
    "SceneConfig",
    "Room",
    "build_geometric_scene",
    "geometric_channel",
    "image_method_paths",
    "Adc",
    "PaNonlinearity",
    "carrier_frequency_offset",
    "coherence_impairment",
    "circulator_leakage_gain",
    "iq_imbalance",
    "apply_channel",
    "channel_gain_db",
    "exponential_pdp_channel",
    "los_channel",
    "rician_channel",
    "awgn",
    "complex_normal",
    "noise_power_mw",
    "thermal_noise_dbm",
    "backscatter_roundtrip_loss_db",
    "friis_pathloss_db",
    "log_distance_pathloss_db",
]
