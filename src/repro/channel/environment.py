"""Scene composition: all the channels of one BackFi deployment.

Power convention: sample streams carry power in **milliwatt units**, so a
waveform with ``mean(|x|^2) == p`` represents a ``10*log10(p)`` dBm
signal.  Channel taps are complex amplitude gains under this convention.

The scene realises (Fig. 1 of the paper):

* ``h_env`` -- TX leakage through the circulator plus environmental
  reflections (the self-interference channel),
* ``h_f`` / ``h_b`` -- forward (AP->tag) and backward (tag->AP) channels,
* ``h_ap_client`` / ``h_tag_client`` -- the downlink channel to the WiFi
  client and the tag->client interference channel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..constants import (
    CARRIER_FREQ_HZ,
    CIRCULATOR_ISOLATION_DB,
    INDOOR_PATHLOSS_EXPONENT,
    TAG_ANTENNA_GAIN_DBI,
    TX_POWER_DBM,
)
from ..utils.conversions import db_to_linear
from .multipath import exponential_pdp_channel, rician_channel
from .noise import noise_power_mw
from .pathloss import log_distance_pathloss_db

__all__ = ["Scene", "SceneConfig"]


@dataclass(frozen=True)
class SceneConfig:
    """Tunable physical parameters of a deployment."""

    tx_power_dbm: float = TX_POWER_DBM
    pathloss_exponent: float = INDOOR_PATHLOSS_EXPONENT
    rician_k_db: float = 12.0
    link_delay_spread_s: float = 40e-9
    env_delay_spread_s: float = 120e-9
    env_reflection_gain_db: float = -45.0
    circulator_isolation_db: float = CIRCULATOR_ISOLATION_DB
    tag_antenna_gain_dbi: float = TAG_ANTENNA_GAIN_DBI
    carrier_freq_hz: float = CARRIER_FREQ_HZ
    reciprocal_tag_channel: bool = False
    env_drift_rms: float = 5e-6
    """Relative drift of the self-interference channel over a packet
    (moving reflectors).  The digital canceller trains once on the 16 us
    silent period, so untracked drift raises its post-cancellation floor.
    The default keeps the drift residue just below thermal for a static
    lab (the paper's setting); raise it to study dynamic environments."""
    env_drift_coherence_us: float = 200.0
    client_extra_loss_db: float = 30.0
    """Walls/shadowing on the AP->client and tag->client paths.  Clients
    in a real deployment are rate-limited by obstructions, not free-space
    distance; this places the WiFi rate edges at realistic distances."""

    def __post_init__(self) -> None:
        if not self.env_drift_rms >= 0:
            raise ValueError(
                f"env_drift_rms must be >= 0, got {self.env_drift_rms}")
        if not self.env_drift_coherence_us > 0:
            raise ValueError("env_drift_coherence_us must be > 0, got "
                             f"{self.env_drift_coherence_us}")


@dataclass
class Scene:
    """One realisation of all channels for given node positions."""

    ap_pos: tuple[float, float]
    tag_pos: tuple[float, float]
    client_pos: tuple[float, float]
    config: SceneConfig
    h_env: np.ndarray = field(repr=False)
    h_f: np.ndarray = field(repr=False)
    h_b: np.ndarray = field(repr=False)
    h_ap_client: np.ndarray = field(repr=False)
    h_tag_client: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, *, tag_distance_m: float,
              client_distance_m: float = 10.0,
              client_angle_deg: float = 60.0,
              config: SceneConfig | None = None,
              rng: np.random.Generator | None = None) -> "Scene":
        """Create a scene with the tag on the x-axis and the client at an
        angle, then draw one random realisation of every channel."""
        rng = rng or np.random.default_rng()
        config = config or SceneConfig()
        if tag_distance_m <= 0 or client_distance_m <= 0:
            raise ValueError("distances must be positive")
        ap = (0.0, 0.0)
        tag = (tag_distance_m, 0.0)
        th = np.deg2rad(client_angle_deg)
        client = (client_distance_m * np.cos(th),
                  client_distance_m * np.sin(th))

        def link_gain_db(a, b, extra_gain_db=0.0):
            d = float(np.hypot(a[0] - b[0], a[1] - b[1]))
            d = max(d, 0.05)
            return extra_gain_db - log_distance_pathloss_db(
                d, exponent=config.pathloss_exponent,
                freq_hz=config.carrier_freq_hz,
            )

        def draw_link(a, b, extra_gain_db=0.0):
            return rician_channel(
                link_gain_db(a, b, extra_gain_db),
                config.rician_k_db,
                config.link_delay_spread_s,
                rng=rng,
            )

        # Self-interference: strong direct leakage tap + delayed
        # environmental reflections.
        leak = np.zeros(2, dtype=np.complex128)
        leak[0] = np.sqrt(db_to_linear(-config.circulator_isolation_db)) \
            * np.exp(1j * rng.uniform(0, 2 * np.pi))
        env = exponential_pdp_channel(
            config.env_delay_spread_s,
            gain_db=config.env_reflection_gain_db,
            rng=rng,
        )
        n_env = max(leak.size, env.size + 2)
        h_env = np.zeros(n_env, dtype=np.complex128)
        h_env[: leak.size] += leak
        h_env[2: 2 + env.size] += env  # reflections arrive ~100 ns later

        h_f = draw_link(ap, tag, config.tag_antenna_gain_dbi)
        if config.reciprocal_tag_channel:
            h_b = h_f.copy()
        else:
            h_b = draw_link(ap, tag, config.tag_antenna_gain_dbi)
        h_ap_client = draw_link(ap, client, -config.client_extra_loss_db)
        h_tag_client = draw_link(
            tag, client,
            config.tag_antenna_gain_dbi - config.client_extra_loss_db,
        )

        return cls(
            ap_pos=ap, tag_pos=tag, client_pos=client, config=config,
            h_env=h_env, h_f=h_f, h_b=h_b,
            h_ap_client=h_ap_client, h_tag_client=h_tag_client,
        )

    # -- derived quantities --------------------------------------------

    @property
    def tx_power_mw(self) -> float:
        """Transmit power in linear milliwatts."""
        return float(db_to_linear(self.config.tx_power_dbm))

    @property
    def noise_floor_mw(self) -> float:
        """Receiver thermal noise power in milliwatts."""
        return noise_power_mw()

    def combined_tag_channel(self) -> np.ndarray:
        """The convolution h_f * h_b seen by the MRC decoder."""
        return np.convolve(self.h_f, self.h_b)

    def expected_backscatter_snr_db(self, tag_reflection_loss_db: float = 5.0,
                                    mrc_samples: int = 1) -> float:
        """Oracle per-symbol SNR from the true channels (the paper's
        VNA-based "expected SNR" in Fig. 11a).

        ``mrc_samples`` is the number of combined samples per tag symbol;
        MRC over N samples improves SNR by N.
        """
        hfb = self.combined_tag_channel()
        gain = float(np.sum(np.abs(hfb) ** 2))
        gain *= db_to_linear(-tag_reflection_loss_db)
        rx_mw = self.tx_power_mw * gain
        snr = rx_mw / self.noise_floor_mw * max(mrc_samples, 1)
        return float(10.0 * np.log10(max(snr, 1e-30)))
