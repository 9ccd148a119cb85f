"""Generic DSP building blocks used by the PHYs and the reader."""

from .correlation import (
    find_correlation_peak,
    normalized_cross_correlation,
    schmidl_cox_metric,
    sliding_correlation,
)
from .fastpath import fast_convolve, fast_correlate_valid
from .filters import (
    design_lowpass,
    fir_filter,
    fractional_delay_filter,
    moving_average,
)
from .measurements import (
    evm_rms,
    occupied_bandwidth_hz,
    papr_db,
    residual_power_db,
    symbol_snr_db,
)
from .resample import decimate, hold_expand, upsample_interp
from .spectrum import ascii_spectrum, band_power_mw, psd_db, welch_psd

__all__ = [
    "find_correlation_peak",
    "normalized_cross_correlation",
    "schmidl_cox_metric",
    "sliding_correlation",
    "fast_convolve",
    "fast_correlate_valid",
    "design_lowpass",
    "fir_filter",
    "fractional_delay_filter",
    "moving_average",
    "evm_rms",
    "occupied_bandwidth_hz",
    "papr_db",
    "residual_power_db",
    "symbol_snr_db",
    "decimate",
    "hold_expand",
    "upsample_interp",
    "ascii_spectrum",
    "band_power_mw",
    "psd_db",
    "welch_psd",
]
