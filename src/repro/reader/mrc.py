"""Maximal-ratio combining decoder core (paper Sec. 4.3.2, Eq. 7).

The tag symbol period (8-2000 samples) is much longer than the combined
channel (a handful of taps), so within one symbol -- after a guard of
channel-length samples at the boundary -- the received signal is

``y[n] = e^{j theta_c} (x * h_fb)[n] + noise``.

MRC combines the samples of each symbol weighted by the known template
``yhat = x * h_fb``:

``theta_hat_c = sum(y yhat*) / sum(|yhat|^2)``

which is the ML estimate of the constant phase and yields an SNR gain
equal to the per-symbol template energy over the noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..dsp.fastpath import fast_convolve
from ..telemetry import get_collector

__all__ = ["MrcOutput", "mrc_combine", "expected_template"]


def expected_template(x: np.ndarray, h_fb: np.ndarray,
                      n_out: int) -> np.ndarray:
    """``yhat[n] = (x * h_fb)[n]``: the unmodulated backscatter replica."""
    return fast_convolve(x, h_fb)[:n_out]


@dataclass
class MrcOutput:
    """Per-symbol combined statistics."""

    symbols: np.ndarray = field(repr=False)
    noise_var: np.ndarray = field(repr=False)
    template_energy: np.ndarray = field(repr=False)

    @property
    def n_symbols(self) -> int:
        """Number of combined tag symbols (per batch element)."""
        return int(self.symbols.shape[-1]) if self.symbols.ndim \
            else int(self.symbols.size)

    def mean_snr_db(self) -> float:
        """Average post-MRC symbol SNR in dB (NaN when unmeasurable).

        With no positive noise-variance estimate there is no SNR to
        report; NaN propagates honestly through downstream statistics
        (``np.isfinite`` filters, table dashes) where ``+inf`` would
        masquerade as a perfect link.
        """
        good = self.noise_var > 0
        if not np.any(good):
            return float("nan")
        snr = np.mean(np.abs(self.symbols[good]) ** 2 / self.noise_var[good])
        return float(10.0 * np.log10(max(snr, 1e-30)))


def mrc_combine(
    y_clean: np.ndarray,
    template: np.ndarray,
    data_start: int,
    samples_per_symbol: int,
    n_symbols: int,
    *,
    guard: int = 8,
    noise_floor: float = 0.0,
) -> MrcOutput:
    """Combine each tag symbol's samples into one complex statistic.

    Parameters
    ----------
    y_clean:
        Post-cancellation received signal.
    template:
        ``x * h_fb`` replica aligned with ``y_clean``.
    data_start:
        Index of the first payload symbol's first sample.
    samples_per_symbol / n_symbols:
        Tag symbol geometry.
    guard:
        Samples ignored at the start of each symbol (channel transient
        across the phase switch -- "sample ignored" in paper Fig. 6).
    noise_floor:
        Per-sample noise power; used to report the per-symbol noise
        variance of the combined statistic for soft decoding.  When zero,
        the per-sample noise power is inferred per packet from the
        post-combine residuals (relative LLR scaling still correct).
    """
    tm = get_collector()
    with tm.span("mrc") as sp:
        out = _mrc_combine(y_clean, template, data_start,
                           samples_per_symbol, n_symbols,
                           guard=guard, noise_floor=noise_floor)
        if tm.enabled:
            sp.probe("n_symbols", out.n_symbols)
            sp.probe("samples_per_symbol", samples_per_symbol)
            sp.probe("guard", guard)
            sp.probe("mean_snr_db", out.mean_snr_db())
            sp.probe("mean_template_energy",
                     float(np.mean(out.template_energy)))
        return out


def _mrc_combine(
    y_clean: np.ndarray,
    template: np.ndarray,
    data_start: int,
    samples_per_symbol: int,
    n_symbols: int,
    *,
    guard: int,
    noise_floor: float,
) -> MrcOutput:
    y_clean = np.asarray(y_clean, dtype=np.complex128)
    template = np.asarray(template, dtype=np.complex128)
    if samples_per_symbol <= guard:
        raise ValueError(
            f"symbol of {samples_per_symbol} samples has no room after "
            f"a {guard}-sample guard"
        )
    end_needed = data_start + n_symbols * samples_per_symbol
    if end_needed > y_clean.shape[-1] or end_needed > template.shape[-1]:
        raise ValueError("signal shorter than the requested symbol span")

    # Leading axes (if any) are batch axes: a stack of captures sharing
    # one symbol geometry, combined in a single pass.
    batch = np.broadcast_shapes(y_clean.shape[:-1], template.shape[:-1])
    blk = (n_symbols, samples_per_symbol)
    span_len = end_needed - data_start
    y_blk = np.broadcast_to(
        y_clean[..., data_start:end_needed],
        batch + (span_len,)).reshape(batch + blk)
    t_blk = np.broadcast_to(
        template[..., data_start:end_needed],
        batch + (span_len,)).reshape(batch + blk)
    y_use = y_blk[..., guard:]
    t_use = t_blk[..., guard:]

    energy = np.sum(np.abs(t_use) ** 2, axis=-1)
    energy = np.maximum(energy, 1e-30)
    combined = np.sum(y_use * np.conj(t_use), axis=-1) / energy
    # Var of combined statistic: sigma^2 * sum|t|^2 / (sum|t|^2)^2.
    noise_floor_arr = np.asarray(noise_floor, dtype=np.float64)
    if noise_floor_arr.ndim == 0 and not batch:
        scalar_floor = float(noise_floor_arr)
        if scalar_floor > 0:
            noise_var = scalar_floor / energy
        else:
            # No measured floor: infer the per-sample noise power from
            # the post-combine residuals.  Each symbol's fit consumes one
            # complex degree of freedom (the phase estimate), hence the
            # m-1 divisor.
            resid = y_use - combined[..., None] * t_use
            m = y_use.shape[-1]
            sigma2 = float(np.sum(np.abs(resid) ** 2)) \
                / (n_symbols * max(m - 1, 1))
            noise_var = sigma2 / energy
    else:
        # Batched: a per-element floor (scalar broadcasts), with the
        # residual-inference fallback applied per element exactly as the
        # scalar path would -- computed only when some floor needs it.
        per_sample = np.broadcast_to(noise_floor_arr, batch)
        if not np.all(per_sample > 0):
            resid = y_use - combined[..., None] * t_use
            m = y_use.shape[-1]
            sigma2 = np.sum(np.abs(resid) ** 2, axis=(-2, -1)) \
                / (n_symbols * max(m - 1, 1))
            per_sample = np.where(per_sample > 0, per_sample, sigma2)
        noise_var = per_sample[..., None] / energy
    return MrcOutput(
        symbols=combined,
        noise_var=noise_var,
        template_energy=energy,
    )
