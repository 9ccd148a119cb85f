"""Self-interference cancellation at the BackFi reader (paper Sec. 4.2).

Two stages, as in the full-duplex radio literature the paper builds on:

* **Analog cancellation** happens before the ADC.  We model the analog
  canceller as subtracting the true environmental channel corrupted by a
  component-precision error (RF FIR filters have finitely accurate delay
  taps and attenuators), achieving a configurable cancellation depth.
  Without it, the self-interference saturates the ADC and the weak
  backscatter signal is lost in quantisation error.

* **Digital cancellation** estimates the *residual* linear
  self-interference channel by least squares over the tag's silent
  period -- the paper's key protocol trick that keeps the backscatter
  signal out of the cancellation filter -- and subtracts it from the
  entire packet.

What is left is the nonlinear PA residue plus thermal noise, reproducing
the ~2 dB SNR degradation of paper Fig. 11a.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..channel.hardware import Adc
from ..channel.noise import noise_power_mw
from ..dsp.fastpath import pad_stack, stacked_convolve
from ..dsp.measurements import residual_power_db
from ..telemetry import NullCollector, get_collector, probe_rows
from ..utils.conversions import db_to_linear

__all__ = [
    "ls_channel_estimate",
    "convolution_matrix",
    "AnalogCanceller",
    "DigitalCanceller",
    "CancellationResult",
    "SelfInterferenceCanceller",
    "StagedCancellation",
    "DEFAULT_ANALOG_RNG_SEED",
    "DEFAULT_RIDGE",
    "WARM_REUSE_MAX_RISE_DB",
]

DEFAULT_ANALOG_RNG_SEED = 0xBACF1
"""Seed for :meth:`AnalogCanceller.cancel` when no generator is passed.

The analog canceller's component-precision error is the only random
draw inside the reader; an *unseeded* default here would silently break
the repo's bit-identical-at-any-jobs-count guarantee for any caller
that forgets to thread its generator through.  Callers that care about
the error realisation (every experiment does) should still pass ``rng``
explicitly."""

WARM_REUSE_MAX_RISE_DB = 10.0
"""Residual-floor rise over thermal (held-out silent tail, dB) up to
which a streaming session may reuse the previous exchange's digital
taps instead of re-fitting.  Matches the reader's
``RESIDUAL_FLOOR_RISE_DB`` diagnosis threshold: a reused fit that would
trip the residual-floor classifier is refit instead."""

DEFAULT_RIDGE = 1e-3
"""Default Tikhonov ridge of :func:`ls_channel_estimate`, relative to the
excitation's column energy.  The sync solver and the grouped channel
estimate fold the same regulariser into their own Gram matrices."""

NORMAL_EQ_MIN_ROWS = 4
"""Row count above which ``method="auto"`` prefers the normal-equation
solve over the lstsq SVD (the SVD only wins on tiny systems where its
robustness is free)."""


def convolution_matrix(x: np.ndarray, n_taps: int,
                       rows: np.ndarray | None = None) -> np.ndarray:
    """Toeplitz matrix ``X`` with ``(X h)[n] = sum_k h[k] x[n-k]``.

    ``rows`` selects which output indices to include (defaults to all).
    """
    x = np.asarray(x, dtype=np.complex128)
    if n_taps < 1:
        raise ValueError("need at least one tap")
    padded = np.concatenate([np.zeros(n_taps - 1, dtype=np.complex128), x])
    full = np.lib.stride_tricks.sliding_window_view(padded, n_taps)[:, ::-1]
    if rows is None:
        return full
    return full[np.asarray(rows, dtype=np.intp)]


def ls_channel_estimate(x: np.ndarray, y: np.ndarray, n_taps: int,
                        rows: np.ndarray | None = None,
                        rcond: float = 1e-9,
                        ridge: float = DEFAULT_RIDGE,
                        method: str = "auto") -> np.ndarray:
    """Least-squares FIR channel estimate from known input/output.

    ``ridge`` adds Tikhonov regularisation relative to the excitation's
    column energy.  For a wideband input it is negligible; for a
    narrowband input (e.g. a BLE excitation) it suppresses the
    ill-conditioned null-space directions that would otherwise blow the
    estimate's norm up while "explaining" noise.

    ``method`` selects the solver:

    * ``"lstsq"`` -- the reference path: ridge rows appended to the
      design matrix, solved by SVD (``np.linalg.lstsq``).
    * ``"normal"`` -- the fast path: the Toeplitz-structured design
      matrix is collapsed into its ``n_taps x n_taps`` Gram matrix
      (normal equations, ridge folded into the diagonal) and solved
      directly.  Same minimiser as the SVD route up to
      float64 rounding, at a fraction of the cost for the long
      silent-period fits the :class:`DigitalCanceller` runs.
    * ``"auto"`` -- ``"normal"`` whenever the system is regularised and
      overdetermined enough for it to be safe, else ``"lstsq"``.

    ``y`` may carry leading batch axes ``(..., n)`` -- a stack of receive
    signals observed through the *same* excitation ``x``.  The design
    matrix is factored once and every right-hand side is solved in one
    multi-RHS call; the result has shape ``(..., n_taps)`` and each row
    matches the scalar call on that row.
    """
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    if x.ndim != 1:
        raise ValueError(
            "x must be 1-D (one shared excitation; stack y instead)")
    n_obs = y.shape[-1] if y.ndim else y.size
    if n_obs != x.size:
        raise ValueError("x and y must be the same length")
    if method not in ("auto", "normal", "lstsq"):
        raise ValueError(f"unknown method {method!r}")
    a = convolution_matrix(x, n_taps, rows)
    b = y if rows is None else y[..., np.asarray(rows, dtype=np.intp)]
    if a.shape[0] < n_taps:
        raise ValueError(
            f"only {a.shape[0]} equations for {n_taps} taps"
        )
    if method == "auto":
        method = "normal" if (
            ridge > 0 and a.shape[0] >= NORMAL_EQ_MIN_ROWS * n_taps
        ) else "lstsq"
    if method == "normal":
        h = _normal_equation_solve(a, b, ridge)
        if h is not None:
            return h
        # Singular Gram despite the ridge -- fall through to the SVD.
    if ridge > 0:
        col_energy = float(np.mean(np.sum(np.abs(a) ** 2, axis=0)))
        lam = np.sqrt(ridge * max(col_energy, 1e-300))
        a = np.vstack([a, lam * np.eye(n_taps, dtype=np.complex128)])
        zeros = np.zeros(b.shape[:-1] + (n_taps,), dtype=np.complex128)
        b = np.concatenate([b, zeros], axis=-1)
    if b.ndim <= 1:
        h, *_ = np.linalg.lstsq(a, b, rcond=rcond)
        return h
    batch = b.shape[:-1]
    h, *_ = np.linalg.lstsq(a, b.reshape(-1, b.shape[-1]).T, rcond=rcond)
    return h.T.reshape(batch + (n_taps,))


def _normal_equation_solve(a: np.ndarray, b: np.ndarray,
                           ridge: float) -> np.ndarray | None:
    """Solve ``(A^H A + lam^2 I) h = A^H b``; None if singular.

    The ridge keeps the Gram positive definite, so a plain LAPACK solve
    on the tiny ``n_taps x n_taps`` system is exact to rounding.
    ``np.linalg.solve`` has about a third of SciPy's wrapper overhead on
    these sub-100-tap systems.  ``b`` may be stacked ``(..., rows)``;
    all right-hand sides share the one Gram factorisation.
    """
    ac = a.conj().T
    g = ac @ a
    if ridge > 0:
        # Identical regulariser to the appended-rows form: lam^2 is the
        # ridge times the mean column energy, which is mean(diag(G)).
        col_energy = float(np.mean(g.diagonal().real))
        g.flat[:: g.shape[0] + 1] += ridge * max(col_energy, 1e-300)
    try:
        if b.ndim <= 1:
            return np.linalg.solve(g, ac @ b)
        batch = b.shape[:-1]
        rhs = ac @ b.reshape(-1, b.shape[-1]).T
        h = np.linalg.solve(g, rhs)
        return h.T.reshape(batch + (g.shape[0],))
    except np.linalg.LinAlgError:
        return None


@dataclass(frozen=True)
class AnalogCanceller:
    """Behavioural model of the RF cancellation board.

    Subtracts ``x * h_hat`` where ``h_hat`` is the true channel with a
    relative error of ``-depth_db`` -- i.e. the canceller leaves a residue
    ``depth_db`` below the original self-interference.
    """

    depth_db: float = 60.0
    n_taps: int = 16

    def tuned_taps(self, h_env: np.ndarray,
                   rng: np.random.Generator | None = None) -> np.ndarray:
        """The board's tuned tap vector: the true channel plus trim error.

        The error models fixed component precision -- once the board is
        tuned, its taps stay put until it is retuned.  Warm streaming
        sessions rely on exactly that: they draw the taps once and carry
        them across exchanges instead of re-randomising the hardware
        every frame.

        When ``rng`` is omitted the component-precision error is drawn
        from a generator seeded with :data:`DEFAULT_ANALOG_RNG_SEED`, so
        the result is deterministic either way -- an unseeded fallback
        here would break byte-identical experiment tables for any call
        site that forgets to pass its generator.
        """
        if rng is None:
            rng = np.random.default_rng(DEFAULT_ANALOG_RNG_SEED)
        h = np.asarray(h_env, dtype=np.complex128)[: self.n_taps]
        err_scale = np.sqrt(db_to_linear(-self.depth_db))
        h_power = np.sqrt(np.sum(np.abs(h) ** 2))
        err = (rng.standard_normal(h.size) + 1j * rng.standard_normal(h.size))
        err *= err_scale * h_power / np.sqrt(2.0 * h.size)
        return h + err

    def cancel(self, x: np.ndarray, y: np.ndarray, h_env: np.ndarray,
               rng: np.random.Generator | None = None) -> np.ndarray:
        """Return ``y`` minus the (imperfect) reconstruction of x*h_env."""
        y = np.asarray(y)
        return y - stacked_convolve(x, self.tuned_taps(h_env, rng=rng))[
            :y.size]


@dataclass(frozen=True)
class DigitalCanceller:
    """Linear LS digital cancellation trained on the silent period.

    The silent period always has far more rows than taps, so the fit
    takes :func:`ls_channel_estimate`'s normal-equation solve.  The
    residual may be a stack ``(n_rows, n)``: every row is fitted off one
    Gram factorisation (a multi-RHS solve) and the taps come back
    ``(n_rows, n_taps)``.
    """

    n_taps: int = 24

    def estimate(self, x: np.ndarray, residual: np.ndarray,
                 silent_rows: np.ndarray) -> np.ndarray:
        """Estimate the residual SI channel using only silent samples."""
        return ls_channel_estimate(x, residual, self.n_taps,
                                   rows=silent_rows)

    def cancel(self, x: np.ndarray, residual: np.ndarray,
               silent_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (cleaned signal, estimated channel)."""
        residual = np.asarray(residual)
        h = self.estimate(x, residual, silent_rows)
        recon = stacked_convolve(x, h)[..., : residual.shape[-1]]
        return residual - recon, h


@dataclass
class CancellationResult:
    """Diagnostics of a full cancellation pass.

    A pass over a stack of captures gives every field the stack's
    leading axis (``cleaned`` is ``(n_rows, n)``, the depths and
    ``adc_saturated`` are per-row arrays); :meth:`row` splits one out.
    """

    cleaned: np.ndarray = field(repr=False)
    analog_residual_db: float = float("nan")
    digital_residual_db: float = float("nan")
    total_depth_db: float = float("nan")
    adc_saturated: bool = False
    digital_taps: np.ndarray | None = field(default=None, repr=False)
    """The digital-stage FIR estimate this pass used (``None`` when the
    digital stage is disabled).  Streaming sessions carry it forward as
    the next exchange's warm-start candidate."""
    refit: bool = True
    """Whether the digital taps were fit on this capture (``False`` when
    a warm-started pass reused the previous exchange's taps)."""

    def row(self, b: int) -> CancellationResult:
        """Row ``b`` of a stacked pass as a one-capture result."""
        return CancellationResult(
            cleaned=self.cleaned[b],
            analog_residual_db=float(self.analog_residual_db[b]),
            digital_residual_db=float(self.digital_residual_db[b]),
            total_depth_db=float(self.total_depth_db[b]),
            adc_saturated=bool(self.adc_saturated[b]),
            digital_taps=None if self.digital_taps is None
            else self.digital_taps[b],
            refit=self.refit,
        )


class SelfInterferenceCanceller:
    """The complete analog -> ADC -> digital cancellation chain."""

    def __init__(self, *, analog: AnalogCanceller | None = None,
                 digital: DigitalCanceller | None = None,
                 adc: Adc | None = None,
                 analog_enabled: bool = True,
                 digital_enabled: bool = True):
        self.analog = analog or AnalogCanceller()
        self.digital = digital or DigitalCanceller()
        self.adc = adc or Adc()
        self.analog_enabled = analog_enabled
        self.digital_enabled = digital_enabled

    def deepen(self, factor: int = 2) -> SelfInterferenceCanceller:
        """A copy of this chain with a longer digital filter.

        The reader's recovery escalation uses this when a decode fails
        with an anomalously high residual floor: more taps capture more
        of the residual SI channel's delay spread.
        """
        return SelfInterferenceCanceller(
            analog=self.analog,
            digital=DigitalCanceller(n_taps=self.digital.n_taps * factor),
            adc=self.adc,
            analog_enabled=self.analog_enabled,
            digital_enabled=self.digital_enabled,
        )

    def cancel(self, x: np.ndarray, y: np.ndarray, h_env,
               silent_rows: np.ndarray, rng=None) -> CancellationResult:
        """Run the full chain.

        Parameters
        ----------
        x:
            The known transmitted waveform (after the PA model -- the
            canceller taps the PA output, as in the paper's design).
        y:
            The received waveform (self-interference + backscatter +
            noise), or a stack ``(n_rows, n)`` of captures of ``x``.
        h_env:
            The true environment channel (the analog canceller's tuning
            target); one per row for a stack.
        silent_rows:
            Sample indices of the tag's silent period, used to train the
            digital stage without touching the backscatter signal.
        rng:
            The analog board's generator; one (or ``None``) per row for
            a stack.
        """
        with get_collector().span("cancellation") as sp:
            y = np.asarray(y, dtype=np.complex128)
            staged = self.begin(x, h_env, y.shape[-1], rng=rng)
            after_analog = staged.analog(y)
            # The reconstruction is spent: free it (a stack's worth of
            # samples) before the frame-barrier stages allocate theirs.
            staged.recon = None
            return staged.finish(y, after_analog, silent_rows, sp)

    def begin(self, x: np.ndarray, h_env, n_out: int, rng=None,
              analog_taps: np.ndarray | None = None
              ) -> "StagedCancellation":
        """Start a cancellation pass whose receive signal arrives later.

        Draws the analog canceller's component-precision error and
        precomputes the full-length reconstruction *now* (the reader
        knows what it transmitted before anything is received), so the
        returned :class:`StagedCancellation` can subtract the analog
        stage from receive-sample chunks as they arrive.  The rng draw
        happens at the same stream position as in :meth:`cancel`, which
        keeps a chunked pass bit-identical to a one-shot pass.  For a
        stack (``h_env`` a sequence of 1-D channels, ``rng`` one
        generator or ``None`` per row) each row draws from its own
        generator, in row order.

        ``analog_taps`` skips the draw and reuses an already-tuned board
        state (a warm session carrying hardware trim across exchanges);
        ``rng`` is then left untouched, so warm passes trade byte-
        identity with the batch path for the persistence a real board
        has.
        """
        x = np.asarray(x, dtype=np.complex128)
        recon = h_hat = None
        if self.analog_enabled:
            if analog_taps is not None:
                h_hat = np.asarray(analog_taps, dtype=np.complex128)
            elif len(h_env) and np.ndim(h_env[0]) == 1:
                rngs = [None] * len(h_env) if rng is None else rng
                h_hat = pad_stack([self.analog.tuned_taps(h, rng=r)
                                   for h, r in zip(h_env, rngs)])
            else:
                h_hat = self.analog.tuned_taps(h_env, rng=rng)
            recon = stacked_convolve(x, h_hat)[..., :n_out]
        return StagedCancellation(chain=self, x=x, recon=recon,
                                  analog_taps=h_hat)


class StagedCancellation:
    """A cancellation pass split at the analog/digital boundary.

    The analog stage is a per-sample subtraction against a reconstruction
    that is already fully known at :meth:`SelfInterferenceCanceller.begin`
    time, so it streams; everything after it (AGC, ADC, the silent-period
    LS fit) needs global statistics of the capture and runs once at the
    frame barrier in :meth:`finish`.  The one-shot canceller (on one
    capture or a stack) and the streaming decoder both run through this
    class, so there is exactly one implementation of the chain.
    """

    def __init__(self, *, chain: SelfInterferenceCanceller, x: np.ndarray,
                 recon: np.ndarray | None,
                 analog_taps: np.ndarray | None = None):
        self.chain = chain
        self.x = x
        self.recon = recon
        self.analog_taps = analog_taps
        """The analog board state this pass subtracts with (``None`` when
        the analog stage is disabled).  Warm sessions carry it forward."""

    def analog(self, y_chunk: np.ndarray, start: int = 0) -> np.ndarray:
        """Analog-cancel one receive chunk beginning at sample ``start``
        (chunks of a stack carry its leading axis)."""
        y_chunk = np.asarray(y_chunk, dtype=np.complex128)
        if self.recon is None:
            return y_chunk.copy()
        return y_chunk - self.recon[..., start:start + y_chunk.shape[-1]]

    def finish(self, y: np.ndarray, after_analog: np.ndarray,
               silent_rows: np.ndarray, sp=None, *,
               warm_taps: np.ndarray | None = None) -> CancellationResult:
        """Run the frame-barrier stages on the assembled capture.

        ``y`` is the raw receive signal (for depth metrics only) and
        ``after_analog`` the concatenation of :meth:`analog` outputs.
        For stacks ``(n_rows, n)`` every row gets its own AGC scale and
        depth metrics, the digital fits share one Gram factorisation,
        and the result carries the stack axis.
        ``warm_taps`` offers a previous exchange's digital FIR estimate:
        it is reused -- skipping the LS fit -- if the held-out silent
        residual it leaves stays within :data:`WARM_REUSE_MAX_RISE_DB`
        of thermal on every row, else the pass falls back to a fresh fit.
        """
        if sp is None:
            sp = NullCollector().span("cancellation")
        chain = self.chain
        x = self.x
        y = np.asarray(y, dtype=np.complex128)
        single = y.ndim == 1
        y = np.atleast_2d(y)
        after_analog = np.atleast_2d(
            np.asarray(after_analog, dtype=np.complex128))
        silent_rows = np.asarray(silent_rows, dtype=np.intp)

        # Depth metrics are evaluated on the silent period only: elsewhere
        # the surviving backscatter signal would mask the true SI residue.
        analog_db = _depth_db(y[:, silent_rows], after_analog[:, silent_rows])

        # AGC + ADC: the converter is scaled to whatever survives analog
        # cancellation.  The AGC statistic is global (RMS over the whole
        # capture), which is why this stage sits behind the frame barrier.
        quantized, saturated = chain.adc.agc_quantize(after_analog)

        # Train the digital stage on the first 3/4 of the silent period
        # and report depth on the held-out tail, so LS overfitting does
        # not flatter the metric (or the reader's noise-floor estimate).
        split = (3 * silent_rows.size) // 4
        train_rows = silent_rows[:split]
        eval_rows = silent_rows[split:]
        cleaned, taps, refit = quantized, None, True
        if chain.digital_enabled:
            if warm_taps is not None:
                reused = quantized - stacked_convolve(x, warm_taps)[
                    :quantized.shape[-1]]
                residual_mw = np.mean(np.abs(reused[:, eval_rows]) ** 2,
                                      axis=-1)
                rise_db = 10.0 * np.log10(np.maximum(residual_mw, 1e-30)
                                          / max(noise_power_mw(), 1e-30))
                if np.all(rise_db <= WARM_REUSE_MAX_RISE_DB):
                    cleaned, refit = reused, False
                    taps = np.broadcast_to(warm_taps,
                                           (len(y), np.size(warm_taps)))
            if refit:
                cleaned, taps = chain.digital.cancel(
                    x, quantized, train_rows)
        digital_db = _depth_db(quantized[:, eval_rows], cleaned[:, eval_rows])
        total_db = _depth_db(y[:, eval_rows], cleaned[:, eval_rows])
        if get_collector().enabled:
            # Residual SI power after the full chain, measured on the
            # held-out silent tail (the probe GuardRider-style field
            # debugging wants first).
            residual_mw = np.mean(np.abs(cleaned[:, eval_rows]) ** 2,
                                  axis=-1)
            probe_rows(sp, "analog_depth_db", analog_db)
            probe_rows(sp, "digital_depth_db", digital_db)
            probe_rows(sp, "total_depth_db", total_db)
            probe_rows(sp, "residual_si_dbm",
                       10.0 * np.log10(np.maximum(residual_mw, 1e-30)))
            probe_rows(sp, "adc_saturated", saturated)
            if warm_taps is not None:
                sp.probe("digital_refit", refit)
        result = CancellationResult(
            cleaned=cleaned,
            analog_residual_db=analog_db,
            digital_residual_db=digital_db,
            total_depth_db=total_db,
            adc_saturated=saturated,
            digital_taps=taps,
            refit=refit,
        )
        return result.row(0) if single else result


def _depth_db(before: np.ndarray, after: np.ndarray) -> np.ndarray:
    """:func:`residual_power_db` of each row."""
    return np.array([residual_power_db(b, a) for b, a in zip(before, after)])
