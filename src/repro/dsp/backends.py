"""Pluggable kernel backends for the DSP hot chain.

Three kernel slots cover the numerical primitives the decoder leans on:

``"fft"``
    A module-like namespace providing ``fft(x, n=None, axis=-1)`` and
    ``ifft(x, axis=-1)``.  Used by the overlap-save convolution in
    :mod:`repro.dsp.fastpath` (and hence every FFT-path correlation).
``"solve"``
    ``solve(a, b)`` for (possibly stacked) Hermitian positive-definite
    systems, as raised by the ridged normal equations in the digital
    canceller and the batched preamble solver.  Must accept ``a`` of
    shape ``(..., n, n)`` with matching stacked right-hand sides.
``"ar1"``
    ``ar1(w, rho, prev) -> y`` — the first-order recursion
    ``y[i] = w[i] + rho * y[i-1]`` seeded with ``y[-1] = prev``.  This is
    the coherence/drift impairment process in
    :mod:`repro.channel.hardware` and the one scalar loop where a JIT
    genuinely helps.  Stacked innovations ``(..., n)`` recurse along
    the last axis with ``prev`` broadcasting over the batch axes (how
    the batched session synthesizer applies one drift process per
    element in a single call).

Providers
---------
``numpy``
    Always available; the reference implementation for every kernel.
``scipy``
    Registered when SciPy imports: ``scipy.fft`` (pocketfft with SIMD),
    ``scipy.linalg.solve`` for 2-D systems, ``scipy.signal.lfilter`` for
    the AR(1) recursion.
``numba``
    Registered when numba imports; supplies a JIT-compiled ``ar1``
    recursion.  FFT and LAPACK solves gain nothing from a JIT, so those
    slots intentionally stay unregistered and fall through to auto
    detection.
``cupy``
    Not registered here — the seam is::

        import cupy
        from repro.dsp import backends
        backends.register_backend(
            "cupy", {"fft": cupy.fft, "solve": cupy.linalg.solve})

    from user code (kernels receive/return array-likes; callers convert
    at the boundary).  See docs/PERFORMANCE.md.

Selection order per kernel (first hit wins):

1. programmatic override — :func:`set_backend` / :func:`use_backend`
   with an explicit ``kernel`` (strict: missing kernel raises)
2. programmatic blanket override — :func:`set_backend` with no kernel
   (applies to every kernel the provider implements; others fall
   through)
3. ``REPRO_BACKEND_<KERNEL>`` environment variable, e.g.
   ``REPRO_BACKEND_FFT=numpy`` (strict)
4. ``REPRO_BACKEND`` environment variable (blanket; falls through for
   kernels the provider does not implement, but an entirely unknown
   provider name raises so typos fail loudly)
5. auto-detection order (fastest known implementation first):
   ``fft`` → scipy, numpy · ``solve`` → numpy, scipy ·
   ``ar1`` → scipy, numba, numpy

``solve`` auto-prefers numpy because ``np.linalg.solve`` has roughly a
third of SciPy's wrapper overhead on the sub-100-tap systems the decoder
produces, and it natively handles stacked batches.

Resolutions are cached; every registration or override invalidates the
cache.  Environment variables are read at resolution time, so call
:func:`invalidate_cache` after mutating ``os.environ`` mid-process.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Any, Callable, Iterator, Mapping

import numpy as np

__all__ = [
    "KERNELS",
    "BackendUnavailableError",
    "register_backend",
    "available_backends",
    "active_backend",
    "active_backends",
    "backend_summary",
    "get_kernel",
    "set_backend",
    "use_backend",
    "invalidate_cache",
]

KERNELS = ("fft", "solve", "ar1")

_ENV_GLOBAL = "REPRO_BACKEND"

_AUTO_ORDER = {
    "fft": ("scipy", "numpy"),
    "solve": ("numpy", "scipy"),
    "ar1": ("scipy", "numba", "numpy"),
}


class BackendUnavailableError(RuntimeError):
    """An explicitly requested backend/kernel combination is missing."""


# --------------------------------------------------------------------------
# reference + optional providers
# --------------------------------------------------------------------------

def _ar1_numpy(w: np.ndarray, rho: float, prev) -> np.ndarray:
    """Reference AR(1) recursion ``y[i] = w[i] + rho * y[i-1]``.

    Performs the same two floating-point operations per sample, in the
    same order, as SciPy's direct-form-II-transposed ``lfilter`` with
    ``b=[1], a=[1, -rho], zi=[rho*prev]`` — the outputs are
    bit-identical, just slower (a Python loop).  Stacked innovations
    ``(..., n)`` recurse along the last axis with one initial state per
    row (``prev`` broadcasting over the batch axes), each row
    bit-identical to its own scalar call.
    """
    w = np.asarray(w)
    out = np.empty_like(w)
    rho = float(rho)
    if w.ndim <= 1:
        acc = w.dtype.type(prev)
        for i in range(w.shape[0]):
            acc = w[i] + rho * acc
            out[i] = acc
        return out
    acc = np.broadcast_to(
        np.asarray(prev, dtype=w.dtype), w.shape[:-1]).copy()
    for i in range(w.shape[-1]):
        acc = w[..., i] + rho * acc
        out[..., i] = acc
    return out


def _ar1_scipy(w: np.ndarray, rho: float, prev) -> np.ndarray:
    from scipy.signal import lfilter

    w = np.asarray(w)
    rho = float(rho)
    zi = np.broadcast_to(
        np.asarray(rho * np.asarray(prev), dtype=np.result_type(w, prev)),
        w.shape[:-1],
    )[..., np.newaxis]
    if w.dtype != np.complex128:
        y, _ = lfilter([1.0], [1.0, -rho], w, zi=zi.copy())
        return y
    # A real rho never mixes real and imaginary parts, so filter the two
    # float64 planes of the innovations' own buffer (the last axis of its
    # (..., n, 2) view): per sample the same add and multiply as the
    # complex recursion, bit for bit, without its complex arithmetic.
    w = np.ascontiguousarray(w)
    planes = w.view(np.float64).reshape(w.shape + (2,))
    zi_planes = np.stack([zi.real, zi.imag], axis=-1)
    y, _ = lfilter([1.0], [1.0, -rho], planes, axis=-2, zi=zi_planes)
    return np.ascontiguousarray(y).view(np.complex128).reshape(w.shape)


def _solve_scipy(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    import scipy.linalg

    a = np.asarray(a)
    if a.ndim > 2:
        # SciPy's solve is strictly 2-D; stacked systems take the numpy
        # gufunc route (same LAPACK driver underneath).
        return np.linalg.solve(a, b)
    return scipy.linalg.solve(a, b)


def _make_numba_ar1(numba: Any) -> Callable[..., np.ndarray]:
    @numba.njit(cache=False)
    def _loop(w, rho, prev):  # pragma: no cover - needs numba
        out = np.empty_like(w)
        acc = prev
        for i in range(w.shape[0]):
            acc = w[i] + rho * acc
            out[i] = acc
        return out

    def _ar1_numba(w, rho, prev):  # pragma: no cover - needs numba
        w = np.ascontiguousarray(w)
        if w.ndim <= 1:
            return _loop(w, float(rho), w.dtype.type(prev))
        flat = w.reshape(-1, w.shape[-1])
        prevs = np.broadcast_to(
            np.asarray(prev, dtype=w.dtype), w.shape[:-1]).reshape(-1)
        out = np.empty_like(flat)
        for r in range(flat.shape[0]):
            out[r] = _loop(flat[r], float(rho), prevs[r])
        return out.reshape(w.shape)

    return _ar1_numba


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------

_LOCK = threading.RLock()
_PROVIDERS: dict[str, dict[str, Any]] = {}
_KERNEL_OVERRIDES: dict[str, str] = {}
_GLOBAL_OVERRIDE: str | None = None
_RESOLVED: dict[str, tuple[str, Any]] = {}


def register_backend(name: str, kernels: Mapping[str, Any]) -> None:
    """Register (or extend) a provider with ``{kernel: implementation}``.

    This is the CuPy/pyFFTW seam: third-party code registers its kernels
    here and selects them via ``set_backend``/``REPRO_BACKEND``.
    """
    unknown = set(kernels) - set(KERNELS)
    if unknown:
        raise ValueError(
            f"unknown kernel slots {sorted(unknown)}; valid slots are "
            f"{list(KERNELS)}")
    with _LOCK:
        _PROVIDERS.setdefault(name, {}).update(kernels)
        _RESOLVED.clear()


def invalidate_cache() -> None:
    """Drop cached resolutions (call after mutating ``os.environ``)."""
    with _LOCK:
        _RESOLVED.clear()


def available_backends() -> dict[str, tuple[str, ...]]:
    """Registered providers per kernel slot."""
    with _LOCK:
        return {
            kernel: tuple(sorted(
                name for name, impls in _PROVIDERS.items()
                if kernel in impls))
            for kernel in KERNELS
        }


def _lookup(kernel: str) -> tuple[str, Any]:
    if kernel not in KERNELS:
        raise KeyError(f"unknown kernel {kernel!r}; valid: {list(KERNELS)}")
    tiers = (
        (_KERNEL_OVERRIDES.get(kernel), True),
        (_GLOBAL_OVERRIDE, False),
        (os.environ.get(f"{_ENV_GLOBAL}_{kernel.upper()}"), True),
        (os.environ.get(_ENV_GLOBAL), False),
    )
    for name, strict in tiers:
        if not name:
            continue
        impl = _PROVIDERS.get(name, {}).get(kernel)
        if impl is not None:
            return name, impl
        if name not in _PROVIDERS:
            raise BackendUnavailableError(
                f"backend {name!r} is not registered (available: "
                f"{sorted(_PROVIDERS)})")
        if strict:
            raise BackendUnavailableError(
                f"backend {name!r} does not provide kernel {kernel!r} "
                f"(providers for it: {available_backends()[kernel]})")
        # Blanket request for a real provider that lacks this kernel:
        # fall through to the next tier.
    for name in _AUTO_ORDER[kernel]:
        impl = _PROVIDERS.get(name, {}).get(kernel)
        if impl is not None:
            return name, impl
    raise BackendUnavailableError(
        f"no backend registered for kernel {kernel!r}")


def get_kernel(kernel: str) -> Any:
    """The implementation currently selected for ``kernel``."""
    cached = _RESOLVED.get(kernel)
    if cached is not None:
        return cached[1]
    with _LOCK:
        resolved = _lookup(kernel)
        _RESOLVED[kernel] = resolved
        return resolved[1]


def active_backend(kernel: str) -> str:
    """Name of the provider currently selected for ``kernel``."""
    cached = _RESOLVED.get(kernel)
    if cached is not None:
        return cached[0]
    with _LOCK:
        resolved = _lookup(kernel)
        _RESOLVED[kernel] = resolved
        return resolved[0]


def active_backends() -> dict[str, str]:
    """``{kernel: provider}`` for every kernel slot."""
    return {kernel: active_backend(kernel) for kernel in KERNELS}


def backend_summary() -> str:
    """One-line ``fft=scipy solve=numpy ar1=scipy`` style summary."""
    return " ".join(f"{k}={v}" for k, v in active_backends().items())


def set_backend(provider: str | None, kernel: str | None = None) -> str | None:
    """Force ``provider`` for one kernel (or, with ``kernel=None``, for
    every kernel it implements).  ``provider=None`` clears the override.
    Returns the previous override so callers can restore it.
    """
    global _GLOBAL_OVERRIDE
    with _LOCK:
        if kernel is not None and kernel not in KERNELS:
            raise KeyError(
                f"unknown kernel {kernel!r}; valid: {list(KERNELS)}")
        if provider is not None:
            if provider not in _PROVIDERS:
                raise BackendUnavailableError(
                    f"backend {provider!r} is not registered (available: "
                    f"{sorted(_PROVIDERS)})")
            if kernel is not None and kernel not in _PROVIDERS[provider]:
                raise BackendUnavailableError(
                    f"backend {provider!r} does not provide kernel "
                    f"{kernel!r} (providers for it: "
                    f"{available_backends()[kernel]})")
        if kernel is None:
            previous = _GLOBAL_OVERRIDE
            _GLOBAL_OVERRIDE = provider
        else:
            previous = _KERNEL_OVERRIDES.get(kernel)
            if provider is None:
                _KERNEL_OVERRIDES.pop(kernel, None)
            else:
                _KERNEL_OVERRIDES[kernel] = provider
        _RESOLVED.clear()
    return previous


@contextlib.contextmanager
def use_backend(provider: str | None,
                kernel: str | None = None) -> Iterator[None]:
    """Context manager form of :func:`set_backend` (restores on exit)."""
    previous = set_backend(provider, kernel)
    try:
        yield
    finally:
        set_backend(previous, kernel)


def _register_defaults() -> None:
    register_backend("numpy", {
        "fft": np.fft,
        "solve": np.linalg.solve,
        "ar1": _ar1_numpy,
    })
    try:
        import scipy.fft as _scipy_fft
        import scipy.linalg  # noqa: F401 - availability probe
        import scipy.signal  # noqa: F401 - availability probe
    except ImportError:  # pragma: no cover - exercised on numpy-only CI leg
        pass
    else:
        register_backend("scipy", {
            "fft": _scipy_fft,
            "solve": _solve_scipy,
            "ar1": _ar1_scipy,
        })
    try:
        import numba  # noqa: F401
    except ImportError:
        pass
    else:  # pragma: no cover - numba not installed in the base image
        try:
            register_backend("numba", {"ar1": _make_numba_ar1(numba)})
        except Exception:
            # A broken numba install must never take down the import of
            # the reference path.
            pass


_register_defaults()
