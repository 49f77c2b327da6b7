"""The climate emulator (the paper's primary contribution).

The emulator decomposes spatio-temporal climate data as

``y_t^{(r)}(theta, phi) = m_t(theta, phi) + sigma(theta, phi) Z_t^{(r)}(theta, phi)``

(Eq. 1), with a deterministic distributed-lag mean trend ``m_t`` (Eq. 2), a
spatially varying scale ``sigma``, and a stochastic component ``Z_t``
modelled in the spherical-harmonic domain with a diagonal vector
autoregression whose innovation covariance is estimated empirically (Eq. 9)
and factorised with the mixed-precision tile Cholesky.

Modules
-------
* :mod:`repro.core.config` — configuration dataclass.
* :mod:`repro.core.trend` — the distributed-lag + harmonic mean model and
  its per-location profile fit.
* :mod:`repro.core.scale` — the scale field ``sigma``.
* :mod:`repro.core.var` — the diagonal VAR(P) in coefficient space.
* :mod:`repro.core.spectral_model` — the spectral stochastic model (SHT,
  VAR, innovation covariance, Cholesky).
* :mod:`repro.core.generator` — emulation generation (Section III-B).
* :mod:`repro.core.emulator` — the end-to-end :class:`ClimateEmulator` API.
* :mod:`repro.core.window` — windowed (lat/lon) extraction from emulated
  chunks, used by the serving layer.

The package exports the emulator, its configuration and the spatial
window.  The model components (``MeanTrendModel``, ``ScaleField``,
``SpectralStochasticModel``) are imported from their modules.
"""

from repro.core.config import EmulatorConfig
from repro.core.emulator import ClimateEmulator
from repro.core.window import SpatialWindow

__all__ = [
    "ClimateEmulator",
    "EmulatorConfig",
    "SpatialWindow",
]
