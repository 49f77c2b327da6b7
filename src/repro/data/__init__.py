"""Climate data substrate: synthetic ERA5-like simulations.

The paper trains its emulator on ERA5 2-metre temperature (hourly, 35
years; daily, 83 years).  ERA5 is not available offline, so this subpackage
generates *synthetic simulation ensembles with the same statistical
structure*: a latitude-dependent climatology with a land/sea contrast,
seasonal and diurnal cycles, a forced warming trend driven by a radiative
forcing trajectory, and spatially correlated anisotropic noise synthesised
from a prescribed angular power spectrum and an autoregressive temporal
model.  Because the generator is built from exactly the ingredients the
emulator estimates, the test-suite can verify parameter recovery against a
known ground truth — something the real ERA5 would not permit.

Modules
-------
* :mod:`repro.data.landsea` — a smooth synthetic land/sea mask used to
  induce longitudinal (anisotropic) structure.
* :mod:`repro.data.era5_like` — the gridded temperature-field generator.
* :mod:`repro.data.ensemble` — the ensemble container consumed by the
  emulator (data plus coordinates plus forcing).

Forcing pathways live in :mod:`repro.scenarios`
(``resolve_scenario(name).annual_forcing(n_years)``).
"""

from repro.data.era5_like import Era5LikeConfig, Era5LikeGenerator
from repro.data.ensemble import ClimateEnsemble

__all__ = [
    "ClimateEnsemble",
    "Era5LikeConfig",
    "Era5LikeGenerator",
]
