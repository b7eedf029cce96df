"""``repro.fleet`` — multi-tenant tuning: thousands of bandit sessions per process.

The paper frames C²UCB index tuning as something a managed cloud service runs
on behalf of its tenants.  This package is that control plane in miniature:

* :class:`TuningFleet` — N :class:`~repro.api.TuningSession`\\ s keyed by
  tenant id, stepped synchronously (:meth:`~TuningFleet.step`) or through the
  out-of-order ``submit``/``drain`` queue, with per-tenant results
  bit-identical to standalone sessions;
* :class:`TenantSpec` / :class:`FleetConfig` — frozen picklable recipes
  like :class:`~repro.api.TunerSpec`;
* :class:`DatabaseInterner` — spec-keyed memoisation so identical tenants
  share one immutable database statistics snapshot;
* :class:`UnknownTenantError` / :class:`DuplicateTenantError` — the fleet's
  error surface, matching the tuner/backend lookup conventions.

Every name here is re-exported from :mod:`repro.api`, the supported public
surface.
"""

from .errors import DuplicateTenantError, UnknownTenantError
from .fleet import TuningFleet
from .interning import DatabaseInterner
from .specs import FleetConfig, TenantSpec

__all__ = [
    "DatabaseInterner",
    "DuplicateTenantError",
    "FleetConfig",
    "TenantSpec",
    "TuningFleet",
    "UnknownTenantError",
]
