"""``repro.api`` — the public surface of the reproduction.

Everything a downstream caller needs lives here:

* the tuner protocol — :class:`Tuner`, :class:`Recommendation`;
* the tuner table — :func:`create_tuner`, :class:`TunerSpec`,
  :func:`registered_tuner_names`;
* the storage-backend table — :class:`BackendProfile`, :func:`get_backend`,
  :func:`registered_backend_names` — selecting the cost-model tier
  (``hdd``/``ssd``/``inmemory``/``cloud``) a database is priced on, via
  ``DatabaseSpec(backend=...)``, including *per table*:
  ``DatabaseSpec(table_backends={"lineitem": "inmemory"})``;
* session-based tuning — :class:`TuningSession` with its explicit
  ``recommend() / execute(queries) / observe()`` cycle and one-shot
  ``step(queries)``, for callers streaming their own workload;
* batch drivers — :func:`run_simulation` over pre-materialised workload
  rounds and :func:`run_competition` racing several tuners (optionally
  across processes) with deterministic report merging;
* the report containers — :class:`RunReport`, :class:`RoundReport`,
  :class:`FleetSummary` — and the safety layer pairing tuned runs against
  the NoIndex baseline: :class:`SafetyReport`, :func:`safety_reports`,
  :func:`rank_by_safety`, :class:`MissingBaselineError`;
* multi-tenant tuning — :class:`TuningFleet` multiplexing thousands of
  sessions per process with shared database snapshots and batched bandit
  scoring, plus its recipes (:class:`TenantSpec`, :class:`FleetConfig`),
  interner (:class:`DatabaseInterner`) and error surface
  (:class:`UnknownTenantError`, :class:`DuplicateTenantError`); these
  resolve lazily from :mod:`repro.fleet`, which builds on the session
  layer.

The experiment harness (:mod:`repro.harness`) reproduces the paper's tables
and figures *on top of* this API; nothing there is required to tune a
workload.
"""

from repro.engine.backend import (
    BackendProfile,
    UnknownBackendError,
    UnknownPlacementTableError,
    get_backend,
    registered_backend_names,
)
from repro.harness.metrics import (
    MissingBaselineError,
    RoundReport,
    RunReport,
    SafetyReport,
    rank_by_safety,
    safety_reports,
)
from repro.interface import Recommendation, Tuner, TunerSpec

from .registry import UnknownTunerError, create_tuner, registered_tuner_names
from .session import (
    DatabaseEvent,
    SimulationOptions,
    SimulationTrace,
    TuningSession,
    execute_round,
    run_simulation,
)
from .competition import CompetitionEntry, DatabaseSpec, run_competition

#: Names re-exported from :mod:`repro.fleet`.  Resolved lazily (PEP 562):
#: the fleet builds on this package's session layer, so an eager import here
#: would be circular; deferring it keeps both import orders working.
_FLEET_EXPORTS = frozenset(
    {
        "DatabaseInterner",
        "DuplicateTenantError",
        "FleetConfig",
        "FleetSummary",
        "TenantSpec",
        "TuningFleet",
        "UnknownTenantError",
    }
)

__all__ = [
    "BackendProfile",
    "CompetitionEntry",
    "DatabaseEvent",
    "DatabaseInterner",
    "DatabaseSpec",
    "DuplicateTenantError",
    "FleetConfig",
    "FleetSummary",
    "MissingBaselineError",
    "Recommendation",
    "RoundReport",
    "RunReport",
    "SafetyReport",
    "SimulationOptions",
    "SimulationTrace",
    "TenantSpec",
    "Tuner",
    "TunerSpec",
    "TuningFleet",
    "TuningSession",
    "UnknownBackendError",
    "UnknownPlacementTableError",
    "UnknownTenantError",
    "UnknownTunerError",
    "create_tuner",
    "execute_round",
    "get_backend",
    "rank_by_safety",
    "registered_backend_names",
    "registered_tuner_names",
    "run_competition",
    "run_simulation",
    "safety_reports",
]


def __getattr__(name: str) -> object:
    if name not in _FLEET_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value: object
    if name == "FleetSummary":
        from repro.harness import metrics

        value = metrics.FleetSummary
    else:
        import repro.fleet

        value = getattr(repro.fleet, name)
    globals()[name] = value  # cache: resolve each name at most once
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
