"""Frozen, picklable recipes for fleet tenants and fleet-wide behaviour.

:class:`TenantSpec` follows :class:`~repro.api.TunerSpec` /
:class:`~repro.api.DatabaseSpec`: a tenant is named by a built-in tuner name
plus a picklable database recipe, never by
live objects, so fleets can be described declaratively (and shipped across
process boundaries) exactly like competition entries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api.competition import DatabaseSpec
from repro.api.registry import TunerSpec
from repro.api.session import SimulationOptions

__all__ = ["FleetConfig", "TenantSpec"]


@dataclass(frozen=True)
class TenantSpec:
    """One tenant of a :class:`~repro.fleet.TuningFleet`.

    Attributes:
        tenant_id: Unique id keying the tenant's session, submissions and
            reports (the fleet's deterministic merge key).
        database: Picklable recipe for the tenant's database.  Tenants whose
            specs share an :meth:`~repro.api.DatabaseSpec.intern_key` share
            one immutable statistics snapshot (see
            :class:`~repro.fleet.DatabaseInterner`).
        tuner: Name of the tenant's built-in tuner (``"MAB"``, ``"DDQN"``,
            ``"PDTool"``, ...), resolved through
            :func:`repro.api.create_tuner`.
        tuner_spec: Optional per-tenant tuner context; ``None`` uses the
            default :class:`~repro.api.TunerSpec`.
        options: Optional per-tenant execution options; ``None`` falls back
            to the fleet's :attr:`FleetConfig.default_options`.
    """

    tenant_id: str
    database: DatabaseSpec
    tuner: str = "MAB"
    tuner_spec: TunerSpec | None = None
    options: SimulationOptions | None = None


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-wide knobs (all tenants; per-tenant settings live on the spec).

    Every MAB tenant's recommendation round is scored in the fleet's one
    vectorized :func:`~repro.core.linear_bandit.batch_upper_confidence_scores`
    pass (bit-identical to per-session scoring by contract); DDQN, PDTool and
    NoIndex tenants recommend per session.

    Attributes:
        intern_databases: Materialise each distinct database spec once and
            hand tenants lightweight
            :meth:`~repro.engine.Database.tenant_view` clones sharing the
            statistics snapshot.  Disable to give every tenant a fully
            private database (N times the memory and startup cost).
        default_options: Execution options for tenants whose spec does not
            carry its own (``None`` uses the
            :class:`~repro.api.SimulationOptions` defaults).
    """

    intern_databases: bool = True
    default_options: SimulationOptions | None = None
