"""Fleet error surface, following the tuner/backend lookup conventions."""

from __future__ import annotations

from typing import Iterable

from repro.engine.errors import UnknownNameError

__all__ = ["DuplicateTenantError", "UnknownTenantError"]


class UnknownTenantError(UnknownNameError):
    """Raised for a tenant id the fleet does not know.

    Like :class:`repro.api.UnknownTunerError` and
    :class:`repro.engine.UnknownBackendError`, it is both a :class:`KeyError`
    and a :class:`ValueError`.  The message lists every registered tenant id.
    """

    def __init__(self, tenant_id: str, known_tenants: Iterable[str]) -> None:
        known = ", ".join(sorted(known_tenants)) or "none registered"
        super().__init__(
            f"unknown tenant {tenant_id!r}; registered tenants: {known}"
        )
        self.tenant_id = tenant_id


class DuplicateTenantError(ValueError):
    """Raised when a tenant id is registered twice on the same fleet.

    Tenant ids key the fleet's deterministic result merge; silently replacing
    an existing session would discard its learned bandit state, so the fleet
    refuses instead.
    """

    def __init__(self, tenant_id: str) -> None:
        super().__init__(
            f"tenant {tenant_id!r} is already registered; "
            "tenant ids must be unique within a fleet"
        )
        self.tenant_id = tenant_id
