"""The fixed table of tuners, looked up by display name.

:func:`create_tuner` builds one of the paper's tuners by name; the experiment
drivers in :mod:`repro.harness.experiments` and
:func:`repro.api.run_competition` entries go through it.  A tuner of one's
own needs no name: race it by passing a ``Callable[[Database], Tuner]`` to
:func:`repro.api.run_competition`, or drive it with
``TuningSession(database, MyTuner(database))``.

:class:`~repro.interface.TunerSpec` carries the per-experiment context
(``benchmark_name``/``workload_type``), so factories that specialise per
regime (PDTool's TPC-DS dynamic-random time cap) get it in one typed,
picklable object.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

from repro.baselines import DDQNTuner, NoIndexTuner, PDToolTuner, build_ddqn_sc
from repro.core.tuner import MabTuner
from repro.engine.errors import UnknownNameError, lookup_name
from repro.interface import Tuner, TunerSpec

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.catalog import Database

__all__ = [
    "TunerFactory",
    "TunerSpec",
    "UnknownTunerError",
    "create_tuner",
    "registered_tuner_names",
]


#: A factory builds a ready-to-run tuner for one database and spec.
TunerFactory = Callable[["Database", TunerSpec], Tuner]


class UnknownTunerError(UnknownNameError):
    """Raised for a name that is not one of the built-in tuners."""


def _ddqn_sc_from_spec(database: "Database", spec: TunerSpec) -> Tuner:
    del spec  # the SC variant differs only in its candidate space
    return build_ddqn_sc(database)


_TUNERS: dict[str, TunerFactory] = {
    "MAB": MabTuner.from_spec,
    "DDQN": DDQNTuner.from_spec,
    "DDQN_SC": _ddqn_sc_from_spec,
    "NoIndex": NoIndexTuner.from_spec,
    "PDTool": PDToolTuner.from_spec,
}


def registered_tuner_names() -> list[str]:
    """Display names of every built-in tuner, in table order."""
    return list(_TUNERS)


def create_tuner(name: str, database: "Database", spec: TunerSpec | None = None) -> Tuner:
    """Build a built-in tuner by name for ``database``.

    Lookups are case-insensitive and treat ``-`` and ``_`` alike.  Raises
    :class:`UnknownTunerError` (a ``ValueError``) naming the unknown tuner
    and listing every built-in name.
    """
    factory = lookup_name(_TUNERS, name, "tuner", UnknownTunerError)
    return factory(database, spec if spec is not None else TunerSpec())
