"""The pluggable tuner registry.

Tuners register themselves by display name (plus optional aliases) and are
built through :func:`create_tuner`, which replaces the harness's old
hardcoded ``if/elif`` factory.  Registration is open: downstream packages add
their own tuner with::

    from repro.api import Tuner, TunerSpec, register_tuner

    @register_tuner("MyTuner")
    class MyTuner(Tuner):
        @classmethod
        def from_spec(cls, database, spec: TunerSpec) -> "MyTuner":
            return cls(database)
        ...

and it immediately becomes usable everywhere a tuner name is accepted —
``create_tuner``, :func:`repro.api.run_competition` entries and the
experiment drivers in :mod:`repro.harness.experiments`.

:class:`TunerSpec` carries the per-experiment context that used to be
threaded positionally (``benchmark_name``/``workload_type``) so factories
that specialise per regime (PDTool's TPC-DS dynamic-random time cap) get it
in one typed, picklable object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, overload

from repro.interface import Tuner

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.catalog import Database

__all__ = [
    "TunerFactory",
    "TunerSpec",
    "UnknownTunerError",
    "create_tuner",
    "register_tuner",
    "registered_tuner_names",
]


@dataclass(frozen=True)
class TunerSpec:
    """Typed, picklable context handed to every tuner factory.

    The spec describes *where* the tuner will run, not *how* it learns —
    per-algorithm hyper-parameters stay in each tuner's own config object.
    """

    #: Benchmark the tuner will face (``tpch``, ``tpcds``, ...; "" if ad hoc).
    benchmark_name: str = ""
    #: Workload regime (``static``, ``shifting`` or ``random``).
    workload_type: str = "static"
    #: Cap on one PDTool invocation's modelled time when tuning TPC-DS
    #: dynamic random, matching the paper's 1-hour restriction.
    pdtool_invocation_limit_seconds: float | None = 3600.0


#: A factory builds a ready-to-run tuner for one database and spec.
TunerFactory = Callable[["Database", TunerSpec], Tuner]


class UnknownTunerError(KeyError, ValueError):
    """Raised for a tuner name nobody registered.

    Subclasses both :class:`KeyError` (a failed name lookup) and
    :class:`ValueError` (a bad argument), so either ``except`` spelling
    catches it.
    """

    # KeyError.__str__ reprs the message (extra quotes); render it plainly.
    __str__ = Exception.__str__


_REGISTRY: dict[str, TunerFactory] = {}
#: Primary display names in registration order (for error messages/listings).
_PRIMARY_NAMES: list[str] = []


def _normalise(name: str) -> str:
    return name.strip().lower().replace("-", "_")


def _register(names: tuple[str, ...], factory: TunerFactory) -> None:
    primary = names[0]
    if _normalise(primary) not in (_normalise(n) for n in _PRIMARY_NAMES):
        _PRIMARY_NAMES.append(primary)
    for name in names:
        _REGISTRY[_normalise(name)] = factory


@overload
def register_tuner(name: str, *aliases: str) -> Callable[[type[Tuner]], type[Tuner]]: ...


@overload
def register_tuner(name: str, *aliases: str, factory: TunerFactory) -> TunerFactory: ...


def register_tuner(
    name: str, *aliases: str, factory: TunerFactory | None = None
) -> "Callable[[type[Tuner]], type[Tuner]] | TunerFactory":
    """Register a tuner under ``name`` (and ``aliases``).

    Use as a class decorator (the class must offer ``from_spec(database,
    spec)``, which :class:`repro.interface.Tuner` provides by default)::

        @register_tuner("MAB")
        class MabTuner(Tuner): ...

    or call directly with an explicit ``factory`` for variants that are not
    their own class (e.g. DDQN-SC)::

        register_tuner("DDQN_SC", factory=lambda db, spec: DDQNTuner(db, sc_config))
    """
    if factory is not None:
        _register((name, *aliases), factory)
        return factory

    def decorate(cls: type[Tuner]) -> type[Tuner]:
        _register((name, *aliases), cls.from_spec)
        return cls

    return decorate


def _ensure_builtin_tuners() -> None:
    """Import the modules whose import side effect registers the built-ins.

    Lazy so that :mod:`repro.api` stays importable from inside those very
    modules (they decorate their classes with :func:`register_tuner`).
    """
    import repro.baselines  # noqa: F401  (registers NoIndex, PDTool, DDQN, DDQN_SC)
    import repro.core.tuner  # noqa: F401  (registers MAB)


def registered_tuner_names() -> list[str]:
    """Primary display names of every registered tuner, registration order."""
    _ensure_builtin_tuners()
    return list(_PRIMARY_NAMES)


def create_tuner(name: str, database: "Database", spec: TunerSpec | None = None) -> Tuner:
    """Build a registered tuner by name for ``database``.

    Raises :class:`UnknownTunerError` (a ``ValueError``) naming the unknown
    tuner and listing every registered name.
    """
    _ensure_builtin_tuners()
    factory = _REGISTRY.get(_normalise(name))
    if factory is None:
        known = ", ".join(registered_tuner_names())
        raise UnknownTunerError(
            f"unknown tuner {name!r}; registered tuners: {known}"
        )
    return factory(database, spec if spec is not None else TunerSpec())
