"""Storage-backend execution profiles for the simulated DBMS.

Every timing constant of the engine's "true" cost model lives in a
:class:`BackendProfile` — a frozen, picklable bundle describing one storage
tier.  The paper's testbed (10K RPM disks, cold buffer cache) is the ``hdd``
profile and stays the default, so existing experiments are bit-identical;
``ssd``, ``inmemory`` and ``cloud`` open a new scenario axis: the *same*
workload on the same data produces very different index economics when random
I/O is cheap (seeks lose their edge over scans, and the CPU-bound sort inside
index creation stops being amortised by huge I/O savings) or ruinously
latency-bound (the object store).

Profiles also place *per table*: a ``{table: backend}`` mapping resolves
through :func:`resolve_placement` into per-table overrides the cost model
consults on every operator, so a join spanning tiers charges each side at its
own tier.

Profiles are looked up by name through a registry that mirrors the tuner
registry (:func:`repro.api.register_tuner`): built-ins register at import
time, downstream code adds its own with::

    from repro.engine import BackendProfile, register_backend

    @register_backend("nvme_raid")
    def _nvme_raid() -> BackendProfile:
        return BackendProfile(name="nvme_raid", sequential_read_bytes_per_second=7e9, ...)

and the name immediately works everywhere a backend is accepted —
``Database.from_specs(backend=...)``, :class:`repro.api.DatabaseSpec`,
:meth:`repro.engine.Database.set_table_backend` and the benchmark builders.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Union

from .errors import UnknownTableError
from .storage import PAGE_SIZE_BYTES

__all__ = [
    "BackendFactory",
    "BackendProfile",
    "BackendLike",
    "PlacementLike",
    "UnknownBackendError",
    "UnknownPlacementTableError",
    "get_backend",
    "register_backend",
    "registered_backend_names",
    "resolve_backend",
    "resolve_placement",
]


@dataclass(frozen=True)
class BackendProfile:
    """Timing constants of one storage backend (all times in seconds).

    The defaults are the ``hdd`` profile — the paper's testbed — so
    ``BackendProfile()`` reproduces the historical cost model exactly.
    Instances are frozen (hashable, safe to share across sessions) and
    picklable (they cross :func:`repro.api.run_competition` worker
    boundaries).
    """

    #: Registry/display name of the backend this profile models.
    name: str = "hdd"
    #: One-line description for reports and error messages.
    description: str = "10K RPM disk array, cold buffer cache (the paper's testbed)"
    #: Sequential read throughput, bytes/second.
    sequential_read_bytes_per_second: float = 200e6
    #: Sequential write throughput used for index build, bytes/second.
    sequential_write_bytes_per_second: float = 150e6
    #: Cost of one random page fetch (partially amortised by read-ahead/cache).
    random_page_read_seconds: float = 2.0e-4
    #: CPU cost of processing one tuple through a scan or filter.
    cpu_tuple_seconds: float = 2.0e-7
    #: CPU cost of one comparison during sorting.
    cpu_sort_compare_seconds: float = 5.0e-8
    #: CPU cost of one hash-table insert/probe.
    cpu_hash_seconds: float = 1.5e-7
    #: Fixed per-query overhead (parsing, planning, result shipping).
    per_query_overhead_seconds: float = 0.05
    #: Fraction of the row-fetch cost avoided when an index is covering.
    covering_cpu_discount: float = 0.5
    #: Work-memory ceiling beyond which sorts spill to storage.
    sort_spill_threshold_bytes: int = 1 << 30
    #: Fixed cost of dropping an index (a metadata operation).
    index_drop_seconds: float = 0.1

    def __post_init__(self) -> None:
        # Written as ``not x > 0`` so NaN fails too.
        for field_name in (
            "sequential_read_bytes_per_second",
            "sequential_write_bytes_per_second",
            "sort_spill_threshold_bytes",
        ):
            if not getattr(self, field_name) > 0:
                raise ValueError(f"{field_name} must be positive")
        for field_name in (
            "random_page_read_seconds",
            "cpu_tuple_seconds",
            "cpu_sort_compare_seconds",
            "cpu_hash_seconds",
            "per_query_overhead_seconds",
            "index_drop_seconds",
        ):
            if not getattr(self, field_name) >= 0:
                raise ValueError(f"{field_name} must not be negative")
        if not 0 <= self.covering_cpu_discount <= 1:
            raise ValueError("covering_cpu_discount must lie in [0, 1]")

    def page_read_seconds(self) -> float:
        """Sequential cost of reading one page."""
        return PAGE_SIZE_BYTES / self.sequential_read_bytes_per_second

    def page_write_seconds(self) -> float:
        """Sequential cost of writing one page."""
        return PAGE_SIZE_BYTES / self.sequential_write_bytes_per_second

    @property
    def random_to_sequential_ratio(self) -> float:
        """How much more one random page fetch costs than a sequential one.

        The single number that shapes index economics: high ratios (HDD)
        reward covering indexes and punish scattered heap fetches; ratios
        near 1 (in-memory) make secondary indexes worth little beyond their
        CPU savings.
        """
        return self.random_page_read_seconds / self.page_read_seconds()

    def summary(self) -> dict[str, object]:
        """A small serialisable summary used in reports and benchmarks."""
        return {
            "name": self.name,
            "description": self.description,
            "sequential_read_mb_per_s": round(self.sequential_read_bytes_per_second / 1e6, 1),
            "random_page_read_us": round(self.random_page_read_seconds * 1e6, 3),
            "random_to_sequential_ratio": round(self.random_to_sequential_ratio, 2),
            "per_query_overhead_ms": round(self.per_query_overhead_seconds * 1e3, 3),
        }


#: Anything accepted where a backend is expected: a registered name, a
#: profile instance, or ``None`` for the default (``hdd``).
BackendLike = Union[str, BackendProfile, None]

#: A registered factory produces a ready profile on each lookup.
BackendFactory = Callable[[], BackendProfile]


class UnknownBackendError(KeyError, ValueError):
    """Raised for a backend name nobody registered.

    Subclasses both :class:`KeyError` and :class:`ValueError` to match the
    tuner registry's :class:`repro.api.UnknownTunerError` convention, so the
    same ``except`` clauses handle either registry.
    """

    # KeyError.__str__ reprs the message (extra quotes); render it plainly.
    __str__ = Exception.__str__


_REGISTRY: dict[str, BackendFactory] = {}


def _normalise(name: str) -> str:
    return name.strip().lower().replace("-", "_")


def register_backend(name: str) -> Callable[[BackendFactory], BackendFactory]:
    """Register a zero-argument profile factory under ``name``::

        @register_backend("ssd")
        def _ssd() -> BackendProfile: ...

    Lookups are case-insensitive and treat ``-`` and ``_`` alike.
    """

    def _register(factory: BackendFactory) -> BackendFactory:
        _REGISTRY[_normalise(name)] = factory
        return factory

    return _register


def registered_backend_names() -> list[str]:
    """Every registered backend name, in registration order."""
    return list(_REGISTRY)


def get_backend(name: str) -> BackendProfile:
    """Look a registered backend profile up by name.

    Raises:
        UnknownBackendError: For a name nobody registered (the message lists
            every registered backend).
    """
    factory = _REGISTRY.get(_normalise(name))
    if factory is None:
        known = ", ".join(registered_backend_names())
        raise UnknownBackendError(
            f"unknown backend {name!r}; registered backends: {known}"
        )
    return factory()


def resolve_backend(backend: BackendLike) -> BackendProfile:
    """Coerce a name / profile / ``None`` into a :class:`BackendProfile`.

    ``None`` resolves to the default ``hdd`` profile (the paper's constants),
    a string goes through :func:`get_backend`, and a profile instance passes
    through untouched.
    """
    if backend is None:
        return get_backend("hdd")
    if isinstance(backend, BackendProfile):
        return backend
    return get_backend(backend)


# --------------------------------------------------------------------- #
# per-table placement
# --------------------------------------------------------------------- #
class UnknownPlacementTableError(UnknownTableError, KeyError, ValueError):
    """A per-table placement named a table the database does not have.

    Mirrors :class:`UnknownBackendError`: subclasses both :class:`KeyError`
    and :class:`ValueError` (on top of the engine's
    :class:`~repro.engine.errors.UnknownTableError`) and the message lists
    every valid table name.
    """

    # KeyError.__str__ reprs the message (extra quotes); render it plainly.
    __str__ = Exception.__str__

    def __init__(self, table_name: str, known_tables: Iterable[str]) -> None:
        known = ", ".join(sorted(known_tables))
        Exception.__init__(
            self,
            f"unknown table in placement: {table_name!r}; tables: {known}",
        )
        self.table_name = table_name


def resolve_placement(
    table_backends: "Mapping[str, BackendLike] | None",
    table_names: Iterable[str],
) -> dict[str, BackendProfile]:
    """Resolve a ``{table: backend}`` mapping against the known table names.

    Every backend spelling goes through :func:`resolve_backend`; every table
    name must be one of ``table_names``.

    Raises:
        UnknownPlacementTableError: For a table name the database does not
            have (the message lists every valid name).
        UnknownBackendError: For a backend name nobody registered.
    """
    known = set(table_names)
    resolved: dict[str, BackendProfile] = {}
    for table_name, backend in (table_backends or {}).items():
        if table_name not in known:
            raise UnknownPlacementTableError(table_name, known)
        resolved[table_name] = resolve_backend(backend)
    return resolved


#: Anything accepted where a per-table placement is expected: a
#: ``{table: backend}`` mapping of overrides, or ``None`` for none.
PlacementLike = Union[Mapping[str, BackendLike], None]


# --------------------------------------------------------------------- #
# built-in profiles
# --------------------------------------------------------------------- #
@register_backend("hdd")
def _hdd() -> BackendProfile:
    """The paper's testbed: every constant at its historical default."""
    return BackendProfile()


@register_backend("ssd")
def _ssd() -> BackendProfile:
    """Flash storage: ~10x the sequential bandwidth, ~25x cheaper random I/O.

    The defining shift is the narrow random/sequential gap (ratio ~2 against
    the HDD's ~4.9): scattered heap fetches stop dominating non-covering index
    seeks, while the CPU-bound sort inside index creation is no longer dwarfed
    by I/O — so building wide indexes pays off later, if at all.
    """
    return BackendProfile(
        name="ssd",
        description="NVMe flash: high bandwidth, cheap random reads",
        sequential_read_bytes_per_second=2e9,
        sequential_write_bytes_per_second=1.5e9,
        random_page_read_seconds=8.0e-6,
        per_query_overhead_seconds=0.02,
        index_drop_seconds=0.05,
    )


@register_backend("inmemory")
def _inmemory() -> BackendProfile:
    """Memory-resident data: execution is CPU-bound, I/O terms nearly vanish.

    Random access costs close to a sequential page read (ratio ~1.2), sorts
    never spill, and the fixed per-query overhead shrinks to parse/plan time —
    index benefit reduces to the CPU saved by touching fewer tuples.
    """
    return BackendProfile(
        name="inmemory",
        description="memory-resident data: CPU-bound execution, near-zero I/O",
        sequential_read_bytes_per_second=20e9,
        sequential_write_bytes_per_second=20e9,
        random_page_read_seconds=5.0e-7,
        per_query_overhead_seconds=0.005,
        sort_spill_threshold_bytes=1 << 62,
        index_drop_seconds=0.001,
    )


@register_backend("cloud")
def _cloud() -> BackendProfile:
    """Cloud object storage: latency-dominated reads over decent bandwidth.

    Each uncached page fetch is an HTTP GET paying milliseconds of first-byte
    latency — a random/sequential ratio near ~250, far past even the HDD's
    ~4.9 — while large sequential transfers stream at a respectable rate
    (reads faster than writes: the asymmetric bandwidths matter for the
    sort-spill billing, whose read pass is cheaper than its write pass here).
    Index economics invert twice: scattered heap lookups are ruinous, so only
    *covering* indexes (and the scan they replace) earn their build cost, and
    the fat per-query overhead drowns small savings entirely.
    """
    return BackendProfile(
        name="cloud",
        description="object store: per-request latency dominates, sequential reads stream",
        sequential_read_bytes_per_second=500e6,
        sequential_write_bytes_per_second=200e6,
        random_page_read_seconds=4.0e-3,
        per_query_overhead_seconds=0.15,
        index_drop_seconds=0.2,
    )
