"""RL009 — exception-safe release of pools and file handles.

The rule runs on the CFG/dataflow engine in :mod:`tools.reprolint.flow`: a
``ProcessPoolExecutor``/``ThreadPoolExecutor``/``multiprocessing.Pool``
acquired in a function must reach ``shutdown()`` (or be context-managed, or
handed off to an owner) on every path out of it, and an ``open()``-style
file handle must reach ``close()`` — *including* the exceptional paths,
where an orphaned pool strands live worker processes behind a raised
exception.

Ownership transfer is not a leak: returning the live handle, storing it
into a container/attribute (e.g. an executor cache) or passing it to another
function all mark it escaped — the dataflow lattice tracks that per
variable, per path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Iterator

from . import Rule, RuleContext, register_rule
from ..flow import FILE, POOL, FunctionSummary, ResourceLeak, analyse_resources
from ._concurrency import CHECKED_TOP_DIRS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model import Finding

_RELEASE_BY_KIND = {POOL: "shutdown()", FILE: "close()"}
_NOUN_BY_KIND = {POOL: "process/thread pool", FILE: "file handle"}


def _leak_paths(leak: ResourceLeak) -> str:
    paths = []
    if leak.on_raise_exit:
        paths.append("an exceptional path")
    if leak.on_normal_exit:
        paths.append("a normal path")
    return " and ".join(paths)


@register_rule
class ExceptionSafetyRule(Rule):
    id = "RL009"
    title = "pools and file handles must be released on every path, raising ones included"

    def check_project(self, context: RuleContext) -> Iterable["Finding"]:
        if context.index is None:
            return []
        return list(self._walk(context))

    def _walk(self, context: RuleContext) -> Iterator["Finding"]:
        from ..model import Finding

        index = context.index
        assert index is not None
        summaries: dict[str, FunctionSummary] = {}
        for function in index.iter_functions():
            if function.relative_path.split("/", 1)[0] not in CHECKED_TOP_DIRS:
                continue
            analysis = analyse_resources(function, index, summaries)
            for leak in analysis.leaks:
                if leak.site.kind not in _RELEASE_BY_KIND:
                    continue
                yield Finding(
                    rule=self.id,
                    path=function.relative_path,
                    line=leak.site.line,
                    col=leak.site.col,
                    message=(
                        f"{_NOUN_BY_KIND[leak.site.kind]} {leak.site.var!r} "
                        f"acquired here can leave the function on "
                        f"{_leak_paths(leak)} without "
                        f"{_RELEASE_BY_KIND[leak.site.kind]}; use a with "
                        "block or release it in a finally"
                    ),
                    symbol=function.qualname,
                )
