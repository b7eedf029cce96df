"""Tests for the ``tools.reprolint`` static analyzer.

Every rule family gets at least one true-positive and one true-negative
fixture project (written into ``tmp_path`` with the same ``src`` /
``tests`` / ``examples`` layout the real repo uses), plus:

* suppression semantics (reasoned suppressions silence findings; reasonless,
  unknown-rule and stale suppressions are RL000);
* the JSON report schema;
* the meta-test: the repo itself is reprolint-clean;
* the wall-clock allowlist is *exact* — emptying it produces findings in
  precisely the allowlisted files and nowhere else.
"""

from __future__ import annotations

import ast
import json
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # `tools` lives at the repo root, not in src/
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint import run_reprolint  # noqa: E402
from tools.reprolint.cli import main as reprolint_main  # noqa: E402
from tools.reprolint.engine import REPORT_VERSION, ReprolintError  # noqa: E402
from tools.reprolint.rules import registered_rule_ids  # noqa: E402
from tools.reprolint.rules.rl001_determinism import WALL_CLOCK_ALLOWLIST  # noqa: E402


def write_project(root: Path, files: dict[str, str]) -> list[str]:
    """Write ``files`` (relative path -> source) under ``root``; return dirs."""
    top_dirs: list[str] = []
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
        top = relative.split("/", 1)[0]
        if top not in top_dirs:
            top_dirs.append(top)
    return top_dirs


def lint(root: Path, files: dict[str, str]):
    return run_reprolint(write_project(root, files), root=root)


def rules_of(report) -> list[str]:
    return [finding.rule for finding in report.findings]


# --------------------------------------------------------------------------- #
# RL001 determinism
# --------------------------------------------------------------------------- #
class TestRL001Determinism:
    def test_unseeded_rng_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "src/pkg/mod.py": """
                    import random
                    import numpy as np

                    def draw():
                        a = random.Random()
                        b = np.random.default_rng()
                        return a, b
                    """
            },
        )
        assert rules_of(report) == ["RL001", "RL001"]
        assert "unseeded" in report.findings[0].message

    def test_seeded_rng_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "src/pkg/mod.py": """
                    import random
                    import numpy as np

                    def draw(seed: int):
                        a = random.Random(seed)
                        b = np.random.default_rng(seed)
                        return a, b
                    """
            },
        )
        assert report.findings == []

    def test_module_level_random_flagged_through_aliases(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "src/pkg/mod.py": """
                    import numpy as xp
                    import numpy.random as npr
                    from random import randint
                    from time import perf_counter as clock

                    def draw():
                        return randint(1, 6) + xp.random.rand() + npr.rand()

                    def stamp():
                        return clock()

                    def local_import():
                        from random import shuffle as mix

                        return mix([1, 2])
                    """
            },
        )
        assert rules_of(report) == ["RL001"] * 5
        messages = [finding.message for finding in report.findings]
        assert "random.randint" in messages[0]
        assert "numpy.random.rand" in messages[1]
        assert "numpy.random.rand" in messages[2]
        assert "wall-clock read (time.perf_counter)" in messages[3]
        assert "random.shuffle" in messages[4]

    def test_relative_imports_anchor_at_the_importing_module(self):
        from tools.reprolint.project import import_aliases

        tree = ast.parse(
            "from . import registry\n"
            "from .session import TuningSession as Session\n"
            "from ..core import tuner\n"
        )
        assert import_aliases(tree, "repro.api.competition") == {
            "registry": "repro.api.registry",
            "Session": "repro.api.session.TuningSession",
            "tuner": "repro.core.tuner",
        }

    def test_wall_clock_flagged_in_src_but_not_tests(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "src/pkg/mod.py": """
                    import time

                    def stamp():
                        return time.time()
                    """,
                "tests/test_mod.py": """
                    import time

                    def test_stamp():
                        assert time.time() > 0
                    """,
            },
        )
        assert rules_of(report) == ["RL001"]
        assert report.findings[0].path == "src/pkg/mod.py"

    def test_allowlisted_file_clean(self, tmp_path):
        allowlisted = next(iter(WALL_CLOCK_ALLOWLIST))
        report = lint(
            tmp_path,
            {
                allowlisted: """
                    __all__ = ["overhead"]

                    import time

                    def overhead():
                        return time.perf_counter()
                    """
            },
        )
        assert report.findings == []


# --------------------------------------------------------------------------- #
# RL002 picklability
# --------------------------------------------------------------------------- #
class TestRL002Picklability:
    def test_unfrozen_spec_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "src/pkg/spec.py": """
                    from dataclasses import dataclass

                    @dataclass
                    class TunerSpec:
                        name: str = "mab"
                    """
            },
        )
        assert rules_of(report) == ["RL002"]
        assert "frozen" in report.findings[0].message

    def test_fleet_spec_classes_covered(self, tmp_path):
        # TenantSpec and FleetConfig cross the same worker boundaries as the
        # run_competition specs, so RL002 must police their frozen-ness too.
        report = lint(
            tmp_path,
            {
                "src/pkg/fleet.py": """
                    from dataclasses import dataclass

                    @dataclass
                    class TenantSpec:
                        tenant_id: str = "t0"

                    @dataclass
                    class FleetConfig:
                        intern_databases: bool = True
                    """
            },
        )
        assert rules_of(report) == ["RL002", "RL002"]
        symbols = {finding.symbol for finding in report.findings}
        assert symbols == {"TenantSpec", "FleetConfig"}

    def test_frozen_spec_with_factory_default_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "src/pkg/spec.py": """
                    from dataclasses import dataclass, field

                    @dataclass(frozen=True)
                    class TunerSpec:
                        name: str = "mab"
                        tags: list = field(default_factory=lambda: [])
                    """
            },
        )
        assert report.findings == []

    def test_callable_field_and_lambda_call_site_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "src/pkg/spec.py": """
                    from dataclasses import dataclass
                    from typing import Callable

                    @dataclass(frozen=True)
                    class DatabaseSpec:
                        builder: Callable[[], int] | None = None
                    """,
                "examples/run.py": """
                    from pkg.spec import DatabaseSpec

                    spec = DatabaseSpec(builder=lambda: 1)
                    """,
            },
        )
        assert sorted(rules_of(report)) == ["RL002", "RL002"]
        paths = {finding.path for finding in report.findings}
        assert paths == {"src/pkg/spec.py", "examples/run.py"}

    def test_non_spec_class_ignored(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "src/pkg/other.py": """
                    from dataclasses import dataclass

                    @dataclass
                    class ScratchState:
                        counter: int = 0
                    """
            },
        )
        assert report.findings == []


# --------------------------------------------------------------------------- #
# RL003 registry discipline
# --------------------------------------------------------------------------- #
class TestRL003RegistryDiscipline:
    def test_if_elif_dispatch_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "src/pkg/dispatch.py": """
                    def build(name: str):
                        if name == "mab":
                            return 1
                        elif name == "pdtool":
                            return 2
                        return 0
                    """
            },
        )
        assert rules_of(report) == ["RL003"]
        assert "mab" in report.findings[0].message

    def test_membership_tuple_dispatch_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "src/pkg/dispatch.py": """
                    def is_baseline(name: str) -> bool:
                        if name in ("noindex", "pdtool"):
                            return True
                        return False
                    """
            },
        )
        assert rules_of(report) == ["RL003"]

    def test_single_comparison_and_foreign_strings_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "src/pkg/dispatch.py": """
                    def check(name: str, regime: str) -> int:
                        if name == "mab":
                            return 1
                        if regime == "static":
                            return 2
                        elif regime == "shifting":
                            return 3
                        return 0
                    """
            },
        )
        assert report.findings == []

    def test_registry_module_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "src/repro/api/registry.py": """
                    __all__ = ["resolve"]

                    def resolve(name: str) -> int:
                        if name == "mab":
                            return 1
                        elif name == "pdtool":
                            return 2
                        raise KeyError(name)
                    """
            },
        )
        assert report.findings == []


# --------------------------------------------------------------------------- #
# RL005 public surface
# --------------------------------------------------------------------------- #
class TestRL005PublicSurface:
    def test_example_importing_internals_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "examples/demo.py": """
                    from repro.api import TuningSession
                    from repro.core.tuner import MabTuner
                    """
            },
        )
        assert rules_of(report) == ["RL005"]
        assert "repro.core.tuner" in report.findings[0].message

    def test_dunder_all_audit(self, tmp_path):
        report = lint(
            tmp_path,
            {
                # Missing __all__ entirely.
                "src/repro/api/one.py": """
                    def public_helper() -> int:
                        return 1
                    """,
                # __all__ exports a ghost and omits a public def.
                "src/repro/api/two.py": """
                    __all__ = ["ghost"]

                    def visible() -> int:
                        return 2
                    """,
            },
        )
        by_path = {}
        for finding in report.findings:
            by_path.setdefault(finding.path, []).append(finding.message)
        assert "no __all__" in by_path["src/repro/api/one.py"][0]
        two_messages = " ".join(by_path["src/repro/api/two.py"])
        assert "ghost" in two_messages
        assert "visible" in two_messages

    def test_consistent_module_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "src/repro/api/three.py": """
                    __all__ = ["visible"]

                    def visible() -> int:
                        return 3

                    def _internal() -> int:
                        return 4
                    """
            },
        )
        assert report.findings == []

    def test_fleet_modules_are_audited(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "src/repro/fleet/roster.py": """
                    def roster() -> list:
                        return []
                    """
            },
        )
        assert rules_of(report) == ["RL005"]
        assert "no __all__" in report.findings[0].message

    def test_lazy_exports_via_module_getattr_accepted(self, tmp_path):
        # PEP 562 lazy re-export: names absent from the static bindings are
        # fine when a top-level __getattr__ exists and a lazy-export table
        # names them as string literals.
        report = lint(
            tmp_path,
            {
                "src/repro/api/lazy.py": """
                    __all__ = ["Eager", "Lazy"]

                    _LAZY_EXPORTS = frozenset({"Lazy"})


                    class Eager:
                        pass


                    def __getattr__(name: str) -> object:
                        raise AttributeError(name)
                    """
            },
        )
        assert report.findings == []

    def test_lazy_export_still_flagged_without_module_getattr(self, tmp_path):
        # The same lazy table without a __getattr__ cannot actually resolve
        # the name, so the export-drift finding must survive.
        report = lint(
            tmp_path,
            {
                "src/repro/api/broken.py": """
                    __all__ = ["Lazy"]

                    _LAZY_EXPORTS = frozenset({"Lazy"})
                    """
            },
        )
        assert rules_of(report) == ["RL005"]
        assert "'Lazy'" in report.findings[0].message


# --------------------------------------------------------------------------- #
# RL000 suppressions
# --------------------------------------------------------------------------- #
class TestSuppressions:
    def test_reasoned_suppression_silences_finding(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "src/pkg/mod.py": """
                    import time

                    def stamp():
                        return time.time()  # reprolint: disable=RL001 -- demo clock, not on a decision path
                    """
            },
        )
        assert report.findings == []
        assert len(report.suppressed) == 1
        finding, suppression = report.suppressed[0]
        assert finding.rule == "RL001"
        assert suppression.reason is not None

    def test_standalone_suppression_applies_to_next_line(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "src/pkg/mod.py": """
                    import time

                    def stamp():
                        # reprolint: disable=RL001 -- demo clock, not on a decision path
                        return time.time()
                    """
            },
        )
        assert report.findings == []
        assert len(report.suppressed) == 1

    def test_reasonless_suppression_is_rl000(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "src/pkg/mod.py": """
                    import time

                    def stamp():
                        return time.time()  # reprolint: disable=RL001
                    """
            },
        )
        assert rules_of(report) == ["RL000"]
        assert "reason" in report.findings[0].message
        # It still suppresses — the RL001 is in the suppressed list.
        assert [f.rule for f, _ in report.suppressed] == ["RL001"]

    def test_unknown_rule_and_stale_suppression_are_rl000(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "src/pkg/mod.py": """
                    def fine() -> int:
                        x = 1  # reprolint: disable=RL999 -- no such rule
                        y = 2  # reprolint: disable=RL001 -- nothing here to suppress
                        return x + y
                    """
            },
        )
        messages = sorted(finding.message for finding in report.findings)
        assert rules_of(report) == ["RL000", "RL000"]
        assert any("unknown rule RL999" in message for message in messages)
        assert any("stale suppression" in message for message in messages)

    def test_suppression_inside_string_literal_inert(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "src/pkg/mod.py": '''
                    DOC = """
                    # reprolint: disable=RL001 -- this is documentation, not a comment
                    """
                    '''
            },
        )
        # A suppression spelled inside a string literal registers nothing:
        # no finding (stale-suppression RL000 would fire if it were parsed)
        # and nothing suppressed.
        assert report.findings == []
        assert report.suppressed == []


# --------------------------------------------------------------------------- #
# engine, CLI, JSON
# --------------------------------------------------------------------------- #
class TestEngineAndCli:
    def test_json_report_schema(self, tmp_path):
        write_project(
            tmp_path,
            {
                "src/pkg/mod.py": """
                    import time

                    def stamp():
                        return time.time()
                    """
            },
        )
        report = run_reprolint(["src"], root=tmp_path)
        payload = report.to_json()
        assert payload["version"] == REPORT_VERSION
        assert payload["files_scanned"] == ["src/pkg/mod.py"]
        assert set(payload["rules"]) == set(registered_rule_ids())
        assert payload["summary"]["findings"] == 1
        assert payload["summary"]["by_rule"] == {"RL001": 1}
        finding = payload["findings"][0]
        assert set(finding) == {"rule", "path", "line", "col", "message", "symbol"}

    def test_cli_exit_codes_and_json_artifact(self, tmp_path, capsys):
        write_project(
            tmp_path,
            {
                "src/clean.py": "VALUE = 1\n",
                "src/dirty.py": """
                    import time

                    def stamp():
                        return time.time()
                    """,
            },
        )
        artifact = tmp_path / "out" / "reprolint.json"
        code = reprolint_main(
            ["src", "--root", str(tmp_path), "--json", str(artifact)]
        )
        assert code == 1
        payload = json.loads(artifact.read_text())
        assert payload["summary"]["findings"] == 1
        capsys.readouterr()

        code = reprolint_main(["src/clean.py", "--root", str(tmp_path)])
        assert code == 0
        capsys.readouterr()

        assert reprolint_main(["no/such/dir", "--root", str(tmp_path)]) == 2

    def test_cli_list_rules(self, capsys):
        assert reprolint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in registered_rule_ids():
            assert rule_id in out

    def test_syntax_error_raises(self, tmp_path):
        write_project(tmp_path, {"src/broken.py": "def broken(:\n"})
        with pytest.raises(ReprolintError, match="syntax error"):
            run_reprolint(["src"], root=tmp_path)


# --------------------------------------------------------------------------- #
# the repo itself
# --------------------------------------------------------------------------- #
class TestRepoIsClean:
    def test_repo_has_zero_unsuppressed_findings(self):
        report = run_reprolint(["src", "tests", "examples"], root=REPO_ROOT)
        assert report.findings == [], "\n" + "\n".join(
            finding.format() for finding in report.findings
        )

    def test_every_repo_suppression_is_reasoned(self):
        report = run_reprolint(["src", "tests", "examples"], root=REPO_ROOT)
        for _, suppression in report.suppressed:
            assert suppression.reason, (
                f"{suppression.path}:{suppression.comment_line} has no reason"
            )

    def test_wall_clock_allowlist_is_exact(self, monkeypatch):
        """Emptying the allowlist must surface wall-clock findings in exactly
        the allowlisted files — no more (allowlist is not too small) and no
        less (no stale entries)."""
        from tools.reprolint.rules import rl001_determinism

        monkeypatch.setattr(rl001_determinism, "WALL_CLOCK_ALLOWLIST", {})
        report = run_reprolint(["src"], root=REPO_ROOT)
        wall_clock_paths = {
            finding.path
            for finding in report.findings
            if finding.rule == "RL001" and "wall-clock" in finding.message
        }
        assert wall_clock_paths == set(WALL_CLOCK_ALLOWLIST)
        # Nothing else may appear when only the allowlist changes.
        assert {finding.rule for finding in report.findings} <= {"RL001"}

    def test_registered_name_lists_match_the_registries(self):
        """RL003's hand-kept name lists equal the live registries' keys."""
        from repro.api.registry import _REGISTRY, _ensure_builtin_tuners
        from repro.engine import registered_backend_names
        from tools.reprolint.rules.rl003_registry_discipline import (
            BACKEND_NAMES,
            TUNER_NAMES,
        )

        _ensure_builtin_tuners()
        assert TUNER_NAMES == set(_REGISTRY)
        assert BACKEND_NAMES == set(registered_backend_names())

    def test_spec_classes_are_frozen_dataclasses_in_src(self):
        """Every RL002 spec class is a frozen dataclass defined in src/repro."""
        import dataclasses
        import importlib

        from tools.reprolint.rules.rl002_picklability import SPEC_CLASSES

        defined: dict[str, str] = {}
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            module = ".".join(path.relative_to(REPO_ROOT / "src").with_suffix("").parts)
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) and node.name in SPEC_CLASSES:
                    defined[node.name] = module.removesuffix(".__init__")
        assert set(defined) == SPEC_CLASSES, "stale names in SPEC_CLASSES"
        for name, module in defined.items():
            cls = getattr(importlib.import_module(module), name)
            assert dataclasses.is_dataclass(cls), name
            assert cls.__dataclass_params__.frozen, name


# --------------------------------------------------------------------------- #
# multi-rule suppressions (regression) and output formats
# --------------------------------------------------------------------------- #
class TestMultiRuleSuppression:
    def test_comma_separated_codes_all_honoured(self, tmp_path):
        """Regression: a single comment naming two rule families must silence
        *both* findings on its line (and neither may come back as stale)."""
        report = lint(
            tmp_path,
            {
                "examples/stamped.py": """
                    import time

                    from repro.api import DatabaseSpec

                    SPEC = DatabaseSpec(builder=lambda: time.time())  # reprolint: disable=RL001,RL002 -- fixture: clock read in a lambda spec argument
                    """
            },
        )
        assert report.findings == []
        assert sorted(f.rule for f, _ in report.suppressed) == ["RL001", "RL002"]

    def test_duplicate_codes_deduped(self, tmp_path):
        from tools.reprolint.model import parse_suppressions

        suppressions = parse_suppressions(
            "src/pkg/mod.py",
            "x = 1  # reprolint: disable=RL001,RL001,RL003 -- why\n",
        )
        assert len(suppressions) == 1
        assert suppressions[0].rules == ("RL001", "RL003")


class TestOutputFormats:
    FIXTURE = {
        "src/pkg/mod.py": """
            import time

            def stamp() -> float:
                return time.time()
            """
    }

    def test_github_format_emits_error_commands(self, tmp_path, capsys):
        write_project(tmp_path, self.FIXTURE)
        code = reprolint_main(["--root", str(tmp_path), "--format", "github", "src"])
        out = capsys.readouterr().out
        assert code == 1
        assert "::error file=src/pkg/mod.py,line=" in out
        assert "title=reprolint RL001::" in out
