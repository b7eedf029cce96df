"""Tests for the reprolint flow engine (``tools.reprolint.flow``).

Two layers:

* **CFG construction** — basic blocks and edges over straight-line code,
  branches, loops (including ``while True``), ``with``, ``try/finally``
  (whose finaliser is duplicated per continuation) and dead code;
* **resource dataflow** — the acquired/released/escaped lattice: joins at
  merge points keep the leaky path visible, exception edges carry pre-call
  state, escapes transfer ownership, and one level of helper summaries
  propagates acquisitions across calls.

The fixtures use the two resource kinds the engine tracks: process pools
(released by ``shutdown()``) and file handles (released by ``close()``).
"""

from __future__ import annotations

import ast
import sys
import textwrap
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # `tools` lives at the repo root, not in src/
    sys.path.insert(0, str(REPO_ROOT))

from tools.reprolint.flow import (  # noqa: E402
    FILE,
    POOL,
    analyse_resources,
    build_cfg,
)
from tools.reprolint.model import load_source_file  # noqa: E402
from tools.reprolint.project import ProjectIndex  # noqa: E402


def _cfg(source: str):
    node = ast.parse(textwrap.dedent(source)).body[0]
    assert isinstance(node, ast.FunctionDef)
    return build_cfg(node)


def _analyse(tmp_path: Path, source: str, function_name: str):
    path = tmp_path / "src" / "pkg" / "mod.py"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    index = ProjectIndex.build([load_source_file(path, tmp_path)])
    function = next(
        f for f in index.iter_functions() if f.node.name == function_name
    )
    # An (empty) shared summaries cache switches helper-summary inlining on —
    # passing None is how the engine cuts recursion at one level.
    return analyse_resources(function, index, {})


# --------------------------------------------------------------------------- #
# CFG construction
# --------------------------------------------------------------------------- #
class TestCfgConstruction:
    def test_straight_line_reaches_exit(self):
        cfg = _cfg(
            """
            def f():
                x = 1
                return x
            """
        )
        reachable = cfg.reachable()
        assert cfg.exit in reachable
        assert len(cfg.blocks_for(ast.Return)) == 1

    def test_if_else_branches_join(self):
        cfg = _cfg(
            """
            def f(flag):
                if flag:
                    x = 1
                else:
                    x = 2
                return x
            """
        )
        (return_block,) = cfg.blocks_for(ast.Return)
        # Both branch bodies fall through into a join block that feeds the
        # single return block.
        (join_index,) = return_block.preds
        assert len(cfg.blocks[join_index].preds) == 2
        assert len(cfg.blocks_for(ast.Assign)) == 2
        assert cfg.exit in cfg.reachable()

    def test_while_true_without_break_has_no_normal_exit(self):
        cfg = _cfg(
            """
            def f():
                while True:
                    pass
            """
        )
        assert cfg.exit not in cfg.reachable()

    def test_while_true_with_break_exits(self):
        cfg = _cfg(
            """
            def f():
                while True:
                    break
            """
        )
        assert cfg.exit in cfg.reachable()

    def test_try_finally_finaliser_duplicated_per_continuation(self):
        cfg = _cfg(
            """
            def f(x):
                try:
                    risky(x)
                finally:
                    cleanup()
            """
        )
        finaliser_blocks = [
            block
            for block in cfg.blocks_for(ast.Expr)
            if isinstance(block.stmt.value, ast.Call)
            and isinstance(block.stmt.value.func, ast.Name)
            and block.stmt.value.func.id == "cleanup"
        ]
        # The finaliser is duplicated once per continuation target (the
        # fall-through exit and the raise path at minimum) — never shared.
        assert len(finaliser_blocks) >= 2
        assert cfg.exit in cfg.reachable()
        assert cfg.raise_exit in cfg.reachable()

    def test_with_block_body_reachable(self):
        cfg = _cfg(
            """
            def f(path):
                with open(path) as handle:
                    return handle.read()
            """
        )
        assert cfg.blocks_for(ast.With)
        assert cfg.exit in cfg.reachable()

    def test_for_else_flows_through_orelse(self):
        cfg = _cfg(
            """
            def f(items):
                for item in items:
                    use(item)
                else:
                    finish()
                return None
            """
        )
        assert cfg.blocks_for(ast.For)
        assert cfg.exit in cfg.reachable()

    def test_code_after_return_is_unreachable(self):
        cfg = _cfg(
            """
            def f():
                return 1
                x = 2
            """
        )
        dead = [
            block
            for block in cfg.blocks_for(ast.Assign)
            if block.index not in cfg.reachable()
        ]
        assert dead


# --------------------------------------------------------------------------- #
# resource-state dataflow
# --------------------------------------------------------------------------- #
class TestResourceDataflow:
    def test_join_at_merge_keeps_leaky_path_visible(self, tmp_path):
        analysis = _analyse(
            tmp_path,
            """
            from concurrent.futures import ProcessPoolExecutor

            def f(flag):
                pool = ProcessPoolExecutor(max_workers=2)
                if flag:
                    pool.shutdown()
            """,
            "f",
        )
        assert len(analysis.leaks) == 1
        leak = analysis.leaks[0]
        assert leak.site.kind == POOL
        assert leak.on_normal_exit

    def test_release_on_both_branches_is_clean(self, tmp_path):
        analysis = _analyse(
            tmp_path,
            """
            from concurrent.futures import ProcessPoolExecutor

            def f(flag):
                pool = ProcessPoolExecutor(max_workers=2)
                if flag:
                    pool.shutdown()
                else:
                    pool.shutdown(wait=False)
            """,
            "f",
        )
        assert analysis.leaks == []

    def test_raise_path_leak_detected(self, tmp_path):
        analysis = _analyse(
            tmp_path,
            """
            def f(path):
                handle = open(path)
                data = handle.read()
                handle.close()
                return data
            """,
            "f",
        )
        assert len(analysis.leaks) == 1
        leak = analysis.leaks[0]
        assert leak.site.kind == FILE
        assert leak.on_raise_exit
        assert not leak.on_normal_exit

    def test_exception_edge_carries_pre_call_state(self, tmp_path):
        # If the acquiring call itself raises, the name was never bound —
        # the raise path must not report a phantom leak.
        analysis = _analyse(
            tmp_path,
            """
            from concurrent.futures import ProcessPoolExecutor

            def f():
                pool = ProcessPoolExecutor(max_workers=2)
                pool.shutdown()
            """,
            "f",
        )
        assert analysis.leaks == []

    def test_store_into_module_cache_escapes(self, tmp_path):
        analysis = _analyse(
            tmp_path,
            """
            _CACHE = {}

            def f(path):
                handle = open(path)
                _CACHE["log"] = handle
            """,
            "f",
        )
        assert analysis.leaks == []

    def test_with_managed_file_is_satisfied(self, tmp_path):
        analysis = _analyse(
            tmp_path,
            """
            def f(path):
                with open(path) as handle:
                    return handle.read()
            """,
            "f",
        )
        assert analysis.leaks == []

    def test_loop_reassignment_with_release_is_clean(self, tmp_path):
        analysis = _analyse(
            tmp_path,
            """
            def f(paths):
                for path in paths:
                    handle = open(path)
                    handle.close()
                return None
            """,
            "f",
        )
        assert analysis.leaks == []

    def test_loop_without_release_leaks(self, tmp_path):
        analysis = _analyse(
            tmp_path,
            """
            def f(paths):
                for path in paths:
                    handle = open(path)
                return None
            """,
            "f",
        )
        assert len(analysis.leaks) == 1
        assert analysis.leaks[0].site.kind == FILE

    def test_helper_summary_propagates_acquisition(self, tmp_path):
        source = """
            def _make(path):
                handle = open(path)
                return handle

            def releases(path):
                handle = _make(path)
                handle.close()
                return None

            def leaks(path):
                handle = _make(path)
                return None
            """
        clean = _analyse(tmp_path, source, "releases")
        # The raise path between acquisition and close still leaks (close
        # is not in a finally) — but the *normal* path must be satisfied.
        assert all(not leak.on_normal_exit for leak in clean.leaks)
        leaky = _analyse(tmp_path, source, "leaks")
        assert any(
            leak.on_normal_exit and leak.site.kind == FILE
            for leak in leaky.leaks
        )
