"""The public API surface: imports, __all__, and the README quickstart."""

import repro


class TestSurface:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackages_import(self):
        import repro.core
        import repro.engine
        import repro.extensions
        import repro.flat
        import repro.frontend
        import repro.hierarchy
        import repro.reasoning
        import repro.render
        import repro.workloads

        for module in (repro.core, repro.hierarchy, repro.flat):
            for name in module.__all__:
                assert hasattr(module, name), name


class TestNoKnobComesBack:
    def test_environment_switches_and_planner_exports(self):
        """One gate per decision: the package reads no environment
        variable, there is no parallel layer to switch on, and the
        planner has no off switch and no constant-answer gates."""
        import ast
        import importlib
        import pathlib

        import pytest

        import repro.planner
        from repro.cli import _build_parser

        names = set()
        for path in pathlib.Path(repro.__file__).parent.rglob("*.py"):
            source = path.read_text()
            if "environ" not in source and "getenv" not in source:
                continue
            # Any REPRO_* literal in a module that touches the
            # environment (names may reach it through a helper).
            for node in ast.walk(ast.parse(source)):
                if (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.startswith("REPRO_")
                ):
                    names.add(node.value)
        assert names == set()
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.parallel")
        with pytest.raises(SystemExit):  # argparse: unrecognized arguments
            _build_parser().parse_args(["serve", "--workers", "2"])
        assert not hasattr(repro.planner, "parallel_gate")
        assert not {
            "enabled", "choose_join_mode", "consolidation_mode", "parallel_gate"
        } & set(repro.planner.__all__)

    def test_one_binding_engine(self):
        """Every truth question reads the relation's evaluator: no second
        posting structure, no size threshold choosing between them, and
        one view refresh path (recompute) with no limit steering it and
        no candidate capture threaded through the algebra.  Postings are
        built by the sweep only: no evaluator accepts them from outside,
        and the codec neither writes nor reads them."""
        import inspect

        import repro.core
        import repro.core.bulk
        import repro.engine.codec
        from repro.core import algebra
        from repro.core.views import MaterializedView, ViewPlan

        assert not hasattr(repro.core.HRelation, "index_threshold")
        assert not hasattr(repro.core, "BinderIndex")
        for gone in (
            "delta_pointwise_limit", "delta_change_limit", "pool_growth_limit",
            "delta_refresh_count",
        ):
            assert not hasattr(MaterializedView, gone), gone
        unresolved = ViewPlan("union", [lambda: None, lambda: None])
        assert not hasattr(MaterializedView("v", unresolved), "delta_refresh_count")
        assert not hasattr(repro.core.bulk, "cover_masks")
        for fn in (
            algebra.union, algebra.intersection, algebra.difference,
            algebra.select, algebra.combine,
        ):
            assert "capture" not in inspect.signature(fn).parameters, fn.__name__
        init = inspect.signature(repro.core.bulk.BulkEvaluator.__init__)
        assert "postings" not in init.parameters
        for gone in ("pack_postings", "unpack_postings", "_relation_postings"):
            assert not hasattr(repro.engine.codec, gone), gone

    def test_one_body_format_rule(self):
        """A reply's body format follows from what it carries: nothing
        negotiates it, no flag or keyword picks it, and no hello
        advertises a choice."""
        import pytest

        import repro.engine.codec
        import repro.server.protocol
        from repro.cli import _build_parser
        from repro.client import HQLClient

        with pytest.raises(SystemExit):  # argparse: unrecognized arguments
            _build_parser().parse_args(["connect", "--wire-format", "json"])
        for gone in ("WIRE_FORMATS", "hello_formats", "SUPPORTED_PROTOCOLS"):
            assert not hasattr(repro.server.protocol, gone), gone
        assert not hasattr(repro.engine.codec, "FORMAT_JSON")
        hello = repro.server.protocol.hello("db", 1, "1.0", 1024)
        assert "formats" not in hello
        assert not hasattr(HQLClient(), "preferred_format")
        with pytest.raises(ValueError):
            HQLClient(wire_format="json")

    def test_planner_decides_nothing(self):
        """No plan, no estimate, no settable value: ``repro.planner``
        keeps only the statistics the benchmark times, and nothing in
        the package imports it."""
        import ast
        import pathlib

        import repro.planner
        from repro.hierarchy.graph import Hierarchy

        gone = {
            "PlannerConfig", "config", "configure", "reset", "plan_combine",
            "estimate_candidates", "observe_estimate", "describe",
        }
        assert not gone & (set(repro.planner.__all__) | set(dir(repro.planner)))
        assert set(repro.planner.__all__) == {"RelationStats", "stats_for"}
        assert not hasattr(Hierarchy, "ancestor_mask")
        package = pathlib.Path(repro.__file__).parent
        importers = []
        for path in package.rglob("*.py"):
            if path.parent == package / "planner":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [
                        "{}.{}".format(node.module, a.name) for a in node.names
                    ]
                elif isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                else:
                    continue
                if any(n == "repro.planner" or n.startswith("repro.planner.") for n in names):
                    importers.append(str(path.relative_to(package)))
        assert importers == []

    def test_query_cache_is_a_plain_lru(self):
        """No admission floor, no pinning, no compute cost: the cache
        is sized and counted, nothing else."""
        import inspect

        from repro.engine import querycache

        assert not {"CacheAdmission", "ADMIT_FLOOR_MS", "PIN_COST_MS"} & set(
            dir(querycache)
        )
        assert "cost_ms" not in inspect.signature(querycache.QueryCache.put).parameters
        init = inspect.signature(querycache.QueryCache.__init__).parameters
        assert list(init) == ["self", "maxsize", "registry"]


class TestQuickstart:
    def test_readme_example(self):
        """The module docstring / README quickstart, executed."""
        from repro import Hierarchy, HRelation

        animal = Hierarchy("animal")
        animal.add_class("bird")
        animal.add_class("penguin", parents=["bird"])
        animal.add_instance("tweety", parents=["bird"])
        flies = HRelation([("creature", animal)], name="flies")
        flies.assert_item(("bird",))
        flies.assert_item(("penguin",), False)
        assert flies.holds("tweety")
        assert not flies.holds("penguin")

    def test_doctests_in_init(self):
        import doctest

        results = doctest.testmod(repro, verbose=False)
        assert results.failed == 0


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                if obj is not errors.ReproError:
                    assert issubclass(obj, errors.ReproError), name

    def test_unknown_node_is_also_keyerror(self):
        from repro.errors import UnknownNodeError

        assert issubclass(UnknownNodeError, KeyError)
        assert str(UnknownNodeError("plain message")) == "plain message"
