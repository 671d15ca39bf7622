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
        posting structure, no size threshold choosing between them, no
        per-item fork in the view refresh."""
        import repro.core
        from repro.core.views import MaterializedView

        assert not hasattr(repro.core.HRelation, "index_threshold")
        assert not hasattr(MaterializedView, "delta_pointwise_limit")
        assert not hasattr(repro.core, "BinderIndex")

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
