"""Repository-convention linter (repro.analysis.repolint)."""

import ast
import os
import textwrap

from repro.analysis import repolint


def parse(source):
    return ast.parse(textwrap.dedent(source))


class TestR001BuiltinHash:
    def test_flags_builtin_hash_call(self):
        tree = parse("key = hash(scheme.identifier)")
        violations = repolint.check_hash_calls(tree, "x.py")
        assert [v.rule for v in violations] == ["R001"]

    def test_allows_stable_hash_and_dunder(self):
        tree = parse(
            """
            from repro.core.evaluator import stable_hash

            key = stable_hash(text)

            class Thing:
                def __hash__(self):
                    return 0
            """
        )
        assert repolint.check_hash_calls(tree, "x.py") == []

    def test_allows_method_named_hash(self):
        tree = parse("digest = hasher.hash(data)")
        assert repolint.check_hash_calls(tree, "x.py") == []


class TestR002Float64:
    def test_flags_np_float64(self):
        tree = parse("out = x.astype(np.float64)")
        assert [v.rule for v in repolint.check_float64(tree, "x.py")] == ["R002"]

    def test_flags_dtype_string(self):
        tree = parse("out = np.zeros(4, dtype='float64')")
        assert [v.rule for v in repolint.check_float64(tree, "x.py")] == ["R002"]

    def test_allows_float32(self):
        tree = parse("out = np.zeros(4, dtype=np.float32)")
        assert repolint.check_float64(tree, "x.py") == []


class TestR003FlopRules:
    def test_registered_ops_extracted(self):
        tree = parse(
            """
            def conv2d(x):
                return _register_op(out, "conv2d")

            def exotic(x):
                return _register_op(out, "warp_shuffle")
            """
        )
        names = [c.value for c in repolint.registered_op_names(tree)]
        assert names == ["conv2d", "warp_shuffle"]
        violations = repolint.check_flop_rules(tree, "functional.py")
        assert [v.rule for v in violations] == ["R003"]
        assert "warp_shuffle" in violations[0].message

    def test_every_runtime_op_has_a_rule(self):
        """The real functional.py must register only ops the cost model knows."""
        import repro.nn.functional as functional

        path = functional.__file__
        assert repolint.lint_path(path) == []


class TestR004SolverRegistration:
    def test_flags_unregistered_solver_subclass(self):
        tree = parse(
            """
            class Rogue(Solver):
                def propose(self, state):
                    return []
            """
        )
        violations = repolint.check_solver_registration(tree, "x.py")
        assert [v.rule for v in violations] == ["R004"]
        assert "Rogue" in violations[0].message

    def test_flags_attribute_base(self):
        tree = parse(
            """
            class Rogue(solver.Solver):
                pass
            """
        )
        assert [
            v.rule for v in repolint.check_solver_registration(tree, "x.py")
        ] == ["R004"]

    def test_allows_registered_solver(self):
        tree = parse(
            """
            @register_solver("mine", label="Mine")
            class Mine(Solver):
                def propose(self, state):
                    return []
            """
        )
        assert repolint.check_solver_registration(tree, "x.py") == []

    def test_allows_attribute_decorator_and_unrelated_classes(self):
        tree = parse(
            """
            @solver.register_solver("mine")
            class Mine(core.Solver):
                pass

            class NotASolver(SearchStrategy):
                pass

            class Solver:  # the base class itself has no Solver base
                pass
            """
        )
        assert repolint.check_solver_registration(tree, "x.py") == []

    def test_indirect_subclasses_are_exempt(self):
        """Refining a registered solver inherits its registration."""
        tree = parse(
            """
            class Tweaked(RandomSolver):
                pass
            """
        )
        assert repolint.check_solver_registration(tree, "x.py") == []


class TestRunner:
    def test_repo_is_clean(self):
        root = os.path.join(
            os.path.dirname(repolint.__file__), os.pardir
        )  # src/repro
        assert repolint.run_repolint(os.path.normpath(root)) == []

    def test_main_reports_violations(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("value = hash('a')\n")
        assert repolint.main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "R001" in out

    def test_main_clean_and_missing_dir(self, tmp_path, capsys):
        good = tmp_path / "good.py"
        good.write_text("value = 1\n")
        assert repolint.main([str(tmp_path)]) == 0
        assert repolint.main([str(tmp_path / "nope")]) == 2

    def test_syntax_error_is_reported(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def f(:\n")
        violations = repolint.run_repolint(str(tmp_path))
        assert [v.rule for v in violations] == ["R000"]
        assert "syntax error" in violations[0].format()
