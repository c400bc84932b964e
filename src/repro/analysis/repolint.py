"""Repository-convention linter: AST checks ruff cannot express.

Five rules, each born from a real regression class in this codebase:

R001  builtin ``hash()`` is forbidden in ``src/repro``
      Evaluation fingerprints and cache keys must be reproducible across
      processes, but builtin ``hash(str)`` is salted per process via
      ``PYTHONHASHSEED``.  Anything that needs hashing must go through
      :func:`repro.core.evaluator.stable_hash` (CRC-32, process-stable).
      Defining ``__hash__`` is fine — only *calls* to the builtin trip
      the rule.

R002  float64 is forbidden in the ``repro.nn`` hot paths
      The training fast path runs in float32 (see ``repro.nn.tensor``'s
      ``default_dtype``); a single ``np.float64`` literal in a kernel
      silently upcasts every downstream array and halves throughput.
      Checked modules: ``functional.py``, ``layers.py``, ``optim.py``,
      ``train.py``.  Dtype *configuration* (``tensor.py``) and cold paths
      (losses on teacher logits) may use float64 freely.

R003  every registered runtime op needs a FLOPs rule
      ``repro.nn.functional`` tags tensors with ``_register_op(out, name)``.
      P(M)/F(M) and the static cost model both count FLOPs from the traced
      graph (:mod:`repro.analysis.costmodel`), so each registered name has
      to appear in ``costmodel.OP_FLOP_RULES`` — otherwise the graph count
      silently drifts from what executes on models using the new op.

R005  every quantized op needs a FLOPs rule
      Same contract as R003, applied to ``repro.nn.quant``: each op name
      the int8/fp16 inference kernels register must appear in
      ``costmodel.OP_FLOP_RULES`` so the graph count covers quantized
      models too.

R004  every ``Solver`` subclass must be registered
      Solvers are looked up by name through the registry in
      :mod:`repro.core.solver` (``AutoMC(solver=...)``, ``repro search
      --solver``, the experiment harnesses).  A ``Solver`` subclass
      without ``@register_solver("name")`` is unreachable from every
      public entry point — dead code that silently drifts from the
      driver contract.  Only *direct* subclasses are checked; refining
      an already-registered solver re-registers under the parent's name
      automatically.

Run as ``python -m repro.analysis.repolint`` (CI runs it next to ruff).
Exit status 1 when any violation is found.
"""

from __future__ import annotations

import ast
import os
import sys
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

#: rule catalogue (mirrors the module docstring)
R_RULES = {
    "R001": "builtin hash() call (use repro.core.evaluator.stable_hash)",
    "R002": "float64 in a repro.nn hot-path module",
    "R003": "registered op missing from costmodel.OP_FLOP_RULES",
    "R004": "Solver subclass without @register_solver",
    "R005": "quantized op missing from costmodel.OP_FLOP_RULES",
}

#: repro.nn modules whose kernels must stay float32-clean (R002)
NN_HOT_PATH_MODULES = ("functional.py", "layers.py", "optim.py", "train.py")


@dataclass(frozen=True)
class Violation:
    """One rule breach at a specific source location."""

    rule: str
    path: str
    line: int
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"


def _is_float64(node: ast.AST) -> bool:
    """np.float64 / numpy.float64 attribute access or a 'float64' literal."""
    if isinstance(node, ast.Attribute) and node.attr == "float64":
        return True
    if isinstance(node, ast.Constant) and node.value == "float64":
        return True
    return False


def check_hash_calls(tree: ast.AST, path: str) -> List[Violation]:
    """R001: flag every call of the *builtin* ``hash``."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "hash"
        ):
            found.append(
                Violation(
                    "R001", path, node.lineno,
                    "builtin hash() is PYTHONHASHSEED-salted; use stable_hash",
                )
            )
    return found


def check_float64(tree: ast.AST, path: str) -> List[Violation]:
    """R002: flag float64 usage in a hot-path module."""
    found = []
    for node in ast.walk(tree):
        if _is_float64(node):
            found.append(
                Violation(
                    "R002", path, getattr(node, "lineno", 0),
                    "float64 upcasts the float32 fast path; use the tensor's "
                    "dtype (see repro.nn.tensor.default_dtype)",
                )
            )
    return found


def registered_op_names(tree: ast.AST) -> List[ast.Constant]:
    """All literal op names passed to ``_register_op(out, "name")``."""
    names = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "_register_op"
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            names.append(node.args[1])
    return names


def check_flop_rules(tree: ast.AST, path: str, rule: str = "R003") -> List[Violation]:
    """R003/R005: every registered op name must have a FLOPs rule."""
    from .costmodel import OP_FLOP_RULES

    found = []
    for constant in registered_op_names(tree):
        if constant.value not in OP_FLOP_RULES:
            found.append(
                Violation(
                    rule, path, constant.lineno,
                    f"op {constant.value!r} has no entry in "
                    f"repro.analysis.costmodel.OP_FLOP_RULES — the static "
                    f"cost model cannot count it",
                )
            )
    return found


def _base_is_solver(node: ast.AST) -> bool:
    """A base-class expression naming ``Solver`` (bare or attribute)."""
    if isinstance(node, ast.Name):
        return node.id == "Solver"
    if isinstance(node, ast.Attribute):
        return node.attr == "Solver"
    return False


def _is_register_solver(node: ast.AST) -> bool:
    """A decorator of the form ``@register_solver(...)``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id == "register_solver"
    if isinstance(func, ast.Attribute):
        return func.attr == "register_solver"
    return False


def check_solver_registration(tree: ast.AST, path: str) -> List[Violation]:
    """R004: direct ``Solver`` subclasses must carry ``@register_solver``."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if not any(_base_is_solver(base) for base in node.bases):
            continue
        if any(_is_register_solver(dec) for dec in node.decorator_list):
            continue
        found.append(
            Violation(
                "R004", path, node.lineno,
                f"class {node.name} subclasses Solver but has no "
                f"@register_solver(...) decorator — it is unreachable from "
                f"the solver registry (repro.core.solver)",
            )
        )
    return found


def python_files(root: str) -> Iterable[str]:
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("__pycache__"))
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def lint_path(path: str) -> List[Violation]:
    """Run every applicable rule on one source file."""
    with open(path, "r") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Violation("R000", path, exc.lineno or 0, f"syntax error: {exc.msg}")]

    violations = check_hash_calls(tree, path)
    violations.extend(check_solver_registration(tree, path))
    normalized = path.replace(os.sep, "/")
    if "/nn/" in normalized and os.path.basename(path) in NN_HOT_PATH_MODULES:
        violations.extend(check_float64(tree, path))
    if normalized.endswith("nn/functional.py"):
        violations.extend(check_flop_rules(tree, path))
    if normalized.endswith("nn/quant.py"):
        violations.extend(check_flop_rules(tree, path, rule="R005"))
    return violations


def run_repolint(root: str = "src/repro") -> List[Violation]:
    """Lint every Python file under ``root``; sorted, deterministic."""
    violations: List[Violation] = []
    for path in python_files(root):
        violations.extend(lint_path(path))
    return sorted(violations, key=lambda v: (v.path, v.line, v.rule))


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    root = argv[0] if argv else "src/repro"
    if not os.path.isdir(root):
        print(f"repolint: no such directory {root!r}", file=sys.stderr)
        return 2
    violations = run_repolint(root)
    for violation in violations:
        print(violation.format())
    if violations:
        print(f"repolint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"repolint: clean ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
