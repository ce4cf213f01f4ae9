"""Two source hazards that no run of the program shows, checked on the AST.

A float literal compared with ``==``/``!=`` in physics code is a
tolerance check or a bit-identity claim in disguise: spell it
``np.isclose`` or ``np.array_equal``, or design the comparison out.  A
``phase(...)`` call used as a bare statement discards the timing context
manager, so the phase it names measures nothing: write ``with
obs.phase(...):``.  The other hazards a static rule could look for (a
global or unseeded RNG, a wall-clock input, an unreceived send, a
rank-conditional collective) fail a conformance cell, and the last two
the runtime's own protocol checks on every run; DESIGN §10 names the
test that catches each.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
PHYSICS = ("md", "kmc", "core", "potential", "lattice")


def _nodes(*roots):
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                yield path.relative_to(ROOT), node


def _is_float(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and isinstance(node.value, float)


def test_no_float_literal_equality_in_physics_code():
    found = []
    for path, node in _nodes(*(SRC / d for d in PHYSICS)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for op, a, b in zip(node.ops, operands[:-1], operands[1:], strict=True):
                if isinstance(op, (ast.Eq, ast.NotEq)) and (_is_float(a) or _is_float(b)):
                    found.append(f"{path}:{node.lineno}")
    assert found == [], "float literal compared with ==/!=; use np.isclose"


def test_no_bare_phase_call():
    found = [
        f"{path}:{node.lineno}"
        for path, node in _nodes(SRC, ROOT / "tests")
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Call)
        and getattr(node.value.func, "attr", getattr(node.value.func, "id", None))
        == "phase"
    ]
    assert found == [], "a bare phase(...) times nothing; use `with phase(...):`"
