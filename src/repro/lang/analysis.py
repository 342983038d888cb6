"""Name resolution, signatures, and frame layout.

The analysis pass is deliberately thin — one scalar type makes most of
classical semantic analysis unnecessary — but it settles the three
things code generation needs:

* every name's storage class and slot (parameter/local index within the
  frame, or global index within the module's global frame);
* every call's target signature (argument count, value-returning or
  not), including cross-module targets;
* the module's import list, ordered by **static call frequency**, so the
  most frequent external targets get the one-byte ``EFC0``-``EFC7``
  opcodes (section 5.1).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.errors import SemanticError
from repro.lang import ast


@dataclass(frozen=True)
class Signature:
    """What a caller must know about a procedure."""

    module: str
    name: str
    arg_count: int
    returns_value: bool


@dataclass
class ProgramInfo:
    """Signatures of every procedure in a program, keyed by (module, proc)."""

    signatures: dict[tuple[str, str], Signature] = field(default_factory=dict)

    @classmethod
    def collect(cls, modules: list[ast.ModuleDecl]) -> ProgramInfo:
        info = cls()
        for module in modules:
            for procedure in module.procedures:
                key = (module.name, procedure.name)
                if key in info.signatures:
                    raise SemanticError(
                        f"duplicate procedure {module.name}.{procedure.name}",
                        procedure.pos.line,
                        procedure.pos.column,
                    )
                info.signatures[key] = Signature(
                    module=module.name,
                    name=procedure.name,
                    arg_count=len(procedure.params),
                    returns_value=procedure.returns_value,
                )
        return info

    def lookup(self, module: str, proc: str, pos: ast.Position) -> Signature:
        try:
            return self.signatures[(module, proc)]
        except KeyError:
            raise SemanticError(
                f"unknown procedure {module}.{proc}", pos.line, pos.column
            ) from None


@dataclass
class Scope:
    """One procedure's name bindings: locals by slot, globals by index."""

    module: str
    proc: str
    locals: dict[str, int]
    globals: dict[str, int]

    def resolve(self, name: str, pos: ast.Position) -> tuple[str, int]:
        """Return ("local", slot) or ("global", index); error if unbound."""
        slot = self.locals.get(name)
        if slot is not None:
            return ("local", slot)
        index = self.globals.get(name)
        if index is not None:
            return ("global", index)
        raise SemanticError(
            f"undefined name {name!r} in {self.module}.{self.proc}",
            pos.line,
            pos.column,
        )


def build_scope(module: ast.ModuleDecl, procedure: ast.ProcDecl) -> Scope:
    """Lay out a procedure's frame: parameters first, then locals.

    Parameters occupying the first slots is what makes the RENAME
    convention work: the stack bank's argument words become exactly
    those slots (section 7.2).
    """
    locals_map: dict[str, int] = {}
    for index, param in enumerate(procedure.params):
        if param.name in locals_map:
            raise SemanticError(
                f"duplicate parameter {param.name!r}", param.pos.line, param.pos.column
            )
        locals_map[param.name] = index
    for name in procedure.locals:
        if name in locals_map:
            raise SemanticError(
                f"local {name!r} shadows a parameter or duplicate local",
                procedure.pos.line,
                procedure.pos.column,
            )
        locals_map[name] = len(locals_map)
    globals_map: dict[str, int] = {}
    for index, name in enumerate(module.globals):
        if name in globals_map:
            raise SemanticError(f"duplicate global {name!r}")
        globals_map[name] = index
    return Scope(module.name, procedure.name, locals_map, globals_map)


def external_call_frequencies(module: ast.ModuleDecl) -> list[tuple[str, str]]:
    """External targets ordered by static call count, most frequent first.

    Section 5.1: "There are a number of one-byte opcodes, so that the
    (statically) most frequently called procedures in a module can be
    called in a single byte."  The order returned here becomes the link
    vector order, so indices 0-7 are the hottest targets.
    """
    counts: Counter[tuple[str, str]] = Counter()
    order: dict[tuple[str, str], int] = {}

    def visit_expr(node: ast.Expr) -> None:
        if isinstance(node, ast.Call):
            if node.module is not None and node.module != module.name:
                key = (node.module, node.proc)
                counts[key] += 1
                order.setdefault(key, len(order))
            for arg in node.args:
                visit_expr(arg)
        elif isinstance(node, ast.ProcLiteral):
            if node.module is not None and node.module != module.name:
                key = (node.module, node.proc)
                counts[key] += 1
                order.setdefault(key, len(order))
        elif isinstance(node, ast.XferExpr):
            visit_expr(node.dest)
            for arg in node.args:
                visit_expr(arg)
        elif isinstance(node, ast.BinOp):
            visit_expr(node.left)
            visit_expr(node.right)
        elif isinstance(node, (ast.UnOp, ast.Deref)):
            inner = node.operand if isinstance(node, ast.UnOp) else node.pointer
            visit_expr(inner)

    def visit_stmt(node: ast.Stmt) -> None:
        if isinstance(node, ast.Assign):
            visit_expr(node.value)
        elif isinstance(node, ast.StoreThrough):
            visit_expr(node.pointer)
            visit_expr(node.value)
        elif isinstance(node, ast.If):
            visit_expr(node.condition)
            for child in node.then_body + node.else_body:
                visit_stmt(child)
        elif isinstance(node, ast.While):
            visit_expr(node.condition)
            for child in node.body:
                visit_stmt(child)
        elif isinstance(node, ast.Return) and node.value is not None:
            visit_expr(node.value)
        elif isinstance(node, (ast.Output, ast.ExprStmt)):
            visit_expr(node.value if isinstance(node, ast.Output) else node.expr)

    for procedure in module.procedures:
        for statement in procedure.body:
            visit_stmt(statement)
    # Stable order: frequency descending, then first appearance.
    return sorted(counts, key=lambda key: (-counts[key], order[key]))


def contains_call(node: ast.Expr) -> bool:
    """Does evaluating *node* transfer control (call or XFER)?

    Code generation uses this to enforce the section 5.2 discipline: a
    transfer happens only when the evaluation stack holds nothing but the
    outgoing argument record ("code of the form f[g[], h[]] requires the
    results of g to be saved before h is called, and then retrieved").
    """
    if isinstance(node, (ast.Call, ast.XferExpr)):
        return True
    if isinstance(node, ast.BinOp):
        return contains_call(node.left) or contains_call(node.right)
    if isinstance(node, ast.UnOp):
        return contains_call(node.operand)
    if isinstance(node, ast.Deref):
        return contains_call(node.pointer)
    return False
