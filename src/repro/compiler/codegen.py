"""Code generation: annotated loop nests → executable SPMD artifacts.

Two artifacts are produced per compilation (paper §5.2, Figure 3):

1. **An executable Python module** (returned as source text and exec'd
   by the driver) containing, per load-balanced loop, a
   ``make_loop_spec_<name>`` builder that instantiates the symbolic
   cost functions for concrete sizes, and a ``make_kernel_<name>``
   factory whose kernel executes one (global) iteration of the loop
   body against NumPy arrays — used to validate that the transformed
   program computes exactly what the sequential program computes.
2. **A Figure-3 style transformed listing**: the C-like SPMD code with
   the DLB library calls (``DLB_init``, ``DLB_scatter_data``,
   ``DLB_master_sync``, ``DLB_slave_sync``, ``DLB_send_interrupt``,
   ``DLB_profile_send_move_work``, ``DLB_gather_data``) inserted, for
   inspection and documentation.
"""

from __future__ import annotations

from .analysis import LoopAnalysis
from .ast_nodes import ArrayRef, Assign, BinOp, Expr, ForLoop, Num, Program, Var
from .symbolic import Poly

__all__ = ["generate_module", "generate_transformed_listing",
           "poly_to_python", "expr_to_python"]


def poly_to_python(poly: Poly) -> str:
    """Render a polynomial as a Python expression string."""
    if not poly.terms:
        return "0"
    parts = []
    for mono, coeff in sorted(poly.terms.items()):
        factors = [f"{var}**{exp}" if exp > 1 else var for var, exp in mono]
        if not factors:
            parts.append(repr(coeff))
        else:
            prefix = "" if coeff == 1 else f"{coeff!r}*"
            parts.append(prefix + "*".join(factors))
    return "(" + " + ".join(parts) + ")"


def expr_to_python(expr: Expr) -> str:
    """Render a body expression as Python (NumPy indexing for arrays)."""
    if isinstance(expr, Num):
        v = expr.value
        return repr(int(v)) if float(v).is_integer() else repr(v)
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, ArrayRef):
        idx = ", ".join(f"int({expr_to_python(i)})" for i in expr.indices)
        return f"{expr.name}[{idx}]"
    if isinstance(expr, BinOp):
        return (f"({expr_to_python(expr.left)} {expr.op} "
                f"{expr_to_python(expr.right)})")
    raise TypeError(f"unsupported expression {expr!r}")


def _emit_body(stmts: tuple, lines: list[str], indent: str) -> None:
    for stmt in stmts:
        if isinstance(stmt, Assign):
            lines.append(f"{indent}{expr_to_python(stmt.target)} "
                         f"{stmt.op} {expr_to_python(stmt.expr)}")
        elif isinstance(stmt, ForLoop):
            lines.append(
                f"{indent}for {stmt.var} in range("
                f"int({expr_to_python(stmt.lower)}), "
                f"int({expr_to_python(stmt.upper)})):")
            _emit_body(stmt.body, lines, indent + "    ")
        else:  # pragma: no cover - parser produces only these
            raise TypeError(f"unsupported statement {stmt!r}")


def _collect_symbols(analysis: LoopAnalysis) -> list[str]:
    """Size symbols the generated functions must unpack from ``sizes``."""
    symbols = set(analysis.size_symbols())

    def scan(stmts: tuple, bound_vars: set[str]) -> None:
        for stmt in stmts:
            if isinstance(stmt, ForLoop):
                for bound in (stmt.lower, stmt.upper):
                    for node in _walk(bound):
                        if isinstance(node, Var) and node.name not in bound_vars:
                            symbols.add(node.name)
                scan(stmt.body, bound_vars | {stmt.var})
            elif isinstance(stmt, Assign):
                for node in list(_walk(stmt.expr)) + list(_walk(stmt.target)):
                    if isinstance(node, Var) and node.name not in bound_vars:
                        symbols.add(node.name)

    def _walk(expr: Expr):
        yield expr
        if isinstance(expr, BinOp):
            yield from _walk(expr.left)
            yield from _walk(expr.right)
        elif isinstance(expr, ArrayRef):
            for i in expr.indices:
                yield from _walk(i)

    loop = analysis.nest.loop
    for bound in (loop.lower, loop.upper):
        for node in _walk(bound):
            if isinstance(node, Var):
                symbols.add(node.name)
    scan(loop.body, {loop.var})
    return sorted(symbols)


def _unpack_sizes(symbols: list[str], indent: str) -> str:
    return "\n".join(f"{indent}{s} = int(sizes[{s!r}])" for s in symbols) \
        or f"{indent}pass"


def _spec_function(analysis: LoopAnalysis) -> str:
    name = analysis.name
    symbols = _collect_symbols(analysis)
    var = analysis.var
    lines = [f"def make_loop_spec_{name}(sizes, op_seconds=1.0e-07):",
             f"    \"\"\"LoopSpec for {name!r} at concrete sizes "
             f"(auto-generated).\"\"\"",
             _unpack_sizes(symbols, "    "),
             f"    lower = int({poly_to_python(analysis.lower)})",
             f"    n = int({poly_to_python(analysis.trip_count)})"]
    if analysis.uniform:
        lines += [
            f"    iteration_time = float({poly_to_python(analysis.work_per_iteration)}) * op_seconds",
        ]
    else:
        lines += [
            f"    {var} = np.arange(lower, lower + n, dtype=np.float64)",
            f"    _w = np.maximum({poly_to_python(analysis.work_per_iteration)}, 1.0) * op_seconds",
        ]
        if analysis.nest.bitonic:
            lines += ["    _w = bitonic_pair_costs(_w)",
                      "    n = len(_w)"]
        lines += ["    iteration_time = tuple(float(x) for x in _w)"]
    dc_factor = 2 if analysis.nest.bitonic else 1
    lines += [
        f"    dc = {dc_factor} * int({poly_to_python(analysis.dc_bytes)})",
        f"    return LoopSpec(name={name!r}, n_iterations=n,",
        "                    iteration_time=iteration_time, dc_bytes=dc,",
        f"                    ic_bytes=int({poly_to_python(analysis.ic_bytes)}),",
        f"                    input_bytes={dc_factor} * int({poly_to_python(analysis.input_bytes)}),",
        f"                    result_bytes={dc_factor} * int({poly_to_python(analysis.result_bytes)}),",
        f"                    replicated_bytes=int({poly_to_python(analysis.replicated_bytes)}))",
    ]
    return "\n".join(lines)


def _kernel_function(analysis: LoopAnalysis) -> str:
    name = analysis.name
    loop = analysis.nest.loop
    symbols = _collect_symbols(analysis)
    arrays = sorted(analysis.reads | analysis.writes)
    body_lines: list[str] = []
    _emit_body(loop.body, body_lines, "            ")
    body = "\n".join(body_lines) or "            pass"
    unpack_arrays = "\n".join(
        f"    {a} = arrays[{a!r}]" for a in arrays) or "    pass"
    lines = [f"def make_kernel_{name}(sizes, arrays):",
             f"    \"\"\"Kernel executing one global iteration of "
             f"{name!r} (auto-generated).\"\"\"",
             _unpack_sizes(symbols, "    "),
             unpack_arrays,
             f"    lower = int({poly_to_python(analysis.lower)})",
             f"    n = int({poly_to_python(analysis.trip_count)})"]
    if analysis.nest.bitonic:
        lines += [
            "    def kernel(s):",
            "        targets = [lower + s]",
            "        if s != n - 1 - s:",
            "            targets.append(lower + (n - 1 - s))",
            f"        for {loop.var} in targets:",
            body,
        ]
    else:
        lines += [
            "    def kernel(index):",
            f"        {loop.var} = lower + index",
            "        if True:",
            body,
        ]
    lines += ["    return kernel"]
    return "\n".join(lines)


def generate_module(program: Program, analyses: list[LoopAnalysis]) -> str:
    """Generate the executable Python module for a compiled program."""
    needs_bitonic = any(a.nest.bitonic for a in analyses)
    header = [
        '"""Auto-generated by repro.compiler — do not edit."""',
        "import numpy as np",
        "from repro.apps.workload import LoopSpec",
    ]
    if needs_bitonic:
        header.append("from repro.apps.trfd import bitonic_pair_costs")
    chunks = ["\n".join(header)]
    registry = []
    for a in analyses:
        chunks.append(_spec_function(a))
        chunks.append(_kernel_function(a))
        registry.append(
            f"    {a.name!r}: dict(spec=make_loop_spec_{a.name}, "
            f"kernel=make_kernel_{a.name}, uniform={a.uniform}, "
            f"bitonic={a.nest.bitonic}, var={a.var!r}),")
    chunks.append("LOOPS = {\n" + "\n".join(registry) + "\n}")
    return "\n\n\n".join(chunks) + "\n"


def generate_transformed_listing(program: Program,
                                 analyses: list[LoopAnalysis]) -> str:
    """The Figure-3 style C-like SPMD listing with DLB library calls."""
    arrays = ", ".join(f"&DLB_array_{a}" for a in program.arrays) or ""
    out = [
        "/* transformed by repro.compiler (cf. paper Figure 3) */",
        f"DLB_init(argcnt, &dlb, P, K, task_ids, master_tid{', ' + arrays if arrays else ''});",
        "DLB_scatter_data(&dlb);",
        "if (master)",
        "    DLB_master_sync(&dlb);   /* first sync, modeling, selection */",
        "else {",
    ]
    for a in analyses:
        loop = a.nest.loop
        out += [
            f"    /* {a.describe()} */",
            "    while (dlb.more_work) {",
            f"        for ({a.var} = dlb.start; {a.var} < dlb.end && "
            "dlb.more_work; "
            f"{a.var}++) {{",
        ]

        def emit_c(stmts: tuple, indent: str) -> None:
            for stmt in stmts:
                if isinstance(stmt, ForLoop):
                    out.append(f"{indent}for ({stmt.var} = {stmt.lower}; "
                               f"{stmt.var} < {stmt.upper}; {stmt.var}++)")
                    emit_c(stmt.body, indent + "    ")
                else:
                    out.append(f"{indent}{stmt}")

        emit_c(loop.body, "            ")
        out += [
            "            if (DLB_slave_sync(&dlb) && dlb.interrupt)",
            "                DLB_profile_send_move_work(&dlb);",
            "        }",
            "        if (dlb.more_work) {",
            "            DLB_send_interrupt(&dlb);",
            "            DLB_profile_send_move_work(&dlb);",
            "        }",
            "    }",
        ]
    out += ["}", "DLB_gather_data(&dlb);"]
    return "\n".join(out)
