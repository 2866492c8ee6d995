#!/usr/bin/env python3
"""List the statements of the package that no CLI run executes.

    python scripts/cli_reach.py SRC [CONFIG ...]

SRC is a directory holding a ``stresseq`` package (the ``src`` directory of
a checkout).  Without CONFIG, the configs are the ten of
``scripts/oracle_runs.py``: ``stresseq run`` on each, ``stresseq verify``
on its six small ones (``cook``, ``manufactured-smooth`` and
``square-lshape`` at k = 1 and 2) and ``stresseq mesh-info`` on the first
final mesh that a run saved.  With CONFIG, ``run`` and ``verify`` go on
each given config, and ``mesh-info`` on the first saved final mesh, if a
run saved one.

All commands run in this one process, through ``harness.main``, under
``sys.settrace``, which records the lines executed in the files under
``SRC/stresseq``; the package is imported afresh under the trace, and its
output files go to a temporary directory.  For each function or method
(nested ones by their dotted name, e.g. ``_smooth_fields.u``) the script
then prints the outermost statements that never ran, docstrings excluded,
as line ranges, or "never ran" where none of its statements did.  A
compound statement counts as run when its header or a statement inside
it ran.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

import oracle_runs  # noqa: E402


def _children(node: ast.stmt):
    """The statements directly inside a compound statement (none for a
    nested function or class, whose bodies are reported on their own)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    stmts = []
    for field in ("body", "orelse", "finalbody"):
        stmts += getattr(node, field, [])
    for handler in getattr(node, "handlers", []):
        stmts += handler.body
    return stmts


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement outside the statements inside it: a simple
    statement's span, a compound statement's header (decorators included)."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    inner = getattr(node, "body", None)
    if isinstance(inner, list) and inner:
        return range(start, inner[0].lineno)
    return range(start, node.end_lineno + 1)


def _body(func: ast.FunctionDef) -> list[ast.stmt]:
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        if isinstance(body[0].value.value, str):
            return body[1:]
    return body


def _functions(tree: ast.Module):
    """Yield (dotted name, function node) for every function and method."""

    def walk(stmts, prefix):
        for node in stmts:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + node.name
                if not isinstance(node, ast.ClassDef):
                    yield name, node
                yield from walk(node.body, name + ".")
            else:
                yield from walk(_children(node), prefix)

    yield from walk(tree.body, "")


def unreached(source: str, ran: set[int]) -> list[tuple[str, list[tuple[int, int]] | None]]:
    """Per function of ``source`` with a statement that never ran: its
    dotted name and the line spans of its outermost such statements, or
    None when none of its statements ran."""

    def executed(node) -> bool:
        return any(line in ran for line in _own_lines(node)) or any(
            executed(child) for child in _children(node)
        )

    def missed(stmts):
        for node in stmts:
            if executed(node):
                yield from missed(_children(node))
            else:
                yield node.lineno, node.end_lineno

    out = []
    for name, func in _functions(ast.parse(source)):
        body = _body(func)
        spans = list(missed(body))
        if spans:
            out.append((name, spans if any(map(executed, body)) else None))
    return out


@contextlib.contextmanager
def line_trace(package: pathlib.Path, hits: dict[str, set[int]]):
    """Record into ``hits`` the lines executed, per file, in the files
    under ``package`` while the block runs."""
    prefix = str(package) + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        hits.setdefault(filename, set())
        return local

    sys.settrace(global_trace)
    try:
        yield
    finally:
        sys.settrace(None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=pathlib.Path, help="directory holding a stresseq package")
    parser.add_argument("configs", nargs="*", type=pathlib.Path, help="config files")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    package = src / "stresseq"
    sys.path.insert(0, str(src))
    hits: dict[str, set[int]] = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        if args.configs:
            configs = {f"{i}-{path.stem}": path.resolve() for i, path in enumerate(args.configs)}
            verified = list(configs)
        else:
            configs = oracle_runs.write_configs(src, tmp)
            verified = [f"{problem}-k{k}" for problem, k in oracle_runs.SMALL]
        # writing the configs may have imported the package: drop it, so
        # that its import, and every cache it fills, runs under the trace
        for name in [m for m in sys.modules if m.split(".")[0] == "stresseq"]:
            del sys.modules[name]

        with line_trace(package, hits):
            from stresseq.harness import main as cli

            def call(*argv):
                argv = [str(a) for a in argv]
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli(argv)
                if code != 0:
                    raise SystemExit(f"stresseq {' '.join(argv)} exited {code}")

            for name, config in configs.items():
                os.environ["STRESSEQ_OUTPUT_DIR"] = str(tmp / "out" / name)
                call("run", config)
            for name in verified:
                call("verify", configs[name])
            meshes = sorted((tmp / "out").glob("*/mesh_final.txt"))
            if meshes:
                call("mesh-info", meshes[0])

    for path in sorted(package.rglob("*.py")):
        found = unreached(path.read_text(), hits.get(str(path), set()))
        if found:
            print(path.relative_to(src))
        for name, spans in found:
            text = "never ran" if spans is None else ", ".join(
                str(a) if a == b else f"{a}-{b}" for a, b in spans
            )
            print(f"  {name}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
