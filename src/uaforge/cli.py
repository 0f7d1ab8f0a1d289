"""Command line front end.

Exit codes: 0 success / all claims pass, 1 claim failure, 2 usage or IO
error.  Algebra files use the JSON table format of the core module.
"""

from __future__ import annotations

import json
import re
import sys

import click

from . import catalog, claims
from .analysis import homs as _homs
from .congruences import congruence_lattice, principal_congruence
from .core import (
    AlgebraError,
    FiniteAlgebra,
    dumps_algebra,
    load_algebra,
    sg_closure,
)
from .formulas import format_formula, parse_formula_named
from .logic import FunctionalityError, eval_exists_decomposed, induced_partial_function
from .partitions import Partition


def _load(path: str) -> FiniteAlgebra:
    try:
        return load_algebra(path)
    except (OSError, AlgebraError) as exc:
        raise click.UsageError(f"cannot load {path}: {exc}")


def _element(alg: FiniteAlgebra, token: str) -> int:
    token = token.strip()
    if re.fullmatch(r"-?[0-9]+", token):  # ASCII digits only; anything else is a name
        idx = int(token)
        if not 0 <= idx < alg.size:
            raise click.UsageError(f"element index {idx} out of range for {alg.name}")
        return idx
    return alg.index_of(token)


def _blocks_json(alg: FiniteAlgebra, part: Partition) -> list:
    return [[alg.element_name(x) for x in b] for b in part.blocks()]


class _Command(click.Command):
    """A command that turns a library refusal (AlgebraError) into exit 2."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except AlgebraError as exc:
            raise click.UsageError(str(exc), ctx)


class _Group(click.Group):
    command_class = _Command


@click.group(cls=_Group)
def main():
    """Finite universal-algebra workbench."""


@main.command()
@click.argument("catalog_id")
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
def build(catalog_id, output):
    """Emit a catalog object (algebra JSON, partition JSON, or formula text)."""
    obj = catalog.build(catalog_id)
    if isinstance(obj, FiniteAlgebra):
        text = dumps_algebra(obj)
    elif isinstance(obj, Partition):
        text = json.dumps({"size": obj.size, "blocks": obj.blocks()}, indent=2) + "\n"
    else:  # (formula, display names)
        formula, names = obj
        text = format_formula(formula, names) + "\n"
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise click.UsageError(f"cannot write {output}: {exc}")
    else:
        click.echo(text, nl=False)


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--gens", default="", help="comma-separated element names or indices")
def sg(file, gens):
    """Subuniverse generated by the listed elements (plus all constants)."""
    alg = _load(file)
    generators = [_element(alg, t) for t in gens.split(",") if t.strip()]
    elems = sg_closure(alg, generators)
    click.echo(
        json.dumps(
            {"elements": list(elems), "names": [alg.element_name(e) for e in elems]}
        )
    )


@main.command()
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--principal", default=None, help="pair a,b for the principal congruence")
def con(file, principal):
    """Congruence lattice, or one principal congruence, as block lists."""
    alg = _load(file)
    if principal is not None:
        parts = principal.split(",")
        if len(parts) != 2:
            raise click.UsageError("--principal needs exactly two elements a,b")
        a, b = (_element(alg, t) for t in parts)
        theta = principal_congruence(alg, a, b)
        click.echo(json.dumps({"blocks": _blocks_json(alg, theta)}))
        return
    lat = congruence_lattice(alg)
    out = [{"blocks": _blocks_json(alg, p)} for p in lat]
    click.echo(json.dumps({"count": len(lat), "congruences": out}))


@main.command("eval")
@click.argument("file", type=click.Path(exists=True, dir_okay=False))
@click.option("--formula", "src", required=True, help="formula source text")
@click.option("--assign", default="", help="assignments name=element, comma-separated")
def eval_cmd(file, src, assign):
    """Evaluate a formula under an assignment of its free variables."""
    alg = _load(file)
    formula, free = parse_formula_named(src, alg.signature)
    env = {}
    for piece in assign.split(","):
        if not piece.strip():
            continue
        name, eq, value = piece.partition("=")
        name = name.strip()
        if not eq or name not in free:
            raise click.UsageError(f"unknown or malformed assignment {piece!r}")
        if free[name] in env:
            raise click.UsageError(f"variable {name!r} assigned twice")
        env[free[name]] = _element(alg, value)
    missing = [name for name, idx in free.items() if idx not in env]
    if missing:
        raise click.UsageError(f"free variables without assignment: {', '.join(sorted(missing))}")
    click.echo("true" if eval_exists_decomposed(alg, formula, env) else "false")


@main.command()
@click.argument("files", nargs=-1, required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--formula", "src", required=True, help="formula source text")
@click.option("--arity", type=click.IntRange(min=0), required=True, help="number of argument variables")
@click.option("--vars", "var_names", default=None, help="designated variables, output last")
def functional(files, src, arity, var_names):
    """Check that a formula defines a partial function on each algebra.

    Exit status 1 when some argument tuple gets two outputs on some algebra.
    """
    failures = 0
    for path in files:
        alg = _load(path)
        formula, free = parse_formula_named(src, alg.signature)
        var_order = None
        if var_names is not None:
            order = [v.strip() for v in var_names.split(",") if v.strip()]
            unknown = [v for v in order if v not in free]
            if unknown or len(order) != arity + 1:
                raise click.UsageError(
                    f"--vars needs {arity + 1} free variable names of the formula"
                )
            var_order = [free[v] for v in order]
        designated = range(arity + 1) if var_order is None else var_order
        extra = sorted(name for name, idx in free.items() if idx not in designated)
        if extra:
            raise click.UsageError(f"free variables outside the designated ones: {', '.join(extra)}")
        try:
            table = induced_partial_function(alg, formula, arity, var_order)
        except FunctionalityError as exc:
            click.echo(
                f"{alg.name}: not functional: arguments "
                f"{tuple(alg.element_name(a) for a in exc.arguments)} admit "
                f"{alg.element_name(exc.first)} and {alg.element_name(exc.second)}"
            )
            failures += 1
            continue
        total = "total" if len(table) == alg.size**arity else f"domain {len(table)}/{alg.size ** arity}"
        click.echo(f"{alg.name}: functional, {total}")
    sys.exit(1 if failures else 0)


@main.command()
@click.argument("source", type=click.Path(exists=True, dir_okay=False))
@click.argument("target", type=click.Path(exists=True, dir_okay=False))
@click.option("--injective", "kind", flag_value="injective", help="embeddings only")
@click.option("--auto", "kind", flag_value="bijective", help="bijections only")
@click.option("--all", "kind", flag_value="all", default=True, hidden=True)
def homs(source, target, kind):
    """Enumerate homomorphisms between two algebra files."""
    A, B = _load(source), _load(target)
    found = _homs(A, B, kind)
    click.echo(
        json.dumps(
            {
                "source": A.name,
                "target": B.name,
                "kind": kind,
                "count": len(found),
                "maps": found,
            }
        )
    )


@main.command()
@click.argument("claim_id", required=False)
@click.option("--all", "run_all_flag", is_flag=True, help="run the whole registry")
@click.option("--deep", is_flag=True, help="run the parameterized claims at n=4")
@click.option("--n", "n_opt", type=int, default=None, help="atom count for the An/Bn claims")
@click.option("--json", "as_json", is_flag=True, help="emit the JSON report")
def check(claim_id, run_all_flag, deep, n_opt, as_json):
    """Run one claim or the whole registry; exit 0 only if everything passes."""
    n = n_opt if n_opt is not None else (4 if deep else 3)
    if claim_id and run_all_flag:
        raise click.UsageError("give a claim id or --all, not both")
    run_n = catalog.parse_id(claim_id)[1].get("n", n) if claim_id else n
    for value in (n, run_n):
        if value < 3:
            raise click.UsageError("the parameterized claims need n >= 3")
        catalog.check_n(value)
    results = [claims.run_claim(claim_id, n=n)] if claim_id else claims.run_all(n=n)
    if as_json:
        click.echo(json.dumps(claims.report_dict(results), indent=2))
    else:
        for r in results:
            click.echo(f"{r.status.upper():4} {r.id:15} {r.elapsed_ms:7d} ms  {r.evidence}")
        failed = [r for r in results if r.status != "pass"]
        click.echo(f"{len(results) - len(failed)}/{len(results)} claims passed (n={run_n})")
    sys.exit(0 if all(r.status == "pass" for r in results) else 1)


if __name__ == "__main__":
    main()
