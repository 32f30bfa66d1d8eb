"""Command-line front end.

Subcommands: expand, identities, cohn, findim, verify-paper.  Every
subcommand builds a report dict (command echo, inputs, results, timing)
and prints it as text or as a JSON record (--format record).  Exit codes:
0 success, 1 verification failure, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from . import findim, speciality, verify
from .identities import magmatic_basis, new_identities
from .mutation import expand
from .terms import (TEMPLATES, ParseError, TermPoly, _multidegree, parse,
                    render)
from .verify import permutation_matrix_deg3


class CliError(Exception):
    """Usage-level error: reported on stderr with exit code 2."""


def _report(command, inputs, results, t0):
    return {"command": command, "inputs": inputs, "results": results,
            "timing_seconds": round(time.monotonic() - t0, 3)}


def _emit(report, fmt):
    if fmt == "record":
        print(json.dumps(report, indent=1, default=str))
        return
    print(f"# {report['command']}")
    for k, v in report["inputs"].items():
        print(f"  {k}: {v}")
    _emit_value(report["results"], indent="")
    print(f"  [{report['timing_seconds']}s]")


def _emit_value(value, indent):
    if isinstance(value, dict):
        for k, v in value.items():
            if isinstance(v, (dict, list)) and v:
                print(f"{indent}{k}:")
                _emit_value(v, indent + "  ")
            else:
                print(f"{indent}{k}: {v}")
    elif isinstance(value, list):
        for v in value:
            _emit_value(v, indent)
    else:
        print(f"{indent}{value}")


def cmd_expand(args):
    t0 = time.monotonic()
    poly = parse(args.expr)
    value = expand(poly)
    return _report("expand", {"expr": args.expr},
                   {"value": str(value)}, t0), 0


def _known_templates(spec):
    if not spec:
        return []
    out = []
    for name in spec.split(","):
        name = name.strip()
        if name not in TEMPLATES:
            raise CliError(f"unknown template {name!r} "
                           f"(available: {', '.join(sorted(TEMPLATES))})")
        out.append(TEMPLATES[name])
    return out


def cmd_identities(args):
    t0 = time.monotonic()
    if args.paper_order and args.degree != 3:
        raise CliError(f"--paper-order applies only to --degree 3, "
                       f"not {args.degree}")
    known = _known_templates(args.known)
    rep = new_identities(known, args.degree)
    results = {
        "kernel_dim": rep["kernel_dim"],
        "consequence_dim": rep["consequence_dim"],
        "new_dim": rep["new_dim"],
        "representatives": [render(p) for p in rep["representatives"]],
    }
    if args.paper_order:
        mat = permutation_matrix_deg3()
        results["columns"] = " ".join(render(TermPoly.term(t))
                                      for t in magmatic_basis(3))
        results["permutation_matrix"] = [
            " ".join(f"{str(row.get(j, 0)):>2}" for j in range(mat.ncols))
            for row in mat.rows]
    return _report("identities",
                   {"degree": args.degree,
                    "known": args.known or "(none)"},
                   results, t0), 0


def cmd_cohn(args):
    t0 = time.monotonic()
    req, target = speciality.paper_instance()
    gens = req.generators
    if args.generators:
        gens = [parse(g) for g in args.generators]
    multidegree = req.multidegree
    if args.target:
        target = parse(args.target)
        multidegree = _multidegree(target, "target")
    req = speciality.IdealComponentRequest(gens, multidegree)
    rep = speciality.cohn_check(req, target)
    equations = []
    for i, row in enumerate(rep["system"].rows):
        lhs = " + ".join(f"{row[j]}*{rep['unknowns'][j]}"
                         for j in sorted(row)) or "0"
        rhs = rep["rhs"].get(i, 0)
        equations.append(f"{lhs} = {rhs}")
    results = {
        "generators": [render(g) for g in req.generators],
        "target": render(target),
        "unknown_words": rep["words"],
        "in_perm_ideal": rep["in_perm_ideal"],
        "in_mutation_ideal": rep["in_mutation_ideal"],
        "equations": equations,
        "solution": ({rep["unknowns"][j]: str(c)
                      for j, c in rep["solution"].items()}
                     if rep["solution"] is not None else None),
        "verdict": rep["verdict"],
    }
    return _report("cohn", {"instance": "default" if not args.generators
                            else "custom"}, results, t0), 0


def _parse_vector(text, dim):
    try:
        coords = [Fraction(c.strip()) for c in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise CliError(f"vector {text!r} is not a comma-separated list "
                       f"of rationals") from None
    if len(coords) != dim:
        raise CliError(f"vector {text!r} has {len(coords)} coordinates, "
                       f"algebra dimension is {dim}")
    return coords


def cmd_findim(args):
    t0 = time.monotonic()
    try:
        a = findim.load_algebra(args.algebra)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot load {args.algebra}: {exc}") from None
    check = args.check
    inputs = {"algebra": args.algebra, "dim": a.dim, "check": check}
    mutated = args.p is not None or args.q is not None
    if mutated and check in ("jacobi", "criterion"):
        raise CliError(f"--p and --q do not apply to --check {check}")
    if mutated and (args.p is None or args.q is None):
        raise CliError("--p and --q go together; give both or neither")
    if check == "mutate" and not (args.p and args.q):
        raise CliError("mutate requires --p and --q vectors")
    # the criterion is the crit36 identity of the algebra's own product
    template = TEMPLATES.get("crit36" if check == "criterion" else check)
    if template is None and check not in ("jacobi", "mutate"):
        raise CliError(f"unknown check {check!r}; use an identity name, "
                       f"'criterion', 'jacobi' or 'mutate'")
    p = q = None
    if mutated:
        p = _parse_vector(args.p, a.dim)
        q = _parse_vector(args.q, a.dim)
    if check == "jacobi":
        ok, w = findim.jacobi_test(a)
        results = {"verdict": "yes" if ok else "no",
                   "witness": None if ok else
                   [a.names[i] for i in w]}
    elif check == "mutate":
        m = findim.mutation_algebra(a, p, q)
        doc = json.loads(findim.dump_algebra(m))
        doc["table"] = [" ".join(str(x) for x in entry)
                        for entry in doc["table"]]
        results = doc
    else:
        if mutated:
            # the identity is checked on the (p,q)-mutation of the algebra
            inputs.update(p=args.p, q=args.q)
        ok, w = findim.satisfies(a, template, p, q)
        results = {"verdict": "yes" if ok else "no",
                   "witness": None if ok else
                   ([a.names[i] for i in w[0]], a.vec_str(w[1]))}
    code = 0 if results.get("verdict", "yes") == "yes" or check == "mutate" \
        else 1
    return _report("findim", inputs, results, t0), code


def cmd_verify_paper(args):
    t0 = time.monotonic()
    results = verify.run_all(limit=args.limit)
    failed = [r for r in results if r["status"] == "failed"]
    report = _report(
        "verify-paper", {"limit": args.limit},
        {"checks": results,
         "summary": f"{sum(r['status'] == 'passed' for r in results)} "
                    f"passed, {len(failed)} failed, "
                    f"{sum(r['status'] == 'skipped' for r in results)} "
                    f"skipped"},
        t0)
    return report, (1 if failed else 0)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="mutperm",
        description="free perm algebras and their (p,q)-mutations")
    ap.add_argument("--format", choices=("text", "record"), default="text")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="expand a bracket expression")
    p.add_argument("expr")
    p.set_defaults(fn=cmd_expand)

    p = sub.add_parser("identities", help="multilinear identity scan")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--known", default="")
    p.add_argument("--paper-order", action="store_true",
                   help="with --degree 3, add the 12x12 permutation "
                        "matrix of f and wa in the preset column order")
    p.set_defaults(fn=cmd_identities)

    p = sub.add_parser("cohn", help="exceptional-image certificate")
    p.add_argument("--generators", nargs="*", default=None)
    p.add_argument("--target", default=None)
    p.set_defaults(fn=cmd_cohn)

    p = sub.add_parser("findim", help="finite-dimensional algebra checks")
    p.add_argument("algebra", help="algebra file (JSON structure constants)")
    p.add_argument("--check", required=True,
                   help="identity name, 'criterion', 'jacobi' or 'mutate'")
    p.add_argument("--p", help="comma-separated vector p: for mutate, or "
                               "to check an identity on the (p,q)-mutation")
    p.add_argument("--q", help="comma-separated vector q, with --p")
    p.set_defaults(fn=cmd_findim)

    p = sub.add_parser("verify-paper", help="run the verification suite")
    p.add_argument("--limit", type=int, default=6,
                   help="maximum degree; checks above it are skipped")
    p.set_defaults(fn=cmd_verify_paper)
    return ap


# built on the first call of main, not at import; parse_args keeps no
# state between calls, so one parser serves every call in the process
_parser = functools.cache(build_parser)


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return exc.code if exc.code in (0, 2) else 2
    try:
        report, code = args.fn(args)
    except (CliError, ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return 2
    _emit(report, args.format)
    return code


if __name__ == "__main__":
    sys.exit(main())
