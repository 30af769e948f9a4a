"""Command-line front end.

Subcommands: admissible, dims, witness, path, connect, milnor, validate.
All output is canonical JSON (byte-identical for identical inputs and seed);
tables can also be emitted as CSV or aligned text.  Exit codes: 0 success,
1 parse/usage error (a degenerate map, ``DegenerateMap``, and a division by
a zero divisor of a quadratic layer whose radicand is a square in its base,
``ZeroDivisionError``, among them), 2 not admissible, 3 certification or
construction failed (an exact division that leaves a remainder,
``InexactDivision``, among them), 4 validation failed (a zero divisor met
while validating among them).
"""

from __future__ import annotations

import argparse
import io
import json
import random
import sys

from .fields import InexactDivision
from .jsonio import (MAX_CONDUCTOR, MAX_DEGREE, canon_dumps,
                     connectivity_from_json, connectivity_to_json, elem_to_json,
                     family_from_json, map_from_json, path_cert_from_json,
                     path_cert_to_json, witness_from_json, witness_to_json)
from .mobius import CapExceeded, GroupSpec, group_closure
from .moduli import (CertificateInvalid, CertificationFailed, FamilyMismatch,
                     NormalizationFailed, connectivity_certificate, dim_cyclic,
                     dim_dihedral, fujimura_cubic, milnor_coordinates,
                     NotDegreeTwo, build_path, validate_connectivity_certificate,
                     validate_path_certificate)
from .ratmap import maps_equal
from .symmetry import (NotAdmissible, WitnessUnavailable,
                       WitnessVerificationFailed, build_cyclic,
                       cyclic_admissible, dihedral_admissible, lemma_witness,
                       platonic_admissible)

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_NOT_ADMISSIBLE = 2
EXIT_CERTIFICATION = 3
EXIT_VALIDATION = 4


class ParseError(ValueError):
    pass


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------

def admissible_table(d_max: int) -> list[dict]:
    if not 2 <= d_max <= MAX_DEGREE:
        raise ParseError(f"d_max must be between 2 and {MAX_DEGREE}")
    rows = []
    for d in range(2, d_max + 1):
        cyclic = []
        dihedral = []
        for n in range(2, d + 2):
            cases = cyclic_admissible(d, n)
            if cases:
                cyclic.append({"n": n,
                               "cases": [{"case": c, "r": r} for c, r in cases]})
            dcases = dihedral_admissible(d, n)
            if dcases:
                dihedral.append({"n": n,
                                 "cases": [{"case": c, "r": r} for c, r in dcases]})
        rows.append({
            "d": d,
            "cyclic": cyclic,
            "dihedral": dihedral,
            "A4": platonic_admissible(d, GroupSpec("A4")),
            "S4": platonic_admissible(d, GroupSpec("S4")),
            "A5": platonic_admissible(d, GroupSpec("A5")),
        })
    return rows


def dims_table(d_max: int) -> list[dict]:
    if not 2 <= d_max <= MAX_DEGREE:
        raise ParseError(f"d_max must be between 2 and {MAX_DEGREE}")
    rows = []
    for d in range(2, d_max + 1):
        for n in range(2, d + 2):
            for case, r in cyclic_admissible(d, n):
                rep = dim_cyclic(d, n, case)
                rows.append({"d": d, "n": n, "kind": "cyclic", "case": case,
                             "r": r, "dimension": rep.dimension})
            for case, r in dihedral_admissible(d, n):
                rep = dim_dihedral(d, n, case)
                rows.append({"d": d, "n": n, "kind": "dihedral", "case": case,
                             "r": r, "dimension": rep.dimension})
    return rows


def _table_csv(rows: list[dict]) -> str:
    # flat tables only
    out = io.StringIO()
    if not rows:
        return ""
    if "cyclic" in rows[0]:
        out.write("d,cyclic,dihedral,A4,S4,A5\n")
        for row in rows:
            cyc = ";".join(f"C{e['n']}({'/'.join(c['case'] for c in e['cases'])})"
                           for e in row["cyclic"])
            dih = ";".join(f"D{e['n']}({'/'.join(c['case'] for c in e['cases'])})"
                           for e in row["dihedral"])
            out.write(f"{row['d']},{cyc},{dih},"
                      f"{int(row['A4'])},{int(row['S4'])},{int(row['A5'])}\n")
    else:
        keys = ["d", "n", "kind", "case", "r", "dimension"]
        out.write(",".join(keys) + "\n")
        for row in rows:
            out.write(",".join(str(row[k]) for k in keys) + "\n")
    return out.getvalue()


def _table_pretty(rows: list[dict]) -> str:
    out = io.StringIO()
    if rows and "cyclic" in rows[0]:
        for row in rows:
            cyc = ", ".join(f"C{e['n']}[{'/'.join(c['case'] for c in e['cases'])}]"
                            for e in row["cyclic"]) or "-"
            dih = ", ".join(f"D{e['n']}[{'/'.join(c['case'] for c in e['cases'])}]"
                            for e in row["dihedral"]) or "-"
            plat = " ".join(k for k in ("A4", "S4", "A5") if row[k]) or "-"
            out.write(f"d={row['d']:<3} cyclic: {cyc}\n")
            out.write(f"{'':6}dihedral: {dih}\n")
            out.write(f"{'':6}exceptional: {plat}\n")
    else:
        for row in rows:
            out.write(f"d={row['d']:<3} {row['kind']:<8} n={row['n']:<3} "
                      f"case {row['case']:<2} r={row['r']:<3} "
                      f"dim={row['dimension']}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _emit(text: str, out_file):
    if out_file:
        with open(out_file, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        # a RecursionError is nesting deeper than the decoder's stack
        raise ParseError(f"cannot read {path}: {exc}") from exc


def cmd_admissible(args) -> int:
    rows = admissible_table(args.dmax)
    if args.output == "csv":
        _emit(_table_csv(rows), args.out_file)
    elif args.output == "pretty":
        _emit(_table_pretty(rows), args.out_file)
    else:
        _emit(canon_dumps({"d_max": args.dmax, "rows": rows}), args.out_file)
    return EXIT_OK


def cmd_dims(args) -> int:
    rows = dims_table(args.dmax)
    if args.output == "csv":
        _emit(_table_csv(rows), args.out_file)
    elif args.output == "pretty":
        _emit(_table_pretty(rows), args.out_file)
    else:
        _emit(canon_dumps({"d_max": args.dmax, "rows": rows}), args.out_file)
    return EXIT_OK


def cmd_witness(args) -> int:
    # write only what `validate` reads back: the witness lives over
    # Q(zeta_p) and has degree d
    if args.p > MAX_CONDUCTOR or args.d > MAX_DEGREE:
        raise ParseError(f"need p <= {MAX_CONDUCTOR} and d <= {MAX_DEGREE}")
    report = lemma_witness(args.p, args.d)
    _emit(canon_dumps(witness_to_json(report)), args.out_file)
    return EXIT_OK


def cmd_path(args) -> int:
    fam0 = family_from_json(_load_json(args.family0))
    fam1 = family_from_json(_load_json(args.family1))
    rng = random.Random(args.seed)
    cert = build_path(fam0, fam1, args.strategy, rng, args.precision)
    _emit(canon_dumps(path_cert_to_json(cert)), args.out_file)
    return EXIT_OK


def cmd_connect(args) -> int:
    fam0 = family_from_json(_load_json(args.family0))
    fam1 = family_from_json(_load_json(args.family1))
    rng = random.Random(args.seed)
    cert = connectivity_certificate(fam0, fam1, args.strategy, rng, args.precision)
    _emit(canon_dumps(connectivity_to_json(cert)), args.out_file)
    return EXIT_OK


def cmd_milnor(args) -> int:
    phi = map_from_json(_load_json(args.map))
    pt = milnor_coordinates(phi)
    value = fujimura_cubic(pt)
    _emit(canon_dumps({"sigma1": elem_to_json(pt.sigma1),
                       "sigma2": elem_to_json(pt.sigma2),
                       "cubic": elem_to_json(value)}), args.out_file)
    return EXIT_OK


def _generated_group(autos) -> GroupSpec | None:
    """The group generated by T of odd order p and S of order 2: C_2p if
    they commute, else D_p if (TS)^2 = 1, as in every cyclic or dihedral
    group; else a finite <T, S> is A4, S4 or A5, closed in 60 elements."""
    (T, p), (S, two) = autos
    if two != 2 or p < 3 or p % 2 == 0:
        return None
    TS = T @ S
    if TS == S @ T:
        return GroupSpec("cyclic", 2 * p)
    if (TS @ TS).is_identity():
        return GroupSpec("dihedral", p)
    try:
        return GroupSpec({12: "A4", 24: "S4", 60: "A5"}[len(group_closure((T, S), 60))])
    except (CapExceeded, KeyError):
        return None


def cmd_validate(args) -> int:
    doc = _load_json(args.certificate)
    if not isinstance(doc, dict):
        raise ParseError(f"{args.certificate} does not hold a JSON object")
    kind = doc.get("certificate_type")
    try:
        if kind == "path":
            validate_path_certificate(path_cert_from_json(doc))
        elif kind == "connectivity":
            validate_connectivity_certificate(connectivity_from_json(doc))
        elif kind == "witness":
            report = witness_from_json(doc)
            if not report.verify():
                raise CertificateInvalid("automorphism verification failed")
            if not maps_equal(build_cyclic(report.family), report.map):
                raise CertificateInvalid("family does not rebuild the map")
            if _generated_group(report.autos) != report.group:
                raise CertificateInvalid("the automorphisms generate another group")
        else:
            raise ParseError(f"unknown certificate type {kind!r}")
    except (CertificateInvalid, ValueError, KeyError, TypeError,
            ZeroDivisionError) as exc:
        if isinstance(exc, ParseError):
            raise
        _emit(canon_dumps({"valid": False, "reason": str(exc)}), args.out_file)
        return EXIT_VALIDATION
    _emit(canon_dumps({"valid": True}), args.out_file)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratsym",
        description="exact symmetric rational maps: tables, witnesses, "
                    "certified paths and multiplier coordinates")
    # each subcommand takes only the options it reads
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out-file", default=None)
    table = argparse.ArgumentParser(add_help=False, parents=[out])
    table.add_argument("--dmax", type=int, required=True)
    table.add_argument("--output", choices=("json", "csv", "pretty"),
                       default="json")
    search = argparse.ArgumentParser(add_help=False, parents=[out])
    search.add_argument("family0")
    search.add_argument("family1")
    search.add_argument("--seed", type=int, default=0)
    search.add_argument("--strategy", choices=("sturm", "interval"),
                        default="sturm")
    search.add_argument("--precision", type=int, default=128)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("admissible", parents=[table],
                       help="admissible symmetry types for each degree")
    p.set_defaults(func=cmd_admissible)

    p = sub.add_parser("dims", parents=[table],
                       help="dimensions of the symmetric loci")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("witness", parents=[out],
                       help="witness map with symmetries of orders p and 2")
    p.add_argument("p", type=int)
    p.add_argument("d", type=int)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("path", parents=[search],
                       help="certified path between two family members")
    p.set_defaults(func=cmd_path)

    p = sub.add_parser("connect", parents=[search],
                       help="chained connectivity certificate")
    p.set_defaults(func=cmd_connect)

    p = sub.add_parser("milnor", parents=[out],
                       help="multiplier coordinates of a degree-2 map")
    p.add_argument("map")
    p.set_defaults(func=cmd_milnor)

    p = sub.add_parser("validate", parents=[out],
                       help="re-validate a stored certificate")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except ParseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE
    except (NotAdmissible, FamilyMismatch) as exc:
        sys.stderr.write(f"not admissible: {exc}\n")
        return EXIT_NOT_ADMISSIBLE
    except (CertificationFailed, WitnessUnavailable, WitnessVerificationFailed,
            NormalizationFailed, InexactDivision) as exc:
        sys.stderr.write(f"certification failed: {exc}\n")
        return EXIT_CERTIFICATION
    except CertificateInvalid as exc:
        sys.stderr.write(f"validation failed: {exc}\n")
        return EXIT_VALIDATION
    except NotDegreeTwo as exc:
        sys.stderr.write(f"not admissible: {exc}\n")
        return EXIT_NOT_ADMISSIBLE
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
