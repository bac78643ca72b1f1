"""Command-line interface.

Subcommands: field, ksum, moments, group, code, verify. Output is JSON on
stdout (CSV with --format csv); computed integers are serialized as decimal
strings so consumers never lose precision. Field elements are read and
written as lowercase hex in the package's fixed polynomial basis (see
ksums.field.DEFAULT_MODULI). Exit codes: 0 success, 1 failed verification,
internal inconsistency or a stdout pipe closed by its reader (nothing on
stderr then), 2 usage/parameter/budget error. Everything is deterministic;
there is no seed.

Every request is one cold process, so a subcommand imports only the layers
it runs. This module loads field, combinat, matgf, charsums and orthogroup
(the parser's family choices are orthogroup.FAMILY_LABELS), all that
`field`, `ksum`, `moments oracle` and `group` run. The handlers of
`moments recursive` and `code` import coset_codes (and moments), that of
`verify` every layer, and the csv module loads only for --format csv.
"""

import argparse
import json
import os
import sys

from ksums import charsums, field, matgf, orthogroup
from ksums.errors import BudgetError, ConsistencyError


def _emit(args, payload, rows=None):
    if getattr(args, "format", "json") == "csv":
        import csv
        writer = csv.writer(sys.stdout)
        if rows is None:
            rows = [("key", "value")] + [(k, json.dumps(v) if isinstance(v, (dict, list)) else v)
                                         for k, v in payload.items()]
        for row in rows:
            writer.writerow(row)
    else:
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")


def _parse_field(args):
    text, modulus = getattr(args, "modulus", None), None
    if text is not None:  # "" is a bad modulus, not the default one
        try:
            modulus = int(text, 16)
        except ValueError:
            raise ValueError(f"not a hex modulus: {text!r}") from None
    return field.binary_field(args.r, modulus)


def _cmd_field_table(args):
    fp = _parse_field(args)
    payload = {
        "r": fp.r,
        "q": fp.q,
        "modulus_hex": format(fp.modulus, "x"),
        "trace": list(field.trace_table(fp)),
    }
    rows = [("x_hex", "trace")] + [(field.element_hex(fp, x), t)
                                   for x, t in enumerate(payload["trace"])]
    _emit(args, payload, rows)
    return 0


def _cmd_ksum(args):
    fp = _parse_field(args)
    a = field.check_unit(fp, field.parse_element(fp, args.a), "a")
    c = field.parse_element(fp, args.c)
    value = charsums.kloosterman_values(fp, args.m, c)[a]
    _emit(args, {"r": fp.r, "a": field.element_hex(fp, a), "m": args.m,
                 "c": field.element_hex(fp, c), "value": str(value)})
    return 0


def _cmd_ksum_gl(args):
    fp = _parse_field(args)
    a = field.parse_element(fp, args.a)
    c = field.parse_element(fp, args.c)
    if args.method == "all":
        value = charsums.kloosterman_gl(fp, args.t, a, "all", c)
        values = {name: value for name in charsums.gl_routes(args.t, fp.q)}
    else:
        value = charsums.kloosterman_gl(fp, args.t, a, args.method, c)
        values = {args.method: value}
    _emit(args, {"r": fp.r, "t": args.t, "a": field.element_hex(fp, a),
                 "c": field.element_hex(fp, c), "value": str(value),
                 "values": {k: str(v) for k, v in values.items()}})
    return 0


def _cmd_moments_oracle(args):
    fp = _parse_field(args)
    c = field.parse_element(fp, args.c)
    table = [{"h": h, "value": str(value)}
             for h, value in enumerate(charsums.power_moments(fp, args.m, args.h_max, c=c))]
    payload = {"r": fp.r, "m": args.m, "c": field.element_hex(fp, c), "moments": table}
    rows = [("h", "value")] + [(row["h"], row["value"]) for row in table]
    _emit(args, payload, rows)
    return 0


def _cmd_moments_recursive(args):
    from ksums import coset_codes, moments
    fp = _parse_field(args)
    fam = coset_codes.parse_family(args.family, args.n, fp)
    table = []
    for kind in moments.kinds(fam.codim):
        values = kind.sequence(fam, args.h_max)  # first: its budget refuses a huge h_max
        oracles = kind.oracles(fp, args.h_max) if args.compare_oracle else None
        for h, value in enumerate(values):
            row = {"kind": kind.name, "h": h, "recursive": str(value)}
            if args.compare_oracle:
                row["oracle"] = str(oracles[h])
                row["match"] = row["recursive"] == row["oracle"]
            table.append(row)
    payload = {"family": fam.label, "n": fam.n, "r": fp.r, "rows": table}
    header = ["kind", "h", "recursive"] + (["oracle", "match"] if args.compare_oracle else [])
    rows = [tuple(header)] + [tuple(row[k] for k in header) for row in table]
    _emit(args, payload, rows)
    return 0 if all(row.get("match", True) for row in table) else 1


def _cmd_group_enum(args):
    fp = _parse_field(args)
    field.check_int("n", args.n, 1)  # the bound group counts applies: group_order(0, q) is 0
    cells = [args.cell] if args.cell is not None else list(range(args.n + 1))
    out = []
    for r in cells:
        cell = orthogroup.bruhat_cell(fp, args.n, r)
        hist = orthogroup.cell_trace_histogram(fp, args.n, r)
        entry = {
            "cell": r,
            "order": str(len(cell.elements)),
            "trace_histogram": {field.element_hex(fp, b): str(c)
                                for b, c in sorted(hist.items())},
        }
        if args.elements:
            entry["elements"] = matgf.keys_hex(fp, 2 * args.n, sorted(cell.elements))
        out.append(entry)
    payload = {"r": fp.r, "n": args.n, "cells": out}
    rows = [("cell", "order", "beta_hex", "count")]
    for entry in out:
        for b, c in entry["trace_histogram"].items():
            rows.append((entry["cell"], entry["order"], b, c))
    _emit(args, payload, rows)
    return 0


def _cmd_group_counts(args):
    fp = _parse_field(args)
    counts = orthogroup.group_counts(args.n, fp.q)
    payload = {k: ([str(x) for x in v] if isinstance(v, list) else
                   (str(v) if k not in ("n", "q") else v))
               for k, v in counts.items()}
    _emit(args, payload)
    return 0


def _cmd_code_weights(args):
    from ksums import coset_codes
    fp = _parse_field(args)
    fam = coset_codes.parse_family(args.family, args.n, fp)
    table = [{"a": field.element_hex(fp, a),
              "weight": str(coset_codes.dual_weight(fam, a, args.mode))}
             for a in field.units(fp)]
    payload = {"family": fam.label, "n": fam.n, "r": fp.r, "mode": args.mode,
               "source": "enumerable" if orthogroup.enumerable(fp, fam.n) else "formula-only",
               "length": str(coset_codes.family_constants(fam).size), "weights": table}
    rows = [("a_hex", "weight")] + [(t["a"], t["weight"]) for t in table]
    _emit(args, payload, rows)
    return 0


def _cmd_code_dist(args):
    from ksums import coset_codes
    fp = _parse_field(args)
    fam = coset_codes.parse_family(args.family, args.n, fp)
    counts = coset_codes.trace_multiplicities(fam)
    size = coset_codes.family_constants(fam).size
    payload = {"family": fam.label, "n": fam.n, "r": fp.r, "length": str(size),
               "source": "enumerable" if orthogroup.enumerable(fp, fam.n) else "formula-only"}
    if args.j is not None:
        # no codeword is longer than the code, so j beyond it has coefficient 0
        dist = coset_codes.weight_distribution(counts, j_max=args.j)
        value = dist[args.j] if args.j < len(dist) else 0
        payload["j"] = args.j
        payload["coefficient"] = str(value)
        rows = [("j", "coefficient"), (args.j, str(value))]
    else:
        dist = coset_codes.weight_distribution(counts)
        payload["coefficients"] = [str(v) for v in dist]
        rows = [("j", "coefficient")] + list(enumerate(payload["coefficients"]))
    _emit(args, payload, rows)
    return 0


def _cmd_verify_all(args):
    from ksums import verify
    report = verify.run_checks(max_r=args.max_r, max_n=args.max_n, h_max=args.h_max)
    rows = [("name", "params", "pass")] + [
        (c["name"], json.dumps(c["params"], sort_keys=True), c["pass"])
        for c in report["checks"]]
    _emit(args, report, rows)
    return 0 if report["summary"]["failed"] == 0 else 1


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_format(p):
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksums",
        description="Exact Kloosterman sums, orthogonal-group double cosets, "
                    "trace codes, and power-moment recursions over GF(2^r).")
    sub = parser.add_subparsers(dest="command", required=True)

    p_field = sub.add_parser("field", help="field tables")
    field_sub = p_field.add_subparsers(dest="subcommand", required=True)
    p_table = field_sub.add_parser("table", help="trace table of GF(2^r)")
    p_table.add_argument("--r", type=int, required=True)
    p_table.add_argument("--modulus", help="hex of an alternative irreducible modulus")
    _add_format(p_table)
    p_table.set_defaults(handler=_cmd_field_table)

    p_ksum = sub.add_parser("ksum", help="Kloosterman sums")
    ksum_sub = p_ksum.add_subparsers(dest="subcommand")
    p_ksum.add_argument("--r", type=int)
    p_ksum.add_argument("--a", help="parameter a as hex, nonzero")
    p_ksum.add_argument("--m", type=int, default=1, help="dimension (default 1)")
    p_ksum.add_argument("--c", default="1", help="character scale as hex (default 1)")
    _add_format(p_ksum)
    p_ksum.set_defaults(handler=_cmd_ksum)
    p_gl = ksum_sub.add_parser("gl", help="Kloosterman sum for GL(t,q)")
    p_gl.add_argument("--r", type=int, required=True)
    p_gl.add_argument("--t", type=int, required=True)
    p_gl.add_argument("--a", required=True)
    p_gl.add_argument("--c", default="1")
    p_gl.add_argument("--method", choices=charsums.GL_METHODS + ("all",), default="all")
    _add_format(p_gl)
    p_gl.set_defaults(handler=_cmd_ksum_gl)

    p_mom = sub.add_parser("moments", help="power moments of Kloosterman sums")
    mom_sub = p_mom.add_subparsers(dest="subcommand", required=True)
    p_oracle = mom_sub.add_parser("oracle", help="oracle moments from the Kloosterman value table")
    p_oracle.add_argument("--r", type=int, required=True)
    p_oracle.add_argument("--m", type=int, default=1)
    p_oracle.add_argument("--h-max", type=_nonnegative, required=True, dest="h_max")
    p_oracle.add_argument("--c", default="1")
    _add_format(p_oracle)
    p_oracle.set_defaults(handler=_cmd_moments_oracle)
    p_rec = mom_sub.add_parser("recursive", help="recursive moments from code weights")
    p_rec.add_argument("--family", choices=orthogroup.FAMILY_LABELS, required=True)
    p_rec.add_argument("--n", type=int, required=True)
    p_rec.add_argument("--r", type=int, required=True)
    p_rec.add_argument("--h-max", type=_nonnegative, default=10, dest="h_max")
    p_rec.add_argument("--compare-oracle", action="store_true")
    _add_format(p_rec)
    p_rec.set_defaults(handler=_cmd_moments_recursive)

    p_group = sub.add_parser("group", help="O+(2n,q) enumeration and bookkeeping")
    group_sub = p_group.add_subparsers(dest="subcommand", required=True)
    p_enum = group_sub.add_parser("enum", help="materialize Bruhat cells")
    p_enum.add_argument("--r", type=int, required=True)
    p_enum.add_argument("--n", type=int, required=True)
    p_enum.add_argument("--cell", type=int)
    p_enum.add_argument("--elements", action="store_true",
                        help="include serialized elements")
    _add_format(p_enum)
    p_enum.set_defaults(handler=_cmd_group_enum)
    p_counts = group_sub.add_parser("counts", help="order formulas")
    p_counts.add_argument("--r", type=int, required=True)
    p_counts.add_argument("--n", type=int, required=True)
    _add_format(p_counts)
    p_counts.set_defaults(handler=_cmd_group_counts)

    p_code = sub.add_parser("code", help="double-coset trace codes")
    code_sub = p_code.add_subparsers(dest="subcommand", required=True)
    p_w = code_sub.add_parser("weights", help="dual codeword weights")
    p_w.add_argument("--family", choices=orthogroup.FAMILY_LABELS, required=True)
    p_w.add_argument("--n", type=int, required=True)
    p_w.add_argument("--r", type=int, required=True)
    p_w.add_argument("--mode", choices=("formula", "direct"), default="formula")
    _add_format(p_w)
    p_w.set_defaults(handler=_cmd_code_weights)
    p_d = code_sub.add_parser("dist", help="weight distribution")
    p_d.add_argument("--family", choices=orthogroup.FAMILY_LABELS, required=True)
    p_d.add_argument("--n", type=int, required=True)
    p_d.add_argument("--r", type=int, required=True)
    p_d.add_argument("--j", type=int, help="single coefficient instead of the full table")
    _add_format(p_d)
    p_d.set_defaults(handler=_cmd_code_dist)

    p_verify = sub.add_parser("verify", help="cross-validation matrix")
    verify_sub = p_verify.add_subparsers(dest="subcommand", required=True)
    p_all = verify_sub.add_parser("all", help="run every check up to the given sizes")
    p_all.add_argument("--max-r", type=int, default=2, dest="max_r")
    p_all.add_argument("--max-n", type=int, default=2, dest="max_n")
    p_all.add_argument("--h-max", type=int, default=5, dest="h_max")
    _add_format(p_all)
    p_all.set_defaults(handler=_cmd_verify_all)

    return parser


def main(argv=None) -> int:
    lift = getattr(sys, "set_int_max_str_digits", None)  # absent before Python 3.10.7
    if lift is not None:
        lift(0)  # exact results are printed in full, however many digits they have
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "ksum" and args.subcommand is None:
        if args.r is None or args.a is None:
            parser.error("ksum requires --r and --a")
    try:
        code = args.handler(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the exit flush writes what is still buffered; point it at devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, BudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConsistencyError as exc:
        print(f"consistency failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
