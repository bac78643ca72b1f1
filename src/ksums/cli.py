"""Command-line interface.

Subcommands: field, ksum, moments, group, code, verify. Output is JSON on
stdout (CSV with --format csv); computed integers are serialized as decimal
strings so consumers never lose precision. Field elements are read and
written as lowercase hex in the package's fixed polynomial basis (see
ksums.field.DEFAULT_MODULI). Exit codes: 0 success, 1 failed verification,
internal inconsistency or a stdout pipe closed by its reader (nothing on
stderr then), 2 usage/parameter/budget error. Everything is deterministic;
there is no seed. `group enum --elements` writes its JSON as it goes, cell
by cell, with the bytes json.dump would write; every other request emits one
payload.

COMMANDS is the one list of commands, which build_parser reads. Parameter
ranges such as h_max >= 0 are checked by the library, not by the parser.

Every request is one cold process, so a subcommand imports only the layers
it runs. This module loads field, combinat, matgf, charsums and orthogroup
(the parser's family choices are orthogroup.FAMILY_LABELS), all that
`field`, `ksum`, `moments oracle` and `group` run. The handlers of
`moments recursive` and `code` import coset_codes (and moments), that of
`verify` every layer, and the csv module loads only for --format csv.
Each handler passes _emit a builder for its CSV rows, so JSON output never
builds them.

Right after its imports this module calls gc.freeze(), once per process,
since a module body runs once however often main is called. That moves the
import graph (site's modules and these layers, about 12,000 tracked
objects) to the permanent generation, so no later collection walks it
again, the full ones that interpreter exit runs included. On a 2-CPU Xeon
host under CPython 3.11 that cut the exit of a cold request to about a
third (8-14 ms to 2-4.5 ms), whichever command it ran. What is frozen is never collected, which
costs nothing for modules that live until exit. Nothing relies on a
finalizer: main flushes stdout itself, and the CLI writes only to stdout
and stderr.

Stdout goes out in blocks of 8 KiB however Python's buffering is set.
PYTHONUNBUFFERED or -u make sys.stdout write-through, which sends one
write(2) per string the writer hands it: per JSON token in json.dump, per
row in the csv writer. That is 44,789 writes for the 272,622-byte report
of `verify all --max-r 6 --max-n 3 --h-max 10`: 64-74 ms to dump it into
a pipe, against 10-11 ms in blocks, on one CPU of a 2-CPU Xeon host under
CPython 3.11. So before the handler runs, main turns a write-through
stdout back to the text layer's own 8 KiB blocks; the flush after the
handler writes the last one, and the bytes are the same.
"""

import argparse
import gc
import json
import os
import sys
from itertools import islice

from ksums import charsums, field, matgf, orthogroup
from ksums.errors import BudgetError, ConsistencyError

gc.freeze()  # see the module docstring


_HEX_CHUNK = 1024  # elements per write in `group enum --elements`


def _emit(args, payload, rows=None):
    """Write payload as JSON, or for --format csv the rows that rows() returns,
    header first (without rows, payload's key-value pairs); only csv calls rows."""
    if args.format == "csv":
        import csv
        csv.writer(sys.stdout).writerows(rows() if rows else [("key", "value")] + [
            (k, json.dumps(v) if isinstance(v, (dict, list)) else v) for k, v in payload.items()])
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
    _emit(args, payload, lambda: [("x_hex", "trace")] + [
        (field.element_hex(fp, x), t) for x, t in enumerate(payload["trace"])])
    return 0


def _cmd_ksum(args):
    fp = _parse_field(args)
    a = field.parse_element(fp, args.a)
    c = field.parse_element(fp, args.c)
    value = charsums.kloosterman_value(fp, a, args.m, c)
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
    c = field.check_unit(fp, field.parse_element(fp, args.c), "c")  # c only permutes the a
    table = [{"h": h, "value": str(value)}
             for h, value in enumerate(charsums.power_moments(fp, args.m, args.h_max))]
    payload = {"r": fp.r, "m": args.m, "c": field.element_hex(fp, c), "moments": table}
    _emit(args, payload, lambda: [("h", "value")] + [(row["h"], row["value"]) for row in table])
    return 0


def _cmd_moments_recursive(args):
    from ksums import coset_codes, moments
    fp = _parse_field(args)
    fam = coset_codes.parse_family(args.family, args.n, fp)
    table = []
    for kind in moments.kinds(fam.codim):
        values = kind.sequence(fam, args.h_max)  # first: it refuses a negative or huge h_max
        oracles = kind.oracles(fp, args.h_max) if args.compare_oracle else None
        for h, value in enumerate(values):
            row = {"kind": kind.name, "h": h, "recursive": str(value)}
            if args.compare_oracle:
                row["oracle"] = str(oracles[h])
                row["match"] = row["recursive"] == row["oracle"]
            table.append(row)
    payload = {"family": fam.label, "n": fam.n, "r": fp.r, "rows": table}
    header = ("kind", "h", "recursive") + (("oracle", "match") if args.compare_oracle else ())
    _emit(args, payload, lambda: [header] + [tuple(row[k] for k in header) for row in table])
    return 0 if all(row.get("match", True) for row in table) else 1


def _cmd_group_enum(args):
    fp, n = _parse_field(args), args.n
    field.check_int("n", n, 1)  # the bound group counts applies: group_order(0, q) is 0
    # every cell and histogram is built before the first byte: a refusal writes nothing
    cells = [orthogroup.bruhat_cell(fp, n, r)
             for r in ([args.cell] if args.cell is not None else range(n + 1))]
    entries = [{"cell": cell.r, "order": str(len(cell.elements)), "trace_histogram": {
        field.element_hex(fp, b): str(c) for b, c in cell.trace_histogram.items()}}
        for cell in cells]
    if not args.elements or args.format == "csv":  # CSV never lists the elements
        _emit(args, {"r": fp.r, "n": n, "cells": entries},
              lambda: [("cell", "order", "beta_hex", "count")] + [
                  (e["cell"], e["order"], b, c)
                  for e in entries for b, c in e["trace_histogram"].items()])
        return 0
    # the bytes of json.dump(payload, indent=2) and a newline, written cell by
    # cell: json.dumps lays out each entry around an empty list, which the
    # cell's sorted elements fill _HEX_CHUNK at a time
    write, item = sys.stdout.write, '",\n        "'
    write(f'{{\n  "r": {fp.r},\n  "n": {n},\n  "cells": [')
    for i, (entry, cell) in enumerate(zip(entries, cells)):
        write(",\n    " if i else "\n    ")
        text = json.dumps(dict(entry, elements=[]), indent=2).replace("\n", "\n    ")
        head, _, tail = text.rpartition("[]")
        write(head + '[\n        "')
        hexes, sep = matgf.keys_hex(fp, 2 * n, sorted(cell.elements)), ""
        while chunk := list(islice(hexes, _HEX_CHUNK)):
            write(sep + item.join(chunk))
            sep = item
        write('"\n      ]' + tail)
    write("\n  ]\n}\n")
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
    _emit(args, payload, lambda: [("a_hex", "weight")] + [(t["a"], t["weight"]) for t in table])
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
        _emit(args, payload, lambda: [("j", "coefficient"), (args.j, payload["coefficient"])])
    else:
        dist = coset_codes.weight_distribution(counts)
        payload["coefficients"] = [str(v) for v in dist]
        _emit(args, payload,
              lambda: [("j", "coefficient")] + list(enumerate(payload["coefficients"])))
    return 0


def _cmd_verify_all(args):
    from ksums import verify
    report = verify.run_checks(max_r=args.max_r, max_n=args.max_n, h_max=args.h_max)
    _emit(args, report, lambda: [("name", "params", "pass")] + [
        (c["name"], json.dumps(c["params"], sort_keys=True), c["pass"])
        for c in report["checks"]])
    return 0 if report["summary"]["failed"] == 0 else 1


_R = ("--r", {"type": int, "required": True})
_N = ("--n", {"type": int, "required": True})
_C = ("--c", {"default": "1"})
_FAMILY = ("--family", {"choices": orthogroup.FAMILY_LABELS, "required": True})

# name -> (help, own handler or None, own arguments, subcommands), and a
# subcommand is name -> (help, handler, arguments). An argument is (flag,
# argparse kwargs); the options shared across commands are declared once,
# above, and every parser with a handler also takes --format. Only ksum runs
# without a subcommand.
COMMANDS = {
    "field": ("field tables", None, [], {
        "table": ("trace table of GF(2^r)", _cmd_field_table, [
            _R, ("--modulus", {"help": "hex of an alternative irreducible modulus"})]),
    }),
    "ksum": ("Kloosterman sums", _cmd_ksum, [
        ("--r", {"type": int}),
        ("--a", {"help": "parameter a as hex, nonzero"}),
        ("--m", {"type": int, "default": 1, "help": "dimension (default 1)"}),
        ("--c", {"default": "1", "help": "character scale as hex (default 1)"}),
    ], {
        "gl": ("Kloosterman sum for GL(t,q)", _cmd_ksum_gl, [
            _R, ("--t", {"type": int, "required": True}), ("--a", {"required": True}), _C,
            ("--method", {"choices": charsums.GL_METHODS + ("all",), "default": "all"})]),
    }),
    "moments": ("power moments of Kloosterman sums", None, [], {
        "oracle": ("oracle moments from the Kloosterman value table", _cmd_moments_oracle, [
            _R, ("--m", {"type": int, "default": 1}),
            ("--h-max", {"type": int, "required": True}), _C]),
        "recursive": ("recursive moments from code weights", _cmd_moments_recursive, [
            _FAMILY, _N, _R, ("--h-max", {"type": int, "default": 10}),
            ("--compare-oracle", {"action": "store_true"})]),
    }),
    "group": ("O+(2n,q) enumeration and bookkeeping", None, [], {
        "enum": ("materialize Bruhat cells", _cmd_group_enum, [
            _R, _N, ("--cell", {"type": int}),
            ("--elements", {"action": "store_true", "help": "include serialized elements"})]),
        "counts": ("order formulas", _cmd_group_counts, [_R, _N]),
    }),
    "code": ("double-coset trace codes", None, [], {
        "weights": ("dual codeword weights", _cmd_code_weights, [
            _FAMILY, _N, _R,
            ("--mode", {"choices": ("formula", "direct"), "default": "formula"})]),
        "dist": ("weight distribution", _cmd_code_dist, [
            _FAMILY, _N, _R,
            ("--j", {"type": int, "help": "single coefficient instead of the full table"})]),
    }),
    "verify": ("cross-validation matrix", None, [], {
        "all": ("run every check up to the given sizes", _cmd_verify_all, [
            ("--max-r", {"type": int, "default": 2}), ("--max-n", {"type": int, "default": 2}),
            ("--h-max", {"type": int, "default": 5})]),
    }),
}


def _add_leaf(parser, handler, arguments):
    for flag, kwargs in arguments:
        parser.add_argument(flag, **kwargs)
    parser.add_argument("--format", choices=("json", "csv"), default="json")
    parser.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ksums",
        description="Exact Kloosterman sums, orthogonal-group double cosets, "
                    "trace codes, and power-moment recursions over GF(2^r).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler, arguments, subcommands) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if handler is not None:
            _add_leaf(p, handler, arguments)
        leaves = p.add_subparsers(dest="subcommand", required=handler is None)
        for leaf, (leaf_text, leaf_handler, leaf_arguments) in subcommands.items():
            _add_leaf(leaves.add_parser(leaf, help=leaf_text), leaf_handler, leaf_arguments)
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
    if getattr(sys.stdout, "write_through", False):  # PYTHONUNBUFFERED or -u
        sys.stdout.reconfigure(write_through=False)  # 8 KiB blocks: see the module docstring
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
