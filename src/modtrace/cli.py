"""Command-line front end.

Verbs: validate, fp-dims, characters, trace, flexible, frobenius, vectg,
builtin.  Output is byte-deterministic for fixed inputs and flags; ``--json``
emits one JSON document per invocation.  Exit codes: 0 computed, 1 an
``--assert-matched`` query failed, 2 malformed input or usage, 3 numeric
failure.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from pathlib import Path

# Layers other than common, files and fusion are reached through the lazy
# package (``mt.solve_module_trace``), so each verb imports only the layers it runs.
import modtrace as mt

from . import files
from .common import (
    DEFAULT_TOL,
    NumericError,
    PreconditionError,
    StructuralError,
    UnsupportedError,
    UsageError,
    complex_pair,
)
from .fusion import FusionRing, fp_dimensions, validate_fusion_ring

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_INPUT = 2
EXIT_NUMERIC = 3


def __getattr__(name: str):
    """Public layer names (``cli.solve_module_trace``) resolve through the package."""
    if name not in mt.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(mt, name)


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _fmt_complex(z: complex) -> str:
    re, im = files.round12(z.real), files.round12(z.imag)
    if im == 0.0:
        return _fmt(re)
    sign = "+" if im >= 0 else "-"
    return f"{_fmt(re)}{sign}{_fmt(abs(im))}i"


class _Failure(Exception):
    """Invalid input, reported by its message alone (exit 2)."""


def _tolerance(text: str) -> float:
    """Parse ``--tol``: a finite float with ``0 <= tol < 1``."""
    try:
        tol = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    # NaN fails both comparisons; at tol >= 1 every entry x has |x| <= tol * max(1, |x|).
    if not 0.0 <= tol < 1.0:
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite tolerance with 0 <= tol < 1")
    return tol


def _load_valid_ring(path: str) -> FusionRing:
    ring = files.load_ring(path)
    report = validate_fusion_ring(ring)
    if not report.valid:
        lines = [f"{path}: ring violates {len(report.violations)} axiom instance(s)"]
        lines += [f"  {v.axiom} at {v.index}: {v.lhs} != {v.rhs}" for v in report.violations[:20]]
        raise _Failure("\n".join(lines))
    return ring


def _load_char(source: str, ring: FusionRing, tol: float) -> mt.DimChar:
    try:
        index = int(source)
    except ValueError:
        char = files.load_char(source, ring)
    else:
        chars = mt.enumerate_characters(ring, tol)
        if not 0 <= index < len(chars):
            raise UsageError(f"character index {index} out of range (ring has {len(chars)})")
        return chars[index]
    report = mt.validate_dim_char(char, tol)
    if not report.valid:
        raise _Failure(f"{source}: invalid character ({report.violations[0].axiom})")
    return char


def _load_valid_module(path: str, ring: FusionRing) -> mt.NimRep:
    rep = files.load_module(path, ring)
    report = mt.validate_nimrep(rep)
    if not report.valid:
        raise _Failure(f"{path}: invalid module ({report.violations[0].axiom})")
    return rep


def _load_group(source: str) -> mt.GroupTable:
    from . import catalog

    if catalog.is_builtin_group(source):
        return catalog.builtin_group(source)
    return files.load_group(source)


def _char_pairs(chars) -> list:
    return [[complex_pair(z) for z in ch.d] for ch in chars]


def _print_chars(labels, chars, out) -> None:
    for idx, ch in enumerate(chars):
        row = "  ".join(f"{lbl}: {_fmt_complex(z)}" for lbl, z in zip(labels, ch.d))
        print(f"char {idx}:  {row}", file=out)


def _emit_files(directory, ring, chars, modules, table=None) -> list[str]:
    """Write the group (if given), ring, character and module files; returns the names written."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = []
    if table is not None:
        files.save_group(table, directory / "group.json")
        written.append("group.json")
    files.save_ring(ring, directory / "ring.json")
    written.append("ring.json")
    for idx, ch in enumerate(chars):
        name = f"char-{idx:02d}.json"
        files.save_char(ch, directory / name)
        written.append(name)
    for name, rep in modules:
        files.save_module(rep, directory / name)
        written.append(name)
    return written


def _print_cert(cert, out) -> None:
    print(f"matched:   {str(cert.matched).lower()}", file=out)
    print(f"dimC:      {_fmt(cert.dim_c)}", file=out)
    print(f"C:         {_fmt_complex(cert.c)}", file=out)
    print(f"spherical by C: {str(cert.spherical_by_c).lower()}", file=out)
    if cert.trace is not None:
        for i, z in enumerate(cert.trace.d):
            print(f"d[{i}]:      {_fmt_complex(z)}", file=out)
    for name in sorted(cert.residuals):
        print(f"residual {name}: {_fmt(cert.residuals[name])}", file=out)
    for diag in cert.diagnostics:
        print(f"diagnostic: {diag}", file=out)


def _cmd_validate(args, out) -> int:
    ring = files.load_ring(args.ring)
    report = validate_fusion_ring(ring)
    if args.json:
        payload = report.to_dict()
        payload["hash"] = ring.content_hash()
        print(files.dumps(payload), file=out)
    else:
        print(f"ring hash: {ring.content_hash()}", file=out)
        print(f"valid:     {str(report.valid).lower()}", file=out)
        for v in report.violations:
            print(f"  {v.axiom} at {v.index}: {v.lhs} != {v.rhs}", file=out)
    return EXIT_OK if report.valid else EXIT_INPUT


def _cmd_fp_dims(args, out) -> int:
    ring = _load_valid_ring(args.ring)
    dims = fp_dimensions(ring)
    if args.json:
        print(files.dumps({"labels": list(ring.labels), "fp_dims": [float(x) for x in dims]}), file=out)
    else:
        for label, x in zip(ring.labels, dims):
            print(f"{label}: {_fmt(x)}", file=out)
    return EXIT_OK


def _cmd_characters(args, out) -> int:
    ring = _load_valid_ring(args.ring)
    chars = mt.enumerate_characters(ring, args.tol)
    if args.json:
        payload = {
            "labels": list(ring.labels),
            "characters": _char_pairs(chars),
        }
        print(files.dumps(payload), file=out)
    else:
        _print_chars(ring.labels, chars, out)
    return EXIT_OK


def _cmd_trace(args, out) -> int:
    ring = _load_valid_ring(args.ring)
    char = _load_char(args.char, ring, args.tol)
    rep = _load_valid_module(args.module, ring)
    cert = mt.solve_module_trace(ring, char, rep, args.tol)
    if args.json:
        print(files.dumps(cert.to_dict()), file=out)
    else:
        _print_cert(cert, out)
    if args.assert_matched and not cert.matched:
        return EXIT_ASSERT
    return EXIT_OK


def _cmd_flexible(args, out) -> int:
    ring = _load_valid_ring(args.ring)
    char = _load_char(args.char, ring, args.tol)
    reps = [_load_valid_module(p, ring) for p in args.modules]
    report = mt.matched_report(char, reps, args.tol)
    if args.json:
        print(files.dumps(report.to_dict()), file=out)
    else:
        print(f"flexible: {str(report.flexible).lower()}  ({report.note})", file=out)
        for path, cert in zip(args.modules, report.certificates):
            print(f"  {path}: {'matched' if cert.matched else 'unmatched'}", file=out)
    if args.assert_matched and not report.flexible:
        return EXIT_ASSERT
    return EXIT_OK


def _cmd_frobenius(args, out) -> int:
    ring = _load_valid_ring(args.ring)
    char = _load_char(args.char, ring, args.tol)
    rep = _load_valid_module(args.module, ring)
    cert = mt.solve_module_trace(ring, char, rep, args.tol)
    frob = mt.frobenius_report(ring, char, rep, args.object, cert)
    morita = None
    if cert.matched:
        morita = mt.morita_rescale_check(ring, char, rep, args.object, cert)
    if args.json:
        payload = cert.to_dict()
        payload["frobenius"] = frob.to_dict()
        if morita is not None:
            payload["frobenius"]["morita"] = morita.to_dict()
        print(files.dumps(payload), file=out)
    else:
        _print_cert(cert, out)
        print(f"object:    {frob.object_index}", file=out)
        mults = "  ".join(
            f"{lbl}:{int(x)}" for lbl, x in zip(ring.labels, frob.multiplicities)
        )
        print(f"inner-hom multiplicities: {mults}", file=out)
        print(f"dimA:      {_fmt(frob.dim_a)}", file=out)
        print(f"haploid:   {str(frob.haploid).lower()}", file=out)
        print(f"beta1:     {_fmt(frob.dim_a)}", file=out)
        print("betaA:     1", file=out)
        print(f"positivity_ok: {str(frob.positivity_ok).lower()}", file=out)
        if morita is not None:
            print(f"morita scale: {_fmt_complex(morita.scale)}", file=out)
            print(f"morita residual: {_fmt(morita.max_residual)} ok: {str(morita.ok).lower()}", file=out)
    if args.assert_matched and not cert.matched:
        return EXIT_ASSERT
    return EXIT_OK


def _cmd_vectg(args, out) -> int:
    from .groups import SUBGROUP_ORDER_BOUND

    table = _load_group(args.group)
    abelian = table.is_abelian()
    # only --subgroups and --emit need the subgroups beyond the enumeration bound
    if args.subgroups or args.emit or table.order <= SUBGROUP_ORDER_BOUND:
        subs = mt.subgroups(table)
    else:
        subs = None
    if args.characters and not abelian:
        raise UnsupportedError("characters are only enumerated for abelian groups")
    chars = mt.group_characters(table) if abelian and (args.characters or args.emit) else []
    written = []
    if args.emit:
        modules = [(f"module-H{idx:02d}.json", mt.vect_g_module(table, sub)) for idx, sub in enumerate(subs)]
        written = _emit_files(args.emit, mt.group_ring(table), chars, modules, table)
    if args.json:
        payload = {
            "order": table.order,
            "abelian": abelian,
        }
        if subs is not None:
            payload["subgroup_count"] = len(subs)
        if args.subgroups:
            payload["subgroups"] = [list(s) for s in subs]
        if args.characters:
            payload["characters"] = _char_pairs(chars)
        if args.emit:
            payload["written"] = written
        print(files.dumps(payload), file=out)
    else:
        print(f"order:     {table.order}", file=out)
        print(f"abelian:   {str(abelian).lower()}", file=out)
        if subs is not None:
            print(f"subgroups: {len(subs)}", file=out)
        if args.subgroups:
            for idx, sub in enumerate(subs):
                elems = ", ".join(table.label(x) for x in sub)
                print(f"  H{idx:02d} (order {len(sub)}): {{{elems}}}", file=out)
        if args.characters:
            _print_chars([table.label(a) for a in range(table.order)], chars, out)
        for name in written:
            print(f"wrote {name}", file=out)
    return EXIT_OK


def _cmd_builtin(args, out) -> int:
    ring, chars = mt.builtin(args.name)
    written = []
    if args.emit:
        written = _emit_files(args.emit, ring, chars, [("module-regular.json", mt.regular_module(ring))])
    if args.json:
        payload = {
            "name": args.name,
            "hash": ring.content_hash(),
            "rank": ring.rank,
            "labels": list(ring.labels),
            "fp_dims": [float(x) for x in fp_dimensions(ring)],
            "characters": _char_pairs(chars),
        }
        if args.emit:
            payload["written"] = written
        print(files.dumps(payload), file=out)
    else:
        print(f"name:      {args.name}", file=out)
        print(f"ring hash: {ring.content_hash()}", file=out)
        print(f"labels:    {', '.join(ring.labels)}", file=out)
        dims = "  ".join(
            f"{lbl}: {_fmt(x)}" for lbl, x in zip(ring.labels, fp_dimensions(ring))
        )
        print(f"fp dims:   {dims}", file=out)
        _print_chars(ring.labels, chars, out)
        for name in written:
            print(f"wrote {name}", file=out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modtrace",
        description="Module-trace existence and quantum-dimension reports for fusion rings.",
    )
    tol_flag = argparse.ArgumentParser(add_help=False)
    tol_flag.add_argument(
        "--tol", type=_tolerance, default=DEFAULT_TOL, help="comparison tolerance, 0 <= tol < 1"
    )
    json_flag = argparse.ArgumentParser(add_help=False)
    json_flag.add_argument("--json", action="store_true", help="emit one JSON document")
    assert_flag = argparse.ArgumentParser(add_help=False)
    assert_flag.add_argument(
        "--assert-matched",
        action="store_true",
        help="exit 1 when a trace query is unmatched / not flexible",
    )
    # Each verb takes only the flags it reads.
    plain, tolerant, query = [json_flag], [tol_flag, json_flag], [tol_flag, json_flag, assert_flag]
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", parents=plain, help="check the fusion ring axioms")
    p.add_argument("ring")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("fp-dims", parents=plain, help="Frobenius-Perron dimensions")
    p.add_argument("ring")
    p.set_defaults(func=_cmd_fp_dims)

    p = sub.add_parser("characters", parents=tolerant, help="enumerate pivotal candidates")
    p.add_argument("ring")
    p.set_defaults(func=_cmd_characters)

    p = sub.add_parser("trace", parents=query, help="module-trace existence certificate")
    p.add_argument("ring")
    p.add_argument("--char", required=True, help="character file or index")
    p.add_argument("--module", required=True, help="module file")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("flexible", parents=query, help="trace test over a module list")
    p.add_argument("ring")
    p.add_argument("--char", required=True, help="character file or index")
    p.add_argument("--modules", required=True, nargs="+", help="module files")
    p.set_defaults(func=_cmd_flexible)

    p = sub.add_parser("frobenius", parents=query, help="inner-hom algebra report")
    p.add_argument("ring")
    p.add_argument("--char", required=True, help="character file or index")
    p.add_argument("--module", required=True, help="module file")
    p.add_argument("--object", required=True, type=int, help="simple module object index")
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("vectg", parents=plain, help="group-graded instance generator")
    p.add_argument("--group", required=True, help="group file or builtin (Z:<n>, S3, Z2xZ2)")
    p.add_argument("--subgroups", action="store_true", help="list all subgroups")
    p.add_argument("--characters", action="store_true", help="list the linear characters")
    p.add_argument("--emit", metavar="DIR", help="write ring/char/module files")
    p.set_defaults(func=_cmd_vectg)

    p = sub.add_parser("builtin", parents=plain, help="builtin ring catalogue")
    p.add_argument("name", help="fibonacci, ising, rep_s3 or zn:<n>")
    p.add_argument("--emit", metavar="DIR", help="write ring/char/module files")
    p.set_defaults(func=_cmd_builtin)

    return parser


def run(argv, out=None, err=None) -> int:
    """Parse and execute one invocation; returns the exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        # argparse writes --help to sys.stdout and usage errors to sys.stderr
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args, out)
    except _Failure as exc:
        print(str(exc), file=err)
        return EXIT_INPUT
    except (StructuralError, UnsupportedError, PreconditionError, UsageError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return EXIT_INPUT
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=err)
        return EXIT_NUMERIC


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
