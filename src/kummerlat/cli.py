"""Command line interface.

Subcommands:
    lattice info <file> [--json]   rank, signature, determinant, discriminant data
    isometry check <file> [--json] (m, a, disc S) plus the square and corollary checks
    classify verify [--json]       the order five classification table
    kummer ...                     Lefschetz numbers on the Kummer fourfold
    pool check [--seed S] [--count N]
                                   the isometry property checks over the seeded pool

Exit codes: 0 all checks pass, 1 verification failure or closed stdout, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .lefschetz import (
    CATALOG_TYPES,
    catalog,
    catalog_variants,
    corollary_holds,
    lefschetz_q,
    run_catalog_table,
    torus_automorphism,
)
from .matrix import Matrix

# The lattice side (lattices, isometries, classification, pool) is imported
# inside the commands that use it, so that the kummer commands compile none of it.

EXIT_OK = 0
EXIT_VERIFICATION_FAILED = 1
EXIT_INPUT_ERROR = 2

ELEMENTARY_PRIMES = (2, 3, 5, 7, 23)

# A pool entry costs about 0.2 ms and 2 KB, so the largest pool checks in
# about 2.3 s and 37 MB max RSS (median of 5 runs of the command, Python
# 3.11 on a 2-core Xeon); a larger count is refused before any work.
MAX_POOL_COUNT = 10_000


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ValueError(f"no such file: {path}")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}")
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: line {exc.lineno}: {exc.msg}")
    except RecursionError:
        raise ValueError(f"invalid JSON in {path}: nested too deeply")
    if not isinstance(data, dict):
        raise ValueError(f"{path}: the top level must be a JSON object")
    return data


def _job(path: str, kind: str, keys) -> dict:
    """The job file at ``path``, which must have every field in ``keys``."""
    job = _load_json(path)
    for key in keys:
        if key not in job:
            raise ValueError(f"{kind} job needs field {key!r}")
    return job


def _list_field(job: dict, key: str, of_lists: bool = True) -> list:
    """``job[key]``, which must be a JSON list, and for a matrix field a list of lists."""
    value = job[key]
    if not isinstance(value, list) or (of_lists and not all(isinstance(r, list) for r in value)):
        raise ValueError(f"job field {key!r} must be a JSON list{' of lists' if of_lists else ''}")
    return value


def _pass(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


# Each command returns (payload, lines, passed): the --json payload (None for
# a text-only mode), the text report, and the verdict; main prints one of them.

def cmd_lattice_info(args):
    from .lattices import discriminant_form, is_p_elementary, lattice_from_dict, signature

    lat = lattice_from_dict(_load_json(args.file))
    form = discriminant_form(lat)  # its generator orders are the invariant factors of D_L
    payload = {
        "name": lat.name,
        "rank": lat.rank,
        "signature": list(signature(lat)),
        "det": lat.det,
        "disc": lat.disc,
        "discriminant_group": list(form.orders),
        "discriminant_form_q": [str(q) for q in form.q_values],
        "p_elementary": {
            str(p): {"elementary": flag, "a": a}
            for p, (flag, a) in ((p, is_p_elementary(form.orders, p)) for p in ELEMENTARY_PRIMES)
        },
    }
    lines = [f"name: {lat.name or '(unnamed)'}", f"rank: {lat.rank}",
             f"signature: {tuple(payload['signature'])}", f"det: {lat.det}  |det|: {lat.disc}"]
    if form.is_trivial:
        lines.append("discriminant group: trivial")
    else:
        qs = ", ".join(f"q(g{i + 1}) = {q} mod 2Z" for i, q in enumerate(payload["discriminant_form_q"]))
        lines += ["discriminant group: " + " + ".join(f"Z/{d}" for d in form.orders),
                  f"discriminant form: {qs}"]
    for p, entry in payload["p_elementary"].items():
        note = f"a = {entry['a']}" if entry["elementary"] else "no"
        lines.append(f"p-elementary p={p}: {note}")
    return payload, lines, True


def cmd_isometry_check(args):
    from .isometries import (
        LatticeIsometry,
        check_square_theorem,
        check_unimodular_corollary,
        compute_invariants,
    )
    from .lattices import lattice_from_dict

    job = _job(args.file, "isometry", ("gram", "matrix", "p"))
    lat = lattice_from_dict({"gram": _list_field(job, "gram"), "name": job.get("name")})
    iso = LatticeIsometry(lat, Matrix(_list_field(job, "matrix")), job["p"])
    inv = compute_invariants(iso)
    p = iso.order
    square_ok = check_square_theorem(inv, p) if p != 2 else None
    corollary_ok = (
        check_unimodular_corollary(inv, p, lat) if p != 2 and lat.is_unimodular else None
    )
    payload = {"p": p, "m": inv.m, "a": inv.a, "disc_s": inv.disc_s, "index": inv.index,
               "square_theorem": square_ok, "unimodular_corollary": corollary_ok}
    lines = [
        f"p = {p}, m = {inv.m}, a = {inv.a}, disc S = {inv.disc_s}, index = {inv.index}",
        "square theorem: skipped (p = 2)" if square_ok is None else
        f"square theorem: p^m * disc(S) = {p ** inv.m * inv.disc_s} square: {_pass(square_ok)}",
        "unimodular corollary: skipped (ambient not unimodular or p = 2)" if corollary_ok is None
        else f"unimodular corollary: {_pass(corollary_ok)}",
    ]
    return payload, lines, square_ok is not False and corollary_ok is not False


def cmd_classify_verify(args):
    from . import classification

    report = classification.verify_all()
    payload = {
        "rows": [
            {
                "m": r.row.m,
                "a": r.row.a,
                "S": r.row.s.name,
                "T": r.row.t.name,
                "checks": r.checks,
                "values": {k: str(v) for k, v in r.values.items()},
                "necessary_conditions_only": r.necessary_conditions_only,
                "pass": r.passed,
            }
            for r in report.row_reports
        ],
        "candidate_pairs": [list(p) for p in report.pairs],
        "candidate_pairs_ok": report.pairs_ok,
        "table_pairs_ok": report.table_pairs_ok,
        "complement_53_ok": report.complement_ok,
        "pass": report.passed,
    }
    lines = []
    for r in report.row_reports:
        bad = [k for k, v in r.checks.items() if not v]
        lines.append(f"row (m={r.row.m}, a={r.row.a}): {_pass(r.passed)}"
                     + (f"  failing: {bad}" if bad else ""))
    lines += [
        f"candidate pairs: {report.pairs}",
        f"candidate pair list matches: {report.pairs_ok}",
        f"table pair set matches: {report.table_pairs_ok}",
        f"(5,3) complement check: {report.complement_ok}",
        f"overall: {_pass(report.passed)}",
    ]
    return payload, lines, report.passed


def cmd_kummer(args):
    given = {"--table": args.table, "--job": args.job is not None,
             "--type/--variant": args.type is not None or args.variant is not None,
             "--list-variants": args.list_variants}
    modes = [mode for mode, on in given.items() if on]
    if len(modes) > 1:
        raise ValueError(f"kummer takes one mode, got {' and '.join(modes)}")
    if args.list_variants:
        lines = [f"type {kind}: {', '.join(catalog_variants(kind))}" for kind in CATALOG_TYPES]
        return None, lines, True

    if args.table:
        report = run_catalog_table()
        payload = [{"type": e.kind, "variant": e.variant, "value": e.value, "expected": e.expected,
                    "corollary_check": e.corollary_ok, "pass": e.passed} for e in report.entries]
        lines = [f"type {e.kind} {e.variant:24s} value = {e.value:>4} "
                 f"expected = {e.expected:>4} {_pass(e.passed)}" for e in report.entries]
        return payload, lines + [f"overall: {_pass(report.passed)}"], report.passed

    if args.job is not None:
        job = _job(args.job, "kummer", ("H", "b", "n"))
        h, b = Matrix(_list_field(job, "H")), _list_field(job, "b", of_lists=False)
        aut = torus_automorphism(h, b, job["n"])
    elif args.type is not None:
        if args.variant is None:
            raise ValueError("--type requires --variant; see kummer --list-variants")
        aut = catalog(args.type, args.variant)
    elif args.variant is not None:
        raise ValueError("--variant requires --type; see kummer --list-variants")
    else:
        raise ValueError("kummer needs either --type/--variant or --job")

    result = lefschetz_q(aut)
    ok = corollary_holds(aut, result)
    poly = sorted(result.polynomial.coeffs.items())
    payload = {"poly_q": {str(e): str(c) for e, c in poly}, "value": result.value,
               "corollary_check": ok}
    lines = [f"L(psi^[n], q) = {' + '.join(f'{c}*q^{e}' for e, c in poly) or '0'}",
             f"value at q = 1: {result.value}", f"corollary check: {_pass(ok)}"]
    return payload, lines, ok


def cmd_pool_check(args):
    if args.count < 1:
        raise ValueError(f"--count must be at least 1, got {args.count}")
    if args.count > MAX_POOL_COUNT:
        raise ValueError(f"--count must be at most {MAX_POOL_COUNT}, got {args.count}")
    from .isometries import check_square_theorem, check_unimodular_corollary, compute_invariants
    from .pool import extended_pool

    pool = extended_pool(seed=args.seed, count=args.count)
    lines = []  # one FAIL line per failing entry
    for entry in pool:
        iso = entry.isometry
        inv = compute_invariants(iso)
        checks = {"a<=m": inv.a <= inv.m}
        if iso.order != 2:
            checks["square"] = check_square_theorem(inv, iso.order)
            if iso.lattice.is_unimodular:
                checks["corollary"] = check_unimodular_corollary(inv, iso.order, iso.lattice)
        bad = [k for k, v in checks.items() if not v]
        if bad:
            lines.append(f"FAIL {entry.name}: {bad} (m={inv.m}, a={inv.a}, discS={inv.disc_s})")
    return None, lines + [f"pool size: {len(pool)}, failures: {len(lines)}"], not lines


def build_parser() -> argparse.ArgumentParser:
    # the docstring's subcommand table keeps its lines
    parser = argparse.ArgumentParser(prog="kummerlat", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_lat = sub.add_parser("lattice", help="lattice inspection")
    lat_sub = p_lat.add_subparsers(dest="subcommand", required=True)
    p_info = lat_sub.add_parser("info", help="print invariants of a lattice file")
    p_info.add_argument("file")
    p_info.add_argument("--json", action="store_true")
    p_info.set_defaults(func=cmd_lattice_info)

    p_iso = sub.add_parser("isometry", help="prime order isometry invariants")
    iso_sub = p_iso.add_subparsers(dest="subcommand", required=True)
    p_check = iso_sub.add_parser("check", help="check an isometry job file")
    p_check.add_argument("file")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=cmd_isometry_check)

    p_cls = sub.add_parser("classify", help="order five classification table")
    cls_sub = p_cls.add_subparsers(dest="subcommand", required=True)
    p_verify = cls_sub.add_parser("verify", help="verify every table row")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(func=cmd_classify_verify)

    p_kum = sub.add_parser("kummer", help="Lefschetz numbers on the Kummer fourfold")
    p_kum.add_argument("--type", type=int, choices=CATALOG_TYPES)
    p_kum.add_argument("--variant")
    p_kum.add_argument("--job", help="JSON job file with H, b, n")
    p_kum.add_argument("--table", action="store_true", help="run the whole catalog")
    p_kum.add_argument("--json", action="store_true")
    p_kum.add_argument("--list-variants", action="store_true")
    p_kum.set_defaults(func=cmd_kummer)

    p_pool = sub.add_parser("pool", help="seeded isometry property pool")
    pool_sub = p_pool.add_subparsers(dest="subcommand", required=True)
    p_pcheck = pool_sub.add_parser("check", help="run the isometry property checks over the pool")
    p_pcheck.add_argument("--seed", type=int, default=20260808)
    p_pcheck.add_argument("--count", type=int, default=220)
    p_pcheck.set_defaults(func=cmd_pool_check)
    return parser


def _fold_variant_value(argv):
    # variant names may start with '-' (e.g. "-h"); fold them into --variant=...
    out = []
    i = 0
    while i < len(argv):
        if argv[i] == "--variant" and i + 1 < len(argv):
            out.append(f"--variant={argv[i + 1]}")
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_fold_variant_value(list(argv)))
    try:
        payload, lines, passed = args.func(args)
        if payload is not None and args.json:
            print(json.dumps(payload, indent=2))
        else:  # the text report, also for a text-only mode (payload None) under --json
            print("\n".join(lines))
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return EXIT_OK if passed else EXIT_VERIFICATION_FAILED
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BrokenPipeError:
        # the reader left (``| head``); devnull takes the rest, so the exit flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VERIFICATION_FAILED


if __name__ == "__main__":
    sys.exit(main())
