"""Command-line front end: cohomology tables, spectral pages, verification.

Exit codes are a stable contract for CI: 0 success / all checks pass,
1 verification failure, 2 usage or bounds error, an unusable --cache
directory, or out of memory.
Identical invocations produce byte-identical stdout; timing goes to stderr
so the payload stays deterministic.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .abgroups import FgAbGroup
from .bockstein import pages
from .cohomology import integral_cohomology
from .derham import basis
from .modp import MAX_PRIME, check_prime, is_prime, valuation
from .theorems import STATEMENTS, sweep, verify_page_identification

SCHEMA_VERSION = "1"
DEFAULT_RMAX = 4
DEFAULT_NMAX = 16


class BoundsError(Exception):
    pass


def _check_bounds(args) -> None:
    """Reject, before any work, every input that has no answer, and unless
    --unsafe-bounds is given, every input outside the desk-scale bounds."""
    r, n = args.rank, args.degree
    if r < 0 or n < 0:
        raise BoundsError(f"rank {r} and degree {n} must be nonnegative")
    prime = getattr(args, "prime", None)
    if prime is not None:
        try:
            check_prime(prime)
        except ValueError as exc:
            raise BoundsError(str(exc)) from None
    kmax = getattr(args, "kmax", None)
    if kmax is not None and kmax < 1:
        raise BoundsError(f"page count {kmax} must be >= 1")
    # the sweep checks statements at every prime up to n
    if args.command == "verify" and any(
            is_prime(q) for q in range(MAX_PRIME + 1, n + 1)):
        raise BoundsError(
            f"verify -n {n} sweeps every prime up to {n}, which would need "
            f"a prime above {MAX_PRIME}")
    if args.unsafe_bounds:
        return
    if not 1 <= r <= DEFAULT_RMAX:
        raise BoundsError(
            f"rank {r} outside safe bounds 1..{DEFAULT_RMAX} "
            "(use --unsafe-bounds to override)")
    if not 0 <= n <= DEFAULT_NMAX:
        raise BoundsError(
            f"degree {n} outside safe bounds 0..{DEFAULT_NMAX} "
            "(use --unsafe-bounds to override)")
    # every page costs a derivation of every block's tower
    if kmax is not None and kmax > DEFAULT_NMAX:
        raise BoundsError(
            f"page count {kmax} outside safe bounds 1..{DEFAULT_NMAX} "
            "(use --unsafe-bounds to override)")


def _document(command: str, parameters: dict, results) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "results": results,
    }


def _group_json(G: FgAbGroup) -> dict:
    return {"free_rank": G.free_rank,
            "invariant_factors": list(G.invariant_factors)}


def _group_latex(G: FgAbGroup) -> str:
    from collections import Counter

    parts = []
    if G.free_rank == 1:
        parts.append(r"\mathbb{Z}")
    elif G.free_rank > 1:
        parts.append(r"\mathbb{Z}^{%d}" % G.free_rank)
    for d, count in sorted(Counter(G.invariant_factors).items()):
        base = r"\mathbb{Z}/%d" % d
        parts.append(base if count == 1 else r"(%s)^{%d}" % (base, count))
    return r" \oplus ".join(parts) if parts else "0"


def _emit(args, doc: dict, csv_rows, latex_lines=None) -> None:
    if args.format == "json":
        payload = json.dumps(doc, indent=2, sort_keys=False) + "\n"
    elif args.format == "csv":
        payload = "\n".join(",".join(str(v) for v in row)
                            for row in csv_rows) + "\n"
    else:
        payload = "\n".join(latex_lines) + "\n"
    if args.cache:
        path = _cache_path(args, doc)
        # a killed run leaves at most a temp file, never a truncated document
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            tmp.write_text(payload)
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    sys.stdout.write(payload)


def _cache_path(args, doc: dict):
    """doc's file in DIR; only --cache imports hashlib and pathlib."""
    import hashlib
    from pathlib import Path

    key = json.dumps({"command": doc["command"],
                      "parameters": doc["parameters"], "format": args.format,
                      "version": __version__},
                     sort_keys=True)
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    ext = {"json": "json", "csv": "csv", "latex": "tex"}[args.format]
    return Path(args.cache,
                f"v{SCHEMA_VERSION}_{doc['command']}_{digest}.{ext}")


def _cache_lookup(args, command: str, parameters: dict):
    """Write the cached payload to stdout and return it, or return None."""
    if not args.cache:
        return None
    path = _cache_path(args, {"command": command, "parameters": parameters})
    if not path.exists():
        return None
    payload = path.read_text()
    sys.stdout.write(payload)
    return payload


def _verify_exit_code(payload: str, fmt: str) -> int:
    """The exit code of the verify run that wrote this payload."""
    if fmt == "json":
        failed = json.loads(payload)["results"]["failed"]
    else:
        failed = sum(1 for line in payload.splitlines()[1:]
                     if line.rsplit(",", 1)[-1] == "fail")
    return 1 if failed else 0


def cmd_cohomology(args) -> int:
    params = {"r": args.rank, "n": args.degree}
    if _cache_lookup(args, "cohomology", params) is not None:
        return 0
    H = integral_cohomology(args.rank, args.degree)
    results = [{"i": d.i, **_group_json(d.group)} for d in H.degrees]
    doc = _document("cohomology", params, results)
    csv_rows = [("i", "free_rank", "invariant_factors")]
    csv_rows += [(row["i"], row["free_rank"],
                  ";".join(str(d) for d in row["invariant_factors"]))
                 for row in results]
    latex = [r"\begin{tabular}{ll}", r"$i$ & $H^i$ \\ \hline"]
    latex += [r"$%d$ & $%s$ \\" % (d.i, _group_latex(d.group))
              for d in H.degrees]
    latex.append(r"\end{tabular}")
    _emit(args, doc, csv_rows, latex)
    return 0


def cmd_pages(args) -> int:
    params = {"r": args.rank, "n": args.degree, "p": args.prime}
    if args.kmax is not None:
        params["kmax"] = args.kmax
    if _cache_lookup(args, "pages", params) is not None:
        return 0
    if args.degree == 0:
        doc = _document("pages", params,
                        {"note": "degenerate: total degree 0 carries the "
                                 "constant Z in degree 0; no pages computed",
                         "pages": []})
        _emit(args, doc, [("k", "i", "dim")])
        return 0
    nu = valuation(args.degree, args.prime)
    kmax = args.kmax if args.kmax is not None else nu + 1
    page_list = pages(args.rank, args.degree, args.prime, kmax)
    rows = []
    out_pages = []
    for page in page_list:
        entry = {"k": page.k, "dims": list(page.dims)}
        if 1 <= page.k <= nu:
            ident = verify_page_identification(
                args.rank, args.degree, args.prime, page.k)
            entry["identified_with"] = {
                "n": args.degree // args.prime ** page.k,
                "status": "pass" if ident.ok else "fail"}
        else:
            entry["expected_zero"] = page.is_zero
        out_pages.append(entry)
        rows += [(page.k, i, dim) for i, dim in enumerate(page.dims)]
    doc = _document("pages", params, {"nu": nu, "pages": out_pages})
    _emit(args, doc, [("k", "i", "dim")] + rows)
    return 0


def cmd_basis(args) -> int:
    params = {"r": args.rank, "n": args.degree, "i": args.form_degree}
    if _cache_lookup(args, "basis", params) is not None:
        return 0
    piece = basis(args.rank, args.degree, args.form_degree)
    results = {"dim": piece.dim,
               "elements": [{"alpha": list(e.alpha), "T": list(e.T)}
                            for e in piece.elements]}
    doc = _document("basis", params, results)
    csv_rows = [("index", "alpha", "T")]
    csv_rows += [(k, " ".join(map(str, e.alpha)), " ".join(map(str, e.T)))
                 for k, e in enumerate(piece.elements)]
    _emit(args, doc, csv_rows)
    return 0


def cmd_verify(args) -> int:
    rmax, nmax = args.rank, args.degree
    statement = "all" if args.all else args.statement
    params = {"statement": statement, "rmax": rmax, "nmax": nmax}
    cached = _cache_lookup(args, "verify", params)
    if cached is not None:
        return _verify_exit_code(cached, args.format)
    reports = sweep(rmax, nmax, STATEMENTS if args.all else (statement,))
    results = [rep.to_json_dict() for rep in reports]
    failed = sum(1 for rep in reports if not rep.ok)
    doc = _document("verify", params,
                    {"total": len(reports), "failed": failed,
                     "reports": results})
    csv_rows = [("statement", "params", "status")]
    csv_rows += [(rep.statement,
                  " ".join(f"{k}={v}" for k, v in rep.params), rep.status)
                 for rep in reports]
    _emit(args, doc, csv_rows)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="derhamz",
        description="Exact de Rham cohomology of integer polynomial rings, "
                    "Bockstein pages, and machine-checked theorems.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, prime=False, form_degree=False, latex=False):
        p.add_argument("-r", "--rank", type=int, required=True,
                       help="number of variables")
        p.add_argument("-n", "--degree", type=int, required=True,
                       help="total degree")
        if prime:
            p.add_argument("-p", "--prime", type=int, required=True)
        if form_degree:
            p.add_argument("-i", "--form-degree", type=int, required=True)
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", dest="format", action="store_const",
                         const="json", default="json")
        fmt.add_argument("--csv", dest="format", action="store_const",
                         const="csv")
        if latex:
            fmt.add_argument("--latex", dest="format", action="store_const",
                             const="latex")
        p.add_argument("--unsafe-bounds", action="store_true",
                       help="disable the desk-scale guard rails")
        p.add_argument("--cache", metavar="DIR",
                       help="memoize serialized documents in DIR")

    p_coh = sub.add_parser("cohomology", help="integral cohomology table")
    common(p_coh, latex=True)
    p_coh.set_defaults(func=cmd_cohomology)

    p_pages = sub.add_parser("pages", help="Bockstein spectral pages")
    common(p_pages, prime=True)
    p_pages.add_argument("-k", "--kmax", type=int, default=None)
    p_pages.set_defaults(func=cmd_pages)

    p_basis = sub.add_parser("basis", help="monomial basis of one piece")
    common(p_basis, form_degree=True)
    p_basis.set_defaults(func=cmd_basis)

    p_verify = sub.add_parser("verify", help="run theorem verifications")
    which = p_verify.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true")
    which.add_argument("--statement", choices=STATEMENTS)
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    start = time.monotonic()
    try:
        _check_bounds(args)
        if args.cache:
            os.makedirs(args.cache, exist_ok=True)
        code = args.func(args)
    except (BoundsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory; lower -r or -n", file=sys.stderr)
        return 2
    print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
