"""Exact correctness gate for every measured answer.

An answer passes when its stdout hashes to the value recorded on the seed
commit (baseline.json) and it agrees with a closed-form oracle that shares
no linear algebra with derhamz.  The oracles use only binomials and gcds:

* cohomology: H^i = sum over |beta| = n of (Z/gcd beta)^C(s-1, i-1), with s
  the number of nonzero entries of beta, compared as multisets of
  elementary divisors;
* pages: page k has dims dim(r, n/p^k, i) for 1 <= k <= nu, page nu+1 is
  zero, and every page identification passes;
* verify: the run exits 1 and its failures are exactly the filtration
  reports predicted by the criterion-8b rule below;
* oracle: every page report is ok, with the same dims as pages.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from itertools import product
from math import comb, gcd
from pathlib import Path

BASELINE_PATH = Path(__file__).with_name("baseline.json")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_baseline() -> dict:
    return json.loads(BASELINE_PATH.read_text())


def dim_formula(r: int, n: int, i: int) -> int:
    """Rank of the (r, n, i) graded piece of polynomial forms."""
    if i < 0 or i > r or i > n:
        return 0
    return comb(n - i + r - 1, r - 1) * comb(r, i)


def valuation(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def elementary_divisors(factors) -> Counter:
    """Prime-power decomposition of a list of cyclic orders."""
    out = Counter()
    for d in factors:
        q = 2
        while d > 1:
            if d % q == 0:
                pk = 1
                while d % q == 0:
                    d //= q
                    pk *= q
                out[pk] += 1
            q += 1
    return out


def closed_form_torsion(r: int, n: int) -> list:
    """Elementary divisors of H^i for i = 0..min(n, r), from multidegrees."""
    top = min(n, r)
    per_degree = [Counter() for _ in range(top + 1)]
    for beta in product(range(n + 1), repeat=r):
        if sum(beta) != n:
            continue
        g = 0
        for b in beta:
            g = gcd(g, b)
        if g <= 1:
            continue
        s = sum(1 for b in beta if b)
        divisors = elementary_divisors([g])
        for i in range(1, s + 1):
            for pk, count in divisors.items():
                per_degree[i][pk] += count * comb(s - 1, i - 1)
    return per_degree


def expected_page_dims(r: int, n: int, p: int) -> list:
    """Dims of pages 1..nu+1: degree n/p^k forms, then zero."""
    nu = valuation(n, p)
    top = min(n, r)
    dims = [[dim_formula(r, n // p ** k, i) for i in range(top + 1)]
            for k in range(1, nu + 1)]
    return dims + [[0] * (top + 1)]


def filtration_failures(rmax: int, nmax: int) -> set:
    """(r, n) where the cocycle form of the filtration identity fails.

    Failure exactly when p^(k+1) | n and 1 <= i <= min(r, n/p^(k+1)) - 1
    for some prime p and k >= 1.  The rule matches computation on r <= 3,
    n <= 12 (the four documented criterion-8b cases) and on r = 2, n <= 18.
    """
    out = set()
    for r in range(1, rmax + 1):
        for n in range(1, nmax + 1):
            for p in range(2, n + 1):
                if any(p % q == 0 for q in range(2, p)):
                    continue
                k = 1
                while n % p ** (k + 1) == 0:
                    if min(r, n // p ** (k + 1)) - 1 >= 1:
                        out.add((r, n))
                    k += 1
    return out


def _check_cohomology(r, n, exit_code, doc) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}"
    if doc["parameters"] != {"r": r, "n": n}:
        return "wrong parameters"
    expected = closed_form_torsion(r, n)
    rows = doc["results"]
    if [row["i"] for row in rows] != list(range(len(expected))):
        return "wrong degrees"
    for row, want in zip(rows, expected):
        if row["free_rank"] != 0:
            return f"free rank in degree {row['i']}"
        if elementary_divisors(row["invariant_factors"]) != want:
            return f"torsion of H^{row['i']} differs from the closed form"
    return None


def _check_pages(r, n, p, exit_code, doc) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}"
    res = doc["results"]
    nu = valuation(n, p)
    expected = expected_page_dims(r, n, p)
    if res["nu"] != nu or len(res["pages"]) != len(expected):
        return "wrong number of pages"
    for k, (page, dims) in enumerate(zip(res["pages"], expected), start=1):
        if page["k"] != k or page["dims"] != dims:
            return f"page {k} dims differ from the degree n/p^k forms"
        if k <= nu:
            if page.get("identified_with") != {"n": n // p ** k,
                                               "status": "pass"}:
                return f"page {k} identification did not pass"
        elif page.get("expected_zero") is not True:
            return f"page {k} not reported zero"
    return None


def _check_verify(rmax, nmax, exit_code, doc) -> str | None:
    if exit_code != 1:
        return f"exit code {exit_code}, expected 1"
    res = doc["results"]
    failed = {(rep["statement"], rep["params"]["r"], rep["params"]["n"])
              for rep in res["reports"] if rep["status"] != "pass"}
    want = {("filtration", r, n) for r, n in filtration_failures(rmax, nmax)}
    if failed != want:
        return f"failures {sorted(failed)}, expected {sorted(want)}"
    if res["failed"] != len(want) or res["total"] != len(res["reports"]):
        return "report counts disagree"
    return None


def _check_oracle(r, n, p, exit_code, reports) -> str | None:
    if exit_code != 0:
        return f"exit code {exit_code}"
    expected = expected_page_dims(r, n, p)
    if [rep["k"] for rep in reports] != list(range(1, len(expected) + 1)):
        return "wrong pages"
    for rep, dims in zip(reports, expected):
        if not rep["ok"]:
            return f"page {rep['k']} report not ok"
        if rep["dims_derived"] != dims or rep["dims_closed_form"] != dims:
            return f"page {rep['k']} dims differ from the degree n/p^k forms"
    return None


def oracle_check(instance, exit_code: int, stdout: str) -> str | None:
    """Why the answer is wrong by the closed-form oracle, or None."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "stdout is not JSON"
    if instance.workload == "oracle":
        checker, ints = _check_oracle, instance.args
    else:
        checker = {"cohomology": _check_cohomology, "pages": _check_pages,
                   "verify": _check_verify}[instance.workload]
        ints = [int(a) for a in instance.args if a.isdigit()]
    try:
        return checker(*ints, exit_code, doc)
    except (KeyError, TypeError) as exc:
        return f"malformed document: {exc!r}"


def check(instance, exit_code: int, stdout: str, baseline: dict) -> str | None:
    """Why the answer fails the gate, or None when it passes."""
    want = baseline.get(instance.key)
    if want is None:
        return "no recorded baseline for this instance"
    if sha256(stdout) != want:
        return "stdout differs from the seed-commit output"
    return oracle_check(instance, exit_code, stdout)
