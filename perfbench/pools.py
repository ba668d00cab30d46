"""Workload pools and the seeded instance draw.

Each workload is a list of strata.  A stratum groups interchangeable
instances: same number of variables r, same arithmetic class of n (prime,
prime power, divisible by two primes), same prime p and the same
valuation nu_p(n), which sets how many times `derive` runs.  A seed draws
one instance from every stratum and then shuffles the order, so two seeds
give different draws from the same strata.

Costs grow steeply with n (cohomology (4,8) takes about 1.5 s, (4,9)
about 4 s), so a stratum holds only instances of comparable cost: a draw
may change a workload's total by a few percent, never by a factor.  Where
only one instance in a stratum has a desk-scale cost, the stratum holds
just that instance.
"""

from __future__ import annotations

import random
from typing import NamedTuple


class Instance(NamedTuple):
    """One program call: CLI argv, or the (r, n, p) of the library oracle."""
    workload: str
    args: tuple

    @property
    def key(self) -> str:
        if self.workload == "oracle":
            return "compare_with_closed_form " + " ".join(map(str, self.args))
        return " ".join(self.args)


def _cohomology(r, n):
    return ("cohomology", "-r", str(r), "-n", str(n))


def _pages(r, n, p):
    return ("pages", "-r", str(r), "-n", str(n), "-p", str(p))


def _verify(rmax, nmax):
    return ("verify", "--all", "-r", str(rmax), "-n", str(nmax))


# stratum label -> candidate argument tuples
POOLS = {
    "cohomology": {
        "r=4 n prime": [_cohomology(4, 7)],
        "r=4 n=2^3": [_cohomology(4, 8)],
        "r=4 n=3^2": [_cohomology(4, 9)],
        "r=3 n=pq nu=1": [_cohomology(3, 14), _cohomology(3, 15)],
        "r=3 n=2^4": [_cohomology(3, 16)],
    },
    "pages": {
        "r=3 n=pq p=2 nu=2": [_pages(3, 12, 2)],
        "r=4 n=pq p=2 nu=1": [_pages(4, 6, 2)],
        "r=4 n=pq p=3 nu=1": [_pages(4, 6, 3)],
        "r=3 n=p^2 p=3 nu=2": [_pages(3, 9, 3)],
        "r=3 n=p^3 p=2 nu=3": [_pages(3, 8, 2)],
        "r=3 n=pq nu=1": [_pages(3, 6, 2), _pages(3, 6, 3)],
    },
    # the sweep covers every n <= nmax, so its strata are by rmax; the
    # nmax candidates share the expected filtration failure set
    "verify": {
        "rmax=3": [_verify(3, 10)],
        "rmax=2": [_verify(2, 12), _verify(2, 13)],
    },
    "oracle": {
        "r=3 n=2^3 p=2 nu=3": [(3, 8, 2)],
        "r=4 n=2^2 p=2 nu=2": [(4, 4, 2)],
        "r=2 p=2 nu>=2": [(2, 16, 2), (2, 12, 2)],
        "r=3 n=3^2 p=3 nu=2": [(3, 9, 3)],
    },
}

WORKLOADS = tuple(POOLS)


def draw(workload: str, seed: int) -> list:
    """The instances one run measures, in the order it runs them."""
    rng = random.Random(f"{workload}/{seed}")
    chosen = [Instance(workload, rng.choice(cands))
              for cands in POOLS[workload].values()]
    rng.shuffle(chosen)
    return chosen


def pool_instances(workload: str) -> list:
    return [Instance(workload, args)
            for cands in POOLS[workload].values() for args in cands]
