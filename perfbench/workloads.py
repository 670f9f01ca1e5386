"""Workload job lists, drawn from a seed.

A job is one ``cyclecodes`` command line.  Each workload is a list of
slots; a slot is a pool of instances of the same shape and cost (a
narrow band of primes for large q, the few equivalent alternatives for
small q, such as the order of the spec's families).  A seed draws one
instance per slot and shuffles the order of the jobs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Job:
    """One command: ``cmd`` is the subcommand, ``spec`` the cycle spec.
    ``d`` asks for a single degree, ``dmax`` for a table, ``rank`` for
    the evaluation-matrix rank column.  Output is always JSON."""

    cmd: str
    q: int
    spec: str
    d: int | None = None
    dmax: int | None = None
    rank: bool = False

    @property
    def argv(self) -> list[str]:
        argv = [self.cmd, "--q", str(self.q), "--spec", self.spec]
        if self.d is not None:
            argv += ["--d", str(self.d)]
        if self.dmax is not None:
            argv += ["--dmax", str(self.dmax)]
        if self.rank:
            argv.append("--with-rank")
        return argv + ["--format", "json"]

    def __str__(self) -> str:
        return " ".join(self.argv)


def _hilbert(qs, specs, **kw) -> list[Job]:
    return [Job("hilbert", q, s, **kw) for q in qs for s in specs]


# Instance sizes keep a pass near 3 s, so that a run of 30 s holds about
# ten passes: on a shared 2-CPU machine single passes vary by a third,
# and only a median over many passes is steady.

# The rank workload is where the rank route (codes.rank_table) acts; it
# has prime and binary fields so that a gain on one field kind that
# costs the other shows.  Its small-q instances have no equal-cost
# alternatives, so a seed only reorders them.
RANK = [
    _hilbert([7], ["5"], dmax=6, rank=True),
    _hilbert([5], ["5"], rank=True),
    _hilbert([11], ["3"], rank=True),
    _hilbert([8], ["3"], dmax=10, rank=True),
    _hilbert([4], ["3x2"], dmax=4, rank=True),
]

# The counting workload is where the footprint and union routes act; it
# never enumerates X* and never reaches the codes module.  The long
# table gains from reusing the footprint vector across degrees, the
# single-degree probe does not; faster convolution helps both.  The
# prime bands are narrow because a job's cost grows with q^2 and a
# run's seed must not move its time (the probe at q = 2053 or 2063
# already cost 5-10% more than at 2039); for the same reason the last
# slot only reorders two families (listing them as 3,5,3 costs about 8%
# more).
COUNTING = [
    _hilbert([269, 271], ["3"], dmax=40),
    _hilbert([2027, 2029, 2039], ["3"], d=100),
    _hilbert([41], ["5"]),
    [Job("betas", 31, "5")],
    [Job("regularity", q, s) for q in (97, 101, 103) for s in ("5,3", "3,5")],
    _hilbert([31], ["5,3x2", "3x2,5"]),
]

# The verify workload reaches the poly module (Buchberger check), the
# enumeration of X*, and the codes module through one elimination plus
# the minimum-distance message search instead of incremental rank.
VERIFY = [
    [Job("groebner-check", 5, "7x3")],
    [Job("card", 11, "5")],
    [Job("code", 4, "5", d=1)],
    [Job("code", 5, "3x2", d=1)],
]

WORKLOADS = {"rank": RANK, "counting": COUNTING, "verify": VERIFY}


def draw(slots: list[list[Job]], seed: int) -> list[Job]:
    """One job per slot, in a seeded random order."""
    rng = random.Random(seed)
    jobs = [rng.choice(pool) for pool in slots]
    rng.shuffle(jobs)
    return jobs
