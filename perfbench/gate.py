"""Correctness gate for one job's output.

Every anchor is computed here from the job's (q, spec, degree) with
closed forms, independently of the cyclecodes package:

* |X*| = prod (q-1)^(km) / 2^m for q odd, prod (q-1)^(km) for q a power
  of two;
* the regularity reg = sum m((k+gamma)(q-1)/2 - k) for q odd and
  n(q-2) for q even, with H(d) = |X*| exactly when d >= reg;
* H(d) = C(d+n, n) below the degree where the first leading term of
  the vanishing ideal appears ((q-1)/2 for q odd, q-1 for q even),
  since every monomial of lower degree is standard;
* the betas c_j = C(k,j) * sum_{i<=gamma-j} (-1)^i C(k-j,i);
* code length |X*|, dimension H(d), and the Singleton bound.

``check`` returns the list of problems found; an empty list passes.
"""

from __future__ import annotations

import json
from math import comb


def parse_spec(text: str) -> list[tuple[int, int]]:
    """``"3x2,5"`` -> [(3, 2), (5, 1)]."""
    out = []
    for item in text.split(","):
        k, _, m = item.partition("x")
        out.append((int(k), int(m) if m else 1))
    return out


def cardinality(q: int, comps) -> int:
    total = 1
    for k, m in comps:
        total *= (q - 1) ** (k * m)
        if q % 2:
            total //= 2 ** m
    return total


def regularity(q: int, comps) -> int:
    if q % 2:
        return sum(m * ((k + (k - 1) // 2) * (q - 1) // 2 - k)
                   for k, m in comps)
    return sum(k * m for k, m in comps) * (q - 2)


def hilbert_problem(q: int, comps, d: int, h) -> str | None:
    """Check one value H(d) against the anchors."""
    n = sum(k * m for k, m in comps)
    card = cardinality(q, comps)
    low = (q - 1) // 2 if q % 2 else q - 1
    if not isinstance(h, int):
        return f"H({d}) = {h!r} is not an integer"
    if d < low:
        want = comb(d + n, n)
        if h != want:
            return f"H({d}) = {h}, expected C({d}+{n},{n}) = {want}"
    elif d >= regularity(q, comps):
        if h != card:
            return f"H({d}) = {h}, expected |X*| = {card} at d >= reg"
    elif not comb(low - 1 + n, n) <= h < card:
        return f"H({d}) = {h} outside [H({low - 1}), |X*|) below reg"
    return None


def beta_anchor(k: int) -> list[int]:
    g = (k - 1) // 2
    return [comb(k, j) * sum((-1) ** i * comb(k - j, i)
                             for i in range(g - j + 1))
            for j in range(g + 1)]


def _check_hilbert(job, out) -> list[str]:
    comps = parse_spec(job.spec)
    single_odd = len(comps) == 1 and comps[0][1] == 1 and job.q % 2
    if job.d is not None:
        degrees = [job.d]
    elif job.dmax is not None:
        degrees = list(range(job.dmax + 1))
    else:
        degrees = list(range(regularity(job.q, comps) + 2))
    rows = out["rows"]
    problems = []
    if [r["d"] for r in rows] != degrees:
        return [f"rows cover degrees {[r['d'] for r in rows]}"]
    prev = 0
    for r in rows:
        h = r["footprint"]
        p = hilbert_problem(job.q, comps, r["d"], h)
        if p:
            problems.append(p)
        elif h < prev:
            problems.append(f"H({r['d']}) = {h} < H({r['d'] - 1})")
        prev = h
        if single_odd and r["union"] != h:
            problems.append(f"union {r['union']} != footprint {h} "
                            f"at d={r['d']}")
        if job.rank and r["rank"] != h:
            problems.append(f"rank {r['rank']} != footprint {h} "
                            f"at d={r['d']}")
    if out["agree"] is not True:
        problems.append("agree is not true")
    return problems


def _check_card(job, out) -> list[str]:
    want = cardinality(job.q, parse_spec(job.spec))
    problems = [f"{key} = {out[key]}, expected {want}"
                for key in ("enumerated", "formula") if out[key] != want]
    if out["agree"] is not True:
        problems.append("agree is not true")
    return problems


def _check_regularity(job, out) -> list[str]:
    want = regularity(job.q, parse_spec(job.spec))
    problems = [f"{key} = {out[key]}, expected {want}"
                for key in ("formula", "bruteforce") if out[key] != want]
    if out["agree"] is not True:
        problems.append("agree is not true")
    return problems


def _check_betas(job, out) -> list[str]:
    (k, _), = parse_spec(job.spec)
    problems = []
    if out["betas"] != beta_anchor(k):
        problems.append(f"betas {out['betas']}, expected {beta_anchor(k)}")
    reg = regularity(job.q, [(k, 1)])
    if out["verified_through"] != reg + 1:
        problems.append(f"verified through {out['verified_through']}, "
                        f"expected {reg + 1}")
    return problems


def _check_groebner(job, out) -> list[str]:
    return [] if out["groebner"] is True else ["groebner is not true"]


def _check_code(job, out) -> list[str]:
    comps = parse_spec(job.spec)
    n = cardinality(job.q, comps)
    problems = []
    if out["n"] != n:
        problems.append(f"n = {out['n']}, expected |X*| = {n}")
    p = hilbert_problem(job.q, comps, job.d, out["dimension"])
    if p:
        problems.append(f"dimension: {p}")
    dist = out.get("min_distance")
    if dist is None:
        problems.append("no exact minimum distance")
    elif not 1 <= dist <= out["n"] - out["dimension"] + 1:
        problems.append(f"distance {dist} breaks the Singleton bound")
    if out["singleton_ok"] is not True:
        problems.append("singleton_ok is not true")
    return problems


_CHECKS = {
    "hilbert": _check_hilbert,
    "card": _check_card,
    "regularity": _check_regularity,
    "betas": _check_betas,
    "groebner-check": _check_groebner,
    "code": _check_code,
}


def check(job, rc, stdout: str) -> list[str]:
    """Problems with one job's exit code and JSON output."""
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        out = json.loads(stdout)
        return _CHECKS[job.cmd](job, out)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
