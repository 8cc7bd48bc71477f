#!/usr/bin/env python3
"""CI gate over BENCH_router.json: no adversarial answer may escape the
router uncertified, and every certificate must contain the true
quantile.

Reads the JSON emitted by bench_router and fails if any row in the
"adversarial" section (pathological cells: atomic, discrete,
heavy-tailed, near-singular) carries `certified: false` or
`contains_truth: false`. Smooth-section rows are checked too — a healthy
cell losing its certificate is just as much a regression — but the
adversarial rows are the reason the gate exists: they are the cells
where the maxent solver fails and the degradation chain must still
produce a bounded answer. The "groupby" section (the same datasets
answered by one certified GROUP BY, i.e. the batch pipeline's certify
stage) is checked the same way and must be present. So is the "small"
section: pinned 150-1200-row heavy-tailed selections where the
conditioning pre-screen rejects the moments, each of which must be
present by name (SMALL_ROWS), certified, and hold an exact quantile.
The large cells of the other sections never reach that regime. The
"exact" section holds selections an uncompacted KLL holds whole (1-63-row
cells and two lossless unions of small cube cells, the larger at the
union's 32 * kll_k row cap): each pinned row
(EXACT_ROWS) must be present and certified, hold an exact quantile, and
report zero certificate `width` and zero maxent `solves` — the exact
path answers from the rank sketch's point certificate and never solves.
The "solver" section holds pinned small selections whose cold solve has
Newton runs that end at the iteration cap: each pinned row (SOLVER_ROWS)
must be present and solved, still reach the cap (`iteration_capped` >= 1,
or the row no longer exercises the capped path), and spend at most
SOLVER_EVAL_CEILING objective evaluations. A run stuck at a fixed point
stops there instead of repeating its last iteration up to the cap; these
rows spend 250-1,547 evaluations with that stop and 8,231-20,678 without
it. The counts are deterministic, so this check does not depend on
timing. The "cache" section holds one repeated selection answered by a
router on the process-wide solver cache: its pinned row (CACHE_ROWS)
must be present, certified and contain the truth, record one cache hit
and no solve for each rep after the first (`cache_hits` == `reps` >= 1,
`solves` == 0), and keep every answer bit-identical to an always-solving
router (`identical`).

Usage: check_router_gate.py BENCH_router.json
"""

import sys

from gate_common import load_sections


# bench_router's pinned small selections: dataset, rows and seed.
SMALL_ROWS = (
    "milan_n300_s918904",
    "milan_n150_s1766087",
    "milan_n600_s3073172",
    "retail_n1200_s191256",
    "retail_n300_s245789",
    "retail_n300_s784281",
    "retail_n150_s902916",
    "retail_n300_s1006013",
    "retail_n150_s1061296",
)

# bench_router's exact selections: per-dataset row counts, then the
# lossless union of small CubeStore cells.
EXACT_ROWS = tuple(
    f"{data}_n{n}" for data in ("milan", "retail") for n in (1, 2, 17, 63)
) + ("store_milan_n300", "store_milan_n2048")

# bench_router's capped-solve selections: dataset, rows and seed.
SOLVER_ROWS = (
    "milan_n300_s27",
    "milan_n150_s37",
    "milan_n50_s30",
    "retail_n100_s41",
)

# bench_router's repeated selection through the solver cache.
CACHE_ROWS = ("lognormal+kll",)

# Objective evaluations allowed per solver row: above the 1,547 the
# retail row spends (the most of the four), below the 8,231 the
# cheapest row spends when capped runs grind to the cap.
SOLVER_EVAL_CEILING = 4000


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    path = argv[1]

    rows, rc = load_sections(path, "bench_router")
    if rc is not None:
        return rc
    checked = 0
    failures = []
    sections = ("smooth", "adversarial", "groupby", "small", "exact",
                "cache")
    names = {section: set() for section in sections + ("solver",)}
    for row in rows:
        section = row.get("section")
        if section not in names:
            continue
        names[section].add(row.get("name"))
        checked += 1
        name = f'{section}/{row.get("name")}'
        if section == "solver":
            evals = row.get("objective_evals")
            if row.get("solved") is not True:
                failures.append(f"{name}: solve failed")
            if not row.get("iteration_capped", 0) >= 1:
                failures.append(f"{name}: no Newton run reached the cap")
            if evals is None or evals > SOLVER_EVAL_CEILING:
                failures.append(f"{name}: {evals} objective evaluations, "
                                f"ceiling {SOLVER_EVAL_CEILING}")
            continue
        if row.get("certified") is not True:
            failures.append(f"{name}: answer escaped uncertified")
        if row.get("contains_truth") is not True:
            failures.append(f"{name}: certificate misses the true quantile")
        if section == "exact":
            if row.get("width") != 0:
                failures.append(f"{name}: exact answer has width "
                                f"{row.get('width')}")
            if row.get("solves") != 0:
                failures.append(f"{name}: exact answer ran "
                                f"{row.get('solves')} solve(s)")
        if section == "cache":
            reps = row.get("reps", 0)
            if not reps >= 1 or row.get("cache_hits") != reps:
                failures.append(f"{name}: {row.get('cache_hits')} cache "
                                f"hit(s) over {reps} repeated quer(ies)")
            if row.get("solves") != 0:
                failures.append(f"{name}: repeated query ran "
                                f"{row.get('solves')} solve(s)")
            if row.get("identical") is not True:
                failures.append(f"{name}: a cached answer differs from "
                                f"the solved one")

    missing = [section for section in names if not names[section]]
    if missing:
        print(f"FAIL: {path} has no {'/'.join(missing)} rows — "
              f"bench_router output format changed?")
        return 1
    for section, pinned in (("small", SMALL_ROWS), ("exact", EXACT_ROWS),
                            ("solver", SOLVER_ROWS), ("cache", CACHE_ROWS)):
        for name in pinned:
            if name not in names[section]:
                failures.append(f"{section}/{name}: pinned row missing")
    for f in failures:
        print(f"FAIL: {f}")
    if failures:
        print(f"router gate: {len(failures)} violation(s) across "
              f"{checked} rows")
        return 1
    print(f"router gate OK: {checked} rows, all certified, "
          f"all certificates contain the truth, capped solves within "
          f"{SOLVER_EVAL_CEILING} evaluations, repeated queries answered "
          f"from the solver cache")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
