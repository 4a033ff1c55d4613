"""Ungated cost curves over rect_cap, sup_horizon and grid size.

Each point is timed once (after one untimed call at the smallest size)
on a separable preset and on its non-separable expression twin, so the
growth of the generic paths is visible next to the factored ones.  A
point the library refuses is reported as refused.  Nothing here is
checked against a bound; the curves are printed and written to
``bench/out/sweep-seed<seed>.json``.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from time import perf_counter

import doublesine as ds

import jobs

RECT_CAPS = (8, 16, 32, 64)
SUP_HORIZONS = (64, 128, 256, 512)
GRID_LIMITS = (64, 128, 256, 512)


def _timed(fn) -> float | str:
    t0 = perf_counter()
    try:
        fn()
    except ValueError as exc:  # the library's size guards
        return f"refused: {exc}"
    return perf_counter() - t0


def run(seed: int, root: Path) -> list[dict]:
    rng = random.Random(seed)
    points = tuple((jobs.draw_coordinate(rng), jobs.draw_coordinate(rng)) for _ in range(4))
    seqs = {"separable": ds.builtin("oscillating_quadratic"),
            "generic": ds.from_expression("twin", jobs.TWIN_EXPR)}
    rows = []

    def point(param: str, value: int, make):
        for kind, seq in seqs.items():
            seconds = _timed(lambda: make(seq))
            rows.append({"param": param, "value": value, "sequence": kind, "seconds": seconds})
            shown = f"{seconds:10.4f} s" if isinstance(seconds, float) else seconds
            print(f"sweep {param:<12} {value:>5}  {kind:<9} {shown}", flush=True)

    def probe(cap):
        return ds.ProbeConfig(xy_grid=points, thresholds=(4, 8), rect_cap=cap, doublings=3)

    def three(horizon):
        return ds.MajorantFamily(ds.Family.THREE, ds.Axis.ROW, sup_horizon=horizon)

    for seq in seqs.values():  # warm-up
        ds.uniform_tail_probe(seq, probe(RECT_CAPS[0]))
    for cap in RECT_CAPS:
        point("rect_cap", cap, lambda s, cap=cap: ds.uniform_tail_probe(s, probe(cap)))
    grid16 = jobs.dyadic_pairs(16)
    for horizon in SUP_HORIZONS:
        point("sup_horizon", horizon,
              lambda s, h=horizon: ds.check_membership(s, 2, three(h), grid16))
    for limit in GRID_LIMITS:
        # the double axis needs sup_horizon >= the grid limit
        two = ds.MajorantFamily(ds.Family.TWO, ds.Axis.ROW, sup_horizon=limit)
        grid = jobs.dyadic_pairs(limit)
        point("grid", limit, lambda s, g=grid, f=two: ds.check_membership(s, 2, f, g))

    out = root / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"sweep-seed{seed}.json").write_text(json.dumps(rows, indent=1) + "\n",
                                                encoding="utf-8")
    return rows
