#!/usr/bin/env python3
"""Run the verification suite over every catalog entry and summarize.

Writes one JSON report per entry when --out-dir is given, prints a compact
check table either way, and exits nonzero if any entry fails.

Usage:
    python3 scripts/run_all_entries.py [--points N] [--seed S] [--out-dir D]
"""

import argparse
import json
import pathlib
import sys
import time

from hopflck import hopf, verify as vf


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out-dir", default=None,
                        help="directory for per-entry JSON reports")
    args = parser.parse_args(argv)

    out_dir = pathlib.Path(args.out_dir) if args.out_dir else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)

    config = vf.SuiteConfig(points=args.points, seed=args.seed)
    all_ok = True
    for name in hopf.ENTRY_NAMES:
        entry = hopf.build_entry(name)
        start = time.perf_counter()
        reports = vf.run_suite(entry, config)
        elapsed = time.perf_counter() - start
        ok = vf.suite_passed(reports)
        all_ok = all_ok and ok
        print("%-10s %-4s  %5.2fs" % (name, "pass" if ok else "FAIL", elapsed))
        for rep in reports:
            # A proven identity's residual is 0; its float cross-check shows.
            proven = rep.details.get("method") == "exact-modular"
            print("    %-22s %-4s  residual %11.3e  tol %g%s"
                  % (rep.check_name, rep.status, rep.max_residual,
                     rep.tolerance,
                     "  exact (float %.3e)" % rep.details["float_residual"]
                     if proven else ""))
        if out_dir:
            payload = {"entry": name, "points": args.points,
                       "seed": args.seed,
                       "status": "pass" if ok else "fail",
                       "reports": vf.reports_to_json(reports)}
            path = out_dir / ("%s.json" % name)
            path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                                       allow_nan=False) + "\n")
            print("    wrote %s" % path)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
