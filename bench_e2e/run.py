#!/usr/bin/env python3
"""The end-to-end benchmark: one command.

Single run (what the benchmark driver calls; one workload, this process)::

    python3 bench_e2e/run.py --workload star_warm --seed 2016 \\
        --seconds 8 --trace 0

prints, as the last line of standard output, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` -- the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1`` -- and exits 1 when an operation failed or an answer was
wrong.  (``--setup-only`` is what the run starts its further set-up
processes with: set-up and first answer, reported as one JSON line.)

Whole set (no ``--workload``): every workload, untraced then traced, each
in a fresh subprocess with ``PYTHONHASHSEED=0``; prints every metric by
name with its unit and writes one JSON document (``--out``) that
``compare.py`` reads::

    python3 bench_e2e/run.py [--seed N] [--seconds S] [--runs R]
                             [--smoke] [--out FILE]
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCHEMA = "bench_e2e/1"
DEFAULT_SEED = 2016


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _single(args) -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import harness
    except ImportError as exc:
        print(f"bench_e2e: cannot import the program under test from "
              f"{os.path.join(ROOT, 'src')}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _PROCESS_START
    if args.setup_only:
        print(json.dumps(harness.set_up_only(
            args.workload, args.seed, args.smoke, import_s)))
        return 0
    run = harness.run_traced if args.trace else harness.run_end_to_end
    record = run(args.workload, args.seed, args.seconds, args.smoke, import_s,
                 args.verify_all)
    record.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, smoke=args.smoke,
                  env=harness.environment())
    for line in record["detail"]["errors"]:
        print(f"bench_e2e: {line}", file=sys.stderr)
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)),
                    exist_ok=True)
        with open(args.out, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    print("\n".join(_report(record)))
    print(json.dumps(record["result"]))
    return 0 if record["result"]["correct"] else 1


def _report(record: dict) -> list:
    """Every metric of a run by name, with its unit."""
    result, detail = record["result"], record["detail"]
    lines = [f"{record['workload']:<14s} {name:<32s} "
             f"{metric['value']:>14.6g} {metric['unit']}"
             for name, metric in result["metrics"].items()]
    extra = [("failed_ratio", detail["failed_ratio"], "ratio")]
    if not record["trace"]:
        extra.append(("queries_timed", detail["queries_timed"], "count"))
    lines.extend(f"{record['workload']:<14s} {name:<32s} {value:>14.6g} "
                 f"{unit}" for name, value, unit in extra)
    return lines


def _child(workload: str, seed: int, seconds: float, trace: int,
           smoke: bool, out: str) -> dict:
    """One run in a fresh process; its full record.

    The record is only believed when this very process wrote it: *out* is
    removed first, and the record must name the run that was asked for
    and carry the result line the process printed last.  (An uncaught
    exception exits with 1, like a wrong answer does, so the exit code
    alone does not tell a crash from a result.)
    """
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--verify-all", "--out", out]
    if smoke:
        command.append("--smoke")
    if os.path.exists(out):
        os.unlink(out)
    env = dict(os.environ, PYTHONHASHSEED="0")
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=600)
    what = f"bench_e2e: {workload} seed {seed} (trace {trace})"
    try:
        with open(out) as handle:
            record = json.load(handle)
        printed = json.loads(done.stdout.strip().splitlines()[-1])
    except (OSError, ValueError, IndexError) as exc:
        raise SystemExit(f"{what} exited with {done.returncode} and no "
                         f"result: {exc}")
    asked = {"workload": workload, "seed": seed, "trace": trace}
    if {key: record.get(key) for key in asked} != asked \
            or record.get("result") != printed \
            or done.returncode != (0 if printed["correct"] else 1):
        raise SystemExit(f"{what} exited with {done.returncode} and a "
                         f"result that is not its own")
    return record


def _suite(args) -> int:
    spec = _spec()
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    runs = []
    ok = True
    for repeat in range(args.runs):
        seed = args.seed + repeat
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                record = _child(
                    workload, seed, args.seconds, trace, args.smoke,
                    os.path.join(out_dir, f"{workload}.{trace}.json"))
                runs.append(record)
                result = record["result"]
                ok = ok and result["correct"]
                print(f"== {workload} seed {seed} "
                      f"{'traced' if trace else 'end to end'}: "
                      f"{result['attempted']} attempted, "
                      f"{result['failed']} failed")
                print("\n".join(_report(record)))
                if trace:
                    shares = record["detail"]["layer_share"]
                    print("   share of traced op wall: " + ", ".join(
                        f"{layer} {share:.1%}"
                        for layer, share in shares.items() if share >= 0.005))
    document = {"schema": SCHEMA, "commit": _commit(), "runs": runs,
                "seconds": args.seconds, "smoke": args.smoke}
    out = args.out or os.path.join(out_dir, "latest.json")
    with open(out, "w") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
    print(f"wrote {out}: {len(runs)} runs, "
          f"{'all correct' if ok else 'WRONG ANSWERS'}")
    return 0 if ok else 1


def _commit() -> str:
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only, in "
                        "this process; omit to run the whole set")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured phase (default: "
                        "BENCHMARK.json's run_seconds; 0.3 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="small graph, short phases: a functional "
                        "check, not a measurement")
    parser.add_argument("--runs", type=int, default=1,
                        help="whole set only: repeat with seeds N, N+1, ...")
    parser.add_argument("--out", help="write the full JSON record here")
    parser.add_argument("--verify-all", action="store_true",
                        help="check every distinct d=1 star query against "
                        "the oracle, also where a single run checks a sample "
                        "to save time (the whole set always does)")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.3 if args.smoke else float(_spec()["run_seconds"])
    if args.workload is None:
        return _suite(args)
    names = [w["name"] for w in _spec()["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(names)}")
    return _single(args)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashes order sets and dicts of tokens; pin them, so that
        # two runs of one seed do the same work in the same order
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
