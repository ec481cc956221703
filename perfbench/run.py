#!/usr/bin/env python3
"""diracloud benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload flagship_cpg --seed 0 --seconds 38 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``.

    python3 perfbench/run.py --smoke               # the harness's own test
    python3 perfbench/run.py --record-reference    # re-store reference levels

BLAS threads are fixed to the number of usable cores before numpy loads.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "smoke"), default="full",
                    help="smoke: the same paths at n of a few dozen")
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload at smoke scale and check the output")
    ap.add_argument("--record-reference", action="store_true",
                    help="store the current levels, flags and rates as the reference")
    ap.add_argument("--child-baseline", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (args.smoke or args.record_reference or args.workload):
        ap.error("--workload is required")
    return args


def smoke(benchmark_path="BENCHMARK.json"):
    """Every workload at smoke scale, both modes, in child processes: every
    metric BENCHMARK.json names is emitted with its unit and the run is
    correct.  Then a deliberately wrong stored level must count as failed."""
    with open(benchmark_path) as f:
        bench = json.load(f)
    problems = []
    for wl in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py"),
                   "--workload", wl["name"], "--seed", "0", "--seconds", "1",
                   "--trace", str(trace), "--scale", "smoke"]
            out = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
            label = f"{wl['name']} trace={trace}"
            before = len(problems)
            if out.returncode != 0:
                problems.append(f"{label}: exit {out.returncode}\n{out.stderr}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: not correct\n{out.stderr}")
            for m in bench[key]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"] \
                        or not isinstance(got.get("value"), (int, float)):
                    problems.append(f"{label}: metric {m['name']} missing or mislabelled")
            print(f"smoke {label}: {'ok' if len(problems) == before else 'FAILED'}")

    import harness
    wl = harness.WORKLOADS["smoke"]["flagship_cpg"]
    configs = harness.configs_for(wl, harness.variant_for(0))
    reference = harness.load_reference()
    key = harness.config_key(configs[0])
    wrong = dict(reference)
    rows = [list(r) for r in reference[key]["rows"]]
    rows[0][1] *= 1.0 + 1e-6
    wrong[key] = {"rows": rows}
    outdir = os.path.join(harness.OUT_DIR, f"smoke-{os.getpid()}")
    with harness.Instrument(trace=False) as instr:
        res = harness.run_iteration(wl, configs, outdir, instr, wrong,
                                    check_dump_spectrum=False)
    shutil.rmtree(outdir, ignore_errors=True)
    attempted, failed = harness.tally([res])
    if (attempted, failed) != (1, 1):
        problems.append(f"a wrong stored level gave failed={failed}/{attempted}, "
                        "expected 1/1")
    else:
        print("smoke wrong level: counted as failed")
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


def main(argv=None):
    args = _parse(argv)
    threads = 1 if args.child_baseline else len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    os.environ.pop("DIRACLOUD_OUTDIR", None)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "diracloud", "cli.py")):
        print("perfbench: no src/diracloud under the current directory; "
              "run from the repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness

    if args.smoke:
        return smoke()
    if args.record_reference:
        harness.record_reference()
        return 0
    result = harness.run(args.workload, args.seed, args.seconds, args.trace,
                         args.scale, src, child=args.child_baseline)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
