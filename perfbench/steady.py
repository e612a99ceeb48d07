#!/usr/bin/env python3
"""Steadiness check and reference figures for the Liquid benchmark.

    python3 perfbench/steady.py --runs 10 --label set-a --write-readme

Runs every workload --runs times, each round with the next seed and the
workload order rotated, so slow drift of the host is spread over all
workloads. For each end-to-end metric it prints the median, the quartiles
(statistics.quantiles(n=4)), the quartile spread as a share of the median
against the metric's bound, and max - min. With --write-readme the table,
with the host fingerprint, replaces the block of that label in
perfbench/README.md, so the reference figures are always made anew.
Raw results go to .bench_build/steady-<label>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
README = os.path.join(HERE, "README.md")


def run_once(workload, seed, seconds, trace):
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if result.returncode != 0:
        sys.exit("steady.py: %s seed %d exited %d:\n%s" % (
            workload, seed, result.returncode, result.stderr[-2000:]))
    lines = result.stdout.strip().splitlines()
    host = next((json.loads(l)["host"] for l in lines if l.startswith('{"host"')), {})
    return json.loads(lines[-1]), host


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "range": max(values) - min(values)}


def table(config, results):
    bounds = {m["name"]: m for m in config["end_to_end"]}
    rows = ["| workload | metric | median | q1 | q3 | (q3-q1)/median | bound | max-min |",
            "|---|---|---|---|---|---|---|---|"]
    verdicts = []
    for workload, runs in results.items():
        for name, spec in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            steady = name == "setup_s" or s["spread"] <= spec["bound"] / 3
            verdicts.append((workload, name, steady))
            rows.append("| %s | %s (%s) | %.6g | %.6g | %.6g | %.2f%% | %g%%%s | %.4g |" % (
                workload, name, spec["unit"], s["median"], s["q1"], s["q3"],
                100 * s["spread"], 100 * spec["bound"], "" if steady else " (over 1/3)",
                s["range"]))
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        rows.append("| %s | failed/attempted | %s | | | | | |" % (
            workload, ", ".join("%.6g" % x for x in shares)))
    return rows, verdicts


def write_readme(label, header, rows):
    begin = "<!-- steady:%s:begin -->" % label
    end = "<!-- steady:%s:end -->" % label
    block = "\n".join([begin] + header + [""] + rows + [end])
    text = open(README).read() if os.path.exists(README) else ""
    if begin in text and end in text:
        text = text[:text.index(begin)] + block + text[text.index(end) + len(end):]
    else:
        text = text.rstrip("\n") + "\n\n" + block + "\n"
    with open(README, "w") as f:
        f.write(text)


def main():
    config = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=config["run_seconds"])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--label", default="latest")
    parser.add_argument("--write-readme", action="store_true")
    args = parser.parse_args()
    saved = os.path.join(ROOT, ".bench_build", "steady-%s.json" % args.label)

    results = {w: [] for w in args.workloads}
    host = {}
    started = time.strftime("%Y-%m-%d %H:%M UTC", time.gmtime())
    for r in range(args.runs):
        shift = r % len(args.workloads)
        for workload in args.workloads[shift:] + args.workloads[:shift]:
            seed = args.seed_base + r
            result, host = run_once(workload, seed, args.seconds, 0)
            results[workload].append(result)
            print("round %d %-14s seed %d: %s" % (r, workload, seed, " ".join(
                "%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items())),
                flush=True)

    rows, verdicts = table(config, results)
    print("\n".join(rows))
    os.makedirs(os.path.dirname(saved), exist_ok=True)
    with open(saved, "w") as f:
        json.dump({"host": host, "started": started, "seed_base": args.seed_base,
                   "results": results}, f)
    if args.write_readme:
        header = ["Set `%s`: %d runs per workload of %d s, seeds %d-%d, started %s." % (
                      args.label, args.runs, args.seconds, args.seed_base,
                      args.seed_base + args.runs - 1, started),
                  "Host: %d vCPU, %s, %s build, GCC %s." % (
                      host.get("nproc", 0), host.get("cpu_model", "?"),
                      host.get("build_type", "?"), host.get("compiler", "?"))]
        write_readme(args.label, header, rows)
    unsteady = [(w, m) for w, m, ok in verdicts if not ok]
    if unsteady:
        print("spread above a third of the bound: %s" % unsteady)
    return 0


if __name__ == "__main__":
    sys.exit(main())
