#!/usr/bin/env python3
"""Runs the benchmark over several seeds and compares sets of runs.

  python3 perfbench/sweep.py all [SEED]
      Runs every workload of BENCHMARK.json once (trace 0) and prints every
      metric by name and unit. Exit code 1 when any run fails its checks.

  python3 perfbench/sweep.py run --workload W --seeds 1-10 --out DIR [-- EXTRA...]
      Runs `perfbench/run.sh` once per seed (trace 0 unless EXTRA says
      otherwise), saves each result line as DIR/W-seed<N>.json, and prints
      each metric's median and quartile spread (Q3 - Q1) / median.

  python3 perfbench/sweep.py spread DIR [WORKLOAD]
      Prints the spreads of saved results.

  python3 perfbench/sweep.py compare BASE_DIR NEW_DIR [WORKLOAD]
      Flags every end-to-end metric whose median in NEW_DIR is worse than in
      BASE_DIR by more than its bound in BENCHMARK.json. Exit code 1 when
      anything is flagged.

  python3 perfbench/sweep.py selftest [WORKLOAD] [SEEDS]
      Self-test of the comparison (default: dashboard, seeds 1-3). Two sets
      of runs of the same build must not be flagged; then, for each metric
      the client path can add to, a synthetic delay in the benchmark's own
      client path (never in the server) sized to 1.1x that metric's bound
      must be flagged.

Run from the repository root.
"""
import json
import os
import re
import statistics
import subprocess
import sys


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def load_results(directory, workload=None):
    """{workload: [metrics dict, ...]} from DIR/<workload>-seed<N>.json."""
    out = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json") or "-seed" not in name:
            continue
        w = name.rsplit("-seed", 1)[0]
        if workload and w != workload:
            continue
        with open(os.path.join(directory, name)) as f:
            result = json.load(f)
        out.setdefault(w, []).append(result["metrics"])
    return out


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, float("nan")
    q = statistics.quantiles(values, n=4)
    return med, (q[2] - q[0]) / med if med else float("inf")


def print_spreads(results):
    bounds = {m["name"]: m["bound"] for m in load_bench().get("end_to_end", [])}
    for w, runs in results.items():
        print(f"== {w} ({len(runs)} runs)")
        for name in runs[0]:
            values = [r[name]["value"] for r in runs if r[name]["value"] is not None]
            med, s = spread(values)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and s > bound / 3:
                flag = "  <-- spread above a third of the bound"
            b = f"bound {bound:.2f}" if bound is not None else ""
            print(f"  {name:<32} median {med:>14.4f}  spread {s:7.3f}  {b}{flag}")


def run(args):
    workload = args[args.index("--workload") + 1]
    seeds = parse_seeds(args[args.index("--seeds") + 1])
    out = args[args.index("--out") + 1]
    extra = args[args.index("--") + 1:] if "--" in args else []
    seconds = str(load_bench()["run_seconds"])
    os.makedirs(out, exist_ok=True)
    failures = 0
    for seed in seeds:
        cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed",
               str(seed), "--seconds", seconds]
        if "--trace" not in extra:
            cmd += ["--trace", "0"]
        proc = subprocess.run(cmd + extra, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            failures += 1
            continue
        with open(os.path.join(out, f"{workload}-seed{seed}.json"), "w") as f:
            f.write(lines[-1] + "\n")
        with open(os.path.join(out, f"{workload}-seed{seed}.out"), "w") as f:
            f.write(proc.stdout)
    print_spreads(load_results(out, workload))
    return 1 if failures else 0


def medians(directory, workload):
    runs = load_results(directory, workload)[workload]
    return {name: statistics.median(r[name]["value"] for r in runs) for name in runs[0]}


def raw_medians(directory, workload):
    """Medians of the raw (not speed-scaled) values the runs printed; the
    value itself for a metric that is not scaled."""
    raw = {}
    for name in os.listdir(directory):
        if name.startswith(workload + "-seed") and name.endswith(".out"):
            with open(os.path.join(directory, name)) as f:
                for line in f:
                    m = re.match(r"metric (\S+) = (\S+) \S+ \((?:raw ([0-9.eE+-]+))?", line)
                    if m:
                        value = m.group(3) or m.group(2)
                        raw.setdefault(m.group(1), []).append(float(value))
    return {k: statistics.median(v) for k, v in raw.items()}


# Metric -> (flag, factor converting the metric's unit to the flag's unit).
# The client delay is a busy wait inside every request's call, so it adds
# its length to the client CPU of every operation and every probe append;
# the start delay adds to every server start the benchmark times. The other
# end-to-end metrics are not costs the client path can add to.
INJECTIONS = {
    "op_cpu_us": ("--inject-delay-us", 1.0),
    "append_cpu_us": ("--inject-delay-us", 1.0),
    "setup_s": ("--inject-start-ms", 1e3),
}


def selftest(workload="dashboard", seeds="1-3"):
    out = os.path.join(".bench_run", "selftest")
    bounds = {m["name"]: m["bound"] for m in load_bench()["end_to_end"]}

    def runs(name, extra=()):
        directory = os.path.join(out, name)
        run(["--workload", workload, "--seeds", seeds, "--out", directory, "--", *extra])
        return directory

    base = runs("base")
    same = runs("same")
    print("== identical builds")
    ok = compare(base, same, workload) == 0
    print("identical runs flagged" if not ok else "identical runs not flagged: ok")
    base_medians = medians(base, workload)
    base_raw = raw_medians(base, workload)
    for metric, (flag, scale) in INJECTIONS.items():
        # Sized on the raw figure: the delay is spent on this host, before
        # the reference-speed scaling.
        delay = 1.1 * bounds[metric] * base_raw[metric] * scale
        print(f"== {metric}: {flag} {delay:.3f}")
        directory = runs(metric, (flag, f"{delay:.3f}"))
        new = medians(directory, workload)
        worse = (new[metric] - base_medians[metric]) / base_medians[metric]
        flagged = worse > bounds[metric]
        ok &= flagged
        print(f"{metric}: worse by {worse:+.3f}, bound {bounds[metric]:.2f}: "
              f"{'flagged: ok' if flagged else 'NOT flagged'}")
    return 0 if ok else 1


def run_all(seed="1"):
    bench = load_bench()
    failed = 0
    for w in bench["workloads"]:
        cmd = ["bash", "perfbench/run.sh", "--workload", w["name"], "--seed", seed,
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        print(f"== {w['name']} (exit {proc.returncode})")
        for line in proc.stdout.splitlines():
            if line.startswith(("metric ", "checks ", "stamp ")):
                print("  " + line)
        failed += proc.returncode != 0
    return 1 if failed else 0


def compare(base_dir, new_dir, workload=None):
    bench = load_bench()
    base = load_results(base_dir, workload)
    new = load_results(new_dir, workload)
    flagged = 0
    for w in sorted(set(base) & set(new)):
        for m in bench["end_to_end"]:
            name, bound, better = m["name"], m["bound"], m["better"]
            a = statistics.median(r[name]["value"] for r in base[w])
            b = statistics.median(r[name]["value"] for r in new[w])
            change = (b - a) / a if better == "lower" else (a - b) / a
            worse = change > bound
            flagged += worse
            mark = "FLAGGED" if worse else "ok"
            print(f"{w:<10} {name:<28} base {a:>12.4f} new {b:>12.4f} "
                  f"worse by {change:+7.3f} (bound {bound:.2f}) {mark}")
    return 1 if flagged else 0


def main():
    if len(sys.argv) < 2:
        print(__doc__)
        return 2
    cmd, rest = sys.argv[1], sys.argv[2:]
    if cmd == "all":
        return run_all(*rest)
    if cmd == "run":
        return run(rest)
    if cmd == "spread":
        print_spreads(load_results(rest[0], rest[1] if len(rest) > 1 else None))
        return 0
    if cmd == "compare":
        return compare(rest[0], rest[1], rest[2] if len(rest) > 2 else None)
    if cmd == "selftest":
        return selftest(*rest)
    print(__doc__)
    return 2


if __name__ == "__main__":
    sys.exit(main())
