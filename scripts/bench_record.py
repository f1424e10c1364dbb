#!/usr/bin/env python3
"""Writes a BENCH_<pr>.json ledger entry (ROADMAP item 1(a)).

    scripts/bench_record.py PR PARENT_SHA TITLE A.jsonl B.jsonl \
        ladder_parent.txt ladder_change.txt OUT.json

A.jsonl / B.jsonl are the benchmark/out/runs.jsonl files of a parent
set and a change set run at the same seeds (benchmark/README.md, "A/A");
the ladder files are the standard output of
`benchmark/run.sh --workload W --trace 1`, one run per side for each
workload the record should carry (concatenate them into one file per
side).
"""
import json, re, statistics, sys

def load(path):
    out = {}
    for line in open(path):
        r = json.loads(line)
        out.setdefault(r["workload"], []).append(r)
    return out

def sig(x):
    """Six significant digits: the timings repeat to two or three."""
    return float(f"{x:.6g}")

def quart(vals):
    q = statistics.quantiles(vals, n=4, method="inclusive")
    return q[0], q[2]

def side(runs):
    runs = sorted(runs, key=lambda r: r["seed"])
    metrics = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        q1, q3 = quart(vals)
        metrics[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": sig(statistics.median(vals)), "q1": sig(q1), "q3": sig(q3),
            "by_seed": [sig(v) for v in vals],
        }
    noise = {}
    for name in runs[0]["noise"]:
        vals = [r["noise"][name]["value"] for r in runs]
        noise[name] = {"median": sig(statistics.median(vals)), "max": sig(max(vals))}
    return {
        "seeds": [r["seed"] for r in runs],
        "correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "metrics": metrics, "noise": noise,
    }

LOWER = {"setup_s", "compress_us_per_op", "decompress_us_per_op", "compress_p50_us",
         "decompress_p50_us", "cpu_us_per_op", "rss_mb"}

def ladder(path):
    """`<workload> <layer.metric> <value> <unit> n=<count>` lines, by workload."""
    rows = {}
    for line in open(path):
        m = re.match(r"^(\S+)\s+(\S+\.\S+)\s+(-?[\d.]+)\s+(\S+)\s+n=", line)
        if m:
            rows.setdefault(m.group(1), {})[m.group(2)] = {
                "value": float(m.group(3)), "unit": m.group(4)}
    return rows

pr, parent_sha, title = sys.argv[1:4]
a, b = load(sys.argv[4]), load(sys.argv[5])
doc = {
    "pr": int(pr),
    "title": title,
    "method": "benchmark/run.sh, ten runs per side at seeds 200-209, parent and change "
              "alternating (even seeds parent first, odd seeds change first), --trace 0, "
              "each tree built from its own sources; quartiles are inclusive. 'pairs_better' "
              "counts seeds where the change's run beat the parent's run of the same seed.",
    "parent": parent_sha,
    "workloads": {},
}
for w in sorted(a):
    pa, ch = side(a[w]), side(b[w])
    cmp = {}
    for name, m in pa["metrics"].items():
        am, bm = m["median"], ch["metrics"][name]["median"]
        lower = name in LOWER
        wins = sum((y < x) if lower else (y > x)
                   for x, y in zip(m["by_seed"], ch["metrics"][name]["by_seed"]))
        cmp[name] = {
            "change_vs_parent": sig((bm - am) / am) if am else 0.0,
            "better": "lower" if lower else "higher",
            "pairs_better": wins, "pairs": len(m["by_seed"]),
            "parent_iqr": sig(m["q3"] - m["q1"]),
        }
    doc["workloads"][w] = {"parent": pa, "change": ch, "compare": cmp}
parent_rows, change_rows = ladder(sys.argv[6]), ladder(sys.argv[7])
doc["ladder_trace1"] = {
    "method": "benchmark/run.sh --workload W --trace 1, default seed, one run per side and workload",
    "workloads": {w: {"parent": parent_rows[w], "change": change_rows[w]} for w in sorted(parent_rows)},
}
text = json.dumps(doc, indent=1)
# One line per number array and per {value, unit} pair.
text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]", text)
text = re.sub(r"\{\s+(\"value\": [^{}]*?)\s+\}", lambda m: "{" + re.sub(r"\s+", " ", m.group(1)) + "}", text)
open(sys.argv[8], "w").write(text + "\n")
print("wrote", sys.argv[8])
