#!/usr/bin/env python3
"""Regenerates the generated blocks of perfbench/README.md from traced runs.

    python3 perfbench/gen_doc.py

Run from the root of a checkout. Runs every workload traced
(run.py --trace 1) on seeds 1 and 2, each for BENCHMARK.json's run_seconds,
and rewrites the README blocks between "<!-- BEGIN generated:NAME -->" and
"<!-- END generated:NAME -->":
  shares       per-layer ns/op, share of measured wall time and allocs/op per
               workload, from seed 1;
  seeds        the three largest layers of each workload on every seed;
  predictions  the layer separations the workloads were chosen to show, and
               every "dominant on" and "should not move on" entry of
               perfbench/metrics.json, checked on every seed;
  catalogue    every per-layer metric with its unit and what it should move,
               from perfbench/metrics.json.
Exits non-zero, after writing the README, if a seed changes a workload's three
largest layers, a prediction or catalogue entry fails, or BENCHMARK.json,
metrics.json and the benchmark's output disagree on the metric names.
"""
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
README = os.path.join(HERE, "README.md")
SEEDS = (1, 2)

# A layer dominates a workload from this share of measured wall time up, and
# leaves it flat below the second. The rpc layer has no time of its own; its
# entries are judged on rpc.dup_pct against the same numbers.
DOMINANT_PCT = 5.0
FLAT_PCT = 2.0

# Share-table rows: layer -> its self-time metric.
LAYER_NS = {
    "sim.loop": "sim.loop_ns_per_op",
    "dir": "dir.ns_per_op",
    "storage": "storage.ns_per_op",
    "sfs": "sfs.ns_per_op",
    "core": "core.ns_per_op",
    "coord": "coord.ns_per_op",
    "net": "net.tx_ns_per_op",
    "other": "other.ns_per_op",
}
LAYER_ALLOCS = {
    "dir": "dir.allocs_per_op",
    "storage": "storage.allocs_per_op",
    "sfs": "sfs.allocs_per_op",
    "core": "core.allocs_per_op",
    "other": "other.allocs_per_op",
}


def traced_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"gen_doc.py: {workload} seed {seed} failed:\n{proc.stdout[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def shares(metrics):
    total = sum(metrics[name] for name in LAYER_NS.values())
    return {layer: 100.0 * metrics[name] / total for layer, name in LAYER_NS.items()}


def top3(metrics):
    ranked = sorted(LAYER_NS, key=lambda layer: metrics[LAYER_NS[layer]], reverse=True)
    return ranked[:3]


def check_names(catalogue, bench):
    errors = []
    per_layer = [m for layer in catalogue["layers"] for m in layer["metrics"]]
    listed = [{k: m[k] for k in ("name", "unit", "better")} for m in bench["per_layer"]]
    if listed != per_layer:
        errors.append("BENCHMARK.json per_layer differs from metrics.json")
    if sorted(w["name"] for w in bench["workloads"]) != sorted(catalogue["workloads"]):
        errors.append("BENCHMARK.json workloads differ from metrics.json")
    return errors, [m["name"] for m in per_layer]


def shares_block(runs, seed):
    out = []
    for workload, by_seed in runs.items():
        metrics = by_seed[seed]
        pct = shares(metrics)
        out.append(f"**{workload}** (seed {seed}; coverage "
                   f"{metrics['trace.coverage_pct']:.2f}%, tracing overhead "
                   f"{metrics['trace.overhead_pct']:.1f}%, mean event-heap depth "
                   f"{metrics['sim.heap_depth_mean']:.0f})\n")
        out.append("| layer | ns/op | share of wall | allocs/op |")
        out.append("|---|---:|---:|---:|")
        for layer, name in LAYER_NS.items():
            allocs = LAYER_ALLOCS.get(layer)
            allocs_text = f"{metrics[allocs]:.2f}" if allocs else "–"
            label = f"{layer} ¹" if layer == "other" else layer
            out.append(f"| {label} | {metrics[name]:.0f} | {pct[layer]:.1f}% | {allocs_text} |")
        out.append("")
    out.append("¹ `other` is event-dispatch time under no wrapped span: network flight "
               "processing, RpcClient/NfsClient reply decoding and callbacks, the workload "
               "generators, disk-completion and timer closures. Only spans inside the "
               "program can split it further.")
    return "\n".join(out)


def seeds_block(runs, seeds):
    failures = []
    out = ["| workload | " + " | ".join(f"seed {s}" for s in seeds) + " | same three |",
           "|---|" + "---|" * len(seeds) + "---|"]
    for workload, by_seed in runs.items():
        tops = [top3(by_seed[s]) for s in seeds]
        same = all(set(t) == set(tops[0]) for t in tops)
        if not same:
            failures.append(f"{workload}: three largest layers change with the seed")
        out.append(f"| {workload} | " + " | ".join(", ".join(t) for t in tops) +
                   f" | {'yes' if same else 'NO'} |")
    return "\n".join(out), failures


def layer_weight(layer, metrics):
    """A metrics.json layer's weight on one workload, in percent."""
    if layer == "rpc":
        return metrics["rpc.dup_pct"]
    return shares(metrics)["sim.loop" if layer == "sim" else layer]


def claims(catalogue):
    """(claim, test) pairs; a test maps {workload: metrics} to (shown value, holds)."""
    named = [layer for layer in LAYER_NS if layer != "other"]

    def largest(workload, layer):
        def test(m):
            top = max(named, key=lambda name: m[workload][LAYER_NS[name]])
            return top, top == layer
        return test

    def weight(workload, layer, holds):
        def test(m):
            pct = layer_weight(layer, m[workload])
            return f"{pct:.2f}%", holds(pct)
        return test

    def deepest_heap(m):
        top = max(m, key=lambda workload: m[workload]["sim.heap_depth_mean"])
        return top, top == "sfs_peak"

    out = [
        ("dir is the largest named layer on dir_churn", largest("dir_churn", "dir")),
        ("dir is near zero on bulk_stream (< 1% of wall)",
         weight("bulk_stream", "dir", lambda pct: pct < 1.0)),
        ("storage is the largest named layer on bulk_stream", largest("bulk_stream", "storage")),
        ("storage is a small share on dir_churn (< 5% of wall)",
         weight("dir_churn", "storage", lambda pct: pct < 5.0)),
        ("sim.heap_depth_mean is highest on sfs_peak", deepest_heap),
    ]
    for workload, entry in catalogue["workloads"].items():
        for name in entry["loads"]:
            out.append((f"catalogue: {workload} loads {name} (>= {FLAT_PCT:g}%)",
                        weight(workload, name, lambda pct: pct >= FLAT_PCT)))
    for layer in catalogue["layers"]:
        name = layer["layer"]
        for workload in layer["dominant_on"]:
            out.append((f"catalogue: {name} dominates {workload} (>= {DOMINANT_PCT:g}%)",
                        weight(workload, name, lambda pct: pct >= DOMINANT_PCT)))
        for workload in layer["flat_on"]:
            out.append((f"catalogue: {name} is flat on {workload} (< {FLAT_PCT:g}%)",
                        weight(workload, name, lambda pct: pct < FLAT_PCT)))
    return out


def claims_block(runs, catalogue):
    failures = []
    out = ["| claim | " + " | ".join(f"seed {s}" for s in SEEDS) + " |",
           "|---|" + "---|" * len(SEEDS)]
    for claim, test in claims(catalogue):
        cells = []
        for seed in SEEDS:
            shown, ok = test({w: by_seed[seed] for w, by_seed in runs.items()})
            cells.append(f"{shown}: {'holds' if ok else 'FAILS'}")
            if not ok:
                failures.append(f"seed {seed}: {claim} fails")
        out.append(f"| {claim} | " + " | ".join(cells) + " |")
    return "\n".join(out), failures


def catalogue_block(catalogue, bench):
    out = ["| workload | why | layers it loads |", "|---|---|---|"]
    for workload in bench["workloads"]:
        loads = ", ".join(catalogue["workloads"][workload["name"]]["loads"])
        out.append(f"| {workload['name']} | {workload['why']} | {loads} |")
    out += ["", "| end-to-end metric | unit | better | bound | what |", "|---|---|---|---:|---|"]
    for metric in bench["end_to_end"]:
        out.append(f"| `{metric['name']}` | {metric['unit']} | {metric['better']} | "
                   f"{metric['bound']} | {catalogue['end_to_end'][metric['name']]} |")
    out += ["", "| layer | covers | metrics (unit) | should move | dominant on | should not move on |",
            "|---|---|---|---|---|---|"]
    for layer in catalogue["layers"]:
        names = ", ".join(f"`{m['name']}` ({m['unit']})" for m in layer["metrics"])
        note = f" ({layer['note']})" if "note" in layer else ""
        out.append(f"| {layer['layer']} | {layer['what']} | {names} | "
                   f"{', '.join(layer['moves']) or 'n/a'}{note} | "
                   f"{', '.join(layer['dominant_on']) or 'n/a'} | "
                   f"{', '.join(layer['flat_on']) or 'n/a'} |")
    return "\n".join(out)


def replace_block(text, name, body):
    pattern = re.compile(rf"(<!-- BEGIN generated:{name} -->\n).*?(<!-- END generated:{name} -->)",
                         re.S)
    if not pattern.search(text):
        sys.exit(f"gen_doc.py: README has no generated:{name} block")
    return pattern.sub(lambda mo: mo.group(1) + body + "\n" + mo.group(2), text)


def main():
    if len(sys.argv) > 1:
        sys.exit(__doc__)
    with open(os.path.join(HERE, "metrics.json")) as f:
        catalogue = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures, names = check_names(catalogue, bench)

    runs = {}
    for workload in catalogue["workloads"]:
        runs[workload] = {}
        for seed in SEEDS:
            metrics = traced_run(workload, seed, bench["run_seconds"])
            if sorted(metrics) != sorted(names):
                failures.append(f"{workload}: the benchmark's metric names differ from metrics.json")
            runs[workload][seed] = metrics

    seed_text, seed_failures = seeds_block(runs, SEEDS)
    prediction_text, prediction_failures = claims_block(runs, catalogue)
    failures += seed_failures + prediction_failures

    with open(README) as f:
        text = f.read()
    text = replace_block(text, "shares", shares_block(runs, SEEDS[0]))
    text = replace_block(text, "seeds", seed_text)
    text = replace_block(text, "predictions", prediction_text)
    text = replace_block(text, "catalogue", catalogue_block(catalogue, bench))
    with open(README, "w") as f:
        f.write(text)
    for failure in failures:
        print("gen_doc.py: " + failure, file=sys.stderr)
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
