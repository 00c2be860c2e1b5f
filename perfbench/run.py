"""Solve benchmark for baseswap.

Usage (from the repository root):

    python3 perfbench/run.py --workload graphic --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Workloads: graphic, binary, sums (see perfbench/README.md).  One operation
is one ``solve_white`` / ``solve_gabow`` call on a parsed instance; a single
caller runs them back to back (closed loop, no threads), once each.  Every
answer is replayed from a freshly parsed pair and checked against its mode's
bounds, and on R10 instances against the distance an independent oracle
certifies.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced pass.  Details go
to ``perfbench/out/``.  The library runs from ``src`` (no install needed).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 16
BFS_CAP = 16
TAIL_BEYOND = 10


def _import_library() -> None:
    if not (SRC / "baseswap" / "__init__.py").is_file():
        raise SystemExit(f"error: library sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import baseswap

    if Path(baseswap.__file__).resolve().parent != (SRC / "baseswap").resolve():
        raise SystemExit(f"error: imported baseswap from {baseswap.__file__}, not {SRC}")


class WrongAnswer(Exception):
    """The library returned an answer the gate rejects."""


# -- the outside correctness gate ------------------------------------------------


def graphic_run(obj: dict) -> bool:
    """True when the paper's graphic bounds (c = 1) apply to the instance."""
    src = obj["matroid"]
    if src["kind"] == "graph":
        return True
    if src["kind"] == "tree":
        tree = src["tree"]
        return (
            len(tree["nodes"]) == 1
            and not tree.get("sums")
            and tree["nodes"][0]["tag"] in ("graphic", "cographic")
        )
    return False


def _pairs(inst: dict):
    from baseswap.exchange import BasisPair

    m = inst["structure"].matroid
    x = BasisPair(inst["x1"], inst["x2"], m)
    y = x.swapped() if inst["mode"] == "gabow" else BasisPair(inst["y1"], inst["y2"], m)
    return m, x, y


def check_sequence(obj: dict, steps: list, report=None) -> dict:
    """Replay ``steps`` (label pairs) from a freshly parsed pair.

    Checks the target is reached, F is never touched, length and width stay
    within the mode's bounds, and for reversals exactly r strictly monotone
    steps ending on ``last``.  Raises WrongAnswer; the checks are explicit so
    they also run under ``python -O``.
    """
    from baseswap.exchange import ExchangeSequence, SequenceValidationError, apply_and_validate
    from baseswap.io import parse_instance

    fresh = parse_instance(obj)
    labels = fresh["labels"]
    m, x, y = _pairs(fresh)
    mode = fresh["mode"]
    forbidden = fresh["forbidden"] if mode == "white" else frozenset()
    ids = [(labels.id(e), labels.id(f)) for e, f in steps]
    for k, (e, f) in enumerate(ids):
        if e in forbidden or f in forbidden:
            raise WrongAnswer(f"step {k} uses a forbidden element")
    try:
        final = apply_and_validate(x, ExchangeSequence(ids), forbidden)
    except SequenceValidationError as err:
        raise WrongAnswer(f"replay failed: {err}") from None
    if final.first != y.first or final.second != y.second:
        raise WrongAnswer("sequence does not reach the target pair")
    r = m.full_rank
    c = 1 if graphic_run(obj) else 2
    bound_length = r if mode == "gabow" else max(r, c * r * r)
    bound_width = max(1, 2 * c * (r - 1)) if r else 0
    occurrences = Counter(z for step in ids for z in step)
    length, width = len(ids), max(occurrences.values(), default=0)
    if length > bound_length:
        raise WrongAnswer(f"length {length} exceeds the bound {bound_length}")
    if width > bound_width:
        raise WrongAnswer(f"width {width} exceeds the bound {bound_width}")
    if mode == "gabow":
        if length != r:
            raise WrongAnswer(f"reversal takes {length} steps, rank is {r}")
        first, second = x.first, x.second
        for k, (e, f) in enumerate(ids):
            if e not in first - y.first or f not in second - y.second:
                raise WrongAnswer(f"reversal step {k} is not strictly monotone")
            first, second = first - {e} | {f}, second - {f} | {e}
        last = fresh["last"]
        if last is not None and ids and last not in ids[-1]:
            raise WrongAnswer("designated last element is not in the final step")
    if report is not None and (
        report.rank != r
        or report.bound_length != bound_length
        or report.bound_width != bound_width
    ):
        raise WrongAnswer("report's rank or bounds disagree with the instance")
    return {"length": length, "width": width, "bound_length": bound_length, "bound_width": bound_width}


def _label_steps(labels, seq) -> list:
    return [(labels.label(s.e), labels.label(s.f)) for s in seq]


# -- operations --------------------------------------------------------------------


def run_op(item: dict):
    """Parse, then time one library call.  Returns (inst, result, error, s).

    Garbage left by earlier ops is collected first, as if each op ran in a
    fresh process like ``baseswap solve``: otherwise two ops' rank caches can
    be alive at once, and peak RSS and collection pauses depend on timing."""
    from baseswap.io import parse_instance
    from baseswap.pipeline import solve_gabow, solve_white

    gc.collect()
    inst = parse_instance(item["obj"])
    _, x, y = _pairs(inst)
    t0 = time.perf_counter()
    try:
        if inst["mode"] == "gabow":
            result = solve_gabow(inst["structure"], x, last=inst["last"], bfs_cap=BFS_CAP)
        else:
            result = solve_white(
                inst["structure"], x, y, forbidden=inst["forbidden"], bfs_cap=BFS_CAP
            )
        error = None
    except Exception as exc:  # a raised library error counts as a failed op
        result, error = None, exc
    return inst, result, error, time.perf_counter() - t0


def gate(item: dict, inst: dict, result) -> dict:
    """Check one answer; returns the label-mapped steps and quality figures.
    Where the item carries a certified distance, the solve may not be
    shorter, and may not exist when the oracle finds the target unreachable."""
    steps = _label_steps(inst["labels"], result.sequence)
    info = {"steps": steps, **check_sequence(item["obj"], steps, result)}
    if "expect" in item:
        if item["expect"] is None:
            raise WrongAnswer("solved an instance whose target the oracle finds unreachable")
        if info["length"] < item["expect"]:
            raise WrongAnswer(f"solve of length {info['length']} beats the certified {item['expect']}")
    return info


def seq_digest(steps_by_name: dict) -> str:
    text = json.dumps(sorted(steps_by_name.items()), separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- the pass ----------------------------------------------------------------------


class PassRecord:
    def __init__(self):
        self.attempted = 0
        self.ok = 0
        self.op_seconds = 0.0
        self.items = {}  # item name -> item
        self.times = {}  # item name -> op seconds
        self.failures = {}  # item name -> error text
        self.steps = {}  # item name -> label-mapped steps (None when it raised)
        self.quality = {}  # item name -> gate info of a successful op
        self.rss_peaks = []  # (ru_maxrss MB, item name) each time an op raised it


def run_pass(items, record, tracer=None, on_op=None):
    """One op per item, in order, each gated as it returns."""
    for item in items:
        name = item["name"]
        if tracer is not None:
            tracer.active = True
        inst, result, error, dt = run_op(item)
        if tracer is not None:
            tracer.active = False
        record.attempted += 1
        record.op_seconds += dt
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if not record.rss_peaks or rss > record.rss_peaks[-1][0]:
            record.rss_peaks.append((rss, name))
        record.items[name] = item
        record.times[name] = dt
        steps = None
        if error is None:
            info = gate(item, inst, result)
            steps = info.pop("steps")
        record.steps[name] = steps
        if error is not None:
            record.failures[name] = f"{type(error).__name__}: {error}"
        else:
            record.ok += 1
            record.quality[name] = info
        if on_op is not None:
            on_op(item, result)


# -- statistics --------------------------------------------------------------------


def tail(times: list):
    """Highest percentile with at least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(0, n - TAIL_BEYOND - 1)
    return ordered[k], 100.0 * (k + 1) / n, n


def setup_sample(path: Path) -> float:
    """One fresh-interpreter set-up time for the instances in ``path``."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), str(path)],
        env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True,
        timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


# -- the two kinds of run ----------------------------------------------------------


def end_to_end(workload, seed, seconds, items, digest):
    # set-up is sampled at even steps through the pass, so its median spans
    # the run rather than one moment of a host whose speed drifts; one
    # untimed warm-up first leaves compiled bytecode, as an install would
    instances = OUT / f"instances-{workload}-s{seed}.json"
    instances.write_text(json.dumps([it["obj"] for it in items]), encoding="utf-8")
    setup_sample(instances)
    setup = [setup_sample(instances)]
    due = [len(items) * (k + 1) // (SETUP_SAMPLES - 1) for k in range(SETUP_SAMPLES - 1)]
    done = [0]

    def on_op(item, result):
        done[0] += 1
        while due and done[0] >= due[0]:
            due.pop(0)
            setup.append(setup_sample(instances))

    record = PassRecord()
    wall0 = time.perf_counter()
    run_pass(items, record, on_op=on_op)
    wall = time.perf_counter() - wall0
    instances.unlink()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ratios_len, ratios_width = [], []
    for name, info in sorted(record.quality.items()):
        if record.items[name]["obj"]["mode"] == "white":
            ratios_len.append(info["length"] / info["bound_length"])
            ratios_width.append(info["width"] / info["bound_width"])

    ok_times = {name: dt for name, dt in record.times.items() if name not in record.failures}
    by_case = defaultdict(list)
    for name, dt in ok_times.items():
        by_case[record.items[name]["case"]].append(dt)
    tail_s, tail_pct, tail_n = tail(list(ok_times.values()))
    fail_ratio = len(record.failures) / record.attempted
    encodings = graph_encoding_cases(record) if workload == "binary" else {}

    metrics = {
        "ops_per_s": (len(ok_times) / record.op_seconds, "ops/s"),
        "op_s.p50": (statistics.median(ok_times.values()), "s"),
        "op_s.tail": (tail_s, "s"),
        "setup_s": (statistics.median(setup), "s"),
        "ok_ratio": (1.0 - fail_ratio, "ok/attempted"),
        "length_ratio": (statistics.fmean(ratios_len), "ratio"),
        "width_ratio": (statistics.fmean(ratios_width), "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    details = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "instances": len(items), "digest": digest,
        "sequence_digest": seq_digest(record.steps),
        "attempted": record.attempted, "failed": record.attempted - record.ok,
        "fail_ratio": fail_ratio, "op_seconds": record.op_seconds, "wall_seconds": wall,
        "op_s.tail": {"percentile": tail_pct, "samples": tail_n, "beyond": TAIL_BEYOND},
        "setup_samples": setup,
        "white_solves": len(ratios_len),
        "width_ratio_max": max(ratios_width),
        "case_p50": {case: {"p50_s": statistics.median(ts), "ok": len(ts)} for case, ts in sorted(by_case.items())},
        "failures": record.failures, "graph_encodings": encodings,
        "rss_peaks": record.rss_peaks[-5:],
        "solves": record.quality, "op_times": record.times,
    }
    return record, metrics, details


def graph_encoding_cases(record: PassRecord) -> dict:
    """Solve the graph encoding of every GF(2) instance once, gated, outside
    the metrics.  Per case: median gf2 and graph op times over
    the instances both encodings solve, and their ratio."""
    gf2_times, graph_times = defaultdict(list), defaultdict(list)
    failures = {}
    for name, item in sorted(record.items.items()):
        if "graph_obj" not in item:
            continue
        ref = dict(item, obj=item["graph_obj"])
        inst, result, error, dt = run_op(ref)
        if error is not None:
            failures[f"{name} (graph)"] = f"{type(error).__name__}: {error}"
            continue
        gate(ref, inst, result)
        if name not in record.failures:
            gf2_times[item["case"]].append(record.times[name])
            graph_times[item["case"]].append(dt)
    cases = {}
    for case in sorted(gf2_times):
        gf2, graph = statistics.median(gf2_times[case]), statistics.median(graph_times[case])
        cases[case] = {"gf2_p50_s": gf2, "graph_p50_s": graph, "gf2_over_graph": gf2 / graph,
                       "instances": len(gf2_times[case])}
    return {"cases": cases, "failures": failures}


def traced(workload, seed, items, digest):
    import tracer as tracing

    # one untraced and one traced pass: per-layer figures are counts and
    # self times of the traced one
    plain = PassRecord()
    run_pass(items, plain)

    tr = tracing.Tracer()
    traced_rec = PassRecord()
    entries = [0]
    kinds = Counter()
    case_self = defaultdict(lambda: defaultdict(float))
    before = {}

    def on_op(item, result):
        snap = tr.snapshot()
        for key, value in snap.items():
            if key.endswith(".self_s"):
                case_self[item["case"]][key] += value - before.get(key, 0.0)
        before.clear()
        before.update(snap)
        if result is not None:
            for node in result.trace.flatten():
                kinds[node.kind] += 1
        entries[0] = max(entries[0], tracing.live_rank_cache_entries())

    tr.install()
    try:
        run_pass(items, traced_rec, tracer=tr, on_op=on_op)
    finally:
        tr.uninstall()

    correct = True
    problems = []
    if plain.steps != traced_rec.steps:
        correct = False
        problems.append("traced sequences differ from untraced ones")
    snap = tr.snapshot()
    self_times = {k[: -len(".self_s")]: v for k, v in snap.items() if k.endswith(".self_s")}
    top = max(self_times, key=self_times.get)
    by_layer = defaultdict(float)
    for name, value in self_times.items():
        by_layer[name.split(".", 1)[0]] += value
    top_layer = max(by_layer, key=by_layer.get)
    untraced_ops = plain.ok / plain.op_seconds
    traced_ops = traced_rec.ok / traced_rec.op_seconds
    extra = {
        "matroid.rank_cache.entries": float(entries[0]),
        "trace.ops_per_s.traced": traced_ops,
        "trace.ops_per_s.untraced": untraced_ops,
        "trace.overhead_ratio": traced_ops / untraced_ops,
        "trace.top_self_share": self_times[top] / traced_rec.op_seconds,
    }
    for kind in tracing.TRACE_KINDS:
        extra[f"pipeline.trace.{kind}"] = kinds[kind]
    values = tracing.per_layer_values(snap, extra)
    predictions = check_predictions(workload, values, case_self)

    OUT.mkdir(exist_ok=True)
    span_path = OUT / f"spans-{workload}-s{seed}.jsonl"
    with span_path.open("w", encoding="utf-8") as fh:
        for span in tr.spans:
            fh.write(json.dumps(span) + "\n")
    details = {
        "workload": workload, "seed": seed, "digest": digest,
        "sequence_digest": seq_digest(traced_rec.steps),
        "top_self": {"name": top, "self_s": self_times[top]},
        "layer_self_s": dict(sorted(by_layer.items(), key=lambda kv: -kv[1])),
        "top_layer": top_layer,
        "overhead": {"traced_ops_per_s": traced_ops, "untraced_ops_per_s": untraced_ops},
        "predictions": predictions, "problems": problems,
        "spans": len(tr.spans), "dropped_spans": tr.dropped_spans, "span_file": span_path.name,
        "self_s_by_case": {c: dict(sorted(v.items(), key=lambda kv: -kv[1])[:5]) for c, v in case_self.items()},
        "failures": traced_rec.failures,
    }
    attempted = plain.attempted + traced_rec.attempted
    ok = plain.ok + traced_rec.ok
    return correct, attempted, attempted - ok, values, details


def check_predictions(workload, values, case_self) -> list:
    """The routing each workload was chosen for; a failed one is reported."""
    out = []
    if workload == "graphic":
        for key in ("matroid.rank.calls.SumMatroid", "matroid.rank.calls.Gf2Matroid", "exchange.bfs_oracle.calls"):
            out.append({"prediction": f"{key} == 0", "holds": values[key] == 0, "value": values[key]})
    elif workload == "sums":
        for case in ("remark/n68/white", "remark/n68/gabow"):
            selfs = case_self.get(case, {})
            top = max(selfs, key=selfs.get) if selfs else None
            out.append({
                "prediction": f"matroid.rank.SumMatroid has the largest self time on {case}",
                "holds": top == "matroid.rank.SumMatroid.self_s", "value": top,
            })
    elif workload == "binary":
        key = "graphic.solve_graphic_white.calls"
        calls = values[key] + values["graphic.solve_graphic_gabow.calls"]
        out.append({"prediction": "the graph solver gets no calls", "holds": calls == 0, "value": calls})
        out.append({"prediction": "R10 reaches the BFS", "holds": values["pipeline.trace.bfs"] > 0, "value": values["pipeline.trace.bfs"]})
    return out


# -- output ------------------------------------------------------------------------


def _fmt(value) -> str:
    return f"{value:.6g}"


def run_one(args) -> int:
    _import_library()
    import workloads

    items = workloads.build(args.workload, args.seed)
    digest = workloads.digest(items)
    # the items stay alive for the whole run; freezing them keeps the
    # collection before each op from rescanning them
    gc.collect()
    gc.freeze()
    OUT.mkdir(exist_ok=True)
    correct = True
    try:
        if args.trace:
            correct, attempted, failed, values, details = traced(args.workload, args.seed, items, digest)
            import tracer as tracing

            metrics = {name: values[name] for name in tracing.per_layer_names()}
            units = {name: _unit(name) for name in metrics}
        else:
            record, mvals, details = end_to_end(args.workload, args.seed, args.seconds, items, digest)
            metrics = {k: v for k, (v, _) in mvals.items()}
            units = {k: u for k, (_, u) in mvals.items()}
            attempted, failed = record.attempted, record.attempted - record.ok
    except WrongAnswer as err:
        print(f"WRONG ANSWER: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    _print_human(args, details, metrics, units)
    details["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    details["correct"] = correct
    result_path = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    result_path.write_text(json.dumps(details, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def _unit(name: str) -> str:
    if name.endswith("self_s") or ".self_s." in name:
        return "s"
    if "ratio" in name or name.endswith("share"):
        return "ratio"
    if name.startswith("trace.ops_per_s"):
        return "ops/s"
    return "count"


def _print_human(args, details, metrics, units) -> None:
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  digest {details['digest'][:16]}")
    if not args.trace:
        print(f"  instances {details['instances']}  "
              f"attempted {details['attempted']}  op time {details['op_seconds']:.2f} s  "
              f"wall {details['wall_seconds']:.2f} s")
        for name, value in metrics.items():
            note = ""
            if name == "op_s.tail":
                t = details["op_s.tail"]
                note = f"  (p{t['percentile']:.1f} of {t['samples']} samples)"
            print(f"  {name:<14} {_fmt(value):>12} {units[name]}{note}")
        print(f"  {'fail_ratio':<14} {_fmt(details['fail_ratio']):>12} failed/attempted")
        print("  op_s.p50 per case:")
        for case, info in details["case_p50"].items():
            print(f"    {case:<32} {_fmt(info['p50_s']):>10} s  ({info['ok']} ok)")
        print(f"  {'width max':<14} {_fmt(details['width_ratio_max']):>12} ratio  "
              f"(over {details['white_solves']} white solves)")
        enc = details["graph_encodings"]
        if enc:
            print("  graph encodings of the GF(2) instances (solved once, not in the metrics):")
            for case, info in enc["cases"].items():
                print(f"    {case:<32} gf2 {_fmt(info['gf2_p50_s'])} s  graph "
                      f"{_fmt(info['graph_p50_s'])} s  gf2/graph {info['gf2_over_graph']:.1f}  "
                      f"({info['instances']} solved in both)")
            for name, err in sorted(enc["failures"].items()):
                print(f"    failed: {name}: {err}")
    else:
        layers = details["layer_self_s"]
        print(f"  layer with the largest self time: {details['top_layer']} "
              f"({_fmt(layers[details['top_layer']])} s); "
              f"top name {details['top_self']['name']} "
              f"({_fmt(details['top_self']['self_s'])} s)")
        o = details["overhead"]
        print(f"  tracing overhead: traced/untraced ops_per_s = "
              f"{_fmt(o['traced_ops_per_s'])}/{_fmt(o['untraced_ops_per_s'])} = "
              f"{_fmt(o['traced_ops_per_s'] / o['untraced_ops_per_s'])}")
        for p in details["predictions"]:
            print(f"  prediction {'holds' if p['holds'] else 'FAILS'}: {p['prediction']} (value {p['value']})")
        for problem in details["problems"]:
            print(f"  PROBLEM: {problem}")
    for name, err in sorted(details["failures"].items()):
        print(f"  failed: {name}: {err}")


def run_all(args) -> int:
    """Each workload in its own fresh process, then a summary table."""
    from workloads import WORKLOADS

    results = {}
    code = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    names = list(next(iter(results.values()))["metrics"])
    print(f"{'metric':<16}" + "".join(f"{w:>14}" for w in results))
    for name in names:
        row = "".join(f"{_fmt(results[w]['metrics'].get(name, {}).get('value', float('nan'))):>14}" for w in results)
        print(f"{name:<16}{row}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r.get("attempted", 0) for r in results.values()),
        "failed": sum(r.get("failed", 0) for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["graphic", "binary", "sums", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
