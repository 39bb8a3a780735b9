"""invseq benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload transfer --seed 1 --seconds 10 --trace 0

Run from the root of a checkout of the repository; the package is
imported from ``src/`` with nothing installed or built.  The run

1. times ``import invseq.cli`` plus ``build_parser()`` in fresh
   interpreters (``setup_s``, the median of SETUP_SAMPLES);
2. replays the workload's seeded requests through ``invseq.cli.main`` in
   a serving process that does nothing else (serve.py), one request at a
   time, capturing stdout; request times are scaled by the calibration
   kernel timed next to each request (calibrate.py);
3. with ``--trace 1``, replays the same requests again in a second,
   traced serving process, and writes its spans to
   ``bench/out/spans-<workload>-<seed>.tsv``;
4. checks every reply (checks.py), outside any timed region;
5. prints each metric by name with its unit, and as its last line one
   JSON object: end-to-end metrics with ``--trace 0``, per-layer ones
   with ``--trace 1``.

A request fails when an exception escapes ``main``, when it exits
nonzero, when a verify check does not report OK, or when its stdout
does not match the reference.  ``correct`` is false only if some request
completed with a wrong reply; requests that crash count in ``failed``.
Latency percentiles rank failed requests above every success.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150

sys.path.insert(0, HERE)
import calibrate  # noqa: E402
import workloads  # noqa: E402

SETUP_CODE = ("import time; t = time.perf_counter(); import invseq.cli; "
              "invseq.cli.build_parser(); t = time.perf_counter() - t; "
              "import calibrate; print(t, calibrate.sample())")


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE, env.get("PYTHONPATH", "")])
    return env


def measure_setup():
    """Median seconds of import plus parser construction, each sample in
    a fresh interpreter; one unrecorded run first fills the bytecode cache."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], env=_env(),
                             capture_output=True, text=True, timeout=60,
                             check=True).stdout
        if i:
            t, cal = map(float, out.split())
            samples.append((t, t * calibrate.REFERENCE_S / cal))
    return (statistics.median(s for s, _ in samples),
            statistics.median(s for _, s in samples))


def serve(argvs, trace):
    """Run the requests in a fresh serving process; its per-request
    records and its final record."""
    job = json.dumps({"src": SRC, "trace": trace, "argvs": argvs})
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "serve.py")],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=_env(), text=True)
    try:
        out, _ = proc.communicate(job, timeout=CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError("serving process exited with status %d" % proc.returncode)
    records = [json.loads(line) for line in out.splitlines()]
    final = records.pop()
    if not final.get("done") or len(records) != len(argvs):
        raise RuntimeError("serving process stopped early")
    for r in records:
        r["ref_s"] = r["s"] * calibrate.REFERENCE_S / r["cal"]
    return records, final


def percentile(sorted_values, p):
    """Nearest-rank percentile, and how many samples lie beyond it."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def classify(requests, records, checker):
    """Per request: None when it succeeded, else (category, reason)."""
    out = []
    for req, rec in zip(requests, records):
        reason = checker.check(req, rec)
        if reason is None:
            out.append(None)
        elif rec["exc"] or (rec["rc"] != 0 and not (
                req["kind"] == "verify" and rec["rc"] == 1)):
            out.append(("error", reason))
        else:
            out.append(("wrong", reason))
    return out


def end_to_end(records, verdicts, final, setup):
    """End-to-end metrics, and figures printed beside them."""
    n = len(records)
    raw_setup, setup_s = setup
    busy = sum(r["ref_s"] for r in records)
    ok = sum(v is None for v in verdicts)
    ranked = sorted(r["ref_s"] * 1e3 if v is None else math.inf
                    for r, v in zip(records, verdicts))
    p50, beyond50 = percentile(ranked, 50)
    p90, beyond90 = percentile(ranked, 90)
    metrics = {
        "setup_s": (setup_s, "s", "median of %d fresh interpreters" % SETUP_SAMPLES),
        "ops_per_s": (ok / busy, "1/s", "%d correct replies in %.3f s of requests"
                      % (ok, busy)),
        "latency_p50_ms": (p50, "ms", "%d samples, %d beyond" % (n, beyond50)),
        "latency_p90_ms": (p90, "ms", "%d samples, %d beyond" % (n, beyond90)),
        "peak_rss_mb": (final["peak_rss_kb"] / 1024, "MB", "serving process"),
    }
    info = {
        "error_rate": ((n - ok) / n, "ratio", "%d of %d requests failed" % (n - ok, n)),
        "unscaled_busy_s": (sum(r["s"] for r in records), "s", "before calibration"),
        "unscaled_setup_s": (raw_setup, "s", "before calibration"),
    }
    return metrics, info


def _self_times(spans, scale):
    """Self time per span name, duration minus direct children, scaled by
    its request's calibration factor."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out = defaultdict(float)
    for i, (name, start, end, _, req) in enumerate(spans):
        out[name] += ((end - start) - child[i]) * scale[req]
    return out


# per-layer share metric -> span name whose self time it reports
SHARE_OF = {
    "cli.self_pct": "cli.main",
    "core.avoids.self_pct": "core.avoids",
    "core.contains.self_pct": "core.contains",
    "core.structure_check_201_210.self_pct": "core.structure_check_201_210",
    "oracle.count_fast.self_pct": "oracle.count_fast",
    "oracle.count_generic.self_pct": "oracle.count_generic",
    "oracle.list_avoiders.self_pct": "oracle.list_avoiders",
    "succession.201-210.self_pct": "succession.201-210",
    "succession.011-201.self_pct": "succession.011-201",
    "succession.010-100-120-210.self_pct": "succession.010-100-120-210",
    "succession.state_profile.self_pct": "succession.state_profile",
    "succession.profile_slices.self_pct": "succession.profile_slices",
    "series.f_coefficients.self_pct": "series.f_coefficients",
    "series.relation_residual.self_pct": "series.relation_residual",
    "series.check_system.self_pct": "series.check_system",
    "series.slice_series.self_pct": "series.slice_series",
    "series.iterate_fe.self_pct": "series.iterate_fe",
}
LAYERS = ("core", "oracle", "succession", "series")
COUNTS = ("oracle.calls", "oracle.nodes", "oracle.candidates",
          "oracle.words_listed", "succession.levels",
          "succession.state_updates", "series.coefficients")
MAXIMA = ("oracle.max_depth", "succession.max_bits")


def per_layer(untraced, traced, final):
    spans = final["spans"]
    self_s = _self_times(spans, [r["ref_s"] / r["s"] for r in traced])
    total = sum(self_s.values())
    calls = defaultdict(int)
    for span in spans:
        calls[span[0]] += 1
    counts, maxima = final["counts"], final["maxima"]
    m = {
        "cli.self_s": (self_s["cli.main"], "s"),
        "cli.stdout_bytes": (sum(len(r["out"].encode()) for r in traced), "bytes"),
        "trace.overhead_s": (sum(r["ref_s"] for r in traced)
                             - sum(r["ref_s"] for r in untraced), "s"),
        "trace.spans": (len(spans), "count"),
    }
    for layer in LAYERS:
        layer_s = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
        m[layer + ".self_pct"] = (100 * layer_s / total, "%")
    for metric, name in SHARE_OF.items():
        m[metric] = (100 * self_s.get(name, 0.0) / total, "%")
    m["core.avoids.calls"] = (calls["core.avoids"], "count")
    m["core.contains.calls"] = (calls["core.contains"], "count")
    m["oracle.errors"] = (counts.get("oracle.count_sequence.errors", 0)
                          + counts.get("oracle.list_avoiders.errors", 0), "count")
    for key in COUNTS:
        m[key] = (counts.get(key, 0), "count")
    for key in MAXIMA:
        m[key] = (maxima.get(key, 0), "count")
    candidates = counts.get("oracle.candidates", 0)
    m["oracle.accept_ratio"] = (counts.get("oracle.accepted", 0) / candidates
                                if candidates else 0.0, "ratio")
    return m, self_s


def write_spans(path, spans):
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write("name\tstart\tend\tparent\trequest\n")
        for name, start, end, parent, req in spans:
            f.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (name, start, end, parent, req))


def _print_failures(requests, verdicts, label):
    by_reason = defaultdict(list)
    for req, v in zip(requests, verdicts):
        if v is not None:
            by_reason[v].append(" ".join(req["argv"]))
    for (category, reason), argvs in sorted(by_reason.items()):
        print("  %s failure x%d (%s): %s" % (label, len(argvs), category, reason))
        for a in argvs[:4]:
            print("      invseq " + a)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=workloads.NOMINAL_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "invseq", "cli.py")):
        print("error: no invseq package under %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks

    requests = workloads.build(args.workload, args.seed, args.seconds)
    argvs = [r["argv"] for r in requests]
    setup_s = None if args.trace else measure_setup()
    records, final = serve(argvs, trace=False)
    passes = [("untraced", records)]
    if args.trace:
        traced, traced_final = serve(argvs, trace=True)
        passes.append(("traced", traced))

    checker = checks.Checker(requests, checks.load_reference())
    verdicts = {label: classify(requests, recs, checker) for label, recs in passes}
    wrong = sum(v is not None and v[0] == "wrong"
                for vs in verdicts.values() for v in vs)
    failed = sum(v is not None for v in verdicts["untraced"])

    print("workload %s, seed %d: %d requests, closed loop, 1 client"
          % (args.workload, args.seed, len(requests)))
    for label, _ in passes:
        _print_failures(requests, verdicts[label], label)
    if args.trace:
        metrics, self_s = per_layer(records, traced, traced_final)
        path = os.path.join(OUT, "spans-%s-%d.tsv" % (args.workload, args.seed))
        write_spans(path, traced_final["spans"])
        print("  spans: %s" % os.path.relpath(path, ROOT))
        if traced_final["unmeasured"]:
            print("  unmeasured (no longer in the package): "
                  + ", ".join(traced_final["unmeasured"]))
        print("  self time by span name:")
        for name, s in sorted(self_s.items(), key=lambda kv: -kv[1]):
            print("    %-34s %10.4f s" % (name, s))
        shown = {k: (v, u, "") for k, (v, u) in metrics.items()}
    else:
        e2e, info = end_to_end(records, verdicts["untraced"], final, setup_s)
        shown = dict(e2e, **info)
        metrics = {k: (v, u) for k, (v, u, _) in e2e.items()}
    for name, (value, unit, note) in shown.items():
        print("  %-40s %14.6g %-6s %s" % (name, value, unit, note))
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(requests),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
