"""The wittburnside benchmark: one seeded workload per call.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each was chosen):
  scalar-mix    one cold interpreter, ring operations over Z, Q, Z/8, integer q
  symbolic-mix  one cold interpreter, the same families over polynomial rings
  cli-session   `python -m wittburnside` subprocesses, strictly one at a time

Load is a closed loop from one process with one caller and no threads.  Each
in-process mix runs in a fresh child interpreter, so the package's caches
start cold.  `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
workload untraced, replays the same work under the span tracer, and prints
the per-layer metrics.  The last stdout line is the JSON result; the lines
before it name every metric with its unit, the provenance and the digests.
"""
import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import calib  # noqa: E402
import cli_session  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
# set-up is measured this many times per run, half before and half after the
# workload so that the samples see two moments of the machine; the median
# is reported
SETUPS = 10


def _env():
    """The fixed, minimal environment of every child: no inherited cache
    directory or stats switch, a fixed hash seed, the checkout's sources."""
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONHASHSEED": "0",
            "PYTHONPATH": os.path.join(ROOT, "src"), "LC_ALL": "C.UTF-8"}


def _provenance(seed):
    sha = "unknown"  # a checkout without .git, or without git installed
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.TimeoutExpired):
            pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "loadavg": os.getloadavg(), "seed": seed}


def _child(mode, workload, seed, seconds, tmp, extra=()):
    """Run bench/child.py once; returns its JSON result, its start and end
    time and its peak RSS."""
    out = os.path.join(tmp, f"child-{mode}-{time.perf_counter_ns()}.json")
    argv = [sys.executable, os.path.join(HERE, "child.py"), mode, workload, str(seed),
            str(seconds), repr(time.perf_counter()), *extra]
    code, t0, t1, rss = cli_session.spawn(argv, _env(), out, 170)
    with open(out, encoding="utf-8") as fh:
        lines = fh.read().strip().splitlines()
    if code != 0 or not lines:
        raise RuntimeError(f"{mode} child of {workload} exited with {code}")
    return json.loads(lines[-1]), t0, t1, rss


def _setup(workload, seed, tmp, count):
    """Set-up, measured `count` times in fresh interpreters: each child's
    set-up time and spawn-to-exit time (normalised, see calib.py) and the
    input digests."""
    times, latencies, digests = [], [], set()
    cal = calib.Calibrator(spawns=True)
    cal.mark()
    for _ in range(count):
        extra = (os.path.join(tmp, "inputs"),) if workload == "cli-session" else ()
        res, start, end, _ = _child("setup", workload, seed, 0, tmp, extra)
        cal.mark()
        times.append(cal.norm(start, start + res["setup_s"]))
        latencies.append(cal.norm(start, end) * 1e3)
        digests.add(res["input_digest"])
    return times, latencies, digests


def _deciles(xs):
    return statistics.quantiles(xs, n=10, method="inclusive") if len(xs) > 1 else xs * 9


def _mix(workload, seed, seconds, tmp, trace):
    res, _, _, rss = _child("run", workload, seed, seconds, tmp)
    metrics = {"wall_s": res["wall_s"], "first_touch_s": res["first_touch_s"],
               "warm_ops_per_s": res["warm_ops_per_s"], "op_p50_ms": res["op_p50_ms"],
               "op_p90_ms": res["op_p90_ms"], "peak_rss_mb": rss}
    report = {"rounds": res["rounds"], "warm_ops": res["warm_ops"],
              "calibration_loop_ms": res["loop_s"] * 1e3,
              "result_digest": res["result_digest"], "failed_examples": res["failed_examples"]}
    layers = None
    if trace:
        path = os.path.join(tmp, "mix.spans")
        traced = _child("trace", workload, seed, seconds, tmp, (str(res["rounds"]), path))[0]
        layers = _layers(spans.load(path), traced["wall_s"], res["wall_s"])
        layers.update(_spawn_probe(tmp))
        # the cache numbers of the CLI session do not exist in process
        for key in ("cli.hit_ms_p50", "cli.nocache_ms_p50", "cli.miss_ms_p50",
                    "cli.cache_hits", "cli.cache_misses", "cli.cache_bytes_written"):
            layers[key] = 0
    return metrics, res["attempted"], res["failed"], report, layers


def _cli(seed, seconds, tmp, trace, wb):
    inputs = os.path.join(tmp, "inputs")
    records, wall, rounds = cli_session.run(sys.executable, _env(), inputs, tmp, seconds)
    lat = [r["seconds"] * 1e3 for r in records]
    d = _deciles(lat)
    # set-up and warm-up children ran before this point; each CLI child's
    # own peak comes from wait4
    metrics = {"wall_s": wall, "cli_p50_ms": d[4], "cli_p90_ms": d[8],
               "peak_rss_mb": max(r["rss_mb"] for r in records)}
    # the mix metrics, read for the CLI: a "first touch" is a cache miss, the
    # warm stream is everything else
    miss = [r for r in records if r["new_files"]]
    warm = [r for r in records if not r["new_files"]]
    wd = _deciles([r["seconds"] * 1e3 for r in warm])
    metrics.update(first_touch_s=sum(r["seconds"] for r in miss) / rounds,
                   warm_ops_per_s=len(warm) / sum(r["seconds"] for r in warm),
                   op_p50_ms=wd[4], op_p90_ms=wd[8])
    bad = cli_session.check(records, wb)
    digest_src = []
    for r in records:
        with open(r["out"], "rb") as fh:
            digest_src.append(fh.read().decode("utf-8", "replace"))
    report = {"rounds": rounds, "invocations": len(records), "misses": len(miss),
              "result_digest": workloads.digest(digest_src),
              "failed_examples": [f"{records[n]['argv']}: {why}" for n, why in
                                  sorted(bad.items())[:10]]}
    layers = None
    if trace:
        layers = _cli_layers(records, rounds, wall, inputs, tmp)
    return metrics, len(records), len(bad), report, layers


def _cli_layers(records, rounds, wall, inputs, tmp):
    """Replay the session under the traced bootstrap; merge every child's
    spans under a span for its invocation."""
    spans_dir = os.path.join(tmp, "cli-spans")
    os.makedirs(spans_dir)
    traced, t_wall, _ = cli_session.run(sys.executable, _env(), inputs, tmp, 0, rounds, spans_dir)
    t0, t1 = traced[0]["start"], traced[-1]["end"]
    merged = {"names": [spans.ROOT_LAYER, spans.PROCESS_LAYER],
              "layers": [spans.ROOT_LAYER, spans.PROCESS_LAYER],
              "fid": [0], "start": [t0], "end": [t1], "parent": [-1],
              "hits": {}, "first_s": {}, "terms": 0}
    for n, rec in enumerate(traced):
        merged["fid"].append(1)
        merged["start"].append(rec["start"])
        merged["end"].append(rec["end"])
        merged["parent"].append(0)
        spans.merge(merged, spans.load(os.path.join(spans_dir, f"{n}.spans")),
                    len(merged["start"]) - 1)
    layers = _layers(merged, t_wall, wall)
    kinds = {"hit": [], "nocache": [], "miss": []}
    for r in records:
        kind = "miss" if r["new_files"] else ("hit" if r["kind"] in ("hit", "same") else "nocache")
        kinds[kind].append(r["seconds"] * 1e3)
    for kind, xs in kinds.items():
        layers[f"cli.{kind}_ms_p50"] = statistics.median(xs) if xs else 0.0
    layers["cli.cache_hits"] = len(kinds["hit"])
    layers["cli.cache_misses"] = len(kinds["miss"])
    layers["cli.cache_bytes_written"] = sum(r["bytes_written"] for r in records)
    layers.update(_spawn_probe(tmp))
    return layers


def _layers(span_data, traced_wall, untraced_wall):
    """Per-layer numbers of a traced run; their self times must add up to its
    traced wall time."""
    out, wall, total = spans.layer_metrics(span_data)
    if abs(total - wall) > 1e-6 * wall:
        raise RuntimeError(f"self times add up to {total} s, traced wall is {wall} s")
    out["trace.wall_s"] = wall
    out["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    return out


def _spawn_probe(tmp, repeats=5):
    """Normalised median time of a bare interpreter and of one that imports
    the package."""
    out = {}
    cal = calib.Calibrator()
    cal.mark()
    for name, code in (("cli.spawn_ms", "pass"), ("cli.import_ms", "import wittburnside")):
        times = []
        for _ in range(repeats):
            rc, t0, t1, _ = cli_session.spawn([sys.executable, "-c", code], _env(),
                                              os.path.join(tmp, "probe.out"), 60)
            cal.mark()
            if rc != 0:
                raise RuntimeError(f"python -c {code!r} exited with {rc}")
            times.append(cal.norm(t0, t1) * 1e3)
        out[name] = statistics.median(times)
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for name in ("WB_CACHE_DIR", "WB_STATS"):  # the in-process checks must not see them
        os.environ.pop(name, None)
    if not os.path.isfile(os.path.join(ROOT, "src", "wittburnside", "__init__.py")):
        print(f"no wittburnside sources under {ROOT}/src", file=sys.stderr)
        return 2
    # one CPU for the harness and every child it starts, so that the
    # calibration loop and the work it normalises share a core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    prov = _provenance(args.seed)
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_tmp"))
    try:
        # compile the package's bytecode once, outside every measurement
        cli_session.spawn([sys.executable, "-c", "import wittburnside"], _env(),
                          os.path.join(tmp, "warmup.out"), 60)
        setup_s, setup_ms, digests = _setup(args.workload, args.seed, tmp, SETUPS // 2)
        if args.workload == "cli-session":
            sys.path.insert(0, os.path.join(ROOT, "src"))
            import wittburnside

            metrics, attempted, failed, report, layers = _cli(
                args.seed, args.seconds, tmp, args.trace, wittburnside)
        else:
            metrics, attempted, failed, report, layers = _mix(
                args.workload, args.seed, args.seconds, tmp, args.trace)
        more = _setup(args.workload, args.seed, tmp, SETUPS - SETUPS // 2)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    setup_s += more[0]
    setup_ms += more[1]
    if len(digests | more[2]) != 1:
        raise RuntimeError("the same seed gave different inputs")
    metrics["setup_s"] = statistics.median(setup_s)
    if args.workload != "cli-session":
        # the only processes an in-process mix starts besides its run are its
        # set-up children (start, import, draw inputs, exit): their latency is
        # the mix's cli_p50_ms and cli_p90_ms
        d = _deciles(setup_ms)
        metrics.update(cli_p50_ms=d[4], cli_p90_ms=d[8])
    input_digest = digests.pop()
    metrics["fail_frac"] = failed / attempted
    report.update(provenance=prov, workload=args.workload, input_digest=input_digest,
                  attempted=attempted, failed=failed)
    print("report " + json.dumps(report, sort_keys=True))
    # every metric BENCHMARK.json lists, by name and unit; fail_frac is 0 when
    # all is well, so it is printed here but not listed there
    shown = {}
    for m in _SPEC["end_to_end"]:
        print(f"{m['name']} {metrics[m['name']]:.6g} {m['unit']}")
        shown[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    print(f"fail_frac {metrics['fail_frac']:.6g} 1")
    if args.trace:
        shown = {}
        for m in _SPEC["per_layer"]:
            print(f"layer {m['name']} {layers[m['name']]:.6g} {m['unit']}")
            shown[m["name"]] = {"value": layers[m["name"]], "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": shown}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
