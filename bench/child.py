"""One cold interpreter running one in-process mix (or only its set-up).

    python3 bench/child.py MODE WORKLOAD SEED SECONDS SPAWNED_AT [ROUNDS SPANS | INPUTS]

MODE is `setup` (import the package, draw the inputs, stop; the CLI
workload writes its input files to INPUTS), `run` (the
timed phase, then the result checks) or `trace` (the timed phase under the
span tracer, replaying exactly ROUNDS warm rounds, spans written to SPANS).
No round starts after SECONDS (normalised, see calib.py), and every round
runs whole.
SPAWNED_AT is the parent's `time.perf_counter()` just before the spawn; on
Linux it is the system-wide monotonic clock, so set-up time counts
interpreter start-up.  The last stdout line is one JSON object.
"""
import contextlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calib  # noqa: E402


def _setup(workload, seed, spawned_at, inputs_dir=None):
    """Import the package and draw the inputs (for the CLI, write its input
    files to `inputs_dir`); no library computation."""
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import wittburnside
    import workloads

    if workload == "cli-session":
        import cli_session

        data = cli_session.write_inputs(seed, inputs_dir)
    else:
        data = workloads.generate(workload, seed)
    setup_s = time.perf_counter() - spawned_at
    return wittburnside, workloads, data, setup_s


def _timed(session, data, seconds, rounds_wanted, tracer):
    """First touch, then whole warm rounds until `seconds` have passed (at
    least one), or exactly `rounds_wanted` rounds.  Returns normalised
    timings (see calib.py) and every result.

    The traced run takes no timer marks, so that no library span holds
    loop time: it marks between calls instead."""
    pc = time.perf_counter
    cal = calib.Calibrator()
    results, failed_ops, runs = {}, [], {}
    first, warm, round_spans = [], [], []

    def call(key, spec, into):
        runs[key] = runs.get(key, 0) + 1
        t = pc()
        try:
            out = session.run(spec)
        except Exception as e:  # a failing operation is counted, not fatal
            failed_ops.append((key, repr(e)))
            out = None
        into.append((t, pc()))
        if tracer and pc() - cal.ends[-1] >= calib.INTERVAL_S:
            cal.mark()  # between calls, where no library span is open
        if out is None:
            return
        if key not in results:
            results[key] = out
        elif results[key] != out:
            failed_ops.append((key, "result differs from the same call earlier"))

    if tracer:
        cal.mark()
        tracer.root_begin()
    with contextlib.nullcontext() if tracer else cal.sampling():
        t0 = pc()
        for i, spec in enumerate(data["first"]):
            call(("f", i), spec, first)
        warm_start = pc()
        rounds = data["rounds"]
        done = 0
        # the window is measured in normalised seconds, so that the number of
        # rounds does not follow the machine's drift
        while (done < rounds_wanted) if rounds_wanted is not None else (
                not done or cal.norm(warm_start, pc()) < seconds):
            r = done % len(rounds)
            start = pc()
            for j, spec in enumerate(rounds[r]):
                call((r, j), spec, warm)
            round_spans.append((start, pc()))
            done += 1
        t1 = pc()
    if tracer:
        tracer.root_end()
        cal.mark()
    return {"wall_s": cal.norm(t0, t1),
            "first_touch_s": sum(cal.norm(a, b) for a, b in first),
            "rounds": done, "round_s": [cal.norm(a, b) for a, b in round_spans],
            "lat": [cal.norm(a, b) for a, b in warm], "loop_s": cal.raw_loop_s(),
            "attempted": sum(runs.values()), "results": results,
            "failed_ops": failed_ops, "runs": runs}


def _check(session, workloads, data, t):
    """Check every result (computing the rounds the window did not reach) and
    digest them; returns the number of failed executions."""
    results = t["results"]
    bad = {key for key, _ in t["failed_ops"]}
    specs = [(("f", i), s) for i, s in enumerate(data["first"])]
    for r, rnd in enumerate(data["rounds"]):
        specs += [((r, j), s) for j, s in enumerate(rnd)]
    canon = []
    for key, spec in specs:
        try:
            out = results[key] if key in results else session.run(spec)
            ok = session.check(spec, out)
            canon.append(workloads.canonical(out))
        except Exception as e:
            ok = False
            canon.append(f"error: {e!r}")
        if not ok:
            bad.add(key)
    # a failed operation counts once per execution in the timed phase
    failed = sum(t["runs"].get(k, 0) for k in bad)
    return failed, workloads.digest(canon), sorted(map(str, bad))[:10]


def main(argv):
    mode, workload, seed, seconds, spawned_at = argv[:5]
    inputs_dir = argv[5] if mode == "setup" and len(argv) > 5 else None
    wb, workloads, data, setup_s = _setup(workload, int(seed), float(spawned_at), inputs_dir)
    out = {"setup_s": setup_s, "input_digest": workloads.digest(data)}
    if mode == "setup":
        print(json.dumps(out))
        return 0
    session = workloads.Session(wb)
    tracer = None
    rounds_wanted = None
    if mode == "trace":
        import spans

        rounds_wanted = int(argv[5])
        tracer = spans.Tracer()
        tracer.install()
    t = _timed(session, data, float(seconds), rounds_wanted, tracer)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    lat = t["lat"]
    deciles = statistics.quantiles(lat, n=10, method="inclusive") if len(lat) > 1 else [0] * 9
    warm_s = sum(t["round_s"])
    out.update(wall_s=t["wall_s"], first_touch_s=t["first_touch_s"], rounds=t["rounds"],
               round_s=t["round_s"], warm_ops=len(lat),
               warm_ops_per_s=len(lat) / warm_s if warm_s else 0.0,
               op_p50_ms=deciles[4] * 1e3, op_p90_ms=deciles[8] * 1e3,
               attempted=t["attempted"], loop_s=t["loop_s"])
    if tracer:
        tracer.dump(argv[6])
        print(json.dumps(out))
        return 0
    failed, result_digest, examples = _check(session, workloads, data, t)
    out.update(failed=failed, result_digest=result_digest, failed_examples=examples)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
