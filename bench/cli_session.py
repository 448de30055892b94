"""The cli-session workload: `python -m wittburnside` subprocesses, one after
another, on generated JSON files.

Every round starts with a fresh private `WB_CACHE_DIR`, so each round has the
same share of cache misses (derive, then write) whatever the run length.
Seven of a round's 35 invocations are misses that derive something costly
(20 %), so the 90th latency percentile sits inside that population, well
away from the gap below it.  Every cache key repeats within its round, and a
repeat with the same inputs must print the same bytes as the miss before it.
"""
import json
import math
import os
import shutil
import signal
import subprocess
import time

import calib
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETS = 3  # input sets; round k uses set k % SETS

# (file, structure, flavor, ring); group vectors carry their class labels
FILES = (
    ("w_D4_a", "D4", "Witt", "Z"), ("w_D4_b", "D4", "Witt", "Z"),
    ("w_Q8_a", "Q8", "Witt", "Z"), ("w_Q8_b", "Q8", "Witt", "Z"),
    ("w_C12_a", "C12", "Witt", "Z"), ("w_C12_b", "C12", "Witt", "Z"),
    ("w_D6_a", "D6", "Witt", "Z"), ("w_D6_b", "D6", "Witt", "Z"),
    ("w_C6_a", "C6", "Witt", "Z"), ("w_C6_b", "C6", "Witt", "Z"),
    ("n_S3_a", "S3", "Necklace", "Z"), ("n_S3_b", "S3", "Necklace", "Z"),
    ("n_C12", "C12", "Necklace", "Z"), ("n_D4", "D4", "Necklace", "Z"),
    ("n_D6_6a", "D6.6a", "Necklace", "Z"),
    ("a_C12_a", "C12", "Aperiodic", "Z"), ("a_C12_b", "C12", "Aperiodic", "Z"),
    ("cw12_a", "div12", "Witt", "Z"), ("cw12_b", "div12", "Witt", "Z"),
    ("cw8_a", "1..8", "Witt", "Z"), ("cw8_b", "1..8", "Witt", "Z"),
    ("cq6_a", "div6", "Witt", "Q[q]"), ("cq6_b", "div6", "Witt", "Q[q]"),
)

INFO_GROUPS = ("C6", "S3", "D4", "Q8", "C12", "D6")

# one round: (argv after `-m wittburnside`, kind); "@name" is an input file.
# kind "miss" derives and writes; "hit" repeats a cache key of the round;
# "same" also repeats the inputs of the miss and must match it byte for byte
ROUND = (
    (("group", "info", "--group", "{info}"), "nocache"),
    (("witt", "mul", "@w_D4_a", "@w_D4_b"), "miss"),
    (("necklace", "mul", "@n_S3_a", "@n_S3_b"), "nocache"),
    (("witt", "add", "@w_C6_a", "@w_C6_b"), "miss"),
    (("cyclic", "witt", "mul", "@cw12_a", "@cw12_b"), "miss"),
    (("ghost", "@w_D6_a"), "nocache"),
    (("qwitt", "mul", "--q", "2", "@cw8_a", "@cw8_b"), "miss"),
    (("teichmuller", "@w_D4_a"), "nocache"),
    (("universal", "--group", "D4", "--op", "prod"), "hit"),
    (("witt", "mul", "@w_Q8_a", "@w_Q8_b"), "miss"),
    (("aperiodic", "add", "@a_C12_a", "@a_C12_b"), "nocache"),
    (("quniversal", "--op", "prod", "--trunc", "8"), "miss"),
    (("witt", "mul", "@w_D4_b", "@w_D4_a"), "hit"),
    (("ind", "--group", "D6", "--class", "6a", "@n_D6_6a"), "nocache"),
    (("cyclic", "frobenius", "--r", "2", "@cw12_a"), "miss"),
    (("witt", "add", "@w_D6_a", "@w_D6_b"), "miss"),
    (("qwitt", "mul", "--q", "q", "@cq6_a", "@cq6_b"), "miss"),
    (("teichmuller", "--inverse", "@n_D4"), "nocache"),
    (("witt", "mul", "@w_C12_a", "@w_C12_b"), "miss"),
    (("witt", "mul", "@w_D4_a", "@w_D4_b"), "same"),
    (("res", "--group", "D4", "--class", "4a", "@n_D4"), "nocache"),
    (("cyclic", "witt", "mul", "@cw12_a", "@cw12_b"), "same"),
    (("qwitt", "ghost", "--q", "2", "@cw8_a"), "nocache"),
    (("qwitt", "mul", "--q", "2", "@cw8_a", "@cw8_b"), "same"),
    (("theta", "@n_C12"), "nocache"),
    (("witt", "mul", "@w_Q8_a", "@w_Q8_b"), "same"),
    (("qpoly", "P", "--n", "12"), "nocache"),
    (("artinhasse", "--q", "2", "@cw8_a"), "nocache"),
    (("quniversal", "--op", "prod", "--trunc", "8"), "same"),
    (("witt", "add", "@w_D6_a", "@w_D6_b"), "same"),
    (("cyclic", "verschiebung", "--r", "3", "@cw12_a"), "nocache"),
    (("witt", "mul", "@w_C12_a", "@w_C12_b"), "same"),
    (("witt", "add", "@w_C6_a", "@w_C6_b"), "same"),
    (("cyclic", "frobenius", "--r", "2", "@cw12_a"), "same"),
    (("qwitt", "mul", "--q", "q", "@cq6_a", "@cq6_b"), "same"),
)


def _doc(structure, flavor, ring, values):
    if structure in workloads.TRUNC:
        members = list(workloads.TRUNC[structure])
        group, labels = {"cyclic_trunc": members}, members
    else:
        group, labels = structure, list(workloads.LABELS[structure])
    return {"schema_version": 1, "group": group, "flavor": flavor, "ring": ring,
            "components": [_text(ring, v) for v in values[:len(labels)]],
            "labels": labels}


def _text(ring, raw):
    if ring == "Q[q]":
        parts = [f"{c}*q^{e}" if e else str(c) for e, c in enumerate(raw) if c]
        return "+".join(reversed(parts)) or "0"
    return str(raw)


def write_inputs(seed, directory):
    """Draw the input files of every set into `directory`; returns their digest."""
    draw = workloads.Draw("cli-session", seed)
    docs = {}
    for k in range(SETS):
        for name, structure, flavor, ring in FILES:
            size = len(workloads.TRUNC.get(structure) or workloads.LABELS[structure])
            docs[f"r{k}_{name}.json"] = _doc(structure, flavor, ring, draw.vector(ring, size))
    os.makedirs(directory, exist_ok=True)
    for name, doc in docs.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
    return workloads.digest(docs)


def round_argv(k, inputs):
    """The invocations of round k: (argv tail, kind)."""
    out = []
    for argv, kind in ROUND:
        tail = []
        for a in argv:
            if a.startswith("@"):
                a = os.path.join(inputs, f"r{k % SETS}_{a[1:]}.json")
            tail.append(a.replace("{info}", INFO_GROUPS[k % len(INFO_GROUPS)]))
        out.append((tail, kind))
    return out


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def spawn(argv, env, stdout_path, timeout):
    """Run one process to completion: (exit code, start, end, peak RSS in MB).

    The child is reaped with wait4, which reports its own peak RSS; a child
    still running after `timeout` seconds is killed and waited for."""
    old = signal.signal(signal.SIGALRM, _alarm)
    with open(stdout_path, "wb") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL, env=env)
        signal.setitimer(signal.ITIMER_REAL, timeout)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        t1 = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, t0, t1, usage.ru_maxrss / 1024


def _listing(path):
    try:
        return {e.name: e.stat().st_size for e in os.scandir(path)}
    except FileNotFoundError:
        return {}


def run(python, env, inputs, tmp, seconds, rounds_wanted=None, spans_dir=None):
    """Run whole rounds until `seconds` (normalised) have passed, at least
    one, or exactly `rounds_wanted` rounds.  With `spans_dir`, each
    invocation runs under the traced bootstrap and leaves its spans there.
    Returns the records (with normalised `seconds`, see calib.py), the
    normalised wall time and the number of rounds."""
    records = []
    cal = calib.Calibrator(spawns=True)
    cal.mark()
    t0 = time.perf_counter()
    k = 0
    while (k < rounds_wanted) if rounds_wanted is not None else (
            not k or cal.norm(t0, time.perf_counter()) < seconds):
        cache = os.path.join(tmp, f"cache-{k}")
        child_env = dict(env, WB_CACHE_DIR=cache)
        for i, (tail, kind) in enumerate(round_argv(k, inputs)):
            n = len(records)
            out_path = os.path.join(tmp, f"out-{n}.json")
            if spans_dir:
                head = [os.path.join(HERE, "cli_traced.py"), os.path.join(spans_dir, f"{n}.spans")]
            else:
                head = ["-m", "wittburnside"]
            before = _listing(cache)
            code, start, end, rss = spawn([python] + head + tail, child_env, out_path, 120)
            after = _listing(cache)
            cal.mark()
            new = [name for name in after if name not in before]
            records.append({"round": k, "kind": kind, "argv": tail, "code": code,
                            "start": start, "end": end, "rss_mb": rss,
                            "out": out_path, "new_files": len(new),
                            "bytes_written": sum(after[name] for name in new)})
        shutil.rmtree(cache, ignore_errors=True)
        k += 1
    for rec in records:
        rec["seconds"] = cal.norm(rec["start"], rec["end"])
    return records, cal.norm(records[0]["start"], records[-1]["end"]), k


# --- result checks -----------------------------------------------------------


class _Expect:
    """Recomputes a CLI invocation's result in process, through the library API."""

    def __init__(self, wb):
        self.wb = wb

    def _vector(self, path):
        wb = self.wb
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        R = wb.parse_ring(doc["ring"])
        comps = [wb.RingValue.parse(R, c) for c in doc["components"]]
        if isinstance(doc["group"], dict):
            T = wb.TruncationSet(doc["group"]["cyclic_trunc"])
            return wb.CyclicVector(T, doc["flavor"], R, comps)
        base, _, label = doc["group"].partition(".")
        G = wb.build_group(base)
        if label:
            G = wb.subgroup_group(G, wb.subgroup_classes(G).index_of_label(label))
        return wb.IndexedVector(G, doc["flavor"], R, comps)

    def fields(self, argv, doc):
        """(expected, got) for the parts of the document the result decides."""
        wb = self.wb
        verb, rest = argv[0], list(argv[1:])
        flag = {rest[i]: rest[i + 1] for i in range(len(rest) - 1) if rest[i].startswith("--")}
        files = [self._vector(a) for a in rest if a.endswith(".json")]
        if verb == "group":
            mm = wb.marks_matrix(wb.build_group(flag["--group"]))
            k = len(mm.table.classes)
            return [[mm.zeta.entry(i, j) for j in range(k)] for i in range(k)], doc["marks"]
        if verb == "universal":
            G = wb.build_group(flag["--group"])
            uni = wb.derive_universal(G, flag["--op"])
            labels = wb.subgroup_classes(G).labels()
            return {lab: p.format() for lab, p in zip(labels, uni.polys)}, doc["polys"]
        if verb == "quniversal":
            uni = wb.q_universal(wb.TruncationSet.div(int(flag["--trunc"])), flag["--op"])
            return ({str(n): p.format() for n, p in zip(uni.truncation.members, uni.polys)},
                    doc["polys"])
        if verb == "qpoly":
            n = int(flag["--n"])
            want = {f"({i},{j})": wb.p_poly(n, i, j).format()
                    for i in wb.divisors(n) for j in wb.divisors(n) if n % math.lcm(i, j) == 0}
            return want, doc["polys"]
        ctx = wb.QContext(None if flag.get("--q") == "q" else int(flag.get("--q", 1)))
        x = files[0]
        if verb == "artinhasse":
            return [c.format() for c in wb.artin_hasse(ctx, x).components], doc["coefficients"]
        if verb in ("witt", "necklace", "aperiodic"):
            fn = {"witt": wb.wg_op, "necklace": wb.nr_op, "aperiodic": wb.ap_op}[verb]
            out = fn({"add": "sum", "mul": "prod"}[rest[0]], *files)
        elif verb == "ghost":
            out = wb.wg_ghost(x)
        elif verb == "teichmuller":
            out = wb.teichmuller_inv(x) if "--inverse" in rest else wb.teichmuller(x)
        elif verb == "theta":
            out = wb.theta(x)
        elif verb in ("ind", "res"):
            G = wb.build_group(flag["--group"])
            ci = wb.subgroup_classes(G).index_of_label(flag["--class"])
            out = (wb.ind_nr if verb == "ind" else wb.res_nr)(G, ci, x)
        elif verb == "cyclic":
            if rest[0] == "witt":
                out = wb.cyc_witt_op("prod", *files)
            else:
                fn = wb.cyc_frobenius if rest[0] == "frobenius" else wb.cyc_verschiebung
                out = fn(int(flag["--r"]), x)
        elif rest[0] == "mul":  # qwitt
            out = wb.q_witt_op(ctx, "prod", *files)
        else:
            out = wb.q_witt_ghost(ctx, x)
        want = [out.flavor, out.ring.name, [c.format() for c in out.components]]
        return want, [doc["flavor"], doc["ring"], doc["components"]]


def check(records, wb):
    """Indices of the invocations whose result is wrong, with the reason."""
    expect = _Expect(wb)
    bad = {}
    first_out = {}
    for n, rec in enumerate(records):
        with open(rec["out"], "rb") as fh:
            raw = fh.read()
        key = (rec["round"], tuple(rec["argv"]))
        if rec["code"] != 0:
            bad[n] = f"exit code {rec['code']}"
            continue
        if rec["kind"] == "same" and raw != first_out.get(key):
            bad[n] = "cache hit printed other bytes than the miss before it"
        first_out.setdefault(key, raw)
        wrote = rec["new_files"] > 0
        if wrote != (rec["kind"] == "miss"):
            bad[n] = f"{rec['kind']} invocation wrote {rec['new_files']} cache files"
        try:
            want, got = expect.fields(rec["argv"], json.loads(raw))
        except Exception as e:  # unparsable output or a failing recomputation
            bad[n] = f"check raised {e!r}"
            continue
        if want != got:
            bad[n] = "output differs from the in-process result"
    return bad
