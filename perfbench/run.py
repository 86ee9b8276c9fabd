#!/usr/bin/env python3
"""The benchmark of `eco tune` and `eco serve`, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload tune-exact --seed 1 --seconds 30 --trace 0

It builds `eco` and the in-process helper (perfbench/probe.ml) with dune,
drives the named workload for about --seconds seconds as a user would,
checks every answer, and prints one JSON line last: the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.  Workloads, metrics
and checks are described in perfbench/NOTES.md.  Scratch files, the
reference-answer cache and the spans files go under perfbench/_work/.
"""

import argparse
import collections
import hashlib
import json
import math
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

ECO = os.path.join("_build", "default", "bin", "eco_cli.exe")
PROBE = os.path.join("_build", "default", "perfbench", "probe.exe")
WORK = os.path.join("perfbench", "_work")
SOURCES = ("dune-project", os.path.join("bin", "eco_cli.ml"),
           os.path.join("perfbench", "dune"), os.path.join("perfbench", "probe.ml"))

WORKLOADS = ("tune-exact", "tune-estimated", "tune-guarded", "serve-mixed")

# Tune workloads: one round is (matmul, jacobi3d) at each budget.  The
# seed picks each kernel's size from a pair near n=128 and n=64 whose
# fresh simulations, winner MFLOPS and peak memory agree within 3%, so
# the seed changes the input without setting the spread (see NOTES.md).
MATMUL_SIZES = (120, 136)
JACOBI3D_SIZES = (54, 58)
TUNE_BUDGETS = (800000, 400000)
ESTIMATED_FLAGS = ["--prefilter", "--sample=shrink=4", "--incremental"]

# serve-mixed: two sizes of each kernel at one budget.  matmul and
# jacobi3d are always cold so their per-kernel metrics do not depend on
# the seed; the seed stores one size of each of the other three, whose
# two sizes cost about the same cold, so the round's work does not
# depend on it either.
SERVE_BUDGET = 100000
SERVE_KEYS = (("matmul", 48), ("matmul", 64), ("jacobi3d", 32), ("jacobi3d", 40),
              ("matvec", 224), ("matvec", 256), ("stencil2d", 192),
              ("stencil2d", 224), ("wavefront", 96), ("wavefront", 128))
STORE_CHOICES = (("matvec", (224, 256)), ("stencil2d", (192, 224)),
                 ("wavefront", (96, 128)))
# Memo repeats per round: Zipf(1) counts over all ten keys, most popular
# first in SERVE_KEYS order (rounded by largest remainder), so every round
# has the same mix and the seed only shuffles it.  REPEATS is the smallest
# multiple of ten at which the repeats take over half of a round's request
# time, so the daemon's memo path rather than simulation carries this
# workload (NOTES.md gives the measured shares).
REPEATS = 90
OUTSTANDING = 2
CLASSES = ("cold", "db", "repeat")
SETUP_PROBES = 15

ANSWER_FIELDS = ("best_variant", "parameters", "prefetch", "performance")


class BenchError(Exception):
    """Something other than a wrong answer stopped the run."""


# --- pure helpers (perfbench/tests covers these) ---------------------------

def percentile(values, q):
    """Nearest-rank q-quantile (0 < q < 1), or None unless at least ten
    samples lie beyond it."""
    xs = sorted(values)
    k = max(0, math.ceil(q * len(xs)) - 1)
    if len(xs) - (k + 1) < 10:
        return None
    return xs[k]


def _ranks(xs):
    order = sorted(range(len(xs)), key=lambda i: xs[i])
    ranks = [0.0] * len(xs)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def spearman(xs, ys):
    """Spearman rank correlation with average ranks for ties; None when
    fewer than three pairs or either side is constant."""
    if len(xs) != len(ys) or len(xs) < 3:
        return None
    rx, ry = _ranks(xs), _ranks(ys)
    mx, my = statistics.fmean(rx), statistics.fmean(ry)
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx == 0 or syy == 0:
        return None
    return sxy / (sxx * syy) ** 0.5


def parse_tune_output(text):
    """The answer and counts `eco tune` prints: best variant, parameters,
    prefetch, performance (the MFLOPS string), fresh evaluations, memo
    hits and quarantined candidates."""
    ans = {}
    for line in text.splitlines():
        if line.startswith("optimized code:"):
            break
        head, _, rest = line.partition(":")
        rest = rest.strip()
        if head == "best variant":
            ans["best_variant"] = rest
        elif head == "parameters":
            ans["parameters"] = rest
        elif head == "prefetch":
            ans["prefetch"] = rest
        elif head == "performance":
            ans["performance"] = rest.split()[0]
        elif head == "engine":
            m = re.match(r"(\d+) fresh evaluations, (\d+) memo hits", rest)
            if m:
                ans["fresh"], ans["hits"] = int(m.group(1)), int(m.group(2))
            q = re.search(r"quarantined (\d+)", rest)
            ans["quarantined"] = int(q.group(1)) if q else 0
    return ans


def has_winner(ans):
    """The four answer fields are there, and performance is a number."""
    if not isinstance(ans, dict) or any(f not in ans for f in ANSWER_FIELDS):
        return False
    try:
        float(ans["performance"])
    except (TypeError, ValueError):
        return False
    return True


def tune_sizes(seed):
    rng = random.Random("tune:%d" % seed)
    return {"matmul": rng.choice(MATMUL_SIZES), "jacobi3d": rng.choice(JACOBI3D_SIZES)}


def tune_round(seed):
    sizes = tune_sizes(seed)
    return [(k, sizes[k], b) for b in TUNE_BUDGETS for k in ("matmul", "jacobi3d")]


def zipf_counts(total, ranks):
    w = [1.0 / (r + 1) for r in range(ranks)]
    exact = [total * x / sum(w) for x in w]
    counts = [int(x) for x in exact]
    by_rest = sorted(range(ranks), key=lambda i: (counts[i] - exact[i], i))
    for i in by_rest[: total - sum(counts)]:
        counts[i] += 1
    return counts


def store_keys(seed):
    rng = random.Random("store:%d" % seed)
    return [(k, rng.choice(sizes)) for k, sizes in STORE_CHOICES]


def serve_round(seed, index):
    """Requests of one round as (class, kernel, n): every key once, cold
    or from the store, in seeded order, then the Zipf memo repeats in
    seeded order.  A pure function of (seed, index)."""
    stored = store_keys(seed)
    rng = random.Random("round:%d:%d" % (seed, index))
    first = [("db" if k in stored else "cold",) + k for k in SERVE_KEYS]
    rng.shuffle(first)
    rep = [("repeat",) + k for k, c in zip(SERVE_KEYS, zipf_counts(REPEATS, len(SERVE_KEYS)))
           for _ in range(c)]
    rng.shuffle(rep)
    return first + rep


def median(xs):
    return statistics.median(xs) if xs else 0.0


def mean(xs):
    xs = list(xs)
    return statistics.fmean(xs) if xs else 0.0


# --- processes ----------------------------------------------------------------

def now():
    return time.perf_counter()


class Spans:
    """Spans recorded around this script's calls into the program; kept
    in memory and written once at the end of a traced run."""

    def __init__(self):
        self.t0 = now()
        self.items = []

    def add(self, name, key, t0, t1, parent=0):
        self.items.append({"id": len(self.items) + 1, "parent": parent, "name": name,
                           "key": key, "start_s": t0 - self.t0, "end_s": t1 - self.t0})
        return len(self.items)


def run_cmd(argv, stdin_text=None):
    """Run to completion; (exit code, stdout, wall seconds, resource usage)."""
    err = open(os.path.join(WORK, "stderr.txt"), "w")
    t0 = now()
    p = subprocess.Popen(argv, stdin=subprocess.PIPE if stdin_text is not None else
                         subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err, text=True)
    if stdin_text is not None:
        p.stdin.write(stdin_text)
        p.stdin.close()
    out = p.stdout.read()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    dt = now() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    err.close()
    return p.returncode, out, dt, ru


def build():
    missing = [f for f in SOURCES if not os.path.exists(f)]
    if missing:
        raise BenchError("not a checkout of the repository (missing %s)" % ", ".join(missing))
    # dune's shared cache lives outside the checkout; the build stays in _build
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(["dune", "build", "--root", ".", "bin/eco_cli.exe",
                            "perfbench/probe.exe"], env=env,
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except FileNotFoundError:
        raise BenchError("dune is not on PATH")
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout[-4000:])


def binary_digest():
    h = hashlib.sha256()
    for f in (ECO, PROBE):
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


# --- tune workloads -----------------------------------------------------------

def tune_flags(workload, seed, ck):
    if workload == "tune-estimated":
        return list(ESTIMATED_FLAGS)
    if workload == "tune-guarded":
        return ["--faults", "seed=%d,transient=0.05,hang=0.02" % seed, "--trials", "3",
                "--retries", "5", "--checkpoint", ck, "--checkpoint-every", "16"]
    return []


def eco_tune(workload, seed, key, extra=()):
    """One cold `eco tune` (its checkpoint, if any, removed first)."""
    k, n, b = key
    ck = os.path.join(WORK, "run", "ck-%s-%d-%d.bin" % key)
    if os.path.exists(ck):
        os.remove(ck)
    argv = [ECO, "tune", "-k", k, "-n", str(n), "-b", str(b)] + tune_flags(workload, seed, ck)
    return run_cmd(argv + list(extra))


def setup_probe(workload, seed, key, ledger):
    """CPU seconds of an `eco tune` stopped by a 1 us deadline at its
    first interruption point, before any candidate is measured: process
    start, derivation, engine creation and checkpoint load.  CPU rather
    than wall time, because the wall time of so short a process has a
    long tail of scheduling delays on a shared host (NOTES.md)."""
    code, out, _, ru = eco_tune(workload, seed, key, ["--timeout", "0.000001"])
    if code != 4 or "0 points" not in out:
        ledger.fail("setup probe did not stop before the first candidate (exit %d)" % code)
    return ru.ru_utime + ru.ru_stime


class Ledger:
    """Operations attempted and failed.  An operation is a tune or a
    request; a failed check marks its operation failed once.  A check
    tied to no operation (a reference tune, the store) counts as one
    more operation, failed."""

    def __init__(self):
        self.ops = []
        self.other = 0

    def add(self, op):
        op["ok"] = True
        self.ops.append(op)

    def fail(self, why, op=None):
        print("check failed: " + why, file=sys.stderr)
        if op is None:
            self.other += 1
        else:
            op["ok"] = False

    def counts(self):
        failed = sum(1 for op in self.ops if not op["ok"]) + self.other
        return len(self.ops) + self.other, failed

    def result(self, metrics):
        """The run's last line."""
        attempted, failed = self.counts()
        return {"correct": failed == 0, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def record_tune(ledger, key, code, out, seconds, rss):
    """One `eco tune` of the stream as an operation; failed unless it
    exited 0 with a winner."""
    op = {"key": key, "seconds": seconds, "rss": rss, "answer": parse_tune_output(out)}
    ledger.add(op)
    if code != 0 or not has_winner(op["answer"]) or "fresh" not in op["answer"]:
        ledger.fail("%s:%d:%d: tune exited %d without a winner" % (key + (code,)), op)
    return op


def tune_stream(workload, seed, seconds, ledger, spans=None, max_rounds=None):
    keys = tune_round(seed)
    ops = []
    t_start = now()
    while True:
        r0 = now()
        for key in keys:
            code, out, dt, ru = eco_tune(workload, seed, key)
            t1 = now()
            if spans is not None:
                spans.add("eco tune", "%s:%d:%d" % key, t1 - dt, t1)
            ops.append(record_tune(ledger, key, code, out, dt, ru.ru_maxrss / 1024.0))
        rounds = len(ops) // len(keys)
        elapsed, last = now() - t_start, now() - r0
        if (max_rounds and rounds >= max_rounds) or elapsed + last > seconds:
            return ops, elapsed


def reference(key, digest, ledger, answer=None):
    """The exact one-shot `eco tune` answer for a key, cached per build.
    `answer`, when given, is such an answer just measured (tune-exact's
    own) and seeds the cache instead of another tune."""
    path = os.path.join(WORK, "ref", digest, "%s-%d-%d.json" % key)
    if os.path.exists(path):
        with open(path) as fh:
            return json.load(fh)
    if answer is None:
        code, out, _, _ = eco_tune("tune-exact", 0, key)
        answer = parse_tune_output(out)
        if code != 0 or not has_winner(answer):
            ledger.fail("%s:%d:%d: reference tune failed" % key)
            return None
    ans = {f: answer[f] for f in ANSWER_FIELDS}
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w") as fh:
        json.dump(ans, fh)
    os.replace(path + ".tmp", path)
    return ans


def same_answer(a, b):
    return all(a.get(f) == b.get(f) for f in ANSWER_FIELDS)


def winner(kernel, n, ans):
    return (kernel, n) + tuple(ans[f] for f in ANSWER_FIELDS[:3])


def validate_winners(ops, ledger):
    """Check.validate, through the probe, on each distinct winner of the
    operations still passing; fails every one that answered a bad
    winner."""
    ok = [op for op in ops if op["ok"]]
    distinct = sorted(set(op["winner"] for op in ok))
    if not distinct:
        return

    def fmt(s):
        return "-" if s in ("", "(none)") else s.replace(" ", ",")

    lines = ["%s %d %s %s %s" % (k, n, v, fmt(b), fmt(pf)) for k, n, v, b, pf in distinct]
    code, out, _, _ = run_cmd([PROBE, "validate"], "\n".join(lines) + "\n")
    verdicts = dict(zip(distinct, out.split("\n")))
    for op in ok:
        v = verdicts.get(op["winner"], "no verdict") if code == 0 else "probe exited %d" % code
        if v != "ok":
            ledger.fail("winner %s does not validate: %s" % (op["winner"], v), op)


def check_tunes(workload, ops, digest, ledger):
    """Answer checks, outside the timed stream."""
    by_key = collections.defaultdict(list)
    for op in ops:
        if op["ok"]:
            op["winner"] = winner(op["key"][0], op["key"][1], op["answer"])
            by_key[op["key"]].append(op)
    for key, group in by_key.items():
        first = group[0]["answer"]
        for op in group[1:]:
            if not same_answer(op["answer"], first):
                ledger.fail("%s:%d:%d: answer changed across repeats" % key, op)
        if workload == "tune-estimated":
            continue
        ref = reference(key, digest, ledger, first if workload == "tune-exact" else None)
        if ref is None:
            continue
        quarantined = any(op["answer"].get("quarantined") for op in group)
        if workload == "tune-guarded" and quarantined:
            continue
        for op in group:
            if op["ok"] and not same_answer(op["answer"], ref):
                ledger.fail("%s:%d:%d: answer %s differs from tune-exact %s"
                            % (key + (op["answer"], ref)), op)
    validate_winners(ops, ledger)


def tune_metrics(workload, seed, seconds, ledger, digest):
    first = tune_round(seed)[0]
    setups = [setup_probe(workload, seed, first, ledger) for _ in range(SETUP_PROBES)]
    ops, stream_s = tune_stream(workload, seed, seconds, ledger)
    check_tunes(workload, ops, digest, ledger)
    m = {"setup_s": (median(setups), "s"),
         "peak_rss_mb": (median([op["rss"] for op in ops]), "MB")}
    for kernel in ("matmul", "jacobi3d"):
        mine = [op for op in ops if op["key"][0] == kernel and op["ok"]]
        m[kernel + ".tune_s"] = (median([op["seconds"] for op in mine]), "s")
        m[kernel + ".sims"] = (median([op["answer"]["fresh"] for op in mine]), "count")
        m[kernel + ".mflops"] = (median([float(op["answer"]["performance"]) for op in mine]),
                                 "MFLOPS")
    m["tunes_per_s"] = (len([op for op in ops if op["ok"]]) / stream_s, "1/s")
    print("report: %s seed %d: %d tunes in %.2fs, sizes %s"
          % (workload, seed, len(ops), stream_s, tune_sizes(seed)))
    return m


# --- serve --------------------------------------------------------------------

def populate_store(path, keys, digest, ledger):
    """A store holding `keys`, written by one-shot `eco tune --db` (untimed)."""
    if os.path.exists(path):
        os.remove(path)
    for k, n in keys:
        code, out, _, _ = run_cmd([ECO, "tune", "-k", k, "-n", str(n), "-b", str(SERVE_BUDGET),
                                   "--db", path, "--no-warm-start"])
        ans = parse_tune_output(out)
        ref = reference((k, n, SERVE_BUDGET), digest, ledger)
        if code != 0 or ref is None or not same_answer(ans, ref):
            ledger.fail("%s:%d: store population answered %s" % (k, n, ans))


def drive(p, reqs, spans=None, messages=None):
    """Sends `reqs` to the daemon `p`, keeping OUTSTANDING of them in
    flight, until each is answered.  Returns None, or why the daemon
    stopped answering."""
    pending = collections.deque(reqs)
    live = {}

    def send():
        req = pending.popleft()
        p.stdin.write(json.dumps({"id": req["id"], "method": "tune", "params": {
            "kernel": req["key"][0], "n": req["key"][1], "budget": SERVE_BUDGET}}) + "\n")
        p.stdin.flush()
        req["sent"] = now()
        live[req["id"]] = req

    try:
        while pending and len(live) < OUTSTANDING:
            send()
        while live:
            line = p.stdout.readline()
            t = now()
            if not line:
                return "exited with %d requests unanswered" % (len(live) + len(pending))
            if messages is not None:
                messages.append(line)
            msg = json.loads(line)
            if not isinstance(msg, dict):
                return "sent %r" % line[:200]
            meth = msg.get("method")
            if meth in ("accepted", "progress"):
                req = live.get((msg.get("params") or {}).get("session"))
                if req is not None:
                    if meth == "accepted":
                        req["accepted"] = t
                    else:
                        req["progress"] += 1
                continue
            req = live.pop(msg.get("id"), None)
            if req is None:
                continue
            req["done"] = t
            req["result"] = msg.get("result")
            req["error"] = msg.get("error")
            if spans is not None:
                key = "%s:%d" % req["key"]
                sid = spans.add("request." + req["class"], key, req["sent"], t)
                if req["accepted"] is not None:
                    spans.add("accept", key, req["sent"], req["accepted"], sid)
                    spans.add("service", key, req["accepted"], t, sid)
            if pending:
                send()
    except (OSError, ValueError) as e:
        return "stopped mid-stream: %s" % e
    return None


def serve_session(stream, store, ledger, spans=None, messages=None):
    """One fresh daemon over a fresh copy of `store`, driven closed-loop
    with OUTSTANDING tune requests in flight.  Every request of `stream`
    is an operation: a daemon that dies fails those it has not answered.
    Returns (requests, ready seconds or None, stream seconds, daemon
    peak RSS MB)."""
    run = os.path.join(WORK, "run")
    db = os.path.join(run, "serve.db")
    ckdir = os.path.join(run, "serve-ck")
    shutil.rmtree(ckdir, ignore_errors=True)
    for f in (db, db + ".lock"):
        if os.path.exists(f):
            os.remove(f)
    if store:
        shutil.copyfile(store, db)
    reqs = [{"id": i, "class": cls, "key": (k, n), "sent": None, "accepted": None,
             "progress": 0, "done": None, "result": None, "error": None}
            for i, (cls, k, n) in enumerate(stream, 1)]
    err = open(os.path.join(WORK, "serve-stderr.txt"), "w")
    t_spawn = now()
    p = subprocess.Popen([ECO, "serve", "--dir", ckdir, "--db", db], stdin=subprocess.PIPE,
                         stdout=subprocess.PIPE, stderr=err, text=True, bufsize=1)
    ready = None
    try:
        line = p.stdout.readline()
        t_first = now()
        if '"ready"' in line:
            ready = t_first - t_spawn
            if messages is not None:
                messages.append(line)
            died = drive(p, reqs, spans, messages)
        else:
            died = "did not announce ready: %r" % line[:200]
        stream_s = now() - t_first
        if died:
            os.kill(p.pid, signal.SIGKILL)  # not reaped yet, so still ours
        try:
            p.stdin.close()
        except OSError:
            pass
        p.stdout.read()
        p.stdout.close()
    except BaseException:
        p.kill()
        p.wait()
        raise
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    err.close()
    for req in reqs:
        ledger.add(req)
        r = req["result"]
        if not has_winner(r) or r.get("status") != "ok" or "fresh" not in r:
            why = req["error"] or r or "no answer: the daemon " + (died or "did not answer")
            ledger.fail("%s:%d: request ended %s" % (req["key"] + (why,)), req)
        else:
            req["winner"] = winner(req["key"][0], req["key"][1], r)
    if not died and p.returncode != 0:
        ledger.fail("daemon answered every request, then exited %d" % p.returncode)
    return reqs, ready, stream_s, ru.ru_maxrss / 1024.0


def check_requests(reqs, digest, ledger):
    """Each answer equals the one-shot `eco tune` answer for its key."""
    refs = {}
    for req in reqs:
        if not req["ok"]:
            continue
        key = req["key"] + (SERVE_BUDGET,)
        if key not in refs:
            refs[key] = reference(key, digest, ledger)
        ref = refs[key]
        if ref is not None and not same_answer(req["result"], ref):
            ledger.fail("%s:%d: served %s, eco tune says %s"
                        % (req["key"] + ({f: req["result"][f] for f in ANSWER_FIELDS}, ref)),
                        req)
    validate_winners(reqs, ledger)


def serve_rounds(seed, seconds, store, ledger):
    reqs, readies, streams, rss = [], [], [], []
    t_start = now()
    index = 0
    while True:
        r0 = now()
        done, ready, stream_s, peak = serve_session(serve_round(seed, index), store, ledger)
        index += 1
        reqs += done
        readies.append(ready)
        streams.append(stream_s)
        rss.append(peak)
        elapsed, last = now() - t_start, now() - r0
        if elapsed + last > seconds:
            return reqs, readies, streams, rss


def latency(req):
    return req["done"] - req["sent"]


def class_shares(reqs):
    """Each request class's share of the summed request latency."""
    busy = {c: sum(latency(r) for r in reqs if r["class"] == c) for c in CLASSES}
    total = sum(busy.values())
    return {c: v / total if total else 0.0 for c, v in busy.items()}


def serve_metrics(seed, seconds, ledger, digest):
    store = os.path.join(WORK, "run", "store.db")
    populate_store(store, store_keys(seed), digest, ledger)
    reqs, readies, streams, rss = serve_rounds(seed, seconds, store, ledger)
    check_requests(reqs, digest, ledger)
    ok = [r for r in reqs if r["ok"]]
    lat = [latency(r) for r in ok]
    m = {"setup_s": (median([t for t in readies if t is not None]), "s"),
         "peak_rss_mb": (median(rss), "MB")}
    for kernel in ("matmul", "jacobi3d"):
        mine = [r for r in ok if r["key"][0] == kernel]
        cold = [r for r in mine if r["class"] == "cold"]
        # a mean: the kernel's latencies split into cold and memo-repeat
        # modes, and a median jumps between them from seed to seed
        m[kernel + ".tune_s"] = (mean(latency(r) for r in mine), "s")
        m[kernel + ".sims"] = (median([r["result"]["fresh"] for r in cold]), "count")
        m[kernel + ".mflops"] = (median([float(r["result"]["performance"]) for r in mine]),
                                 "MFLOPS")
    m["tunes_per_s"] = (len(ok) / sum(streams), "1/s")
    p95 = percentile(lat, 0.95)
    by_class = {c: median([latency(r) for r in ok if r["class"] == c]) * 1000 for c in CLASSES}
    print("report: serve-mixed seed %d: %d requests in %d rounds, p50 %.1f ms, p95 %s "
          "(n=%d), class p50 ms %s, class share of request time %s, store %s"
          % (seed, len(reqs), len(readies), median(lat) * 1000,
             "%.1f ms" % (p95 * 1000) if p95 is not None else "n/a", len(lat),
             {c: round(v, 2) for c, v in by_class.items()},
             {c: round(v, 3) for c, v in class_shares(ok).items()}, store_keys(seed)))
    return m


# --- traced run -------------------------------------------------------------

def traced(workload, seed, seconds, ledger, digest):
    """Per-layer metrics: one round of the workload (its answers checked
    as in an untimed run), a daemon session over the workload's keys, and
    the probe's in-process tunes (untraced and traced, after an untimed
    warm-up) with its layer timings on the candidates the traced tunes
    evaluated."""
    spans = Spans()
    run = os.path.join(WORK, "run")
    messages = []
    if workload == "serve-mixed":
        store = os.path.join(run, "store.db")
        populate_store(store, store_keys(seed), digest, ledger)
        reqs, ready, _, _ = serve_session(serve_round(seed, 0), store, ledger, spans, messages)
        keys = ["%s:%d:%d" % (k, n, SERVE_BUDGET) for k, n in SERVE_KEYS]
        check_requests(reqs, digest, ledger)
    else:
        ops, _ = tune_stream(workload, seed, seconds, ledger, spans, max_rounds=1)
        check_tunes(workload, ops, digest, ledger)
        sizes = tune_sizes(seed)
        # the daemon layers, over this workload's kernels and sizes at the
        # serve budget: jacobi3d from the store, matmul cold, then repeats
        store = os.path.join(run, "store.db")
        populate_store(store, [("jacobi3d", sizes["jacobi3d"])], digest, ledger)
        mini = [("cold", "matmul", sizes["matmul"]), ("db", "jacobi3d", sizes["jacobi3d"])] + \
            [("repeat", "matmul", sizes["matmul"]), ("repeat", "jacobi3d", sizes["jacobi3d"])] * 2
        reqs, ready, _, _ = serve_session(mini, store, ledger, spans, messages)
        check_requests(reqs, digest, ledger)
        keys = ["%s:%d:%d" % key for key in tune_round(seed)]
    msg_file = os.path.join(run, "messages.jsonl")
    with open(msg_file, "w") as fh:
        fh.writelines(messages)
    argv = [PROBE, "layers", "--workload", workload, "--seed", str(seed), "--keys",
            ",".join(keys), "--work", run, "--messages", msg_file, "--store", store]
    offset = now() - spans.t0
    code, out, _, _ = run_cmd(argv)
    if code != 0:
        raise BenchError("probe layers exited %d" % code)
    probe = json.loads(out.strip().splitlines()[-1])
    base = len(spans.items)
    for s in probe["spans"]:
        spans.items.append(dict(s, id=s["id"] + base, name="probe." + s["name"],
                                parent=s["parent"] + base if s["parent"] else 0,
                                start_s=s["start_s"] + offset, end_s=s["end_s"] + offset))
    ks = probe["keys"]
    if workload != "serve-mixed":
        for k, op in zip(ks, ops):
            if op["ok"] and not same_answer(k["answer"], op["answer"]):
                ledger.fail("%s: in-process answer %s differs from eco tune %s"
                            % (k["key"], k["answer"], op["answer"]), op)
    sm = probe["samples"]

    def med(name, scale=1.0):
        return median(sm.get(name, [])) * scale

    fresh = sum(k["fresh"] for k in ks)
    hits = sum(k["hits"] for k in ks)
    tune_total = sum(k["tune_s"] for k in ks)
    in_batch = sum(k["in_batch_s"] for k in ks)
    rhos = [r for r in (spearman([p[0] for p in k["model_pairs"]],
                                 [p[1] for p in k["model_pairs"]]) for k in ks) if r is not None]
    pairs = sum(k["rank_pairs"] for k in ks)
    trials = sum(k["trials"] for k in ks)
    answered = [r for r in reqs if r["ok"]]
    by_class = {c: [latency(r) for r in answered if r["class"] == c] for c in CLASSES}
    accepted = [r for r in answered if r["accepted"] is not None]
    m = collections.OrderedDict()

    def put(name, unit, value):
        m[name] = (value, unit)

    put("derive.ms", "ms", med("derive_s", 1e3))
    put("instantiate.us", "us", med("instantiate_s", 1e6))
    put("vm.compile_us", "us", med("vm_compile_s", 1e6))
    put("vm.events_per_s", "1/s", med("vm_events_per_s"))
    put("executor.measure_ms", "ms", med("measure_s", 1e3))
    put("capture.ms", "ms", med("capture_s", 1e3))
    put("replay.k1_events_per_s", "1/s", med("k1_events_per_s"))
    put("replay.batched_events_per_s", "1/s", med("batched_events_per_s"))
    put("replay.sampled_events_per_s", "1/s", med("sampled_events_per_s"))
    put("replay.reprice_ms", "ms", med("reprice_s", 1e3))
    put("replay.repriced_share", "ratio",
        sum(k["repriced"] for k in ks) / max(1, sum(k["repriced"] for k in ks) + fresh))
    put("model.predictions_per_s", "1/s", med("predictions_per_s"))
    put("model.spearman", "rho", median(rhos))
    put("model.skip_share", "ratio",
        sum(k["prefiltered"] for k in ks) / max(1, sum(k["prefiltered"] for k in ks) + fresh))
    put("search.batches", "count", mean(k["batches"] for k in ks))
    put("search.self_share", "ratio", 1.0 - in_batch / tune_total if tune_total else 0.0)
    put("search.confirmed", "count", mean(k["confirmed"] for k in ks))
    put("sampling.inversion_share", "ratio",
        sum(k["rank_inversions"] for k in ks) / pairs if pairs else 0.0)
    put("engine.memo_hit_ns", "ns", med("memo_hit_s", 1e9))
    put("engine.hit_share", "ratio", hits / max(1, hits + fresh))
    put("engine.eval_ms", "ms", in_batch / max(1, fresh) * 1e3)
    put("protocol.trials_per_eval", "count", trials / fresh if trials and fresh else 1.0)
    put("protocol.retries", "count", sum(k["retries"] for k in ks))
    put("checkpoint.write_ms", "ms", med("ck_write_s", 1e3))
    put("checkpoint.load_ms", "ms", med("ck_load_s", 1e3))
    put("checkpoint.kb", "KB", med("ck_bytes", 1 / 1024))
    put("perfdb.load_ms", "ms", med("db_load_s", 1e3))
    put("perfdb.find_us", "us", med("db_find_s", 1e6))
    put("perfdb.append_us", "us", med("db_append_s", 1e6))
    put("json.parse_us", "us", med("json_parse_s", 1e6))
    put("json.print_us", "us", med("json_print_s", 1e6))
    put("daemon.ready_ms", "ms", (ready or 0.0) * 1e3)
    put("daemon.accept_ms", "ms", median([r["accepted"] - r["sent"] for r in accepted]) * 1e3)
    put("daemon.service_ms", "ms", median([r["done"] - r["accepted"] for r in accepted]) * 1e3)
    put("daemon.progress_per_request", "count", mean(r["progress"] for r in answered))
    put("daemon.repeat_fresh", "count",
        mean(r["result"]["fresh"] for r in answered if r["class"] == "repeat"))
    put("daemon.cold_ms", "ms", median(by_class["cold"]) * 1e3)
    put("daemon.db_ms", "ms", median(by_class["db"]) * 1e3)
    put("daemon.repeat_ms", "ms", median(by_class["repeat"]) * 1e3)
    untraced = sum(k["untraced_s"] for k in ks)
    put("tracing.overhead_share", "ratio", (tune_total - untraced) / untraced)
    os.makedirs(os.path.join(WORK, "spans"), exist_ok=True)
    path = os.path.join(WORK, "spans", "%s-seed%d.json" % (workload, seed))
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed, "spans": spans.items}, fh)
    print("report: %s seed %d traced: %d spans written to %s" % (workload, seed,
                                                                 len(spans.items), path))
    return m


# --- main ---------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    try:
        build()
        digest = binary_digest()
        shutil.rmtree(os.path.join(WORK, "run"), ignore_errors=True)
        os.makedirs(os.path.join(WORK, "run"))
        ledger = Ledger()
        if a.trace:
            metrics = traced(a.workload, a.seed, a.seconds, ledger, digest)
        elif a.workload == "serve-mixed":
            metrics = serve_metrics(a.seed, a.seconds, ledger, digest)
        else:
            metrics = tune_metrics(a.workload, a.seed, a.seconds, ledger, digest)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    print(json.dumps(ledger.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
