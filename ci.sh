#!/bin/sh
# CI entry point: build, run the full test suite, then smoke-test the
# CLI and the service end to end.
set -eux

dune build
dune runtest

# Differential correctness budget: seeded random variant points and
# transformation pipelines checked against the reference interpreter.
dune exec bin/eco_cli.exe -- check -k matmul --seed 42 --trials 50
dune exec bin/eco_cli.exe -- check -k jacobi3d --seed 42 --trials 50

# Evaluation-path benchmark: the same tune through the bytecode fast
# path and the reference closure interpreter; emits BENCH_eval.json
# (evals/sec + speedup) for tracking across commits.
dune exec bench/main.exe -- --eval-bench
grep "speedup" BENCH_eval.json

# Throughput regression gate.  Seed floors (matmul 275.4 / jacobi3d
# 97.2 fast-path evals/s, 20% timing-noise allowance) and the 2%
# sampled-degradation bound apply to the two seed kernels; the newer
# bench kernels (matvec / stencil2d / wavefront) track their numbers
# without a quality gate — their tiny exact searches make the
# degradation column a search-shape artifact, not an estimator error.
# The replay tier's cost is gated as work in `dune runtest`, not as an
# evals/s ratio: `replay sampled search work share bounded`, and `replay
# reprice: base and best measured exactly` over the K=24 sweep.
python3 - <<'EOF'
import json
rows = json.load(open("BENCH_eval.json"))
seed = {"matmul": 275.4, "jacobi3d": 97.2}
ok = True
for r in rows:
    k = r["kernel"]
    if k in seed:
        floor = 0.8 * seed[k]
        if r["fast_evals_per_sec"] < floor:
            print(f'{k}: fast path {r["fast_evals_per_sec"]:.1f} evals/s < floor {floor:.1f}')
            ok = False
        if r["replay_degradation_pct"] > 2.0:
            print(f'{k}: replay degradation {r["replay_degradation_pct"]:+.2f}% > 2%')
            ok = False
raise SystemExit(0 if ok else 1)
EOF

# --- Sampled and incremental replay ------------------------------------

# Sampled + incremental equivalence smoke at the benchmarked operating
# point (the default spec's shrink needs a search-scale trace to be
# representative; tiny budgets should stay on the exact path): the
# estimator must engage (sampled and re-priced telemetry both nonzero)
# and the chosen point must stay within 2% of the exact search's — the
# winner itself is always confirmed and polished at exact precision.
# The staged prefetch descent evaluates one plan at a time, so the
# ` re-priced` count comes from the exact winner polish's prefetch
# sweeps alone.
dune exec bin/eco_cli.exe -- tune -k matmul -n 128 -b 200000 \
  > ci_exact_op.txt
dune exec bin/eco_cli.exe -- tune -k matmul -n 128 -b 200000 --sample --incremental \
  > ci_sampled.txt
grep "engine:" ci_sampled.txt | grep -q " sampled"
grep "engine:" ci_sampled.txt | grep -q " re-priced"
exact_mf=$(sed -n 's/^performance: *\([0-9.]*\) MFLOPS.*/\1/p' ci_exact_op.txt)
sampled_mf=$(sed -n 's/^performance: *\([0-9.]*\) MFLOPS.*/\1/p' ci_sampled.txt)
python3 -c "import sys; e, s = float(sys.argv[1]), float(sys.argv[2]); d = (e - s) / e * 100.0; print(f'sampled-vs-exact degradation {d:+.2f}%'); sys.exit(0 if d <= 2.0 else 1)" \
  "$exact_mf" "$sampled_mf"
rm -f ci_exact_op.txt ci_sampled.txt

# Sampled quality at a search-scale budget: with shrink=4 sampling,
# incremental repricing and the adaptive confirmation policy (no
# --confirm override), the reported winner of the b=800k matmul tune —
# always re-measured exactly — must stay within 2% of the exact
# search's.  The sampled search's cost is gated as work, not wall time:
# `replay sampled search work share bounded` in `dune runtest` caps the
# VM and replayed events of the staged and armed sampled searches.
ECO=./_build/default/bin/eco_cli.exe
$ECO tune -k matmul -n 128 -b 800000 > ci_b800_exact.txt
$ECO tune -k matmul -n 128 -b 800000 --sample=shrink=4 --incremental \
  > ci_b800_sampled.txt
grep "engine:" ci_b800_sampled.txt | grep -q " sampled"
exact_mf=$(sed -n 's/^performance: *\([0-9.]*\) MFLOPS.*/\1/p' ci_b800_exact.txt)
sampled_mf=$(sed -n 's/^performance: *\([0-9.]*\) MFLOPS.*/\1/p' ci_b800_sampled.txt)
python3 -c "import sys; e, s = float(sys.argv[1]), float(sys.argv[2]); d = (e - s) / e * 100.0; print(f'sampled-vs-exact degradation at b=800k {d:+.2f}%'); sys.exit(0 if d <= 2.0 else 1)" \
  "$exact_mf" "$sampled_mf"
rm -f ci_b800_exact.txt ci_b800_sampled.txt

# --- Analytical pre-filter -----------------------------------------------

# Reference answer with the pre-filter off (the default path).
dune exec bin/eco_cli.exe -- tune -k matmul -n 64 -b 100000 \
  | grep -E "^(best variant|parameters|prefetch|performance):" > ci_nofilter.txt

# Explicitly disabling the pre-filter (K < 1) must take the identical
# code path: same winner, same performance line, byte for byte.
dune exec bin/eco_cli.exe -- tune -k matmul -n 64 -b 100000 --prefilter=0 \
  | grep -E "^(best variant|parameters|prefetch|performance):" > ci_prefilter0.txt
cmp ci_nofilter.txt ci_prefilter0.txt

# Armed search: the model must actually skip candidates (a nonzero
# pre-filtered count in the telemetry).
dune exec bin/eco_cli.exe -- tune -k matmul -n 64 -b 100000 --prefilter \
  > ci_armed1.txt
grep "engine:" ci_armed1.txt | grep -v " 0 pre-filtered"
rm -f ci_nofilter.txt ci_prefilter0.txt ci_armed1.txt

# Rank-agreement experiment smoke (reduced sweep; the summary line
# reports simulations saved and worst chosen-point degradation).
ECO_FAST=1 dune exec bin/eco_cli.exe -- experiment rankcheck | grep "fewer"

# --- Fault-tolerant measurement protocol ---------------------------------

# Reference answer for the robustness checks below.
dune exec bin/eco_cli.exe -- tune -k matmul -n 64 -b 100000 \
  | grep -E "^(best variant|parameters|prefetch|performance):" > ci_clean.txt

# Value-preserving faults (transients + hangs, zero timing noise): the
# retry protocol must absorb every injected failure and reproduce the
# fault-free answer exactly, including the performance line.
dune exec bin/eco_cli.exe -- tune -k matmul -n 64 -b 100000 \
  --faults "seed=7,transient=0.05,hang=0.02" --trials 3 \
  | grep -E "^(best variant|parameters|prefetch|performance):" > ci_faulty.txt
cmp ci_clean.txt ci_faulty.txt

# Timing noise on top: the search must still complete and report a
# winner (near-ties may legitimately flip under noise, so only
# completion is asserted here; the noise-sensitivity experiment bounds
# the quality loss).
dune exec bin/eco_cli.exe -- tune -k matmul -n 64 -b 100000 \
  --faults "seed=7,noise=0.05,transient=0.02" --trials 225 \
  | grep "^best variant:"

# Crash-only search: a tune killed mid-run (simulated SIGKILL after 40
# fresh evaluations; periodic checkpoints only) must resume from its
# checkpoint and land on the identical final answer.
rm -f ci_ck.bin
set +e
dune exec bin/eco_cli.exe -- tune -k matmul -n 64 -b 100000 \
  --checkpoint ci_ck.bin --checkpoint-every 8 --die-after 40
rc=$?
set -e
test "$rc" -eq 3
dune exec bin/eco_cli.exe -- tune -k matmul -n 64 -b 100000 \
  --checkpoint ci_ck.bin > ci_resumed_full.txt
grep -q "^resumed:" ci_resumed_full.txt
grep -E "^(best variant|parameters|prefetch|performance):" ci_resumed_full.txt \
  > ci_resumed.txt
cmp ci_clean.txt ci_resumed.txt
rm -f ci_ck.bin ci_clean.txt ci_faulty.txt ci_resumed.txt ci_resumed_full.txt

# That a zero-rate fault plan with 3 trials finds the same winners
# and does the plain run's work on every kernel is the `faults
# zero-rate plan is transparent` test.

# --- Persistent performance database -------------------------------------

# Populate: a pre-filtered tune writing its aggregated measurements and
# summary record into a fresh store.  (n=80, not 64: below that the
# TLB-bound matmul_v3 variant wins, and it does not exist at larger
# sizes, so the transfer check below would have nothing to carry over.)
rm -f ci_db.bin
dune exec bin/eco_cli.exe -- tune -k matmul -n 80 -b 100000 --prefilter \
  --db ci_db.bin > ci_db_pop.txt
grep -E "^(best variant|parameters|prefetch|performance):" ci_db_pop.txt \
  > ci_db_pop_ans.txt
pop_fresh=$(sed -n 's/^engine: *\([0-9][0-9]*\) fresh evaluations.*/\1/p' ci_db_pop.txt)

# Exact-hit replay: with warm-starts off, the same tune must be served
# entirely from the store — zero fresh simulations, nonzero db hits,
# byte-identical answer.
dune exec bin/eco_cli.exe -- tune -k matmul -n 80 -b 100000 --prefilter \
  --db ci_db.bin --no-warm-start > ci_db_replay.txt
grep -Eq "^engine: +0 fresh evaluations" ci_db_replay.txt
grep -Eq "^db: +[1-9][0-9]* hits" ci_db_replay.txt
grep -E "^(best variant|parameters|prefetch|performance):" ci_db_replay.txt \
  > ci_db_replay_ans.txt
cmp ci_db_pop_ans.txt ci_db_replay_ans.txt

# Transfer warm-start at a neighboring size: transferred seeds must show
# in the telemetry and the warm search must simulate less than the
# populate run did.
dune exec bin/eco_cli.exe -- tune -k matmul -n 96 -b 100000 --prefilter \
  --db ci_db.bin > ci_db_warm.txt
grep -Eq "^db: .* [1-9][0-9]* warm-start seeds" ci_db_warm.txt
warm_fresh=$(sed -n 's/^engine: *\([0-9][0-9]*\) fresh evaluations.*/\1/p' ci_db_warm.txt)
test "$warm_fresh" -lt "$pop_fresh"

# Maintenance subcommands on the populated store.
dune exec bin/eco_cli.exe -- db stat ci_db.bin | grep -q "measurements"
dune exec bin/eco_cli.exe -- db compact ci_db.bin
dune exec bin/eco_cli.exe -- db export ci_db.bin | grep -q '"summaries"'

# Corruption: damaging a byte inside the first frame's payload must be
# a clean typed failure (exit 1, no crash) — for the subcommands and
# for tune --db alike.
printf '\377' | dd of=ci_db.bin bs=1 seek=40 count=1 conv=notrunc
set +e
dune exec bin/eco_cli.exe -- db stat ci_db.bin
rc=$?
set -e
test "$rc" -eq 1
set +e
dune exec bin/eco_cli.exe -- tune -k matmul -n 80 -b 100000 --db ci_db.bin
rc=$?
set -e
test "$rc" -eq 1
rm -f ci_db.bin ci_db_pop.txt ci_db_pop_ans.txt ci_db_replay.txt \
  ci_db_replay_ans.txt ci_db_warm.txt

# That a transfer warm start saves >=30% of the fresh simulations at
# <=2% chosen-point degradation is the `transfer: warm start saves
# simulations` test.

# --- The autotuning service (eco serve) ------------------------------
rm -rf ci_serve && mkdir -p ci_serve

# One-shot CLI reference answer: every service answer below must match
# these fields byte for byte.
dune exec bin/eco_cli.exe -- tune -k matvec -n 64 -b 100000 > ci_serve/cli.txt
grep -E "^(best variant|parameters|performance):" ci_serve/cli.txt \
  > ci_serve/cli_ans.txt

# Two identical tunes through one daemon: both answer ok, the second is
# served entirely from the shared memo (zero fresh simulations), and
# both match the one-shot CLI.
printf '%s\n%s\n' \
  '{"id":1,"method":"tune","params":{"kernel":"matvec","n":64,"budget":100000}}' \
  '{"id":2,"method":"tune","params":{"kernel":"matvec","n":64,"budget":100000}}' \
  | dune exec bin/eco_cli.exe -- serve --dir ci_serve/ck1 > ci_serve/two.jsonl
python3 - <<'EOF'
import json
res = {}
for line in open("ci_serve/two.jsonl"):
    j = json.loads(line)
    if "result" in j and j.get("id") is not None:
        res[j["id"]] = j["result"]
r1, r2 = res[1], res[2]
assert r1["status"] == "ok" and r2["status"] == "ok"
assert r2["fresh"] == 0 and r2["hits"] > 0, "second tune not memo-served"
cli = {}
for l in open("ci_serve/cli_ans.txt"):
    k, v = l.split(":", 1)
    cli[k.strip()] = v.strip()
for r in (r1, r2):
    assert r["best_variant"] == cli["best variant"], (r, cli)
    assert r["parameters"] == cli["parameters"], (r, cli)
    assert r["performance"] == cli["performance"].split()[0], (r, cli)
EOF

# Cancellation: the cancel lands at a batch boundary, the session
# answers with a typed "cancelled" partial plus a resumable checkpoint,
# and the daemon keeps serving (clean exit 0 at EOF).
printf '%s\n%s\n' \
  '{"id":3,"method":"tune","params":{"kernel":"matmul","n":96,"budget":300000}}' \
  '{"id":4,"method":"cancel","params":{"session":3}}' \
  | dune exec bin/eco_cli.exe -- serve --dir ci_serve/ck2 > ci_serve/cancel.jsonl
python3 - <<'EOF'
import json
res = {}
for line in open("ci_serve/cancel.jsonl"):
    j = json.loads(line)
    if "result" in j and j.get("id") is not None:
        res[j["id"]] = j["result"]
assert res[3]["status"] == "cancelled", res[3]
assert res[4]["cancelled"] is True, res[4]
EOF

# Crash-only recovery: a fault-injected kill -9 at the 10th batch
# boundary leaves a durable request file; a restarted daemon replays it
# unprompted to the same answer as the one-shot CLI, then consumes it.
set +e
printf '%s\n' \
  '{"id":7,"method":"tune","params":{"kernel":"matvec","n":64,"budget":100000}}' \
  | dune exec bin/eco_cli.exe -- serve --dir ci_serve/ck3 \
      --faults kill_after=10 > ci_serve/killed.jsonl
rc=$?
set -e
test "$rc" -ne 0
ls ci_serve/ck3/*.req
dune exec bin/eco_cli.exe -- serve --dir ci_serve/ck3 \
  < /dev/null > ci_serve/recovered.jsonl
python3 - <<'EOF'
import json
rec = None
for line in open("ci_serve/recovered.jsonl"):
    j = json.loads(line)
    if j.get("method") == "recovered":
        rec = j["params"]
assert rec is not None, "no recovered notification"
assert rec["session"] == 7 and rec["status"] == "ok", rec
cli = {}
for l in open("ci_serve/cli_ans.txt"):
    k, v = l.split(":", 1)
    cli[k.strip()] = v.strip()
assert rec["best_variant"] == cli["best variant"], (rec, cli)
assert rec["parameters"] == cli["parameters"], (rec, cli)
assert rec["performance"] == cli["performance"].split()[0], (rec, cli)
EOF
test -z "$(ls ci_serve/ck3/*.req 2>/dev/null)"

# A corrupt store degrades the daemon (db: degraded in status, tunes
# still answered correctly) instead of killing it.
rm -f ci_serve/db.bin
dune exec bin/eco_cli.exe -- tune -k matvec -n 64 -b 100000 \
  --db ci_serve/db.bin > /dev/null
printf 'XXXX' | dd of=ci_serve/db.bin bs=1 seek=13 count=4 conv=notrunc
printf '%s\n%s\n' \
  '{"id":8,"method":"status"}' \
  '{"id":9,"method":"tune","params":{"kernel":"matvec","n":64,"budget":100000}}' \
  | dune exec bin/eco_cli.exe -- serve --dir ci_serve/ck4 \
      --db ci_serve/db.bin > ci_serve/degraded.jsonl
python3 - <<'EOF'
import json
res = {}
for line in open("ci_serve/degraded.jsonl"):
    j = json.loads(line)
    if "result" in j and j.get("id") is not None:
        res[j["id"]] = j["result"]
assert res[8]["db"] == "degraded", res[8]
assert res[9]["status"] == "ok", res[9]
cli = {}
for l in open("ci_serve/cli_ans.txt"):
    k, v = l.split(":", 1)
    cli[k.strip()] = v.strip()
assert res[9]["best_variant"] == cli["best variant"], (res[9], cli)
EOF

# Single-writer lock: while the daemon holds the store, a concurrent
# "eco tune --db" on the same file must fail fast with the typed
# db_locked error, not corrupt anything.
rm -f ci_serve/db2.bin
mkfifo ci_serve/in
dune exec bin/eco_cli.exe -- serve --dir ci_serve/ck5 \
  --db ci_serve/db2.bin < ci_serve/in > ci_serve/lock.jsonl &
serve_pid=$!
exec 9> ci_serve/in
i=0
while test ! -s ci_serve/lock.jsonl && test "$i" -lt 100; do
  sleep 0.1
  i=$((i + 1))
done
test -s ci_serve/lock.jsonl
set +e
dune exec bin/eco_cli.exe -- tune -k matvec -n 64 -b 50000 \
  --db ci_serve/db2.bin > /dev/null 2> ci_serve/locked_err.txt
rc=$?
set -e
test "$rc" -eq 1
grep -q '"code":"db_locked"' ci_serve/locked_err.txt
exec 9>&-
wait "$serve_pid"

# Wall-clock deadline on the one-shot CLI: a typed partial with the
# timeout marker and the best point found so far, exit 0.
dune exec bin/eco_cli.exe -- tune -k matmul -n 128 -b 2000000 \
  --timeout 0.2 > ci_serve/timeout.txt
grep -q "^timeout:" ci_serve/timeout.txt
grep -q "^best variant:" ci_serve/timeout.txt
grep -q "(partial)" ci_serve/timeout.txt
rm -rf ci_serve

echo "ci.sh: all checks passed"
