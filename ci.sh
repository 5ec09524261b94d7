#!/bin/bash
# Tier-1 verification, fully offline: release build, whole test suite,
# formatting. Run from the repository root; exits non-zero on the first
# failure. No network access is required at any point — the workspace has
# zero crates.io dependencies (see DESIGN.md "Offline substrate").
set -euo pipefail
cd "$(dirname "$0")"

echo "== one CPU-feature probe =="
# crates/tensor/src/simd.rs holds the workspace's only CPUID probe, shared
# by simd_hot! and the CRC folds; a second probe would let two dispatchers
# disagree about the host.
PROBES="$(grep -rl --exclude-dir=target 'is_x86_feature_detected!' crates \
    | grep -vx 'crates/tensor/src/simd.rs' || true)"
[ -z "$PROBES" ] \
    || { echo "is_x86_feature_detected! outside crates/tensor/src/simd.rs:"; \
         echo "$PROBES"; exit 1; }

echo "== every bench writes rows =="
# A bench under crates/bench/benches/ records its numbers as
# results/BENCH_*.json rows through report::write_json_merged, directly or
# through report::report_kg (the BENCH_kg writer kg_retrieval and kg_mutate
# share). Numbers that only reach a console are not evidence: rows or
# nothing.
SILENT="$(grep -L 'write_json_merged\|report_kg(' crates/bench/benches/*.rs || true)"
[ -z "$SILENT" ] \
    || { echo "benches that never call write_json_merged:"; echo "$SILENT"; exit 1; }

echo "== cargo build --release (offline) =="
# --workspace selects what the root manifest's default-members already do
# (every crate, including crates/cli and the bench binaries); it stays
# explicit so the gate does not depend on that list.
cargo build --release --offline --workspace

# Scratch space for the gates below; removed on exit.
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "== Figure 2 pin (offline) =="
# The Figure 2 chain counts (cf_chains::exact_chain_count on the shared
# simple-path walk) are a pure function of the seeded twins, so the binary
# must reproduce the checked-in CSV byte for byte. The kg_store gate's cmp
# steps pin the chain index that the same walk builds.
CF_SCALE=default CF_SEED=7 CF_OUT="$SMOKE_DIR/fig2" \
    ./target/release/fig2_chain_explosion >/dev/null
cmp "$SMOKE_DIR/fig2/fig2_chain_explosion.csv" results/fig2_chain_explosion.csv \
    || { echo "fig2 pin: counts differ from results/fig2_chain_explosion.csv"; exit 1; }

echo "== cargo test (offline) =="
cargo test -q --workspace --offline

echo "== cargo test at 8 test threads (offline) =="
# More test threads than this host has cores: tests that share a temp
# path or other process-wide state race here even on a 1- or 2-core host.
RUST_TEST_THREADS=8 cargo test -q --workspace --offline

echo "== quantized accuracy gate (offline, release) =="
# The int8 serving path is accuracy-gated, not assumed: per-attribute MAE
# drift of the int8 InferCtx vs the f32 path must stay under the pinned
# threshold on the simulated twins (DESIGN.md §15). Run it in release so
# the gate exercises the same SIMD dispatch tiers production serving uses.
cargo test -q --release --offline -p chainsformer --test quant_accuracy

echo "== bitwise serving suites (offline, release) =="
# The packed weight twins (DESIGN.md §8, §15.3) and the contracted affine
# transfer (§9.7) claim the bits of the per-call, materialized path. The
# debug runs above check that claim in debug codegen; these check it in
# the optimized codegen `cfkg` serves with, at every SIMD tier the host has.
cargo test -q --release --offline -p cf-tensor --test packed_twin
cargo test -q --release --offline -p chainsformer --test batch_parity

echo "== bench build + smoke (offline) =="
# Keep the micro-benchmarks compiling and runnable: a 1-sample pass of
# every bench catches kernel regressions that only manifest in release
# bench binaries. CF_BENCH_JSON stays unset so results/BENCH_*.json are
# not clobbered by smoke numbers.
cargo build --offline --benches --workspace
CF_BENCH_SAMPLES=1 cargo bench --offline -p chainsformer-bench \
    --bench tensor_kernels --bench kg_retrieval --bench kg_mutate >/dev/null

echo "== cfbench build + unit tests (offline) =="
# The repository's benchmark is a cargo package of its own that links
# cf-serve, cf-load and the model crates by path, outside the workspace.
# Building and testing it here turns a change to an API it uses into a CI
# failure instead of a silently broken benchmark.
CFBENCH=crates/bench/src/bin/cfbench/Cargo.toml
cargo build --release --offline --manifest-path "$CFBENCH"
cargo test -q --offline --manifest-path "$CFBENCH"

echo "== zero-allocation gate (offline) =="
# The buffer pool's steady-state contract on the real model: after warm-up,
# a train step (tape forward + loss + backward + Adam) and a served predict
# (warm InferCtx forward, f32 and quantized int8, and the engine's path
# through a warm pattern cache) must perform exactly 0 heap allocations.
# The gate binary runs under a counting global allocator
# and starts with a 2-epoch toy training run, so "training still converges
# with recycled buffers" is covered on the way to the counters. It also
# holds each walk retrieval to one allocation per retrieved chain plus
# four, and each filter pre-training epoch to eight allocations. See
# DESIGN.md §6.2, §9.3, §10 and §15.
./target/release/alloc_gate

echo "== serve smoke (offline) =="
# End-to-end check of the cf-serve subsystem: train a tiny checkpoint,
# start the TCP server on an ephemeral port, exercise a valid query, a
# malformed request (must get a structured error, not a dropped
# connection), a metrics scrape, overload shedding, and a clean SIGTERM
# shutdown with exit 0.
CFKG=./target/release/cfkg
"$CFKG" generate --dataset yago --scale small --seed 3 --out "$SMOKE_DIR" >/dev/null
SMOKE_FLAGS=(--triples "$SMOKE_DIR/yago15k_sim_triples.tsv" \
             --numerics "$SMOKE_DIR/yago15k_sim_numerics.tsv" \
             --ckpt "$SMOKE_DIR/model.ckpt" \
             --dim 16 --layers 1 --walks 32 --top-k 8 --seed 3)
"$CFKG" train "${SMOKE_FLAGS[@]}" --epochs 1 >/dev/null

# One CLI predict through the resident engine (the path the alloc gate
# measures in-process) — must answer without error on the toy checkpoint.
"$CFKG" predict "${SMOKE_FLAGS[@]}" --entity person_0 --attr birth >/dev/null

# The server treats stdin close as a shutdown request, so hold its stdin
# open on a FIFO for the lifetime of the smoke test (fd 5).
mkfifo "$SMOKE_DIR/serve_stdin"
"$CFKG" serve "${SMOKE_FLAGS[@]}" --port 0 \
    < "$SMOKE_DIR/serve_stdin" > "$SMOKE_DIR/serve.log" 2>&1 &
SERVE_PID=$!
exec 5>"$SMOKE_DIR/serve_stdin"
for _ in $(seq 1 100); do
    grep -q '^listening on ' "$SMOKE_DIR/serve.log" && break
    sleep 0.1
done
SERVE_ADDR="$(sed -n 's/^listening on //p' "$SMOKE_DIR/serve.log" | head -1)"
SERVE_PORT="${SERVE_ADDR##*:}"
[ -n "$SERVE_PORT" ] || { echo "serve smoke: no listening line"; exit 1; }
# The served model is the one `cfkg train` wrote, filter and normalizer
# included: the start-up line names its checkpoint and reports no fit.
grep -q "^start-up ms: store open [0-9.]*, split [0-9.]*, model load [0-9.]* (from $SMOKE_DIR/model.ckpt, no fit)" \
    "$SMOKE_DIR/serve.log" \
    || { echo "serve smoke: model not loaded from its checkpoint:"; \
         cat "$SMOKE_DIR/serve.log"; exit 1; }

exec 3<>"/dev/tcp/127.0.0.1/$SERVE_PORT"
printf '%s\n' '{"entity":"person_0","attr":"birth","id":1}' >&3
read -r -t 30 REPLY_OK <&3 || { echo "serve smoke: no reply to query 1"; exit 1; }
echo "$REPLY_OK" | grep -q '"ok":true' \
    || { echo "serve smoke: expected ok reply, got: $REPLY_OK"; exit 1; }
printf '%s\n' 'this is not json' >&3
read -r -t 30 REPLY_BAD <&3 || { echo "serve smoke: no reply to bad query"; exit 1; }
echo "$REPLY_BAD" | grep -q '"ok":false' \
    || { echo "serve smoke: expected structured error, got: $REPLY_BAD"; exit 1; }
printf '%s\n' '{"entity":"person_0","attr":"birth","id":2}' >&3
read -r -t 30 REPLY_OK2 <&3 || { echo "serve smoke: no reply to query 2"; exit 1; }
echo "$REPLY_OK2" | grep -q '"ok":true' \
    || { echo "serve smoke: expected second ok reply, got: $REPLY_OK2"; exit 1; }
# Hot-reload: a valid checkpoint swaps in over the same connection without
# dropping traffic; a corrupt one is rejected with a structured error and
# the old model keeps serving.
cp "$SMOKE_DIR/model.ckpt" "$SMOKE_DIR/reload.ckpt"
printf '%s\n' "{\"reload\":\"$SMOKE_DIR/reload.ckpt\",\"id\":3}" >&3
read -r -t 30 REPLY_RELOAD <&3 || { echo "serve smoke: no reply to reload"; exit 1; }
echo "$REPLY_RELOAD" | grep -q '"reloaded":true' \
    || { echo "serve smoke: expected reload ack, got: $REPLY_RELOAD"; exit 1; }
head -c 100 "$SMOKE_DIR/model.ckpt" > "$SMOKE_DIR/corrupt.ckpt"
printf '%s\n' "{\"reload\":\"$SMOKE_DIR/corrupt.ckpt\",\"id\":4}" >&3
read -r -t 30 REPLY_CORRUPT <&3 || { echo "serve smoke: no reply to corrupt reload"; exit 1; }
echo "$REPLY_CORRUPT" | grep -q '"ok":false' \
    || { echo "serve smoke: corrupt checkpoint was accepted: $REPLY_CORRUPT"; exit 1; }
printf '%s\n' '{"entity":"person_0","attr":"birth","id":6}' >&3
read -r -t 30 REPLY_OK3 <&3 || { echo "serve smoke: no reply after rejected reload"; exit 1; }
echo "$REPLY_OK3" | grep -q '"ok":true' \
    || { echo "serve smoke: server broken after rejected reload: $REPLY_OK3"; exit 1; }
printf '%s\n' 'GET /metrics' >&3
METRICS=""
while read -r -t 30 LINE <&3; do
    [ -z "$LINE" ] && break
    METRICS+="$LINE"$'\n'
done
echo "$METRICS" | grep -q '^cf_serve_ok_total 3' \
    || { echo "serve smoke: metrics missing ok_total 3:"; echo "$METRICS"; exit 1; }
echo "$METRICS" | grep -q '^cf_serve_latency_us_p50 ' \
    || { echo "serve smoke: metrics missing latency p50"; exit 1; }
echo "$METRICS" | grep -q '^cf_serve_reloads_ok_total 1' \
    || { echo "serve smoke: metrics missing reloads_ok 1:"; echo "$METRICS"; exit 1; }
echo "$METRICS" | grep -q '^cf_serve_reloads_rejected_total 1' \
    || { echo "serve smoke: metrics missing reloads_rejected 1:"; echo "$METRICS"; exit 1; }
exec 3<&- 3>&-

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "serve smoke: server exited non-zero"; exit 1; }
exec 5>&-
grep -q 'shutdown complete' "$SMOKE_DIR/serve.log" \
    || { echo "serve smoke: no graceful shutdown message"; exit 1; }

# Overload shedding: a zero-capacity queue must reject with "overloaded".
mkfifo "$SMOKE_DIR/shed_stdin"
"$CFKG" serve "${SMOKE_FLAGS[@]}" --port 0 --queue-cap 0 \
    < "$SMOKE_DIR/shed_stdin" > "$SMOKE_DIR/shed.log" 2>&1 &
SHED_PID=$!
exec 5>"$SMOKE_DIR/shed_stdin"
for _ in $(seq 1 100); do
    grep -q '^listening on ' "$SMOKE_DIR/shed.log" && break
    sleep 0.1
done
SHED_PORT="$(sed -n 's/^listening on .*://p' "$SMOKE_DIR/shed.log" | head -1)"
[ -n "$SHED_PORT" ] || { echo "serve smoke: no shed listening line"; exit 1; }
exec 4<>"/dev/tcp/127.0.0.1/$SHED_PORT"
printf '%s\n' '{"entity":"person_0","attr":"birth","id":5}' >&4
read -r -t 30 REPLY_SHED <&4 || { echo "serve smoke: no reply from shed server"; exit 1; }
echo "$REPLY_SHED" | grep -q 'overloaded' \
    || { echo "serve smoke: expected overloaded, got: $REPLY_SHED"; exit 1; }
exec 4<&- 4>&-
kill -TERM "$SHED_PID"
wait "$SHED_PID" || { echo "serve smoke: shed server exited non-zero"; exit 1; }
exec 5>&-
echo "serve smoke: ok"

echo "== crash-recovery smoke (offline) =="
# The durability contract end to end, with a real kill -9: a run killed
# mid-training and resumed with --resume must produce a final checkpoint
# byte-identical to an uninterrupted control run (the in-process version of
# this property is pinned by crates/core/tests/resume_parity.rs; this
# exercises it across an actual process death).
CRASH_FLAGS=(--triples "$SMOKE_DIR/yago15k_sim_triples.tsv" \
             --numerics "$SMOKE_DIR/yago15k_sim_numerics.tsv" \
             --dim 16 --layers 1 --walks 32 --top-k 8 --seed 3 --epochs 5)
"$CFKG" train "${CRASH_FLAGS[@]}" --ckpt "$SMOKE_DIR/control.ckpt" >/dev/null
"$CFKG" train "${CRASH_FLAGS[@]}" --ckpt "$SMOKE_DIR/crash.ckpt" \
    > "$SMOKE_DIR/crash.log" 2>&1 &
CRASH_PID=$!
# The first epoch-boundary checkpoint appearing means the run is mid-epoch
# 2 of 5 — kill it there, as unceremoniously as possible.
for _ in $(seq 1 3000); do
    [ -f "$SMOKE_DIR/crash.ckpt" ] && break
    kill -0 "$CRASH_PID" 2>/dev/null || break
    sleep 0.02
done
kill -9 "$CRASH_PID" 2>/dev/null \
    || { echo "crash smoke: run finished before kill -9 landed"; exit 1; }
wait "$CRASH_PID" 2>/dev/null || true
[ -f "$SMOKE_DIR/crash.ckpt" ] \
    || { echo "crash smoke: no checkpoint on disk at kill time"; exit 1; }
"$CFKG" train "${CRASH_FLAGS[@]}" --resume --ckpt "$SMOKE_DIR/crash.ckpt" >/dev/null
cmp "$SMOKE_DIR/control.ckpt" "$SMOKE_DIR/crash.ckpt" \
    || { echo "crash smoke: resumed checkpoint differs from control"; exit 1; }
echo "crash-recovery smoke: ok"

echo "== thread-matrix gate (offline) =="
# Deterministic parallelism end to end: the same training run at --threads 1
# and --threads 4 must produce byte-identical checkpoints and epoch-loss
# trajectories (the in-process version is
# crates/core/tests/thread_invariance.rs; this pins it across the CLI,
# including the --threads/CF_THREADS plumbing), and the zero-allocation
# steady-state contract must keep holding with the pool fanned out.
"$CFKG" train "${CRASH_FLAGS[@]}" --threads 1 --ckpt "$SMOKE_DIR/t1.ckpt" \
    > "$SMOKE_DIR/t1.log"
"$CFKG" train "${CRASH_FLAGS[@]}" --threads 4 --ckpt "$SMOKE_DIR/t4.ckpt" \
    > "$SMOKE_DIR/t4.log"
cmp "$SMOKE_DIR/t1.ckpt" "$SMOKE_DIR/t4.ckpt" \
    || { echo "thread matrix: checkpoints differ between 1 and 4 threads"; exit 1; }
# The control run above used the default width (CF_THREADS / auto-detect):
# it must match the pinned widths too.
cmp "$SMOKE_DIR/t1.ckpt" "$SMOKE_DIR/control.ckpt" \
    || { echo "thread matrix: default-width checkpoint differs from --threads 1"; exit 1; }
grep '^epoch' "$SMOKE_DIR/t1.log" > "$SMOKE_DIR/t1.epochs"
grep '^epoch' "$SMOKE_DIR/t4.log" > "$SMOKE_DIR/t4.epochs"
[ -s "$SMOKE_DIR/t1.epochs" ] \
    || { echo "thread matrix: no epoch lines in training output"; exit 1; }
cmp "$SMOKE_DIR/t1.epochs" "$SMOKE_DIR/t4.epochs" \
    || { echo "thread matrix: epoch-loss dumps differ between 1 and 4 threads"; exit 1; }
CF_THREADS=1 ./target/release/alloc_gate >/dev/null \
    || { echo "thread matrix: alloc gate failed at 1 thread"; exit 1; }
CF_THREADS=4 ./target/release/alloc_gate >/dev/null \
    || { echo "thread matrix: alloc gate failed at 4 threads"; exit 1; }
echo "thread-matrix gate: ok"

echo "== kg_store gate (offline) =="
# The CFKG1/CFCI1 contracts end to end through the CLI (DESIGN.md §13):
# ingest is a pure function of the graph (byte-identical re-ingest), a
# flipped body byte in a store or an index yields a typed error naming the
# failing section (never a panic or a garbage graph), the chain index is
# bitwise identical at every thread count, and serving retrieval from the
# index answers queries end to end.
KG_DIR="$SMOKE_DIR/kg"
mkdir -p "$KG_DIR"
"$CFKG" gen --entities 3000 --avg-degree 4 --seed 11 --out "$KG_DIR" \
    --store "$KG_DIR/gen.cfkg" >/dev/null
KG_TSV=(--triples "$KG_DIR/large_triples.tsv" --numerics "$KG_DIR/large_numerics.tsv")
"$CFKG" ingest "${KG_TSV[@]}" --out "$KG_DIR/a.cfkg" >/dev/null
"$CFKG" ingest "${KG_TSV[@]}" --out "$KG_DIR/b.cfkg" >/dev/null
cmp "$KG_DIR/a.cfkg" "$KG_DIR/b.cfkg" \
    || { echo "kg_store: re-ingested store is not byte-identical"; exit 1; }
cmp "$KG_DIR/a.cfkg" "$KG_DIR/gen.cfkg" \
    || { echo "kg_store: TSV-ingested store differs from gen --store"; exit 1; }
"$CFKG" stats --store "$KG_DIR/a.cfkg" >/dev/null \
    || { echo "kg_store: stats over the store failed"; exit 1; }
# Flip one byte inside the first section body (offset 24: past the 8-byte
# magic and the 16-byte section header) — the load must fail with a typed
# error naming the section, not panic or succeed.
cp "$KG_DIR/a.cfkg" "$KG_DIR/corrupt.cfkg"
printf '\xff' | dd of="$KG_DIR/corrupt.cfkg" bs=1 seek=24 conv=notrunc status=none
if "$CFKG" stats --store "$KG_DIR/corrupt.cfkg" > "$KG_DIR/corrupt.log" 2>&1; then
    echo "kg_store: corrupted store loaded successfully"; exit 1
fi
grep -q 'section "counts" failed its CRC32 check' "$KG_DIR/corrupt.log" \
    || { echo "kg_store: corruption error does not name the section:"; \
         cat "$KG_DIR/corrupt.log"; exit 1; }
# The same for the last section: a store ends with the numerics body, so
# `size - 40` (before the 8-byte trailer, the 16-byte end marker and the
# 8-byte footer) is a byte of the last numeric value.
cp "$KG_DIR/a.cfkg" "$KG_DIR/corrupt_last.cfkg"
KG_AT=$(( $(stat -c %s "$KG_DIR/corrupt_last.cfkg") - 40 ))
KG_BYTE=$(od -An -tu1 -j "$KG_AT" -N1 "$KG_DIR/corrupt_last.cfkg" | tr -d ' ')
printf "\\$(printf '%03o' $(( KG_BYTE ^ 0x5A )))" \
    | dd of="$KG_DIR/corrupt_last.cfkg" bs=1 seek="$KG_AT" conv=notrunc status=none
if "$CFKG" stats --store "$KG_DIR/corrupt_last.cfkg" > "$KG_DIR/corrupt_last.log" 2>&1; then
    echo "kg_store: store with a corrupt last section loaded successfully"; exit 1
fi
grep -q 'section "numerics" failed its CRC32 check' "$KG_DIR/corrupt_last.log" \
    || { echo "kg_store: corruption error does not name the last section:"; \
         cat "$KG_DIR/corrupt_last.log"; exit 1; }
# Chain index: bitwise identical across pool widths.
"$CFKG" index --store "$KG_DIR/a.cfkg" --full --threads 1 \
    --out "$KG_DIR/t1.cfci" >/dev/null
"$CFKG" index --store "$KG_DIR/a.cfkg" --full --threads 4 \
    --out "$KG_DIR/t4.cfci" >/dev/null
cmp "$KG_DIR/t1.cfci" "$KG_DIR/t4.cfci" \
    || { echo "kg_store: chain index differs between 1 and 4 threads"; exit 1; }
# Indexed-retrieval smoke: ingest the serve-smoke graph, index its visible
# split, and answer a query through `serve --store --index`.
"$CFKG" ingest --triples "$SMOKE_DIR/yago15k_sim_triples.tsv" \
    --numerics "$SMOKE_DIR/yago15k_sim_numerics.tsv" \
    --out "$KG_DIR/yago.cfkg" >/dev/null
"$CFKG" index --store "$KG_DIR/yago.cfkg" --seed 3 \
    --out "$KG_DIR/yago.cfci" >/dev/null
mkfifo "$KG_DIR/ix_stdin"
"$CFKG" serve --store "$KG_DIR/yago.cfkg" --index "$KG_DIR/yago.cfci" \
    --ckpt "$SMOKE_DIR/model.ckpt" \
    --dim 16 --layers 1 --walks 32 --top-k 8 --seed 3 --port 0 \
    < "$KG_DIR/ix_stdin" > "$KG_DIR/ix.log" 2>&1 &
IX_PID=$!
exec 5>"$KG_DIR/ix_stdin"
for _ in $(seq 1 100); do
    grep -q '^listening on ' "$KG_DIR/ix.log" && break
    sleep 0.1
done
IX_PORT="$(sed -n 's/^listening on .*://p' "$KG_DIR/ix.log" | head -1)"
[ -n "$IX_PORT" ] || { echo "kg_store: no listening line from indexed serve"; exit 1; }
exec 6<>"/dev/tcp/127.0.0.1/$IX_PORT"
printf '%s\n' '{"entity":"person_0","attr":"birth","id":1}' >&6
read -r -t 30 REPLY_IX <&6 || { echo "kg_store: no reply from indexed serve"; exit 1; }
echo "$REPLY_IX" | grep -q '"ok":true' \
    || { echo "kg_store: expected ok reply, got: $REPLY_IX"; exit 1; }
exec 6<&- 6>&-
kill -TERM "$IX_PID"
wait "$IX_PID" || { echo "kg_store: indexed serve exited non-zero"; exit 1; }
exec 5>&-
# A corrupt chain index stops `serve --index` before it listens, with a
# typed error naming the section: one byte of the last 32-byte entry
# changes (`size - 40`: the entries body ends before the 8-byte trailer,
# the 16-byte end marker and the 8-byte footer).
cp "$KG_DIR/yago.cfci" "$KG_DIR/corrupt.cfci"
IX_AT=$(( $(stat -c %s "$KG_DIR/corrupt.cfci") - 40 ))
IX_BYTE=$(od -An -tu1 -j "$IX_AT" -N1 "$KG_DIR/corrupt.cfci" | tr -d ' ')
printf "\\$(printf '%03o' $(( IX_BYTE ^ 0x5A )))" \
    | dd of="$KG_DIR/corrupt.cfci" bs=1 seek="$IX_AT" conv=notrunc status=none
if "$CFKG" serve --store "$KG_DIR/yago.cfkg" --index "$KG_DIR/corrupt.cfci" \
    --ckpt "$SMOKE_DIR/model.ckpt" \
    --dim 16 --layers 1 --walks 32 --top-k 8 --seed 3 --port 0 \
    < /dev/null > "$KG_DIR/corrupt_ix.log" 2>&1; then
    echo "kg_store: serve started on a corrupt index"; exit 1
fi
grep -q 'section "entries" failed its CRC32 check' "$KG_DIR/corrupt_ix.log" \
    || { echo "kg_store: corrupt-index error does not name the section:"; \
         cat "$KG_DIR/corrupt_ix.log"; exit 1; }
if grep -q 'listening on' "$KG_DIR/corrupt_ix.log"; then
    echo "kg_store: serve listened on a corrupt index"; exit 1
fi
echo "kg_store gate: ok"

echo "== shard-matrix gate (offline) =="
# The sharded-serving contract end to end through the CLI (DESIGN.md §14):
# servers at --shards 1 and --shards 4 driven by the same deterministic
# open-loop plan must return byte-identical responses (entity-hash routing
# + per-query retrieval RNG make answers independent of shard count), and
# the metrics text must carry shard-labeled counters without disturbing
# the unlabeled global names. The matrix runs once per quantize mode
# (DESIGN.md §15): int8 serving is integer math under the hood, so its
# responses must be exactly as shard-count-invariant as f32's, and the
# scraped metrics must report the active mode. Every loadtest mixes in a
# hot reload each 40 requests, so the one-time validate, pack and swap of
# the engine's one model (and int8 twin) runs at every cell of the matrix
# and must not move a response byte (DESIGN.md §14.3).
SHARD_DIR="$SMOKE_DIR/shards"
mkdir -p "$SHARD_DIR"
for QZ in f32 int8; do
  for SH in 1 4; do
    mkfifo "$SHARD_DIR/stdin_${QZ}_$SH"
    "$CFKG" serve "${SMOKE_FLAGS[@]}" --port 0 --shards "$SH" --quantize "$QZ" \
        < "$SHARD_DIR/stdin_${QZ}_$SH" > "$SHARD_DIR/serve_${QZ}_$SH.log" 2>&1 &
    SH_PID=$!
    exec 5>"$SHARD_DIR/stdin_${QZ}_$SH"
    for _ in $(seq 1 100); do
        grep -q '^listening on ' "$SHARD_DIR/serve_${QZ}_$SH.log" && break
        sleep 0.1
    done
    SH_PORT="$(sed -n 's/^listening on .*://p' "$SHARD_DIR/serve_${QZ}_$SH.log" | head -1)"
    [ -n "$SH_PORT" ] || { echo "shard matrix: no listening line at $QZ/$SH shards"; exit 1; }
    grep -q "serving with $SH shard" "$SHARD_DIR/serve_${QZ}_$SH.log" \
        || { echo "shard matrix: server did not report $SH shards"; exit 1; }
    grep -q "$QZ inference" "$SHARD_DIR/serve_${QZ}_$SH.log" \
        || { echo "shard matrix: server did not report $QZ inference"; exit 1; }
    "$CFKG" loadtest --addr "127.0.0.1:$SH_PORT" \
        --triples "$SMOKE_DIR/yago15k_sim_triples.tsv" \
        --numerics "$SMOKE_DIR/yago15k_sim_numerics.tsv" \
        --rate 500 --requests 120 --warmup 20 --conns 4 --seed 5 \
        --reload "$SMOKE_DIR/reload.ckpt" --reload-every 40 \
        --dump "$SHARD_DIR/responses_${QZ}_$SH.dump" > "$SHARD_DIR/load_${QZ}_$SH.log" \
        || { echo "shard matrix: loadtest failed at $QZ/$SH shards"; exit 1; }
    grep -q 'shed 0 ' "$SHARD_DIR/load_${QZ}_$SH.log" \
        || { echo "shard matrix: light load shed requests at $QZ/$SH shards:"; \
             cat "$SHARD_DIR/load_${QZ}_$SH.log"; exit 1; }
    # Scrape shard-labeled metrics: every shard row present, globals intact,
    # quantize-mode gauge reporting the configured mode.
    exec 7<>"/dev/tcp/127.0.0.1/$SH_PORT"
    printf '%s\n' 'GET /metrics' >&7
    SH_METRICS=""
    while read -r -t 30 LINE <&7; do
        [ -z "$LINE" ] && break
        SH_METRICS+="$LINE"$'\n'
    done
    exec 7<&- 7>&-
    echo "$SH_METRICS" | grep -q '^cf_serve_ok_total ' \
        || { echo "shard matrix: global counters missing at $QZ/$SH shards"; exit 1; }
    echo "$SH_METRICS" | grep -q "^cf_serve_quantize_mode{mode=\"$QZ\"} 1" \
        || { echo "shard matrix: metrics do not report mode $QZ:"; \
             echo "$SH_METRICS"; exit 1; }
    for S in $(seq 0 $((SH - 1))); do
        echo "$SH_METRICS" | grep -q "^cf_serve_shard_requests_total{shard=\"$S\"} " \
            || { echo "shard matrix: no metrics row for shard $S of $SH"; exit 1; }
    done
    echo "$SH_METRICS" | grep -q "^cf_serve_shard_requests_total{shard=\"$SH\"} " \
        && { echo "shard matrix: phantom shard row at $SH shards"; exit 1; }
    kill -TERM "$SH_PID"
    wait "$SH_PID" || { echo "shard matrix: server exited non-zero at $QZ/$SH shards"; exit 1; }
    exec 5>&-
  done
  cmp "$SHARD_DIR/responses_${QZ}_1.dump" "$SHARD_DIR/responses_${QZ}_4.dump" \
      || { echo "shard matrix: $QZ response bytes differ between 1 and 4 shards"; exit 1; }
  [ -s "$SHARD_DIR/responses_${QZ}_1.dump" ] \
      || { echo "shard matrix: empty $QZ response dump"; exit 1; }
done
echo "shard-matrix gate: ok"

echo "== live-mutation gate (offline) =="
# The live-mutation durability contract end to end with a real kill -9
# (DESIGN.md §16): two servers over the same base store receive an
# identical mutation stream — a deterministic --mutate-every loadtest on a
# single connection, then an explicit acked batch over /dev/tcp. The
# control server stops gracefully; the crash server is kill -9'd after the
# acks and its journal grows a synthetic torn tail (a partial CFJ1 frame,
# what a mid-append power cut leaves behind). On restart the journal must
# replay — torn tail truncated, every acked mutation preserved — and keep
# serving, including the entity that only exists in the overlay. Offline
# compaction of both journals must then produce byte-identical stores. An
# indexed arm then pins the served bytes of a chain-indexed server under
# mutations across shard counts and a restart, and an online-compaction
# arm pins what `--compact-to/--compact-every` writes.
MUT_DIR="$SMOKE_DIR/mut"
mkdir -p "$MUT_DIR"
MUT_FLAGS=(--store "$KG_DIR/yago.cfkg" --ckpt "$SMOKE_DIR/model.ckpt" \
           --dim 16 --layers 1 --walks 32 --top-k 8 --seed 3)
MUT_BATCH='{"mutate":[{"op":"upsert","entity":"person_0","attr":"birth","value":1984.5},{"op":"add_entity","name":"smoke_probe"},{"op":"add_edge","head":"smoke_probe","rel":"is_citizen_of","tail":"person_0"}],"id":2}'
mutation_arm() { # $1 = arm name; starts the server, drives traffic + batch
    local ARM="$1"
    mkfifo "$MUT_DIR/${ARM}_stdin"
    "$CFKG" serve "${MUT_FLAGS[@]}" --port 0 --journal "$MUT_DIR/$ARM.cfj" \
        < "$MUT_DIR/${ARM}_stdin" > "$MUT_DIR/$ARM.log" 2>&1 &
    MUT_PID=$!
    exec 5>"$MUT_DIR/${ARM}_stdin"
    for _ in $(seq 1 100); do
        grep -q '^listening on ' "$MUT_DIR/$ARM.log" && break
        sleep 0.1
    done
    MUT_PORT="$(sed -n 's/^listening on .*://p' "$MUT_DIR/$ARM.log" | head -1)"
    [ -n "$MUT_PORT" ] || { echo "mutation gate: no listening line ($ARM)"; exit 1; }
    # Mutations mid-traffic: every 10th planned request carries an upsert.
    # One connection keeps the mutation order identical across arms.
    "$CFKG" loadtest --addr "127.0.0.1:$MUT_PORT" \
        --triples "$SMOKE_DIR/yago15k_sim_triples.tsv" \
        --numerics "$SMOKE_DIR/yago15k_sim_numerics.tsv" \
        --rate 500 --requests 100 --warmup 0 --conns 1 --seed 7 \
        --mutate-every 10 > "$MUT_DIR/load_$ARM.log" \
        || { echo "mutation gate: loadtest failed ($ARM)"; exit 1; }
    grep -q 'mutations 10+0' "$MUT_DIR/load_$ARM.log" \
        || { echo "mutation gate: expected 10 acked mutations ($ARM):"; \
             cat "$MUT_DIR/load_$ARM.log"; exit 1; }
    exec 8<>"/dev/tcp/127.0.0.1/$MUT_PORT"
    printf '%s\n' "$MUT_BATCH" >&8
    read -r -t 30 REPLY_MUT <&8 || { echo "mutation gate: no mutate ack ($ARM)"; exit 1; }
    echo "$REPLY_MUT" | grep -q '"mutated":true' \
        || { echo "mutation gate: mutate rejected ($ARM): $REPLY_MUT"; exit 1; }
    # A malformed mutation must fail with a typed per-field error line.
    printf '%s\n' '{"mutate":{"op":"upsert","entity":"e","attr":"a","value":"x"},"id":3}' >&8
    read -r -t 30 REPLY_BADMUT <&8 || { echo "mutation gate: no bad-mutate reply ($ARM)"; exit 1; }
    echo "$REPLY_BADMUT" | grep -q 'mutate.value\\" must be a finite number' \
        || { echo "mutation gate: untyped mutate error ($ARM): $REPLY_BADMUT"; exit 1; }
    # A well-formed mutation naming an attribute outside the serving
    # vocabulary is rejected by the engine (and counted as such) without
    # touching the journal or the overlay.
    printf '%s\n' '{"mutate":{"op":"upsert","entity":"person_0","attr":"no_such_attr","value":1.0},"id":9}' >&8
    read -r -t 30 REPLY_VOCAB <&8 || { echo "mutation gate: no vocab-reject reply ($ARM)"; exit 1; }
    echo "$REPLY_VOCAB" | grep -q 'not in the serving vocabulary' \
        || { echo "mutation gate: vocab rejection missing ($ARM): $REPLY_VOCAB"; exit 1; }
    # The overlay-only entity must be servable, and the mutation counters
    # must be scrapable (10 loadtest upserts + 1 batch, 1 rejected).
    printf '%s\n' '{"entity":"smoke_probe","attr":"birth","id":4}' >&8
    read -r -t 30 REPLY_PROBE <&8 || { echo "mutation gate: no probe reply ($ARM)"; exit 1; }
    echo "$REPLY_PROBE" | grep -q '"ok":true' \
        || { echo "mutation gate: overlay entity not served ($ARM): $REPLY_PROBE"; exit 1; }
    printf '%s\n' 'GET /metrics' >&8
    MUT_METRICS=""
    while read -r -t 30 LINE <&8; do
        [ -z "$LINE" ] && break
        MUT_METRICS+="$LINE"$'\n'
    done
    exec 8<&- 8>&-
    echo "$MUT_METRICS" | grep -q '^cf_serve_mutations_ok_total 11' \
        || { echo "mutation gate: metrics missing mutations_ok 11 ($ARM):"; \
             echo "$MUT_METRICS"; exit 1; }
    echo "$MUT_METRICS" | grep -q '^cf_serve_mutations_rejected_total 1' \
        || { echo "mutation gate: metrics missing mutations_rejected 1 ($ARM)"; exit 1; }
}

mutation_arm control
kill -TERM "$MUT_PID"
wait "$MUT_PID" || { echo "mutation gate: control server exited non-zero"; exit 1; }
exec 5>&-

mutation_arm crash
kill -9 "$MUT_PID"
wait "$MUT_PID" 2>/dev/null || true
exec 5>&-
# A partial CFJ1 frame (length word + 1 crc byte) on the tail: the torn
# write a power cut leaves. Replay must truncate it, not fail.
printf '\x20\x00\x00\x00\x99' >> "$MUT_DIR/crash.cfj"
mkfifo "$MUT_DIR/restart_stdin"
"$CFKG" serve "${MUT_FLAGS[@]}" --port 0 --journal "$MUT_DIR/crash.cfj" \
    < "$MUT_DIR/restart_stdin" > "$MUT_DIR/restart.log" 2>&1 &
RESTART_PID=$!
exec 5>"$MUT_DIR/restart_stdin"
for _ in $(seq 1 100); do
    grep -q '^listening on ' "$MUT_DIR/restart.log" && break
    sleep 0.1
done
RESTART_PORT="$(sed -n 's/^listening on .*://p' "$MUT_DIR/restart.log" | head -1)"
[ -n "$RESTART_PORT" ] || { echo "mutation gate: no listening line after restart"; exit 1; }
grep -q 'replayed 13 mutation(s)' "$MUT_DIR/restart.log" \
    || { echo "mutation gate: restart did not replay 13 mutations:"; \
         cat "$MUT_DIR/restart.log"; exit 1; }
exec 8<>"/dev/tcp/127.0.0.1/$RESTART_PORT"
printf '%s\n' '{"entity":"smoke_probe","attr":"birth","id":5}' >&8
read -r -t 30 REPLY_REPLAY <&8 || { echo "mutation gate: no reply after replay"; exit 1; }
echo "$REPLY_REPLAY" | grep -q '"ok":true' \
    || { echo "mutation gate: replayed overlay entity not served: $REPLY_REPLAY"; exit 1; }
exec 8<&- 8>&-
kill -TERM "$RESTART_PID"
wait "$RESTART_PID" || { echo "mutation gate: restarted server exited non-zero"; exit 1; }
exec 5>&-

# Fold both journals into stores offline: identical mutation histories must
# compact to byte-identical CFKG1 files — the crash changed nothing.
for ARM in control crash; do
    "$CFKG" compact --store "$KG_DIR/yago.cfkg" --journal "$MUT_DIR/$ARM.cfj" \
        --out "$MUT_DIR/$ARM.kg" > "$MUT_DIR/compact_$ARM.log" \
        || { echo "mutation gate: compact failed ($ARM)"; exit 1; }
done
cmp "$MUT_DIR/control.kg" "$MUT_DIR/crash.kg" \
    || { echo "mutation gate: crash-recovered store differs from control"; exit 1; }

# Indexed arm (DESIGN.md §16.3): with a chain index, the row of an entity
# a mutation may have changed is recomputed against the live graph, so
# answers are a function of the graph alone. Servers with --index at
# --shards 1 and 4 take the same single-connection mutation stream (whose
# responses must match byte for byte), then answer a query-only probe
# stream; after a restart that replays the journal they answer it again.
# All four probe dumps must be byte-identical, and the server must report
# that recomputed rows answered some of them.
IXM_FLAGS=("${MUT_FLAGS[@]}" --index "$KG_DIR/yago.cfci")
ixm_serve() { # $1 = name, $2 = journal, then serve flags; sets IXM_PID and IXM_PORT
    local NAME="$1" JOURNAL="$2"
    shift 2
    mkfifo "$MUT_DIR/${NAME}_stdin"
    "$CFKG" serve "${IXM_FLAGS[@]}" --port 0 --journal "$JOURNAL" "$@" \
        < "$MUT_DIR/${NAME}_stdin" > "$MUT_DIR/$NAME.log" 2>&1 &
    IXM_PID=$!
    exec 5>"$MUT_DIR/${NAME}_stdin"
    for _ in $(seq 1 100); do
        grep -q '^listening on ' "$MUT_DIR/$NAME.log" && break
        sleep 0.1
    done
    IXM_PORT="$(sed -n 's/^listening on .*://p' "$MUT_DIR/$NAME.log" | head -1)"
    [ -n "$IXM_PORT" ] || { echo "mutation gate: no listening line ($NAME)"; \
                            cat "$MUT_DIR/$NAME.log"; exit 1; }
}
ixm_load() { # $1 = dump name, then loadtest flags
    local NAME="$1"
    shift
    "$CFKG" loadtest --addr "127.0.0.1:$IXM_PORT" \
        --triples "$SMOKE_DIR/yago15k_sim_triples.tsv" \
        --numerics "$SMOKE_DIR/yago15k_sim_numerics.tsv" \
        --rate 500 --warmup 0 --conns 1 "$@" \
        --dump "$MUT_DIR/$NAME.dump" > "$MUT_DIR/load_$NAME.log" \
        || { echo "mutation gate: loadtest failed ($NAME)"; exit 1; }
    grep -q 'shed 0 ' "$MUT_DIR/load_$NAME.log" \
        || { echo "mutation gate: requests shed ($NAME):"; \
             cat "$MUT_DIR/load_$NAME.log"; exit 1; }
}
ixm_stop() {
    kill -TERM "$IXM_PID"
    wait "$IXM_PID" || { echo "mutation gate: indexed server exited non-zero"; exit 1; }
    exec 5>&-
}
for SH in 1 4; do
    ixm_serve "ix_$SH" "$MUT_DIR/ix_$SH.cfj" --shards "$SH"
    ixm_load "ix_mutate_$SH" --requests 100 --seed 7 --mutate-every 10
    grep -q 'mutations 10+0' "$MUT_DIR/load_ix_mutate_$SH.log" \
        || { echo "mutation gate: expected 10 acked mutations (indexed, $SH shards)"; exit 1; }
    ixm_load "ix_probe_$SH" --requests 60 --seed 9
    exec 8<>"/dev/tcp/127.0.0.1/$IXM_PORT"
    printf '%s\n' 'GET /metrics' >&8
    IXM_METRICS=""
    while read -r -t 30 LINE <&8; do
        [ -z "$LINE" ] && break
        IXM_METRICS+="$LINE"$'\n'
    done
    exec 8<&- 8>&-
    echo "$IXM_METRICS" | grep -q '^cf_serve_index_rows_rebuilt_total [1-9]' \
        || { echo "mutation gate: no answer from a recomputed row ($SH shards):"; \
             echo "$IXM_METRICS"; exit 1; }
    ixm_stop
    ixm_serve "ix_restart_$SH" "$MUT_DIR/ix_$SH.cfj" --shards "$SH"
    grep -q 'replayed 10 mutation(s)' "$MUT_DIR/ix_restart_$SH.log" \
        || { echo "mutation gate: indexed restart did not replay 10 mutations ($SH shards)"; \
             cat "$MUT_DIR/ix_restart_$SH.log"; exit 1; }
    ixm_load "ix_probe_restart_$SH" --requests 60 --seed 9
    ixm_stop
done
cmp "$MUT_DIR/ix_mutate_1.dump" "$MUT_DIR/ix_mutate_4.dump" \
    || { echo "mutation gate: indexed mutation-stream responses differ between 1 and 4 shards"; exit 1; }
for PROBE in ix_probe_4 ix_probe_restart_1 ix_probe_restart_4; do
    cmp "$MUT_DIR/ix_probe_1.dump" "$MUT_DIR/$PROBE.dump" \
        || { echo "mutation gate: indexed probe answers differ ($PROBE vs ix_probe_1)"; exit 1; }
done

# Online-compaction arm (DESIGN.md §16.2): the same indexed servers with
# --compact-to C --compact-every 5 fold base + overlay into C after the
# 5th and the 10th journal record (OverlayGraph::materialize) and empty
# the journal each time. Compaction leaves the overlay as it is, so the
# responses equal the indexed arm's; the stores written at 1 and 4 shards
# are byte-identical, readable, and each journal is left as its 8-byte
# magic.
for SH in 1 4; do
    ixm_serve "cx_$SH" "$MUT_DIR/cx_$SH.cfj" --shards "$SH" \
        --compact-to "$MUT_DIR/cx_$SH.cfkg" --compact-every 5
    ixm_load "cx_mutate_$SH" --requests 100 --seed 7 --mutate-every 10
    grep -q 'mutations 10+0' "$MUT_DIR/load_cx_mutate_$SH.log" \
        || { echo "mutation gate: expected 10 acked mutations (compacting, $SH shards)"; exit 1; }
    ixm_stop
    cmp "$MUT_DIR/ix_mutate_1.dump" "$MUT_DIR/cx_mutate_$SH.dump" \
        || { echo "mutation gate: online compaction changed a response ($SH shards)"; exit 1; }
    "$CFKG" stats --store "$MUT_DIR/cx_$SH.cfkg" > "$MUT_DIR/cx_stats_$SH.log" \
        || { echo "mutation gate: compacted store unreadable ($SH shards)"; exit 1; }
    printf 'CFJ1\0\0\0\0' | cmp - "$MUT_DIR/cx_$SH.cfj" \
        || { echo "mutation gate: journal not emptied by compaction ($SH shards)"; exit 1; }
done
cmp "$MUT_DIR/cx_1.cfkg" "$MUT_DIR/cx_4.cfkg" \
    || { echo "mutation gate: online-compacted stores differ between 1 and 4 shards"; exit 1; }
echo "live-mutation gate: ok"

echo "== cargo fmt --check =="
cargo fmt --check

echo "== ci.sh: all green =="
