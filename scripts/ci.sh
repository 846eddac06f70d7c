#!/usr/bin/env bash
# Tier-1 verification gate in one command.
#
# Usage: scripts/ci.sh
# Runs from the repository root regardless of the caller's cwd.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo build --release -p limpet-opt"
cargo build --release -p limpet-opt

echo "==> cargo check -p limpet-vm --target aarch64-unknown-linux-gnu"
# The step loop is plain indexed Rust but for two `#[target_feature]`
# wrappers behind `cfg(target_arch = "x86_64")`; checking another
# architecture keeps it so. Only where the target is already installed:
# nothing is fetched.
if { rustup target list --installed 2> /dev/null || true; } | grep -q '^aarch64-unknown-linux-gnu$'; then
  cargo check -p limpet-vm --target aarch64-unknown-linux-gnu
else
  echo "skipped: target aarch64-unknown-linux-gnu is not installed"
fi

echo "==> step-loop lane loops stay vector code (float-to-integer conversions in the AVX-512 build)"
# A saturating float-to-integer `as` cast in a lane loop compiles to a
# per-lane scalar `vcvttsd2si` sequence and keeps LLVM from vectorizing
# the loop (DESIGN.md §9b). `Run::batched_avx512` held 204 of them while
# `vmath::exp_block`, `LutData::row_frac` and the sin/cos quadrant cast,
# and holds 0 without; more than 8 means a lane loop went scalar again.
# On x86_64 with objdump only; a missing symbol fails rather than skips.
if [ "$(uname -m)" = x86_64 ] && command -v objdump > /dev/null; then
  CVT=$(objdump -d --no-show-raw-insn -C target/release/figures | awk '
    /^[0-9a-f]+ <.*>:$/ { inside = index($0, "<limpet_vm::engine::Run::batched_avx512>") > 0; found += inside }
    inside && /vcvttsd2u?si/ { n++ }
    END { print found ? n + 0 : "missing" }')
  case $CVT in
    missing)
      echo "limpet_vm::engine::Run::batched_avx512 is not in target/release/figures"
      exit 1
      ;;
    *)
      if [ "$CVT" -gt 8 ]; then
        echo "batched_avx512 holds $CVT scalar float-to-integer conversions (at most 8)"
        exit 1
      fi
      echo "batched_avx512: $CVT scalar float-to-integer conversions (at most 8)"
      ;;
  esac
else
  echo "skipped: not x86_64, or no objdump"
fi

echo "==> limpet-opt smoke (pipeline round-trip)"
./target/release/limpet-opt --list-passes > /dev/null
printf 'module @m {\n  func.func @compute() {\n    func.return\n  }\n}\n' \
  | ./target/release/limpet-opt --pipeline "const-prop,cse,dce" - > /dev/null

echo "==> cargo test -q"
cargo test -q

echo "==> README fault list (the kinds --inject knows, no more, no fewer)"
# `figures --inject` refuses an unknown name and lists every kind it knows
# (exit 2); README's spec-grammar block (`# Faults: …` up to the line
# ending in `.`) must name exactly those.
set +e
INJECT_ERR=$(./target/release/figures --inject nope 2>&1 > /dev/null)
INJECT_STATUS=$?
set -e
[ "$INJECT_STATUS" -eq 2 ] \
  || { echo "README fault list: figures --inject nope exited $INJECT_STATUS, not 2"; exit 1; }
KNOWN_FAULTS=$(printf '%s\n' "$INJECT_ERR" | sed -n 's/.*(known: \(.*\))$/\1/p' | tr -d ' ' | tr ',' '\n' | sort)
README_FAULTS=$(sed -n '/^# Faults: /,/\.$/p' README.md | sed 's/^# \(Faults: \)\{0,1\}//; s/\.$//' \
  | tr -d ' ' | tr ',' '\n' | sed '/^$/d' | sort)
[ -n "$KNOWN_FAULTS" ] || { echo "README fault list: no known: list in '$INJECT_ERR'"; exit 1; }
diff <(echo "$KNOWN_FAULTS") <(echo "$README_FAULTS") \
  || { echo "README fault list: README.md (>) differs from figures --inject (<)"; exit 1; }

echo "==> paths named in DESIGN.md and README.md exist"
# Every `dir/.../name.rs|.sh|.csv` the two documents name must be a file at
# the repository root or under one crate directory (`crates/*/`), so a
# moved or deleted file cannot stay documented. Paths under `output/` are
# what `figures` writes, not sources; a bare file name is not checked.
MISSING_PATHS=""
for p in $(grep -ohE '[A-Za-z0-9_.-]+(/[A-Za-z0-9_.-]+)+\.(rs|sh|csv)' DESIGN.md README.md | sort -u); do
  case $p in output/*) continue ;; esac
  [ -e "$p" ] || compgen -G "crates/*/$p" > /dev/null || MISSING_PATHS="$MISSING_PATHS $p"
done
[ -z "$MISSING_PATHS" ] || { echo "DESIGN.md or README.md names missing paths:$MISSING_PATHS"; exit 1; }

echo "==> disk-cache persistence gate (warm second process, fault degradation)"
# Cold run populates a throwaway cache dir; a second, fresh process must
# then produce zero cold compiles and bit-identical trajectory digests;
# a third run with all three disk faults injected must degrade to
# recompiles (recorded incidents) while keeping the digests identical.
PERSIST_DIR=$(mktemp -d)
PERSIST_OUT=$(mktemp -d)
SUBSET=HodgkinHuxley,BeelerReuter,TenTusscherPanfilov
./target/release/figures --digest --models "$SUBSET" --cache-dir "$PERSIST_DIR" \
  > "$PERSIST_OUT/cold.txt"
cp output/digests.csv "$PERSIST_OUT/cold.csv"
./target/release/figures --digest --models "$SUBSET" --cache-dir "$PERSIST_DIR" \
  > "$PERSIST_OUT/warm.txt"
cp output/digests.csv "$PERSIST_OUT/warm.csv"
grep -q " 0 cold compilations" "$PERSIST_OUT/warm.txt" \
  || { echo "persistence gate: warm second process recompiled"; cat "$PERSIST_OUT/warm.txt"; exit 1; }
cmp "$PERSIST_OUT/cold.csv" "$PERSIST_OUT/warm.csv" \
  || { echo "persistence gate: warm digests diverged from cold"; exit 1; }
LIMPET_INJECT="disk-corrupt@3,disk-truncate@5,disk-stale-version@1" \
  ./target/release/figures --digest --models "$SUBSET" --cache-dir "$PERSIST_DIR" \
  > "$PERSIST_OUT/faulted.txt"
cp output/digests.csv "$PERSIST_OUT/faulted.csv"
grep -q "disk cache entry rejected" "$PERSIST_OUT/faulted.txt" \
  || { echo "persistence gate: injected disk faults left no incident"; cat "$PERSIST_OUT/faulted.txt"; exit 1; }
# The digest columns must match; the tier column may legitimately
# differ (a faulted lookup can finish on a different rung).
cmp <(cut -d, -f1-3 "$PERSIST_OUT/cold.csv") <(cut -d, -f1-3 "$PERSIST_OUT/faulted.csv") \
  || { echo "persistence gate: faulted digests diverged from cold"; exit 1; }
./target/release/figures --cache stat --cache-dir "$PERSIST_DIR" > /dev/null
./target/release/figures --cache clear --cache-dir "$PERSIST_DIR" | grep -q "cleared" \
  || { echo "persistence gate: cache clear failed"; exit 1; }
rm -rf "$PERSIST_DIR" "$PERSIST_OUT"

echo "==> disk-cache capacity gate (one full precompile fits the default cap)"
# The most one run stores is figures' precompile of the roster under all 16
# configurations: 688 entries and 117 table records, 45.9 MiB in entry
# format 6 (64.8 MiB in format 5, which also stored each printed module;
# 387 MiB in format 4, where every entry carried its own tables; format 2
# wrote 803 MiB and evicted 455 entries on the way). Under the
# default cap (no LIMPET_CACHE_CAP_MB) the run must keep every record it
# writes, and a second process must then find all 688 entries on disk. The
# directory is held under 70 MiB, so tables copied back into the entries
# (or one record per configuration) cannot return unnoticed.
CAP_DIR=$(mktemp -d)
CAP_OUT=$(mktemp -d)
for RUN in cold warm; do
  env -u LIMPET_CACHE_CAP_MB ./target/release/figures --stats --jobs "$(nproc)" \
    --cells 64 --steps 2 --cache-dir "$CAP_DIR" > "$CAP_OUT/$RUN.txt"
done
grep -q "disk tier .*: 688 entries, 117 table records, .* 688 writes, 0 rejected, 0 evicted" "$CAP_OUT/cold.txt" \
  || { echo "capacity gate: the precompile did not keep its 688 entries and 117 table records"; grep -A2 "^kernel cache" "$CAP_OUT/cold.txt"; exit 1; }
grep -q " 688 disk hits, 0 cold compilations" "$CAP_OUT/warm.txt" \
  || { echo "capacity gate: the second process did not find 688 entries"; grep -A2 "^kernel cache" "$CAP_OUT/warm.txt"; exit 1; }
CAP_BYTES=$(./target/release/figures --cache stat --json --cache-dir "$CAP_DIR" \
  | grep -o '"bytes":[0-9]*' | head -1 | sed 's/.*://')
[[ $CAP_BYTES =~ ^[1-9][0-9]*$ ]] \
  || { echo "capacity gate: could not read the directory's bytes ('$CAP_BYTES')"; exit 1; }
[ "$CAP_BYTES" -le $((70 * 1024 * 1024)) ] \
  || { echo "capacity gate: the precompile stored $CAP_BYTES bytes, more than 70 MiB"; exit 1; }
rm -rf "$CAP_DIR" "$CAP_OUT"

echo "==> real-thread figure gate (provenance tags + digest parity)"
# fig3 + fig4 with real threads on the CI subset: every CSV row must
# carry a measured|modeled provenance tag, the measured region must
# actually be exercised (fig4's T <= 2 points, via explicit
# oversubscription on 1-core runners; fig3's T=32 rows stay modeled),
# and trajectory digests must be bit-identical with and without the
# real-thread path enabled.
RT_DIR=$(mktemp -d)
RT_OUT=$(mktemp -d)
./target/release/figures --fig3 --fig4 --digest --real-threads --max-threads 2 \
  --models "$SUBSET" --cells 64 --steps 16 --repeats 3 --cache-dir "$RT_DIR" \
  > "$RT_OUT/real.txt"
cp output/fig3.csv "$RT_OUT/fig3.csv"
cp output/fig4.csv "$RT_OUT/fig4.csv"
cp output/digests.csv "$RT_OUT/real_digests.csv"
awk -F, 'NR > 1 && $4 != "measured" && $4 != "modeled" { bad = 1 }
         END { exit bad }' "$RT_OUT/fig3.csv" \
  || { echo "real-thread gate: fig3 row missing measured|modeled tag"; cat "$RT_OUT/fig3.csv"; exit 1; }
awk -F, 'NR > 1 && $5 != "measured" && $5 != "modeled" { bad = 1 }
         END { exit bad }' "$RT_OUT/fig4.csv" \
  || { echo "real-thread gate: fig4 row missing measured|modeled tag"; cat "$RT_OUT/fig4.csv"; exit 1; }
grep -q "measured" "$RT_OUT/fig4.csv" && grep -q "modeled" "$RT_OUT/fig4.csv" \
  || { echo "real-thread gate: fig4 must mix measured and modeled rows"; cat "$RT_OUT/fig4.csv"; exit 1; }
grep -q "measuring T <= 2" "$RT_OUT/real.txt" \
  || { echo "real-thread gate: measured region not announced"; cat "$RT_OUT/real.txt"; exit 1; }
./target/release/figures --digest --models "$SUBSET" \
  --cells 64 --steps 16 --cache-dir "$RT_DIR" > /dev/null
cmp output/digests.csv "$RT_OUT/real_digests.csv" \
  || { echo "real-thread gate: digests diverged from single-thread run"; exit 1; }
rm -rf "$RT_DIR" "$RT_OUT"

echo "==> native-tier gate (promotion, bit-identity, fault degradation, warm restart)"
# The CI-subset roster runs with native promotion on: promotion must
# compile, probate, and swap in every model with full-state bit-identity
# against bytecode; simulations promoted where they are built
# (--digest --native) must leave digests bit-identical to the bytecode
# tier; a warm second process must start at the native tier with zero
# recompiles; and each injected native fault must degrade cleanly to
# bytecode with the incident surfaced and nothing quarantined persisted.
NATIVE_DIR=$(mktemp -d)
NATIVE_OUT=$(mktemp -d)
./target/release/figures --digest --models "$SUBSET" --cells 64 --steps 400 \
  --cache-dir "$NATIVE_DIR" > "$NATIVE_OUT/bytecode.txt"
cp output/digests.csv "$NATIVE_OUT/bytecode.csv"
./target/release/figures --digest --models "$SUBSET" --cells 64 --steps 400 \
  --native --cache-dir "$NATIVE_DIR" > "$NATIVE_OUT/async.txt"
cp output/digests.csv "$NATIVE_OUT/async.csv"
# Compare model/config/digest only: the --native run legitimately reports
# tier native where the bytecode run reports optimized — the digest
# equality is the claim.
cmp <(cut -d, -f1-3 "$NATIVE_OUT/bytecode.csv") <(cut -d, -f1-3 "$NATIVE_OUT/async.csv") \
  || { echo "native gate: digests diverged under --native"; diff "$NATIVE_OUT/bytecode.csv" "$NATIVE_OUT/async.csv" || true; exit 1; }
./target/release/figures --native-bench --models "$SUBSET" --cells 64 --steps 100 \
  --repeats 2 --cache-dir "$NATIVE_DIR" > "$NATIVE_OUT/bench.txt"
grep -q "native-promoted" "$NATIVE_OUT/bench.txt" \
  || { echo "native gate: no model promoted"; cat "$NATIVE_OUT/bench.txt"; exit 1; }
grep -q "bits DIFF" "$NATIVE_OUT/bench.txt" \
  && { echo "native gate: native tier diverged from bytecode"; cat "$NATIVE_OUT/bench.txt"; exit 1; }
grep -q "native unavailable" "$NATIVE_OUT/bench.txt" \
  && { echo "native gate: a subset model failed to promote"; cat "$NATIVE_OUT/bench.txt"; exit 1; }
# Warm restart over the same cache dir: the shared objects load from
# disk (re-probated), so the process reaches the native tier with zero
# cc invocations.
./target/release/figures --native-bench --models "$SUBSET" --cells 64 --steps 100 \
  --repeats 2 --cache-dir "$NATIVE_DIR" > "$NATIVE_OUT/warm.txt"
grep -q "0 cc compile(s)" "$NATIVE_OUT/warm.txt" \
  || { echo "native gate: warm process recompiled native kernels"; cat "$NATIVE_OUT/warm.txt"; exit 1; }
grep -q "3 disk hit(s)" "$NATIVE_OUT/warm.txt" \
  || { echo "native gate: warm process did not load shared objects from disk"; cat "$NATIVE_OUT/warm.txt"; exit 1; }
grep -q "bits DIFF" "$NATIVE_OUT/warm.txt" \
  && { echo "native gate: warm native tier diverged"; cat "$NATIVE_OUT/warm.txt"; exit 1; }
# Injected native faults: each quarantines the native slot, degrades to
# bytecode bit-identically, surfaces the incident, and persists nothing.
./target/release/figures --digest --models HodgkinHuxley --cells 64 --steps 400 \
  --cache-dir "$NATIVE_OUT/hh-ref" > /dev/null
cp output/digests.csv "$NATIVE_OUT/hh.csv"
for FAULT in cc-fail dlopen-fail native-divergent compile-hang; do
  FDIR=$(mktemp -d)
  # A hung compiler is killed by the cc watchdog and quarantined under
  # its own incident kind, not the generic compiler-failure one.
  MARK="$FAULT"; [ "$FAULT" = compile-hang ] && MARK=cc-timeout
  LIMPET_INJECT="$FAULT@7" ./target/release/figures --digest --models HodgkinHuxley \
    --cells 64 --steps 400 --native --cache-dir "$FDIR" \
    > "$NATIVE_OUT/fault-$FAULT.txt"
  cp output/digests.csv "$NATIVE_OUT/fault-$FAULT.csv"
  LIMPET_INJECT="$FAULT@7" ./target/release/figures --native-bench --models HodgkinHuxley \
    --cells 64 --steps 100 --repeats 1 --cache-dir "$FDIR" \
    >> "$NATIVE_OUT/fault-$FAULT.txt"
  cmp <(cut -d, -f1-3 "$NATIVE_OUT/hh.csv") <(cut -d, -f1-3 "$NATIVE_OUT/fault-$FAULT.csv") \
    || { echo "native gate: $FAULT run diverged from bytecode"; exit 1; }
  grep -q "\[$MARK\]" "$NATIVE_OUT/fault-$FAULT.txt" \
    || { echo "native gate: $MARK incident not surfaced"; cat "$NATIVE_OUT/fault-$FAULT.txt"; exit 1; }
  if ls "$FDIR"/native-*.lso > /dev/null 2>&1; then
    echo "native gate: $FAULT persisted a quarantined shared object"; ls "$FDIR"; exit 1
  fi
  rm -rf "$FDIR"
done
rm -rf "$NATIVE_DIR" "$NATIVE_OUT"

echo "==> easyml no-panic lint gate"
cargo clippy -q -p limpet-easyml -- -D clippy::unwrap_used -D clippy::expect_used

echo "==> simulation service gate (limpet-serve end-to-end)"
# Drives the daemon through the full service story: 12 concurrent jobs
# across 2 tenants over one shared kernel cache with digests bit-identical
# to the single-process figures driver; typed over-quota rejections; an
# injected-fault job degrading per-job while the daemon stays up; kill -9
# + restart resuming the journaled job with an identical digest; and
# SIGTERM / shutdown-verb clean exits.
SERVE_DIR=$(mktemp -d)
SERVE_OUT=$(mktemp -d)
SERVE_SOCK="$SERVE_DIR/serve.sock"
SERVE_PID=""
SERVE2_PID=""
TIGHT_PID=""
SLOW_PID=""
trap 'kill -9 ${SERVE_PID:-} ${SERVE2_PID:-} ${TIGHT_PID:-} ${SLOW_PID:-} 2>/dev/null || true' EXIT
CLIENT=./target/release/limpet-client

# Ground truth from the single-process driver, into the same cache dir
# the daemon will share (compile-once per machine).
./target/release/figures --digest --models "$SUBSET" --cells 64 --steps 16 \
  --cache-dir "$SERVE_DIR" > /dev/null
sort output/digests.csv > "$SERVE_OUT/expected.csv"

# --checkpoint-every is deliberately coarse here: the chunk-1 victim
# below would otherwise fsync a snapshot every single step of its
# headless re-run. The dedicated checkpoint gate covers mid-trajectory
# snapshot resume; this gate covers journal replay.
./target/release/limpet-serve --unix "$SERVE_SOCK" --workers 4 \
  --cache-dir "$SERVE_DIR" --journal "$SERVE_DIR/jobs.journal" \
  --checkpoint-every 1000 > "$SERVE_OUT/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do [ -S "$SERVE_SOCK" ] && break; sleep 0.1; done
[ -S "$SERVE_SOCK" ] \
  || { echo "service gate: daemon did not come up"; cat "$SERVE_OUT/serve.log"; exit 1; }

# 3 models x 2 configs = 12 concurrent jobs round-robined over 2 tenants.
"$CLIENT" --unix "$SERVE_SOCK" drive --models "$SUBSET" \
  --configs baseline,limpetMLIR-AVX-512 --tenants ci-a,ci-b \
  --cells 64 --steps 16 | sort > "$SERVE_OUT/drive.csv"
cmp "$SERVE_OUT/expected.csv" "$SERVE_OUT/drive.csv" \
  || { echo "service gate: daemon digests diverged from figures --digest"; \
       diff "$SERVE_OUT/expected.csv" "$SERVE_OUT/drive.csv" || true; exit 1; }

# Injected fault: the job degrades to the reference tier (quarantining
# its kernel, not the daemon) and completes. The SSE config keeps the
# quarantined key disjoint from the parity configs above.
"$CLIENT" --unix "$SERVE_SOCK" submit --model HodgkinHuxley --config sse \
  --cells 16 --steps 8 --tenant ci-a --inject verify-fail@7 \
  > "$SERVE_OUT/fault.txt"
grep -q '"status":"done"' "$SERVE_OUT/fault.txt" \
  || { echo "service gate: injected-fault job did not complete"; cat "$SERVE_OUT/fault.txt"; exit 1; }
grep -q '"tier":"reference"' "$SERVE_OUT/fault.txt" \
  || { echo "service gate: injected-fault job did not degrade to reference tier"; cat "$SERVE_OUT/fault.txt"; exit 1; }
"$CLIENT" --unix "$SERVE_SOCK" stats > "$SERVE_OUT/stats.json"
grep -q '"kind":"tier-fallback"' "$SERVE_OUT/stats.json" \
  || { echo "service gate: stats verb does not report the tier-fallback incident"; cat "$SERVE_OUT/stats.json"; exit 1; }
grep -q '"quarantined":1' "$SERVE_OUT/stats.json" \
  || { echo "service gate: stats verb does not report the quarantined kernel"; cat "$SERVE_OUT/stats.json"; exit 1; }
"$CLIENT" --unix "$SERVE_SOCK" ping | grep -q '"event":"pong"' \
  || { echo "service gate: daemon died after the injected fault"; exit 1; }

# Reference digest for the crash-recovery job shape.
"$CLIENT" --unix "$SERVE_SOCK" submit --model HodgkinHuxley --cells 64 \
  --steps 20000 --chunk 20000 --id ref-victim --tenant ci-a > "$SERVE_OUT/ref.txt"
REF_DIGEST=$(grep -o '"digest":"[0-9a-f]\{16\}"' "$SERVE_OUT/ref.txt" | head -1)
[ -n "$REF_DIGEST" ] || { echo "service gate: no reference digest"; cat "$SERVE_OUT/ref.txt"; exit 1; }

# kill -9 mid-run: the victim streams one event per step to a reader
# sleeping 1 s per event, so it is deterministically stalled mid-run
# (blocked on its own backpressure) when the kill lands.
"$CLIENT" --unix "$SERVE_SOCK" submit --model HodgkinHuxley --cells 64 \
  --steps 20000 --chunk 1 --id victim --tenant ci-a --slow-ms 1000 \
  > /dev/null 2>&1 &
SLOW_PID=$!
sleep 2
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""
kill "$SLOW_PID" 2>/dev/null || true
wait "$SLOW_PID" 2>/dev/null || true
SLOW_PID=""

# Restart over the same journal: the victim resumes headless and its
# digest must be bit-identical to the uninterrupted reference run.
./target/release/limpet-serve --unix "$SERVE_SOCK" --workers 2 \
  --cache-dir "$SERVE_DIR" --journal "$SERVE_DIR/jobs.journal" \
  --checkpoint-every 1000 > "$SERVE_OUT/serve2.log" 2>&1 &
SERVE2_PID=$!
for _ in $(seq 1 100); do [ -S "$SERVE_SOCK" ] && break; sleep 0.1; done
[ -S "$SERVE_SOCK" ] \
  || { echo "service gate: daemon did not restart"; cat "$SERVE_OUT/serve2.log"; exit 1; }
RESUMED=""
for _ in $(seq 1 240); do
  "$CLIENT" --unix "$SERVE_SOCK" result --id victim > "$SERVE_OUT/victim.txt" || true
  if grep -q '"event":"done"' "$SERVE_OUT/victim.txt"; then RESUMED=yes; break; fi
  sleep 0.5
done
[ -n "$RESUMED" ] || { echo "service gate: resumed job never finished"; cat "$SERVE_OUT/serve2.log"; exit 1; }
VICTIM_DIGEST=$(grep -o '"digest":"[0-9a-f]\{16\}"' "$SERVE_OUT/victim.txt" | head -1)
[ "$VICTIM_DIGEST" = "$REF_DIGEST" ] \
  || { echo "service gate: resumed digest $VICTIM_DIGEST != reference $REF_DIGEST"; exit 1; }
"$CLIENT" --unix "$SERVE_SOCK" stats > "$SERVE_OUT/stats.json"
grep -q '"resumed":1' "$SERVE_OUT/stats.json" \
  || { echo "service gate: restart did not resume exactly the victim"; exit 1; }
grep -q '"checkpoint_save_failures":0' "$SERVE_OUT/stats.json" \
  || { echo "service gate: a checkpoint save failed"; cat "$SERVE_OUT/stats.json"; exit 1; }
# Shutdown verb: clean exit, journal flushed.
"$CLIENT" --unix "$SERVE_SOCK" shutdown | grep -q '"event":"stopping"' \
  || { echo "service gate: shutdown verb not acknowledged"; exit 1; }
wait "$SERVE2_PID" \
  || { echo "service gate: daemon exited uncleanly after shutdown verb"; exit 1; }
SERVE2_PID=""

# Tight-quota daemon: per-tenant 429s under flood, 413 on an oversized
# job, and a clean SIGTERM exit.
TIGHT_SOCK="$SERVE_DIR/tight.sock"
./target/release/limpet-serve --unix "$TIGHT_SOCK" --workers 1 \
  --max-jobs 2 --max-cost 2000000 --cache-dir "$SERVE_DIR" \
  > "$SERVE_OUT/tight.log" 2>&1 &
TIGHT_PID=$!
for _ in $(seq 1 100); do [ -S "$TIGHT_SOCK" ] && break; sleep 0.1; done
[ -S "$TIGHT_SOCK" ] \
  || { echo "service gate: tight-quota daemon did not come up"; cat "$SERVE_OUT/tight.log"; exit 1; }
"$CLIENT" --unix "$TIGHT_SOCK" flood --model HodgkinHuxley --count 6 \
  --tenant bob --cells 64 --steps 20000 > "$SERVE_OUT/flood.txt"
grep -q '^rejected-429 ' "$SERVE_OUT/flood.txt" \
  || { echo "service gate: flood produced no 429 rejections"; cat "$SERVE_OUT/flood.txt"; exit 1; }
"$CLIENT" --unix "$TIGHT_SOCK" submit --model HodgkinHuxley --cells 8192 \
  --steps 100000 --tenant bob > "$SERVE_OUT/oversized.txt" 2>&1 || true
grep -q '"code":413' "$SERVE_OUT/oversized.txt" \
  || { echo "service gate: oversized job not rejected with 413"; cat "$SERVE_OUT/oversized.txt"; exit 1; }
kill -TERM "$TIGHT_PID"
wait "$TIGHT_PID" \
  || { echo "service gate: daemon exited uncleanly on SIGTERM"; exit 1; }
TIGHT_PID=""
trap - EXIT
rm -rf "$SERVE_DIR" "$SERVE_OUT"

echo "==> chaos survivability gate (seeded soak: deadlines, watchdog, hostile wire)"
# A fixed-seed chaos soak drives a deadline+watchdog-armed daemon through
# slow-loris writes, torn frames, mid-stream disconnects, and injected
# worker hangs across 2 tenants. The daemon must survive it all (still
# answering ping), the digest CSV must stay byte-identical to the
# single-process figures driver, and the wedged-worker machinery must
# actually have fired (watchdog reclaim + respawn in `survivability`).
# `timeout` puts a hard wall clock on the soak — a hang here is itself a
# gate failure.
CHAOS_DIR=$(mktemp -d)
CHAOS_OUT=$(mktemp -d)
CHAOS_SOCK="$CHAOS_DIR/chaos.sock"
CHAOS_PID=""
trap 'kill -9 ${CHAOS_PID:-} 2>/dev/null || true' EXIT
./target/release/figures --digest --models "$SUBSET" --cells 64 --steps 16 \
  --cache-dir "$CHAOS_DIR" > /dev/null
sort output/digests.csv > "$CHAOS_OUT/expected.csv"
./target/release/limpet-serve --unix "$CHAOS_SOCK" --workers 4 \
  --cache-dir "$CHAOS_DIR" --deadline-ms 60000 --watchdog-ms 200 \
  > "$CHAOS_OUT/serve.log" 2>&1 &
CHAOS_PID=$!
for _ in $(seq 1 100); do [ -S "$CHAOS_SOCK" ] && break; sleep 0.1; done
[ -S "$CHAOS_SOCK" ] \
  || { echo "chaos gate: daemon did not come up"; cat "$CHAOS_OUT/serve.log"; exit 1; }
timeout 300 "$CLIENT" --unix "$CHAOS_SOCK" --chaos --seed 1 --rounds 2 \
  --models "$SUBSET" --configs baseline,limpetMLIR-AVX-512 \
  --tenants chaos-a,chaos-b --cells 64 --steps 16 \
  > "$CHAOS_OUT/chaos.csv" 2> "$CHAOS_OUT/chaos.log" \
  || { echo "chaos gate: soak failed or blew its wall clock"; \
       cat "$CHAOS_OUT/chaos.log" "$CHAOS_OUT/serve.log"; exit 1; }
sort "$CHAOS_OUT/chaos.csv" > "$CHAOS_OUT/chaos.sorted.csv"
cmp "$CHAOS_OUT/expected.csv" "$CHAOS_OUT/chaos.sorted.csv" \
  || { echo "chaos gate: digests diverged under chaos"; \
       diff "$CHAOS_OUT/expected.csv" "$CHAOS_OUT/chaos.sorted.csv" || true; exit 1; }
grep -q "resolved=" "$CHAOS_OUT/chaos.log" \
  || { echo "chaos gate: no soak summary"; cat "$CHAOS_OUT/chaos.log"; exit 1; }
"$CLIENT" --unix "$CHAOS_SOCK" stats > "$CHAOS_OUT/stats.json"
grep -q '"survivability"' "$CHAOS_OUT/stats.json" \
  || { echo "chaos gate: stats verb lacks the survivability block"; cat "$CHAOS_OUT/stats.json"; exit 1; }
grep -q '"checkpoint_save_failures":0' "$CHAOS_OUT/stats.json" \
  || { echo "chaos gate: a checkpoint save failed under chaos"; cat "$CHAOS_OUT/stats.json"; exit 1; }
grep -q '"watchdog_stalls":0' "$CHAOS_OUT/stats.json" \
  && { echo "chaos gate: seeded soak never tripped the watchdog (seed drifted?)"; \
       cat "$CHAOS_OUT/chaos.log" "$CHAOS_OUT/stats.json"; exit 1; }
"$CLIENT" --unix "$CHAOS_SOCK" shutdown | grep -q '"event":"stopping"' \
  || { echo "chaos gate: shutdown verb not acknowledged"; exit 1; }
wait "$CHAOS_PID" \
  || { echo "chaos gate: daemon exited uncleanly after the soak"; exit 1; }
CHAOS_PID=""
trap - EXIT
rm -rf "$CHAOS_DIR" "$CHAOS_OUT"

echo "==> checkpoint gate (durable mid-trajectory snapshots: kill -9 resume, fault fallback)"
# Proves the tentpole end to end on the CI subset shape: a daemon writing
# durable snapshots is kill -9ed mid-trajectory; the restarted daemon
# must resume the victim from a snapshot (resumed step > 0 in its log,
# not a step-0 re-run) with a digest bit-identical to an uninterrupted
# reference; then an injected ckpt-corrupt on a later job's snapshot
# load must self-heal onto the previous rotation and still match.
CKPT_DIR=$(mktemp -d)
CKPT_OUT=$(mktemp -d)
CKPT_SOCK="$CKPT_DIR/ckpt.sock"
CKPT_PID=""
CKPT2_PID=""
CKPT_SLOW_PID=""
trap 'kill -9 ${CKPT_PID:-} ${CKPT2_PID:-} ${CKPT_SLOW_PID:-} 2>/dev/null || true' EXIT
SNAPDIR="$CKPT_DIR/checkpoints"
./target/release/limpet-serve --unix "$CKPT_SOCK" --workers 2 \
  --cache-dir "$CKPT_DIR" --journal "$CKPT_DIR/jobs.journal" \
  --checkpoint-every 5 > "$CKPT_OUT/serve.log" 2>&1 &
CKPT_PID=$!
for _ in $(seq 1 100); do [ -S "$CKPT_SOCK" ] && break; sleep 0.1; done
[ -S "$CKPT_SOCK" ] \
  || { echo "checkpoint gate: daemon did not come up"; cat "$CKPT_OUT/serve.log"; exit 1; }

# Uninterrupted reference for the victim shape.
"$CLIENT" --unix "$CKPT_SOCK" submit --model BeelerReuter --cells 64 \
  --steps 6000 --chunk 50 --id ckpt-ref --tenant ci-a > "$CKPT_OUT/ref.txt"
REF_DIGEST=$(grep -o '"digest":"[0-9a-f]\{16\}"' "$CKPT_OUT/ref.txt" | head -1)
[ -n "$REF_DIGEST" ] || { echo "checkpoint gate: no reference digest"; cat "$CKPT_OUT/ref.txt"; exit 1; }

# Victim: a slow reader keeps it mid-trajectory while the cadence writes
# snapshots; kill -9 lands only after a snapshot is durably on disk.
"$CLIENT" --unix "$CKPT_SOCK" submit --model BeelerReuter --cells 64 \
  --steps 6000 --chunk 50 --id ckpt-victim --tenant ci-a --slow-ms 200 \
  > /dev/null 2>&1 &
CKPT_SLOW_PID=$!
SNAPPED=""
for _ in $(seq 1 100); do
  ls "$SNAPDIR"/ckpt-*-ckpt-victim.lcp > /dev/null 2>&1 && { SNAPPED=yes; break; }
  sleep 0.1
done
[ -n "$SNAPPED" ] \
  || { echo "checkpoint gate: no snapshot written before kill"; ls -la "$SNAPDIR" 2>/dev/null; cat "$CKPT_OUT/serve.log"; exit 1; }
kill -9 "$CKPT_PID"
wait "$CKPT_PID" 2>/dev/null || true
CKPT_PID=""
kill "$CKPT_SLOW_PID" 2>/dev/null || true
wait "$CKPT_SLOW_PID" 2>/dev/null || true
CKPT_SLOW_PID=""

# Restart: journal replay re-admits the victim, which must resume from
# the snapshot — mid-trajectory, not step 0 — and finish bit-identical.
./target/release/limpet-serve --unix "$CKPT_SOCK" --workers 2 \
  --cache-dir "$CKPT_DIR" --journal "$CKPT_DIR/jobs.journal" \
  --checkpoint-every 5 > "$CKPT_OUT/serve2.log" 2>&1 &
CKPT2_PID=$!
for _ in $(seq 1 100); do [ -S "$CKPT_SOCK" ] && break; sleep 0.1; done
[ -S "$CKPT_SOCK" ] \
  || { echo "checkpoint gate: daemon did not restart"; cat "$CKPT_OUT/serve2.log"; exit 1; }
DONE=""
for _ in $(seq 1 240); do
  "$CLIENT" --unix "$CKPT_SOCK" result --id ckpt-victim > "$CKPT_OUT/victim.txt" || true
  if grep -q '"event":"done"' "$CKPT_OUT/victim.txt"; then DONE=yes; break; fi
  sleep 0.5
done
[ -n "$DONE" ] || { echo "checkpoint gate: victim never finished"; cat "$CKPT_OUT/serve2.log"; exit 1; }
grep -Eq 'checkpoint: resumed job ckpt-victim at step [1-9]' "$CKPT_OUT/serve2.log" \
  || { echo "checkpoint gate: victim was not resumed from a snapshot (step-0 re-run?)"; cat "$CKPT_OUT/serve2.log"; exit 1; }
VICTIM_DIGEST=$(grep -o '"digest":"[0-9a-f]\{16\}"' "$CKPT_OUT/victim.txt" | head -1)
[ "$VICTIM_DIGEST" = "$REF_DIGEST" ] \
  || { echo "checkpoint gate: resumed digest $VICTIM_DIGEST != reference $REF_DIGEST"; exit 1; }

# Injected ckpt-corrupt: abort a job so it leaves current + previous
# rotations, then re-submit the same id with the fault armed. The load
# must reject the corrupted current (self-healing it away), fall back to
# the previous rotation, and still finish with the reference digest.
"$CLIENT" --unix "$CKPT_SOCK" submit --model BeelerReuter --cells 64 \
  --steps 6000 --chunk 50 --id ckpt-prev --tenant ci-a --slow-ms 500 \
  > /dev/null 2>&1 &
CKPT_SLOW_PID=$!
ROTATED=""
for _ in $(seq 1 100); do
  if ls "$SNAPDIR"/ckpt-*-ckpt-prev.lcp > /dev/null 2>&1 \
     && ls "$SNAPDIR"/ckpt-*-ckpt-prev.prev.lcp > /dev/null 2>&1; then ROTATED=yes; break; fi
  sleep 0.1
done
[ -n "$ROTATED" ] \
  || { echo "checkpoint gate: no rotated snapshot pair"; ls -la "$SNAPDIR" 2>/dev/null; exit 1; }
kill "$CKPT_SLOW_PID" 2>/dev/null || true
wait "$CKPT_SLOW_PID" 2>/dev/null || true
CKPT_SLOW_PID=""
sleep 1  # the disconnect abort lands and writes its final snapshot
"$CLIENT" --unix "$CKPT_SOCK" submit --model BeelerReuter --cells 64 \
  --steps 6000 --chunk 50 --id ckpt-prev --tenant ci-a \
  --inject ckpt-corrupt@7 > "$CKPT_OUT/corrupt.txt"
grep -q '"status":"done"' "$CKPT_OUT/corrupt.txt" \
  || { echo "checkpoint gate: faulted resume did not complete"; cat "$CKPT_OUT/corrupt.txt"; exit 1; }
CORRUPT_DIGEST=$(grep -o '"digest":"[0-9a-f]\{16\}"' "$CKPT_OUT/corrupt.txt" | head -1)
[ "$CORRUPT_DIGEST" = "$REF_DIGEST" ] \
  || { echo "checkpoint gate: previous-rotation digest $CORRUPT_DIGEST != reference $REF_DIGEST"; exit 1; }
grep -q 'checksum-mismatch' "$CKPT_OUT/serve2.log" \
  || { echo "checkpoint gate: corrupted snapshot was not rejected on the checksum rung"; cat "$CKPT_OUT/serve2.log"; exit 1; }
grep -q 'previous rotation' "$CKPT_OUT/serve2.log" \
  || { echo "checkpoint gate: resume did not fall back to the previous rotation"; cat "$CKPT_OUT/serve2.log"; exit 1; }
"$CLIENT" --unix "$CKPT_SOCK" stats > "$CKPT_OUT/stats.json"
grep -Eq '"checkpoints":[1-9]' "$CKPT_OUT/stats.json" \
  || { echo "checkpoint gate: no checkpoints counted"; cat "$CKPT_OUT/stats.json"; exit 1; }
grep -Eq '"resumes":[1-9]' "$CKPT_OUT/stats.json" \
  || { echo "checkpoint gate: no resumes counted"; cat "$CKPT_OUT/stats.json"; exit 1; }
grep -Eq '"checkpoint_rejects":[1-9]' "$CKPT_OUT/stats.json" \
  || { echo "checkpoint gate: the injected reject was not counted"; cat "$CKPT_OUT/stats.json"; exit 1; }
"$CLIENT" --unix "$CKPT_SOCK" shutdown | grep -q '"event":"stopping"' \
  || { echo "checkpoint gate: shutdown verb not acknowledged"; exit 1; }
wait "$CKPT2_PID" \
  || { echo "checkpoint gate: daemon exited uncleanly after shutdown"; exit 1; }
CKPT2_PID=""
trap - EXIT
rm -rf "$CKPT_DIR" "$CKPT_OUT"

echo "==> limpet-perf unit tests (statistics, spans, golden parser, contract tables)"
# The benchmark is a package of its own (own empty [workspace]), so the
# workspace-wide `cargo test -q` above does not reach it.
cargo test --offline -q --manifest-path limpet-perf/Cargo.toml

echo "==> limpet-perf --quick (all four workloads end to end, golden digests)"
# Exits non-zero on any wrong digest or failed operation. Untraced on
# purpose: on quick's three small models the traced run's 10 %
# reconciliation checks are inside the timing noise (2 of 6 runs miss).
bash limpet-perf/run.sh --quick > /dev/null

echo "==> limpet-perf sim_steady, traced (digests, exact counts, W=8 and W=1 step time and executed instructions vs BENCH_step_loop.json, LUT vs no-LUT)"
# One traced run of the step-loop workload. A non-zero exit is a wrong
# golden digest, an exact count (instructions, flops, bytes, math calls
# per step) that did not repeat, or `step_range` + `update_vm` drifting
# from `Simulation::run` (sim.unattributed_share). Its W=8 and W=1 times
# per step are then held against the change row of BENCH_step_loop.json,
# and its no-LUT over LUT step time against the paper's ordering.
STEP_OUT=$(mktemp)
bash limpet-perf/run.sh --workload sim_steady --seconds 10 --trace 1 --out "$STEP_OUT" > /dev/null
# Every value of a key, one per line, from compact or indented JSON.
json_values() { { grep -o "\"$1\" *: *[^,}]*" "$2" || true; } | sed 's/^[^:]*: *//; s/"//g'; }
json_field() { json_values "$1" "$2" | head -1; }
# The value of one named metric of a result file.
metric_value() {
  { grep -o "\"$1\" *: *{[^}]*}" "$2" || true; } \
    | { grep -o '"value" *: *[0-9.]*' || true; } | head -1 | sed 's/^[^:]*: *//'
}
# The build of the step loop this CPU dispatches to (`limpet_vm::step_isa`,
# as `figures` prints it). A ledger records it as `host.step_isa` from PR 15
# on; a result file does not, and is of this CPU.
STEP_ISA=$(target/release/figures --stats --models Plonsey | sed -n 's/^step loop: //p')
[ -n "$STEP_ISA" ] || { echo "figures did not print its step-loop build"; exit 1; }
host_of() {
  local isa
  isa=$(json_field step_isa "$1")
  echo "$(json_field arch "$1") $(json_field os "$1") nproc=$(json_field nproc "$1") $(json_field rustc "$1") step_isa=${isa:-$STEP_ISA}"
}
# hold_ms <what> <metric> <its value in this run> <the run's result file>
# <ledger>: the time is held against `medians.change.<metric>` of the ledger
# (its first, newest record) — warn above 10 %, fail above 25 % — only on
# the host that recorded it, since times at reference speed still differ
# between machines, and a CPU that dispatches to another step-loop build
# runs other code.
hold_ms() {
  local what=$1 metric=$2 now=$3 out=$4 ledger=$5 ref v
  ref=$(awk -v key="\"$metric\"" '/"medians"/ { m = 1 } m && /"change"/ { c = 1 }
    c && index($0, key) { gsub(/[^0-9.]/, "", $2); print $2; exit }' "$ledger")
  for v in "$now" "$ref"; do
    if ! [[ $v =~ ^[0-9]+\.?[0-9]*$ ]] || [[ $v =~ ^[0.]*$ ]]; then
      echo "$what: could not read $metric (run '$now', $ledger '$ref')"
      exit 1
    fi
  done
  if [ "$(host_of "$out")" != "$(host_of "$ledger")" ]; then
    echo "$what: $metric $now ms; $ledger ($ref ms) is from a different host, skipped"
    return
  fi
  case $(awk -v now="$now" -v ref="$ref" \
    'BEGIN { r = now / ref; print (r > 1.25) ? "fail" : (r > 1.10) ? "warn" : "ok" }') in
    fail)
      echo "$what: $metric $now ms is > 25 % above $ledger's $ref ms"
      exit 1
      ;;
    warn) echo "$what: WARNING $metric $now ms is > 10 % above $ledger's $ref ms" ;;
    ok) echo "$what: $metric $now ms ($ledger: $ref ms)" ;;
  esac
}
# hold_count <metric> <result file> <ledger>: an exact count summed over the
# roster (so any model's increase shows) — what the bytecode compiler and
# optimizer emit, or the bytes the kernel cache stores — held on every host:
# no higher than the newest record of the ledger, which is the first in the
# file.
hold_count() {
  local metric=$1 out=$2 ledger=$3 now ref
  now=$(metric_value "$metric" "$out")
  ref=$({ grep -o "\"$metric\": *[0-9][0-9]*" "$ledger" || true; } | head -1 | sed 's/^.*: *//')
  [[ $now =~ ^[1-9][0-9]*$ && $ref =~ ^[1-9][0-9]*$ ]] \
    || { echo "$metric: could not read the count (run '$now', $ledger '$ref')"; exit 1; }
  if [ "$now" -gt "$ref" ]; then
    echo "$metric: $now is above $ledger's $ref"
    exit 1
  fi
  echo "$metric: $now ($ledger: $ref)"
}
# primary_ms and secondary_ms as the benchmark defines them: geomean over the
# roster of the W=8 (W=1) ms per 8192-cell step.
geomean_of() {
  json_values "$1" "$STEP_OUT" \
    | awk '$1 > 0 { s += log($1); n++ } END { if (n) printf "%.4f", exp(s / n) }'
}
hold_ms "step loop W=8" primary_ms "$(geomean_of w8_ms_per_step)" "$STEP_OUT" BENCH_step_loop.json
hold_ms "step loop W=1" secondary_ms "$(geomean_of w1_ms_per_step)" "$STEP_OUT" BENCH_step_loop.json
# Where the step loop's code lands moves its time with nothing else changed:
# one build that shifted every `Run::*` symbol by 16 bytes read W=1 6 %
# slower over 6 pairs. So the offsets of each instance within its 64-byte
# line (address mod 64, in symbol order) are printed beside the times, as
# information only; a ledger record states them for the builds it compares.
if command -v nm > /dev/null; then
  PLACEMENT=$(nm target/release/figures | sort -k3 | while read -r ADDR _ NAME; do
    case $NAME in
      *engine3Run8run_loop17h*) printf ' run_loop:%d' $((16#$ADDR % 64)) ;;
      *engine3Run14batched_avx51217h*) printf ' batched_avx512:%d' $((16#$ADDR % 64)) ;;
    esac
  done)
  echo "step-loop placement in target/release/figures (address mod 64, information only):${PLACEMENT:- none found}"
else
  echo "step-loop placement: skipped, no nm"
fi
# Executed instructions per 8192-cell step at W=8 (what `vm_dispatch --check`
# held for three models against a file of its own) and at W=1 (the baseline:
# one row per table and key since its scalar lookups were fused).
hold_count vm.instrs_per_step_w8 "$STEP_OUT" BENCH_step_loop.json
hold_count vm.instrs_per_step_w1 "$STEP_OUT" BENCH_step_loop.json
# The timed form of §3.4.2's claim (its exact form is
# tests/paper_claims.rs::lut_beats_no_lut): the step of the no-LUT kernels
# over the step of the LUT ones. Below 1 the paper's ordering is gone, below
# 1.3 it is eroding (PR 15 left it at 1.35, PR 17 took it back to 1.6). Only
# on the host of the ledger, like hold_ms: the ratio depends on which build
# of the step loop the CPU runs.
NOLUT=$(metric_value vm.nolut_over_lut "$STEP_OUT")
[[ $NOLUT =~ ^[0-9]+\.?[0-9]*$ ]] \
  || { echo "LUT vs no-LUT: could not read vm.nolut_over_lut ('$NOLUT')"; exit 1; }
if [ "$(host_of "$STEP_OUT")" != "$(host_of BENCH_step_loop.json)" ]; then
  echo "LUT vs no-LUT: vm.nolut_over_lut $NOLUT; BENCH_step_loop.json is from a different host, skipped"
else
  case $(awk -v r="$NOLUT" 'BEGIN { print (r < 1.0) ? "fail" : (r < 1.3) ? "warn" : "ok" }') in
    fail)
      echo "LUT vs no-LUT: vm.nolut_over_lut $NOLUT is below 1: tables no longer pay"
      exit 1
      ;;
    warn) echo "LUT vs no-LUT: WARNING vm.nolut_over_lut $NOLUT is below 1.3" ;;
    ok) echo "LUT vs no-LUT: vm.nolut_over_lut $NOLUT" ;;
  esac
fi
# What the health guard adds to a W=8 step as the daemon runs it
# (`run_guarded` over plain `run`, 8192 cells): 1.44-1.52 with a state
# clone before every step and a per-cell scan, 1.27 once PR 18 took one
# rollback point per 32 steps and scanned the raw storage. At the old level
# the guard is back to costing a daemon job a third of its stepping. Same
# host rule: the plain step it is a ratio to depends on the step-loop build.
GUARD=$(metric_value sim.guarded_over_plain "$STEP_OUT")
[[ $GUARD =~ ^[0-9]+\.?[0-9]*$ ]] \
  || { echo "health guard: could not read sim.guarded_over_plain ('$GUARD')"; exit 1; }
if [ "$(host_of "$STEP_OUT")" != "$(host_of BENCH_serve.json)" ]; then
  echo "health guard: sim.guarded_over_plain $GUARD; BENCH_serve.json is from a different host, skipped"
else
  case $(awk -v r="$GUARD" 'BEGIN { print (r >= 1.44) ? "fail" : (r > 1.35) ? "warn" : "ok" }') in
    fail)
      echo "health guard: sim.guarded_over_plain $GUARD is at the per-step-clone level (>= 1.44)"
      exit 1
      ;;
    warn) echo "health guard: WARNING sim.guarded_over_plain $GUARD is above 1.35" ;;
    ok) echo "health guard: sim.guarded_over_plain $GUARD" ;;
  esac
fi
rm -f "$STEP_OUT"

echo "==> limpet-perf compile_roster, traced (digests, exact counts, staged compile vs get_or_compile, cold compile, disk-warm load and static instructions vs BENCH_compile_cold.json, entry bytes vs table bytes)"
# One traced run of the compile workload. A non-zero exit is a wrong golden
# digest from a cold-compiled, disk-loaded or stage-by-stage kernel, an
# exact count that differs between the two ways of compiling, or the stages
# summing to more than 10 % off `KernelCache::get_or_compile`. Its cold
# roster compile + store and its disk-warm roster load are held against the
# change row of BENCH_compile_cold.json, and the bytes it stored against the
# bytes of the tables: 0.51 with one table record per model and no module
# (entry format 6), 0.54 with each printed module (format 5), 1.043 with
# every entry carrying its tables as bytes (format 4), 2.18 as hex
# text — an exact count, so held on every host, as is the count itself
# against the ledger's newest record.
COMPILE_RUN=$(mktemp)
bash limpet-perf/run.sh --workload compile_roster --seconds 10 --trace 1 --out "$COMPILE_RUN" > /dev/null
# primary_ms as the benchmark defines it: the median round's cold seconds (a
# traced result file carries the rounds, not the end-to-end block). A traced
# run times one round where an untraced one takes the median of several
# that get slower as the scratch directory fills, so it reads within ~10 %
# of the ledger's untraced median (530 and 516 ms against 525 in
# the newest record; 512 and 509 against 560 at its parent).
median_ms_of() {
  json_values "$1" "$COMPILE_RUN" | sort -n \
    | awk '{ v[NR] = $1 } END { if (NR) printf "%.1f", 500 * (v[int((NR + 1) / 2)] + v[int(NR / 2) + 1]) }'
}
hold_ms "cold compile" primary_ms "$(median_ms_of cold_s)" "$COMPILE_RUN" BENCH_compile_cold.json
# secondary_ms the same way: the disk-warm roster, a load of every entry the
# cold half stored (no module is built on this path).
hold_ms "disk-warm load" secondary_ms "$(median_ms_of disk_warm_s)" "$COMPILE_RUN" BENCH_compile_cold.json
# Instructions in the optimized programs, before any is executed.
hold_count vm.static_instrs_opt "$COMPILE_RUN" BENCH_compile_cold.json
# Bytes of every record the cold half stored: 36.0 MB with one table record
# per model; a copy of the tables per configuration would double it.
hold_count persist.entry_bytes "$COMPILE_RUN" BENCH_compile_cold.json
ENTRY_BYTES=$(metric_value persist.entry_bytes "$COMPILE_RUN")
LUT_BYTES=$(metric_value vm.lut_bytes "$COMPILE_RUN")
[[ $ENTRY_BYTES =~ ^[1-9][0-9]*$ && $LUT_BYTES =~ ^[1-9][0-9]*$ ]] \
  || { echo "entry bytes: could not read persist.entry_bytes ('$ENTRY_BYTES') or vm.lut_bytes ('$LUT_BYTES')"; exit 1; }
if [ $((ENTRY_BYTES * 100)) -gt $((LUT_BYTES * 110)) ]; then
  echo "entry bytes: persist.entry_bytes $ENTRY_BYTES is more than 1.10 x vm.lut_bytes $LUT_BYTES: text in the table records, or the tables in the entries?"
  exit 1
fi
echo "entry bytes: persist.entry_bytes $ENTRY_BYTES for vm.lut_bytes $LUT_BYTES"
rm -f "$COMPILE_RUN"

echo "==> limpet-perf ckpt_resume (resume equals the uninterrupted twin, save and resume time vs BENCH_checkpoint.json)"
# One untraced run of the checkpoint workload. A non-zero exit is a
# failed save, a loaded snapshot that differs from the saved one, or a
# run resumed from disk that differs from its uninterrupted twin. Its
# median snapshot + save and its median load + resume of OHara x 8192
# cells are held against the change row of BENCH_checkpoint.json by the
# same rule.
CKPT_RUN=$(mktemp)
bash limpet-perf/run.sh --workload ckpt_resume --seconds 10 --trace 0 --out "$CKPT_RUN" > /dev/null
hold_ms "checkpoint save" primary_ms "$(metric_value primary_ms "$CKPT_RUN")" "$CKPT_RUN" BENCH_checkpoint.json
hold_ms "checkpoint resume" secondary_ms "$(metric_value secondary_ms "$CKPT_RUN")" "$CKPT_RUN" BENCH_checkpoint.json
rm -f "$CKPT_RUN"

echo "==> limpet-perf serve_closed (golden digests through the wire, daemon job time vs BENCH_serve.json)"
# One untraced run of the daemon workload. A non-zero exit is a refused or
# failed job or a digest off the wire that differs from `figures --digest`.
# Its geomean over the roster job kinds of the median submit-to-done time is
# held against the change row of BENCH_serve.json by the same rule.
SERVE_RUN=$(mktemp)
bash limpet-perf/run.sh --workload serve_closed --seconds 10 --trace 0 --out "$SERVE_RUN" > /dev/null
SERVE_MS=$(metric_value primary_ms "$SERVE_RUN")
hold_ms "daemon job" primary_ms "$SERVE_MS" "$SERVE_RUN" BENCH_serve.json
rm -f "$SERVE_RUN"

echo "==> cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> one durable-record mechanism (fsync + rename only in harness::store)"
# `store::publish` is the only File::create + write_all + sync_all + rename;
# a second write sequence beside it is how `.lke`, `.lso`, `.lcp` and the
# timing model came to have four, each with its own bugs. Allowed besides:
# SnapshotStore's `.prev` rotation, which moves a complete record and says
# so on its line. `Journal`'s `sync_data` is an append log, not a record.
STRAY=$(grep -rn 'sync_all\|fs::rename' crates/harness/src crates/serve/src \
  | grep -v '^crates/harness/src/store\.rs:' | grep -v '// rotation$' || true)
[ -z "$STRAY" ] \
  || { echo "a durable write outside harness::store (use store::publish):"; echo "$STRAY"; exit 1; }

echo "==> fault plans are scoped (no serializing test lock, no global disarm)"
# A fault plan belongs to the thread that armed it and the threads the
# harness spawns for it (DESIGN.md §10), so tests need no lock to keep one
# another's plans apart. A `static …: Mutex<()>` or a `disarm_all` is the
# process-global registry and its test-serializing locks coming back.
SERIAL=$(grep -rnE 'static [A-Za-z_]+: *(std::sync::)?Mutex<\(\)>|disarm_all' crates || true)
[ -z "$SERIAL" ] \
  || { echo "a serializing lock or a global disarm (arm a scoped plan with faults::arm):"; echo "$SERIAL"; exit 1; }

echo "==> engine switches are not process-wide (no config static in the vm, the native tier, sim, cache)"
# The bytecode optimizer always runs (a caller that wants the raw program
# says so per call) and native promotion is a field of the KernelCache
# that governs it. A process-wide atomic, or the flags and variables that
# set the old ones, is that global state coming back.
SWITCH=$(grep -rnE 'set_bytecode_opt|set_promotion_threshold|promotion_from_env|arm_native|LIMPET_NATIVE|static [A-Za-z_]+: *(std::sync::atomic::)?Atomic(Bool|U64)' \
  crates/vm/src crates/harness/src/native.rs crates/harness/src/sim.rs crates/harness/src/cache.rs || true)
[ -z "$SWITCH" ] \
  || { echo "a process-wide engine switch (make it a per-call value or a KernelCache field):"; echo "$SWITCH"; exit 1; }

echo "==> size held (scripts/size.sh against size.budget)"
# Production lines per crate and the three long documents may not grow
# past size.budget; a change that grows one raises its line in the same diff.
bash scripts/size.sh --check

echo "CI: all gates passed"
