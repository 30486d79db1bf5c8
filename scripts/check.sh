#!/usr/bin/env bash
# The full local gate: what CI (and the repo's tier-1 check) runs.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== build (release) =="
cargo build --release --offline

echo "== tests =="
cargo test -q --offline --workspace

echo "== clippy (all targets, warnings are errors) =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== format: btpub-par and btpub-obs must be rustfmt-clean =="
# Two packages only: the rest of the workspace still carries formatting
# drift, so a workspace-wide check cannot gate yet.
cargo fmt --check -p btpub-par -p btpub-obs

echo "== docs (rustdoc warnings, broken intra-doc links included, are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --offline --workspace --no-deps

echo "== determinism: repro --jobs 1 vs --jobs 4 (tiny scale) =="
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
./target/release/repro --scenario all --scale tiny --jobs 1 \
    > "$tmpdir/serial.txt" 2>/dev/null
./target/release/repro --scenario all --scale tiny --jobs 4 \
    --metrics "$tmpdir/metrics.json" > "$tmpdir/parallel.txt" 2>/dev/null
if ! diff -u "$tmpdir/serial.txt" "$tmpdir/parallel.txt"; then
    echo "FAIL: serial and parallel repro reports differ (determinism bug)" >&2
    exit 1
fi
echo "reports byte-identical ($(wc -c < "$tmpdir/serial.txt") bytes)"

echo "== chaos determinism: hostile faults, --jobs 1 vs --jobs 4 (tiny scale) =="
./target/release/repro --scenario pb10 --scale tiny --fault-profile hostile \
    --jobs 1 > "$tmpdir/chaos-serial.txt" 2>/dev/null
./target/release/repro --scenario pb10 --scale tiny --fault-profile hostile \
    --jobs 4 > "$tmpdir/chaos-parallel.txt" 2>/dev/null
if ! diff -u "$tmpdir/chaos-serial.txt" "$tmpdir/chaos-parallel.txt"; then
    echo "FAIL: serial and parallel chaos reports differ (fault-injection determinism bug)" >&2
    exit 1
fi
if ! grep -q '^# fault-profile: hostile$' "$tmpdir/chaos-serial.txt"; then
    echo "FAIL: chaos report does not declare its fault profile" >&2
    exit 1
fi
echo "chaos reports byte-identical ($(wc -c < "$tmpdir/chaos-serial.txt") bytes)"

echo "== pool metrics present in --metrics snapshot =="
for key in 'par.repro.scenarios.tasks' 'par.sim.swarms.tasks'; do
    if ! grep -q "\"$key\"" "$tmpdir/metrics.json"; then
        echo "FAIL: metric $key missing from metrics snapshot" >&2
        exit 1
    fi
done
echo "pool counters found in snapshot"

echo "== trace smoke gate: --trace must record without moving a report byte =="
# A traced run and a traceless twin, same arguments otherwise. The trace
# must parse as Chrome trace JSON with events in it, stdout must stay
# byte-identical, and the two run manifests must agree on every
# deterministic metric.
./target/release/repro --scenario pb10 --scale tiny --jobs 1 \
    --trace "$tmpdir/trace.json" --manifest "$tmpdir/manifest-traced.json" \
    > "$tmpdir/traced.txt" 2>/dev/null
./target/release/repro --scenario pb10 --scale tiny --jobs 1 \
    --manifest "$tmpdir/manifest-plain.json" \
    > "$tmpdir/plain.txt" 2>/dev/null
./target/release/obs_diff --validate-trace "$tmpdir/trace.json" --min-events 100
if ! diff -u "$tmpdir/plain.txt" "$tmpdir/traced.txt"; then
    echo "FAIL: arming the flight recorder changed the report bytes" >&2
    exit 1
fi
echo "traced report byte-identical to traceless ($(wc -c < "$tmpdir/traced.txt") bytes)"
./target/release/obs_diff "$tmpdir/manifest-plain.json" "$tmpdir/manifest-traced.json"

echo "== obs_diff gate: an injected metric regression must be caught =="
sed -E 's/("crawler\.query\.total": )[0-9]+/\10/' \
    "$tmpdir/manifest-plain.json" > "$tmpdir/manifest-broken.json"
if ./target/release/obs_diff "$tmpdir/manifest-plain.json" \
    "$tmpdir/manifest-broken.json" >/dev/null 2>&1; then
    echo "FAIL: obs_diff missed an injected metric regression" >&2
    exit 1
fi
echo "obs_diff flags the injected regression (exit nonzero)"

echo "== sampled-trace smoke: BTPUB_TRACE_SAMPLE must not move a report byte =="
# Same traced run under a 1-in-8 announce sampling spec: stdout stays
# byte-identical to the traceless run and the (smaller) trace still
# parses as a loadable Chrome trace.
BTPUB_TRACE_SAMPLE='tracker.announce:8,seed:42' \
    ./target/release/repro --scenario pb10 --scale tiny --jobs 1 \
    --trace "$tmpdir/trace-sampled.json" > "$tmpdir/sampled.txt" 2>/dev/null
./target/release/obs_diff --validate-trace "$tmpdir/trace-sampled.json" --min-events 10
if ! diff -u "$tmpdir/plain.txt" "$tmpdir/sampled.txt"; then
    echo "FAIL: sampling the flight recorder changed the report bytes" >&2
    exit 1
fi
echo "sampled report byte-identical to traceless"

echo "== snapshot-on-trip smoke: a hostile run must leave black-box dumps =="
# Armed hostile run with a snapshot prefix: the first fault per stream
# (and any breaker opening) trips a bounded ring dump; at least one
# must exist and be a loadable Chrome trace.
BTPUB_TRACE_SNAPSHOT="$tmpdir/bb" \
    ./target/release/repro --scenario pb10 --scale tiny --jobs 1 \
    --fault-profile hostile --trace "$tmpdir/trace-hostile.json" \
    --manifest "$tmpdir/manifest-hostile.json" > /dev/null 2>&1
dumps=("$tmpdir"/bb-*.json)
if [ ! -e "${dumps[0]}" ]; then
    echo "FAIL: hostile armed run produced no black-box dump" >&2
    exit 1
fi
./target/release/obs_diff --validate-trace "${dumps[0]}" --min-events 1
echo "black-box dumps written: ${#dumps[@]}"

echo "== obs_diff config guard: cross-config comparison must be refused =="
# Clean vs hostile manifests describe different runs; diffing them
# would report fault skew as a bogus metric regression. The guard must
# refuse with exit 2 — distinct from a real regression's exit 1.
set +e
./target/release/obs_diff "$tmpdir/manifest-plain.json" \
    "$tmpdir/manifest-hostile.json" >/dev/null 2>&1
rc=$?
set -e
if [ "$rc" -ne 2 ]; then
    echo "FAIL: expected exit 2 refusing cross-config diff, got $rc" >&2
    exit 1
fi
echo "cross-config comparison refused (exit 2)"

echo "== obs_diff --watch: live manifest tailing =="
# A healthy bounded watch exits 0; the same watch against the broken
# manifest must flag the regression.
./target/release/obs_diff --watch "$tmpdir/manifest-plain.json" \
    "$tmpdir/manifest-traced.json" --interval-ms 50 --max-checks 1
set +e
./target/release/obs_diff --watch "$tmpdir/manifest-plain.json" \
    "$tmpdir/manifest-broken.json" --interval-ms 50 --max-checks 1 \
    >/dev/null 2>&1
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    echo "FAIL: watch missed the injected regression (exit $rc, wanted 1)" >&2
    exit 1
fi
echo "watch matches healthy manifest, flags broken one"

echo "== periodic manifests: btpub-monitor --manifest-every is deterministic =="
# Two identical daemon runs emitting a manifest every 2 simulated days:
# the final manifests must agree on every deterministic metric, a
# partial (3-day) run must read as in-flight against the 6-day
# baseline, and the 6-day run must read as an overshoot against the
# 3-day baseline.
./target/release/btpub-monitor --scale tiny --days 6 \
    --manifest "$tmpdir/monitor-a.json" --manifest-every 2 >/dev/null 2>&1
./target/release/btpub-monitor --scale tiny --days 6 \
    --manifest "$tmpdir/monitor-b.json" --manifest-every 2 >/dev/null 2>&1
./target/release/obs_diff "$tmpdir/monitor-a.json" "$tmpdir/monitor-b.json"
./target/release/obs_diff --watch "$tmpdir/monitor-a.json" \
    "$tmpdir/monitor-b.json" --expect-partial --interval-ms 50 --max-checks 1
./target/release/btpub-monitor --scale tiny --days 3 \
    --manifest "$tmpdir/monitor-partial.json" >/dev/null 2>&1
set +e
./target/release/obs_diff --watch "$tmpdir/monitor-partial.json" \
    "$tmpdir/monitor-a.json" --expect-partial --interval-ms 50 --max-checks 1 \
    >/dev/null 2>&1
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    echo "FAIL: watch missed metrics beyond baseline (exit $rc, wanted 1)" >&2
    exit 1
fi
echo "periodic manifests deterministic; partial-run semantics hold"

echo "== streaming pipeline: --stream must not move a report byte =="
# Both modes run the one analysis fold and the one report builder, so
# this diff checks how records reach the fold: the crawl's ChannelSink,
# the bounded channel, out-of-order arrival and the digest reorder
# buffer, against the materialized reports from the determinism section,
# at both job counts.
./target/release/repro --scenario all --scale tiny --jobs 1 --stream \
    > "$tmpdir/stream-serial.txt" 2>/dev/null
./target/release/repro --scenario all --scale tiny --jobs 4 --stream \
    > "$tmpdir/stream-parallel.txt" 2>/dev/null
for f in stream-serial stream-parallel; do
    if ! diff -u "$tmpdir/serial.txt" "$tmpdir/$f.txt"; then
        echo "FAIL: streaming report ($f) differs from materialized" >&2
        exit 1
    fi
done
echo "streaming reports byte-identical to materialized at jobs 1 and 4"

echo "== spill-to-disk: --spill-dir must not move a byte; unwritable dir warns and falls back =="
./target/release/repro --scenario pb10 --scale tiny --jobs 1 \
    > "$tmpdir/pb10-plain.txt" 2>/dev/null
./target/release/repro --scenario pb10 --scale tiny --jobs 1 \
    --spill-dir "$tmpdir/spill" > "$tmpdir/pb10-spill.txt" 2>/dev/null
if ! diff -u "$tmpdir/pb10-plain.txt" "$tmpdir/pb10-spill.txt"; then
    echo "FAIL: spill-to-disk changed the report bytes" >&2
    exit 1
fi
: > "$tmpdir/not-a-dir"
./target/release/repro --scenario pb10 --scale tiny --jobs 1 \
    --spill-dir "$tmpdir/not-a-dir/sub" > "$tmpdir/pb10-nospill.txt" \
    2> "$tmpdir/nospill-err.txt"
if ! grep -q "falling back" "$tmpdir/nospill-err.txt"; then
    echo "FAIL: unwritable spill dir produced no fallback warning" >&2
    cat "$tmpdir/nospill-err.txt" >&2
    exit 1
fi
if ! diff -u "$tmpdir/pb10-plain.txt" "$tmpdir/pb10-nospill.txt"; then
    echo "FAIL: in-memory spill fallback changed the report bytes" >&2
    exit 1
fi
echo "spill run byte-identical; unwritable dir warns and falls back"

echo "== --scale 0 fallback: warn once, run at 1x =="
./target/release/repro --scenario pb10 --scale 0 --jobs 1 \
    > "$tmpdir/pb10-scale0.txt" 2> "$tmpdir/scale0-err.txt"
if [ "$(grep -c 'running at 1x' "$tmpdir/scale0-err.txt")" -ne 1 ]; then
    echo "FAIL: --scale 0 must warn exactly once; stderr was:" >&2
    cat "$tmpdir/scale0-err.txt" >&2
    exit 1
fi
if ! diff -u "$tmpdir/pb10-plain.txt" "$tmpdir/pb10-scale0.txt"; then
    echo "FAIL: --scale 0 fallback did not run at 1x tiny" >&2
    exit 1
fi
echo "--scale 0 warns once and falls back to 1x"

echo "== release-only tests: memory ceiling, trace overhead, counter throughput =="
# The tests a debug build cannot judge, marked #[ignore]: the streaming
# 100x-shape memory ceiling (tests/stream_memory.rs), the armed
# flight-recorder overhead ceiling (tests/trace_overhead.rs) and the
# obs counter throughput floor. The memory and trace tests also check
# that their meters measured something, so neither can pass inert.
# `--nocapture` prints each gate's reading on passing runs too (trace
# overhead %, streamed memory peaks, counter increments/s), so a run
# shows how far it is from each bound.
cargo test --release --offline --workspace -- --ignored --nocapture

echo "== serve metrics: btpub-load must surface serve.* in metrics/manifest/report =="
./target/release/btpub-load --seed 7 --announces 800 --clients 32 --drivers 4 \
    --metrics "$tmpdir/serve-metrics.json" \
    --manifest "$tmpdir/serve-manifest-a.json" \
    --report > "$tmpdir/serve-report.txt" 2>/dev/null
for key in 'serve.announce.total' 'serve.shard.0.announces' 'serve.announce.apply_ns'; do
    if ! grep -q "\"$key\"" "$tmpdir/serve-metrics.json"; then
        echo "FAIL: metric $key missing from btpub-load --metrics snapshot" >&2
        exit 1
    fi
done
if ! grep -q 'serve\.announce\.total' "$tmpdir/serve-report.txt"; then
    echo "FAIL: serve.* counters missing from the text report" >&2
    exit 1
fi
# Two independent live runs retransmit differently, so their raw serve.*
# tallies drift — the manifests must still digest-compare clean because
# serve.* is excluded from the deterministic set.
./target/release/btpub-load --seed 7 --announces 800 --clients 32 --drivers 4 \
    --manifest "$tmpdir/serve-manifest-b.json" >/dev/null 2>&1
./target/release/obs_diff "$tmpdir/serve-manifest-a.json" \
    "$tmpdir/serve-manifest-b.json"
echo "serve.* surfaced in metrics, manifest, and report; digests unperturbed"

echo "== live crawl: the live crawler against the tracker daemon =="
# Real sockets end to end: the daemon, peer-wire seeders and a leecher,
# then the crawler's first contact. The example asserts that it pins
# every swarm's seeder and exits nonzero when it does not.
cargo run --release --offline --quiet --example live_tracker >/dev/null

echo "== §7 monitor examples: fake detector and query interface =="
# Both run on the streamed aggregates btpub-monitor folds. fake_detection
# asserts the detector's precision and recall thresholds (those of
# tests/validation_ground_truth.rs) and exits nonzero when they fail.
cargo run --release --offline --quiet --example fake_detection >/dev/null
if ! cargo run --release --offline --quiet --example monitor_daemon \
    >/dev/null 2> "$tmpdir/monitor-daemon-err.txt"; then
    echo "FAIL: monitor_daemon example failed:" >&2
    cat "$tmpdir/monitor-daemon-err.txt" >&2
    exit 1
fi
echo "fake detector holds its thresholds; the query interface answers"

echo "== crash-resume gate: seeded kill mid-campaign, resume, byte-diff =="
# Arm a deterministic abort at the 128th fold, run with checkpoints, and
# prove the resumed run's stdout is byte-identical to the uninterrupted
# report — at jobs 1 and 4.
for jobs in 1 4; do
    ckdir="$tmpdir/crash-ckpt-j$jobs"
    set +e
    BTPUB_CRASH="stream.fold:128" ./target/release/repro --scenario pb10 \
        --scale tiny --jobs "$jobs" --checkpoint-dir "$ckdir" \
        --checkpoint-every 64 >/dev/null 2> "$tmpdir/crash-err-j$jobs.txt"
    rc=$?
    set -e
    if [ "$rc" -eq 0 ]; then
        echo "FAIL: armed crash run (jobs $jobs) exited cleanly" >&2
        exit 1
    fi
    if ! grep -q "btpub-crash: injected abort at stream.fold:128" \
        "$tmpdir/crash-err-j$jobs.txt"; then
        echo "FAIL: crash run (jobs $jobs) died for the wrong reason:" >&2
        cat "$tmpdir/crash-err-j$jobs.txt" >&2
        exit 1
    fi
    ./target/release/repro --scenario pb10 --scale tiny --jobs "$jobs" \
        --checkpoint-dir "$ckdir" --checkpoint-every 64 \
        > "$tmpdir/resumed-j$jobs.txt" 2>/dev/null
    if ! diff -u "$tmpdir/pb10-plain.txt" "$tmpdir/resumed-j$jobs.txt"; then
        echo "FAIL: resumed report (jobs $jobs) differs from uninterrupted" >&2
        exit 1
    fi
done
echo "kill-and-resume byte-identical at jobs 1 and 4"

echo "== checkpoint inversion: a corrupted checkpoint must be refused =="
# Kill mid-campaign again, flip one byte of the checkpoint payload, and
# prove resume refuses it with a named reason instead of misparsing.
ckdir="$tmpdir/corrupt-ckpt"
set +e
BTPUB_CRASH="stream.fold:128" ./target/release/repro --scenario pb10 \
    --scale tiny --jobs 1 --checkpoint-dir "$ckdir" --checkpoint-every 64 \
    >/dev/null 2>&1
set -e
ckfile="$ckdir/pb10/checkpoint.ckpt"
if [ ! -f "$ckfile" ]; then
    echo "FAIL: crash run left no checkpoint at $ckfile" >&2
    exit 1
fi
byte=$(dd if="$ckfile" bs=1 skip=40 count=1 2>/dev/null | od -An -tu1 | tr -d ' ')
printf "$(printf '\\%03o' $((byte ^ 1)))" \
    | dd of="$ckfile" bs=1 seek=40 conv=notrunc 2>/dev/null
set +e
./target/release/repro --scenario pb10 --scale tiny --jobs 1 \
    --checkpoint-dir "$ckdir" --checkpoint-every 64 \
    >/dev/null 2> "$tmpdir/corrupt-err.txt"
rc=$?
set -e
if [ "$rc" -eq 0 ]; then
    echo "FAIL: resume accepted a corrupted checkpoint" >&2
    exit 1
fi
if ! grep -qE "crc mismatch|corrupt" "$tmpdir/corrupt-err.txt"; then
    echo "FAIL: corrupted-checkpoint refusal did not name the reason:" >&2
    cat "$tmpdir/corrupt-err.txt" >&2
    exit 1
fi
echo "corrupted checkpoint refused with a named reason (exit $rc)"

echo "== checkpoint inversion: a mismatched campaign must be refused by name =="
# Resume the (intact) pb10 checkpoint under a different fault profile:
# the fingerprint check must refuse and say which field disagrees.
ckdir="$tmpdir/mismatch-ckpt"
set +e
BTPUB_CRASH="stream.fold:128" ./target/release/repro --scenario pb10 \
    --scale tiny --jobs 1 --checkpoint-dir "$ckdir" --checkpoint-every 64 \
    >/dev/null 2>&1
./target/release/repro --scenario pb10 --scale tiny --jobs 1 \
    --fault-profile hostile --checkpoint-dir "$ckdir" --checkpoint-every 64 \
    >/dev/null 2> "$tmpdir/mismatch-err.txt"
rc=$?
set -e
if [ "$rc" -eq 0 ]; then
    echo "FAIL: resume accepted a checkpoint from a different fault profile" >&2
    exit 1
fi
if ! grep -q "fault_profile" "$tmpdir/mismatch-err.txt"; then
    echo "FAIL: mismatch refusal did not name the offending field:" >&2
    cat "$tmpdir/mismatch-err.txt" >&2
    exit 1
fi
echo "mismatched checkpoint refused naming fault_profile"

echo "== monitor crash-resume: abort, restart, summary byte-identical =="
./target/release/btpub-monitor --scale tiny > "$tmpdir/mon-baseline.txt" 2>/dev/null
mondir="$tmpdir/mon-crash-ckpt"
set +e
BTPUB_CRASH="stream.fold:100" ./target/release/btpub-monitor --scale tiny \
    --checkpoint-dir "$mondir" --checkpoint-every 50 >/dev/null 2>&1
rc=$?
set -e
if [ "$rc" -eq 0 ]; then
    echo "FAIL: armed monitor crash run exited cleanly" >&2
    exit 1
fi
./target/release/btpub-monitor --scale tiny --checkpoint-dir "$mondir" \
    --checkpoint-every 50 > "$tmpdir/mon-resumed.txt" 2>/dev/null
if ! diff -u "$tmpdir/mon-baseline.txt" "$tmpdir/mon-resumed.txt"; then
    echo "FAIL: resumed monitor summary differs from uninterrupted" >&2
    exit 1
fi
echo "monitor kill-and-resume summary byte-identical"

echo "== monitor graceful shutdown: SIGTERM flushes a checkpoint, restart resumes =="
# Repro scale with a 10-day cap is long enough (~several seconds) to
# land a SIGTERM mid-campaign; the daemon must exit 0, leave a
# checkpoint, and a restart must finish with the same summary as an
# uninterrupted twin. (If the box is fast enough that the run finished
# before the signal, the restart degenerates to a fresh run and the
# diff still must hold.)
mondir="$tmpdir/mon-term-ckpt"
./target/release/btpub-monitor --scale repro --days 10 \
    > "$tmpdir/mon-term-baseline.txt" 2>/dev/null
./target/release/btpub-monitor --scale repro --days 10 \
    --checkpoint-dir "$mondir" --checkpoint-every 100 \
    > "$tmpdir/mon-term-first.txt" 2>/dev/null &
monpid=$!
sleep 4
kill -TERM "$monpid" 2>/dev/null || true
set +e
wait "$monpid"
rc=$?
set -e
if [ "$rc" -ne 0 ]; then
    echo "FAIL: SIGTERM'd monitor exited $rc (graceful shutdown must exit 0)" >&2
    exit 1
fi
./target/release/btpub-monitor --scale repro --days 10 \
    --checkpoint-dir "$mondir" --checkpoint-every 100 \
    > "$tmpdir/mon-term-resumed.txt" 2>/dev/null
if ! diff -u "$tmpdir/mon-term-baseline.txt" "$tmpdir/mon-term-resumed.txt"; then
    echo "FAIL: post-SIGTERM resumed summary differs from uninterrupted" >&2
    exit 1
fi
echo "SIGTERM is indistinguishable from a clean stop"

echo "== ops endpoints: live /metrics + /healthz, incident bundle, triage =="
# A hostile daemon with periodic manifests and a black-box prefix; 40
# garbage UDP datagrams trip the serve breaker (threshold 32); the
# incident is bundled live through the daemon's own HTTP plane and
# triaged offline. btpub-ops doubles as the HTTP client, so the gate
# needs no curl.
opsdir="$tmpdir/ops"
mkdir -p "$opsdir"
BTPUB_TRACE=1 BTPUB_TRACE_SNAPSHOT="$opsdir/bb" \
    ./target/release/btpub-serve --seed 99 --shards 2 --torrents 8 \
    --profile hostile --duration 30 \
    --manifest "$opsdir/serve-manifest.json" --manifest-every 1 \
    > "$opsdir/serve-out.txt" 2>/dev/null &
servepid=$!
for _ in $(seq 1 50); do
    grep -q '^udp=' "$opsdir/serve-out.txt" 2>/dev/null && break
    sleep 0.1
done
if ! grep -q '^udp=' "$opsdir/serve-out.txt"; then
    echo "FAIL: btpub-serve never printed its bound addresses" >&2
    exit 1
fi
udp_addr=$(sed -n 's/^udp=\([^ ]*\).*/\1/p' "$opsdir/serve-out.txt")
tcp_addr=$(sed -n 's/^udp=[^ ]* tcp=\([^ ]*\).*/\1/p' "$opsdir/serve-out.txt")
udp_port="${udp_addr##*:}"
for _ in $(seq 1 40); do
    printf 'garbage-datagram' > "/dev/udp/127.0.0.1/$udp_port"
done
sleep 2
./target/release/btpub-ops bundle --out "$opsdir/incident.btinc" \
    --manifest "$opsdir/serve-manifest.json" --daemon "$tcp_addr" \
    --blackbox "$opsdir/bb" --note "check.sh ops gate" \
    > "$opsdir/bundle-out.txt"
kill "$servepid" 2>/dev/null || true
set +e
wait "$servepid" 2>/dev/null
set -e
for needle in 'healthz (' 'metrics (' 'blackbox/bb-'; do
    if ! grep -qF "$needle" "$opsdir/bundle-out.txt"; then
        echo "FAIL: bundle is missing the '$needle' section:" >&2
        cat "$opsdir/bundle-out.txt" >&2
        exit 1
    fi
done
./target/release/btpub-ops triage "$opsdir/incident.btinc" \
    > "$opsdir/triage-out.txt"
for needle in 'breaker.serve state=' '\[TRIPPED\]' \
    'full-rate sampling windows opened:' 'dump bb-'; do
    if ! grep -q "$needle" "$opsdir/triage-out.txt"; then
        echo "FAIL: triage did not report '$needle':" >&2
        cat "$opsdir/triage-out.txt" >&2
        exit 1
    fi
done
echo "live endpoints scraped; triage names the tripped breaker, the"
echo "full-rate window, and the black-box dump"

echo "== ops inversion: a corrupted incident archive must be refused =="
# Flip one byte mid-archive: triage must refuse with the CRC named,
# never render from a torn file.
cp "$opsdir/incident.btinc" "$opsdir/incident-corrupt.btinc"
byte=$(dd if="$opsdir/incident-corrupt.btinc" bs=1 skip=40 count=1 \
    2>/dev/null | od -An -tu1 | tr -d ' ')
printf "$(printf '\\%03o' $((byte ^ 1)))" \
    | dd of="$opsdir/incident-corrupt.btinc" bs=1 seek=40 conv=notrunc \
    2>/dev/null
set +e
./target/release/btpub-ops triage "$opsdir/incident-corrupt.btinc" \
    >/dev/null 2> "$opsdir/corrupt-err.txt"
rc=$?
set -e
if [ "$rc" -ne 1 ]; then
    echo "FAIL: triage accepted a corrupted archive (exit $rc, wanted 1)" >&2
    exit 1
fi
if ! grep -q "crc mismatch" "$opsdir/corrupt-err.txt"; then
    echo "FAIL: corrupted-archive refusal did not name the crc:" >&2
    cat "$opsdir/corrupt-err.txt" >&2
    exit 1
fi
echo "corrupted archive refused naming the crc (exit 1)"

echo "== adaptive tracing: breaker-keyed full-rate windows must not move a byte =="
# Armed hostile runs really open full-rate windows (breakers trip under
# the hostile profile); stdout must stay byte-identical to the disarmed
# chaos reports at both job counts, and the window counter must prove
# the swap actually happened.
for jobs in 1 4; do
    BTPUB_TRACE_SNAPSHOT="$tmpdir/adapt-bb-j$jobs" \
        ./target/release/repro --scenario pb10 --scale tiny \
        --fault-profile hostile --jobs "$jobs" \
        --trace "$tmpdir/adaptive-j$jobs-trace.json" \
        --metrics "$tmpdir/adaptive-j$jobs-metrics.json" \
        > "$tmpdir/adaptive-j$jobs.txt" 2>/dev/null
    if ! diff -u "$tmpdir/chaos-serial.txt" "$tmpdir/adaptive-j$jobs.txt"; then
        echo "FAIL: adaptive full-rate windows moved report bytes (jobs $jobs)" >&2
        exit 1
    fi
done
if ! grep -q '"trace.adaptive.windows"' "$tmpdir/adaptive-j1-metrics.json"; then
    echo "FAIL: armed hostile run opened no full-rate window (gate is inert)" >&2
    exit 1
fi
echo "adaptive windows opened; reports byte-identical at jobs 1 and 4"

echo "all checks passed"
