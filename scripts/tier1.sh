#!/usr/bin/env bash
# Tier-1 verification: the gate every PR must keep green.
#
#   ./scripts/tier1.sh
#
# Runs the release build, the full test suite, and the formatting check
# (a superset of the driver's gate, see ROADMAP.md, "Tier-1 verify").
# `default-members` makes a plain `cargo build`/`cargo test` at the root
# cover the workspace too; --workspace keeps that explicit here.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --workspace --release
cargo test -q --workspace
cargo fmt --check

# The thermal subsystem gets an explicit build+test pass of its own so a
# workspace-level feature or dependency slip cannot hide a broken crate.
cargo build --release -p m3d-thermal
cargo test -q -p m3d-thermal

# Determinism gate: the Obs. 10 JSON artifact must be byte-identical
# across runs and across worker counts (the report deliberately excludes
# wall-clock and job-count fields). The disk cache is detached so both
# runs compute from scratch with identical cache tallies.
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
env -u M3D_CACHE_DIR M3D_JOBS=1 ./target/release/obs10_thermal --quick --json "$tmp/a.json" >/dev/null 2>&1
env -u M3D_CACHE_DIR M3D_JOBS=7 ./target/release/obs10_thermal --quick --json "$tmp/b.json" >/dev/null 2>&1
if ! cmp -s "$tmp/a.json" "$tmp/b.json"; then
    echo "tier1: FAIL — obs10_thermal --json differs across M3D_JOBS" >&2
    diff "$tmp/a.json" "$tmp/b.json" >&2 || true
    exit 1
fi

# Trace gate: --trace-json must emit a non-empty span tree that covers
# the pipeline stages with cache provenance, byte-identical across
# worker counts (the trace deliberately excludes wall-clock numbers).
M3D_JOBS=1 ./target/release/table1_resnet18 --quick --trace-json "$tmp/trace-a.json" >/dev/null 2>&1
M3D_JOBS=8 ./target/release/table1_resnet18 --quick --trace-json "$tmp/trace-b.json" >/dev/null 2>&1
for stage in '"arch-sim"' '"report"' '"provenance"'; do
    if ! grep -q "$stage" "$tmp/trace-a.json"; then
        echo "tier1: FAIL — table1_resnet18 trace is missing $stage" >&2
        exit 1
    fi
done
if ! cmp -s "$tmp/trace-a.json" "$tmp/trace-b.json"; then
    echo "tier1: FAIL — table1_resnet18 --trace-json differs across M3D_JOBS" >&2
    diff "$tmp/trace-a.json" "$tmp/trace-b.json" >&2 || true
    exit 1
fi

# Metrics gate: --metrics-text must emit a well-formed Prometheus text
# exposition carrying the engine's guaranteed counters. The grammar
# check admits exactly `# ...` comments and `name[{le="…"}] value`
# samples — anything else fails the run.
./target/release/table1_resnet18 --quick --metrics-text "$tmp/metrics.prom" >/dev/null 2>&1
for counter in '^engine_runs 1$' '^engine_stages ' '# TYPE engine_runs counter'; do
    if ! grep -q "$counter" "$tmp/metrics.prom"; then
        echo "tier1: FAIL — table1_resnet18 --metrics-text is missing $counter" >&2
        cat "$tmp/metrics.prom" >&2
        exit 1
    fi
done
if grep -Evq '^(# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]* ?.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]*"\})? [0-9]+)$' "$tmp/metrics.prom"; then
    echo "tier1: FAIL — table1_resnet18 --metrics-text has malformed lines:" >&2
    grep -Ev '^(# (TYPE|HELP) [a-zA-Z_:][a-zA-Z0-9_:]* ?.*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{le="[^"]*"\})? [0-9]+)$' "$tmp/metrics.prom" >&2
    exit 1
fi

# Pd-flow sub-span gate: the fig2 trace must expose the flow internals
# (placement/opt/CTS/STA child spans with integer counters),
# byte-identical across worker counts.
env -u M3D_CACHE_DIR M3D_JOBS=1 ./target/release/fig2_physical_design --quick --trace-json "$tmp/fig2-a.json" >/dev/null 2>&1
env -u M3D_CACHE_DIR M3D_JOBS=4 ./target/release/fig2_physical_design --quick --trace-json "$tmp/fig2-b.json" >/dev/null 2>&1
for span in '"place"' '"cts"' '"sta"' '"counters"' '"signal_ilvs"'; do
    if ! grep -q "$span" "$tmp/fig2-a.json"; then
        echo "tier1: FAIL — fig2 trace is missing the $span sub-span data" >&2
        exit 1
    fi
done
if ! cmp -s "$tmp/fig2-a.json" "$tmp/fig2-b.json"; then
    echo "tier1: FAIL — fig2_physical_design --trace-json differs across M3D_JOBS" >&2
    diff "$tmp/fig2-a.json" "$tmp/fig2-b.json" >&2 || true
    exit 1
fi

# Corner-sweep gate: the multi-corner sign-off must carry one child span
# per corner with provenance, byte-identical across worker counts.
env -u M3D_CACHE_DIR M3D_JOBS=1 ./target/release/corners_signoff --quick --trace-json "$tmp/corners-a.json" >/dev/null 2>&1
env -u M3D_CACHE_DIR M3D_JOBS=2 ./target/release/corners_signoff --quick --trace-json "$tmp/corners-b.json" >/dev/null 2>&1
for span in '"corner:ss"' '"corner:tt"' '"corner:ff"' '"provenance"'; do
    if ! grep -q "$span" "$tmp/corners-a.json"; then
        echo "tier1: FAIL — corners_signoff trace is missing $span" >&2
        exit 1
    fi
done
if ! cmp -s "$tmp/corners-a.json" "$tmp/corners-b.json"; then
    echo "tier1: FAIL — corners_signoff --trace-json differs across M3D_JOBS" >&2
    diff "$tmp/corners-a.json" "$tmp/corners-b.json" >&2 || true
    exit 1
fi

# Warm-start determinism gate: the activity-sensitivity sweep warm-starts
# later grid points from the first point's placement seed (all points
# share a placement key). The --json and --trace-json artifacts must be
# byte-identical across worker counts — with jobs=1 the later points warm
# from the in-memory seed index, with jobs=7 they race and mostly anneal
# cold, so identity here proves warm == cold byte for byte.
env -u M3D_CACHE_DIR M3D_JOBS=1 ./target/release/flow_sensitivity --quick \
    --json "$tmp/sens-a.json" --trace-json "$tmp/sens-trace-a.json" >/dev/null 2>&1
env -u M3D_CACHE_DIR M3D_JOBS=7 ./target/release/flow_sensitivity --quick \
    --json "$tmp/sens-b.json" --trace-json "$tmp/sens-trace-b.json" >/dev/null 2>&1
if ! cmp -s "$tmp/sens-a.json" "$tmp/sens-b.json"; then
    echo "tier1: FAIL — flow_sensitivity --json differs across M3D_JOBS" >&2
    diff "$tmp/sens-a.json" "$tmp/sens-b.json" >&2 || true
    exit 1
fi
if ! cmp -s "$tmp/sens-trace-a.json" "$tmp/sens-trace-b.json"; then
    echo "tier1: FAIL — flow_sensitivity --trace-json differs across M3D_JOBS" >&2
    diff "$tmp/sens-trace-a.json" "$tmp/sens-trace-b.json" >&2 || true
    exit 1
fi

# Disk-tier warm-start gate: prewarm a fresh artifact cache with a
# *shifted* activity grid (neighbours only — no exact-key hits possible),
# then rerun the default grid against that cache. Every point must
# warm-start from a disk neighbour's seed (pd_flow_warm_runs > 0) and the
# payload must stay byte-identical to the detached-cache run above.
warm_cache="$tmp/warm-cache"
mkdir -p "$warm_cache"
M3D_CACHE_DIR="$warm_cache" M3D_JOBS=1 ./target/release/flow_sensitivity --quick \
    --set activity_lo_pct=12 >/dev/null 2>&1
M3D_CACHE_DIR="$warm_cache" M3D_JOBS=1 ./target/release/flow_sensitivity --quick \
    --json "$tmp/sens-warm.json" --metrics-text "$tmp/sens-warm.prom" >/dev/null 2>&1
if ! cmp -s "$tmp/sens-warm.json" "$tmp/sens-a.json"; then
    echo "tier1: FAIL — warm-started flow_sensitivity --json differs from cold" >&2
    diff "$tmp/sens-warm.json" "$tmp/sens-a.json" >&2 || true
    exit 1
fi
if ! grep -Eq '^pd_flow_warm_runs [1-9]' "$tmp/sens-warm.prom"; then
    echo "tier1: FAIL — prewarmed flow_sensitivity run never warm-started:" >&2
    grep -E '^(pd_flow|flow_cache)' "$tmp/sens-warm.prom" >&2 || true
    exit 1
fi

# Ingest gate: the checked-in example EDIF must flatten and implement
# deterministically — the --json artifact is byte-identical across
# worker counts — and the trace must carry the front-end counters.
env -u M3D_CACHE_DIR M3D_JOBS=1 ./target/release/ingest --quick --set file=examples/adder4.edif \
    --json "$tmp/ingest-a.json" --trace-json "$tmp/ingest-trace.json" >/dev/null 2>&1
env -u M3D_CACHE_DIR M3D_JOBS=6 ./target/release/ingest --quick --set file=examples/adder4.edif \
    --json "$tmp/ingest-b.json" >/dev/null 2>&1
if ! cmp -s "$tmp/ingest-a.json" "$tmp/ingest-b.json"; then
    echo "tier1: FAIL — ingest --json differs across M3D_JOBS" >&2
    diff "$tmp/ingest-a.json" "$tmp/ingest-b.json" >&2 || true
    exit 1
fi
for counter in '"ingest.cells"' '"ingest.nets"' '"ingest.flatten_depth"'; do
    if ! grep -q "$counter" "$tmp/ingest-trace.json"; then
        echo "tier1: FAIL — ingest trace is missing the $counter counter" >&2
        exit 1
    fi
done
# Malformed sources are bad-requests (exit 2) with a source position.
if ./target/release/ingest --set 'source=(edif broken' >/dev/null 2>"$tmp/ingest-err.txt"; then
    echo "tier1: FAIL — ingest accepted a malformed EDIF source" >&2
    exit 1
fi
if ! grep -q 'line 1, column' "$tmp/ingest-err.txt"; then
    echo "tier1: FAIL — ingest rejection lacks a line/column position:" >&2
    cat "$tmp/ingest-err.txt" >&2
    exit 1
fi

# Service smoke gate: boot m3d-serve on an ephemeral port, drive it
# with deterministic loadgen mixes, assert the dedup counts (cold
# computes all 12, the warm repeat computes 0, a 16-client identical
# burst computes exactly 1), and require a graceful drain (exit 0).
serve_smoke() {
    workers="$1"
    cold_json="$2"
    # Detached from the disk cache: the mixed gate below counts fresh
    # computes, which a pre-warmed M3D_CACHE_DIR would turn into hits.
    env -u M3D_CACHE_DIR ./target/release/m3d-serve --addr 127.0.0.1:0 --workers "$workers" \
        --queue-depth 64 >"$tmp/serve-w$workers.out" 2>&1 &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's/.*"listening":"\([^"]*\)".*/\1/p' "$tmp/serve-w$workers.out")"
        [ -n "$addr" ] && break
        sleep 0.1
    done
    if [ -z "$addr" ]; then
        echo "tier1: FAIL — m3d-serve (workers=$workers) never announced its port" >&2
        kill "$serve_pid" 2>/dev/null || true
        exit 1
    fi
    # The cold mix doubles as the metrics gate: --check-metrics asserts
    # the server's executed / cache_hits+coalesced counter deltas agree
    # with the client-side computed/reused tallies (spans.recorded /
    # spans.dropped accounting included), and --metrics-every polls the
    # `metrics` and — with --trace — `traces` wire cases mid-run,
    # cross-checking each inline trace against its flight-recorder copy.
    ./target/release/m3d-loadgen --addr "$addr" --clients 3 --requests 4 \
        --mix cold --expect-computed 12 --check-metrics --metrics-every 2 \
        --trace --json "$cold_json" >/dev/null
    ./target/release/m3d-loadgen --addr "$addr" --clients 3 --requests 4 \
        --mix cold --expect-computed 0 --check-metrics >/dev/null
    # One `metrics_text` scrape: loadgen validates the exposition parses
    # before writing it; the grep pins the request counters to the
    # Prometheus surface.
    ./target/release/m3d-loadgen --addr "$addr" --clients 4 --requests 4 \
        --mix repeated --expect-computed 1 \
        --metrics-text "$tmp/serve-w$workers.prom" >/dev/null
    for family in '^# TYPE executed counter$' '^# TYPE spans_dropped counter$' \
                  '^spans_recorded [1-9]'; do
        if ! grep -q "$family" "$tmp/serve-w$workers.prom"; then
            echo "tier1: FAIL — serve metrics_text (workers=$workers) lacks $family" >&2
            cat "$tmp/serve-w$workers.prom" >&2
            exit 1
        fi
    done
    # Ingest wire probe: a malformed EDIF upload must be refused by
    # validate-before-enqueue (bad-request with a source position, and
    # the `rejected` counter increments), and the same valid design
    # uploaded twice must answer the second time from cache.
    exec 3<>"/dev/tcp/${addr%%:*}/${addr##*:}"
    printf '%s\n' '{"id":9001,"case":"ingest","params":{"source":"(edif broken"}}' >&3
    IFS= read -r reply <&3
    case "$reply" in
        *'"code":"bad-request"'*'line 1'*) ;;
        *) echo "tier1: FAIL — malformed ingest upload was not refused: $reply" >&2
           exit 1 ;;
    esac
    printf '%s\n' '{"id":9002,"case":"metrics","params":{}}' >&3
    IFS= read -r reply <&3
    case "$reply" in
        *'"rejected":1'[!0-9]*) ;;
        *) echo "tier1: FAIL — ingest rejection did not bump the rejected counter: $reply" >&2
           exit 1 ;;
    esac
    probe='{"id":9003,"case":"ingest","params":{"source":"(edif probe (library work (cell top (view v (interface (port a (direction INPUT)) (port y (direction OUTPUT))) (contents (instance u1 (cellRef BUF_X1)) (net na (joined (portRef a) (portRef A (instanceRef u1)))) (net ny (joined (portRef Y (instanceRef u1)) (portRef y))))))) (design probe (cellRef top)))"}}'
    printf '%s\n' "$probe" >&3
    IFS= read -r reply <&3
    case "$reply" in
        *'"status":200'*'"cached":false'*) ;;
        *) echo "tier1: FAIL — first ingest upload did not compute: $reply" >&2
           exit 1 ;;
    esac
    printf '%s\n' "${probe/9003/9004}" >&3
    IFS= read -r reply <&3
    case "$reply" in
        *'"cached":true'*) ;;
        *) echo "tier1: FAIL — duplicate ingest upload missed the cache: $reply" >&2
           exit 1 ;;
    esac
    exec 3<&- 3>&-
    # The mixed mix samples the server's `cases` listing (registry
    # order) and uploads one inline-EDIF design: three fresh cases
    # compute (pd_flow defaults, the ingest upload, tier_sweep defaults)
    # and the cold/repeated shapes replay from the response cache.
    ./target/release/m3d-loadgen --addr "$addr" --clients 2 --requests 4 \
        --mix mixed --expect-computed 3 --shutdown >/dev/null
    if ! wait "$serve_pid"; then
        echo "tier1: FAIL — m3d-serve (workers=$workers) did not drain and exit 0" >&2
        exit 1
    fi
}
serve_smoke 1 "$tmp/cold-w1.json"
serve_smoke 4 "$tmp/cold-w4.json"

# Payload identity across worker counts: the deterministic loadgen
# artifact (counts + per-key payload digests) must be byte-identical.
if ! cmp -s "$tmp/cold-w1.json" "$tmp/cold-w4.json"; then
    echo "tier1: FAIL — loadgen --json differs across m3d-serve --workers" >&2
    diff "$tmp/cold-w1.json" "$tmp/cold-w4.json" >&2 || true
    exit 1
fi

# Traced-response determinism gate: the same traced request against two
# fresh single servers (M3D_JOBS=1 vs 7) must answer byte-identically —
# whole envelope including the inline trace, whose deterministic
# rendering deliberately excludes wall-clock timing.
for jobs in 1 7; do
    env -u M3D_CACHE_DIR M3D_JOBS="$jobs" ./target/release/m3d-serve --addr 127.0.0.1:0 \
        --workers 2 --queue-depth 16 >"$tmp/trace-serve-$jobs.out" 2>&1 &
    tpid=$!
    taddr=""
    for _ in $(seq 1 100); do
        taddr="$(sed -n 's/.*"listening":"\([^"]*\)".*/\1/p' "$tmp/trace-serve-$jobs.out")"
        [ -n "$taddr" ] && break
        sleep 0.1
    done
    if [ -z "$taddr" ]; then
        echo "tier1: FAIL — m3d-serve (M3D_JOBS=$jobs) never announced its port" >&2
        kill "$tpid" 2>/dev/null || true
        exit 1
    fi
    exec 5<>"/dev/tcp/${taddr%%:*}/${taddr##*:}"
    printf '%s\n' '{"id":7100,"case":"pd_flow","quick":true,"trace":true,"params":{"activity_pct":37.5}}' >&5
    IFS= read -r treply <&5
    printf '%s\n' "$treply" >"$tmp/traced-j$jobs.line"
    printf '%s\n' '{"id":7101,"case":"shutdown"}' >&5
    IFS= read -r _ <&5 || true
    exec 5<&- 5>&-
    if ! wait "$tpid"; then
        echo "tier1: FAIL — m3d-serve (M3D_JOBS=$jobs) did not drain after the traced probe" >&2
        exit 1
    fi
done
for part in '"trace_id"' '"name":"req:pd_flow"' '"name":"pd-flow"' '"name":"place"'; do
    if ! grep -qF "$part" "$tmp/traced-j1.line"; then
        echo "tier1: FAIL — single-server traced response lacks $part:" >&2
        cat "$tmp/traced-j1.line" >&2
        exit 1
    fi
done
if ! cmp -s "$tmp/traced-j1.line" "$tmp/traced-j7.line"; then
    echo "tier1: FAIL — traced pd_flow response differs across M3D_JOBS" >&2
    diff "$tmp/traced-j1.line" "$tmp/traced-j7.line" >&2 || true
    exit 1
fi

# Fleet smoke gate: m3d-gateway supervising 3 m3d-serve replicas over a
# shared on-disk artifact tier. Asserts consistent-hash affinity, the
# cross-replica byte-identity probe, payload identity against the
# single-server run, shared-tier disk hits across replicas, transparent
# retry + respawn after a SIGKILL mid-run, and the per-replica gauge
# families on the Prometheus surface.
fleet_cache="$tmp/fleet-cache"
mkdir -p "$fleet_cache"
env -u M3D_CACHE_DIR ./target/release/m3d-gateway --addr 127.0.0.1:0 --replicas 3 \
    --workers 2 --queue-depth 64 --serve-bin ./target/release/m3d-serve \
    --cache-dir "$fleet_cache" --probe-interval-ms 100 \
    >"$tmp/gateway.out" 2>"$tmp/gateway.err" &
gateway_pid=$!
gaddr=""
for _ in $(seq 1 150); do
    gaddr="$(sed -n 's/.*"listening":"\([^"]*\)".*/\1/p' "$tmp/gateway.out")"
    [ -n "$gaddr" ] && break
    sleep 0.1
done
if [ -z "$gaddr" ]; then
    echo "tier1: FAIL — m3d-gateway never announced its port" >&2
    cat "$tmp/gateway.err" >&2
    kill "$gateway_pid" 2>/dev/null || true
    exit 1
fi
ghost="${gaddr%%:*}"; gport="${gaddr##*:}"

# One shared helper: a single request/response over /dev/tcp.
gw_request() {
    exec 4<>"/dev/tcp/$ghost/$gport"
    printf '%s\n' "$1" >&4
    IFS= read -r gw_reply <&4
    exec 4<&- 4>&-
}

# Repeated mix through the gateway: 16 identical requests compute once
# fleet-wide (consistent-hash affinity concentrates them on one
# replica), the fleet `metrics` aggregation agrees with the client
# tallies, and --expect-replicas runs the cross-replica byte-identity
# probe (one request forced through every replica, digests compared).
./target/release/m3d-loadgen --addr "$gaddr" --clients 4 --requests 4 \
    --mix repeated --expect-computed 1 --expect-replicas 3 --check-metrics >/dev/null
gw_request '{"id":9101,"case":"stats"}'
max_routed="$(printf '%s' "$gw_reply" | grep -o '"routed":[0-9]*' | cut -d: -f2 | sort -n | tail -1)"
if [ -z "$max_routed" ] || [ "$max_routed" -lt 16 ]; then
    echo "tier1: FAIL — fleet affinity broken: no replica routed all 16 repeats: $gw_reply" >&2
    exit 1
fi

# Cold mix: 12 distinct requests all compute, and the deterministic
# artifact is byte-identical to the single-server (workers=1) run — the
# fleet topology must be invisible in payloads.
./target/release/m3d-loadgen --addr "$gaddr" --clients 3 --requests 4 \
    --mix cold --expect-computed 12 --json "$tmp/fleet-cold.json" >/dev/null
if ! cmp -s "$tmp/fleet-cold.json" "$tmp/cold-w1.json"; then
    echo "tier1: FAIL — loadgen --json differs between m3d-gateway fleet and single m3d-serve" >&2
    diff "$tmp/fleet-cold.json" "$tmp/cold-w1.json" >&2 || true
    exit 1
fi

# Mixed mix exercises real dispatch breadth through the router (three
# fresh cases compute, the rest replay response caches).
./target/release/m3d-loadgen --addr "$gaddr" --clients 2 --requests 4 \
    --mix mixed --expect-computed 3 >/dev/null

# Distributed-trace gate: a traced request through the gateway answers
# with ONE stitched tree — the gateway root span, its per-attempt child,
# the replica's request span and the pd-flow sub-spans beneath it — all
# under a single trace id, and the gateway's flight recorder must hold
# the same trace for the fleet-wide `traces` admin case.
gw_request '{"id":9401,"case":"pd_flow","quick":true,"trace":true,"params":{"activity_pct":41.5}}'
for part in '"name":"gateway"' '"attempts":1' '"name":"attempt:0"' \
            '"name":"req:pd_flow"' '"name":"pd-flow"' '"name":"place"'; do
    if ! printf '%s' "$gw_reply" | grep -qF "$part"; then
        echo "tier1: FAIL — stitched fleet trace lacks $part: $gw_reply" >&2
        exit 1
    fi
done
trace_ids="$(printf '%s' "$gw_reply" | grep -o '"trace_id":"[0-9a-f]\{32\}"' | sort -u)"
if [ "$(printf '%s\n' "$trace_ids" | grep -c .)" -ne 1 ]; then
    echo "tier1: FAIL — stitched trace does not carry exactly one trace id: $gw_reply" >&2
    exit 1
fi
tid="$(printf '%s' "$trace_ids" | cut -d'"' -f4)"
gw_request "{\"id\":9402,\"case\":\"traces\",\"params\":{\"trace_id\":\"$tid\"}}"
if ! printf '%s' "$gw_reply" | grep -qF "\"trace_id\":\"$tid\""; then
    echo "tier1: FAIL — gateway flight recorder does not hold trace $tid: $gw_reply" >&2
    exit 1
fi
if ! printf '%s' "$gw_reply" | grep -qF '"name":"gateway"'; then
    echo "tier1: FAIL — recorded fleet trace lost its gateway root: $gw_reply" >&2
    exit 1
fi

# Shared artifact tier: an ingest upload computed on replica 0 must be
# a cache hit on replica 1 — only the shared M3D_CACHE_DIR can carry it
# across processes (the `replica` delivery field pins the routing).
fprobe='{"id":9201,"case":"ingest","replica":0,"params":{"source":"(edif fleetprobe (library work (cell top (view v (interface (port a (direction INPUT)) (port y (direction OUTPUT))) (contents (instance u1 (cellRef BUF_X1)) (net na (joined (portRef a) (portRef A (instanceRef u1)))) (net ny (joined (portRef Y (instanceRef u1)) (portRef y))))))) (design fleetprobe (cellRef top)))"}}'
gw_request "$fprobe"
case "$gw_reply" in
    *'"status":200'*'"cached":false'*'"replica":0'*) ;;
    *) echo "tier1: FAIL — fleet ingest upload to replica 0 did not compute: $gw_reply" >&2
       exit 1 ;;
esac
gw_request "$(printf '%s' "$fprobe" | sed 's/9201/9202/; s/"replica":0/"replica":1/')"
case "$gw_reply" in
    *'"cached":true'*'"replica":1'*) ;;
    *) echo "tier1: FAIL — replica 1 missed the shared artifact tier: $gw_reply" >&2
       exit 1 ;;
esac

# Crash gate: SIGKILL one replica while a sleep-mix run is in flight.
# Every request must still resolve exactly once (24 distinct tags, all
# computed — the gateway's transparent retry may recompute internally
# but the client sees each answer once), and the supervisor must
# respawn the replica.
gw_request '{"id":9301,"case":"stats"}'
victim_pid="$(printf '%s' "$gw_reply" | grep -o '"pid":[0-9]*' | head -1 | cut -d: -f2)"
if [ -z "$victim_pid" ]; then
    echo "tier1: FAIL — fleet stats carries no replica pid: $gw_reply" >&2
    exit 1
fi
./target/release/m3d-loadgen --addr "$gaddr" --clients 4 --requests 6 \
    --mix sleep --expect-computed 24 >/dev/null &
loadgen_pid=$!
sleep 0.15
kill -9 "$victim_pid" 2>/dev/null || true
if ! wait "$loadgen_pid"; then
    echo "tier1: FAIL — requests were lost when a replica was SIGKILLed mid-run" >&2
    exit 1
fi
respawned=""
for _ in $(seq 1 100); do
    gw_request '{"id":9302,"case":"stats"}'
    case "$gw_reply" in
        *'"replicas_up":3'*)
            case "$gw_reply" in
                *'"restarts":1'*|*'"restarts":2'*) respawned=1; break ;;
            esac ;;
    esac
    sleep 0.1
done
if [ -z "$respawned" ]; then
    echo "tier1: FAIL — SIGKILLed replica was not respawned: $gw_reply" >&2
    exit 1
fi

# Fleet Prometheus surface: per-replica gauge families and the gateway
# counters must render (loadgen validates the exposition grammar before
# writing the file), then a shutdown request must drain the whole fleet
# to exit 0.
# (No --expect-computed here: whether this replays a cache depends on
# whether the SIGKILLed replica owned the repeated key.)
./target/release/m3d-loadgen --addr "$gaddr" --clients 1 --requests 1 \
    --mix repeated --metrics-text "$tmp/fleet.prom" \
    --shutdown >/dev/null
for family in '^# TYPE fleet_replica0_queue_len gauge$' '^fleet_replica0_up 1$' \
              '^fleet_replica2_up 1$' '^gateway_routed ' '^executed ' \
              '^gateway_spans_recorded [1-9]' '^# TYPE gateway_spans_dropped counter$' \
              '^spans_recorded [1-9]'; do
    if ! grep -q "$family" "$tmp/fleet.prom"; then
        echo "tier1: FAIL — fleet metrics_text lacks $family" >&2
        cat "$tmp/fleet.prom" >&2
        exit 1
    fi
done
if ! wait "$gateway_pid"; then
    echo "tier1: FAIL — m3d-gateway did not drain its fleet and exit 0" >&2
    cat "$tmp/gateway.err" >&2
    exit 1
fi

# Retry-visibility gate: under a slow health probe, SIGKILL a replica
# and keep sending cold traced requests — the consistent hash keeps
# routing a share of them at the dead socket, so one must fail its
# first attempt and retry on another replica. The stitched trace has to
# show both attempts: attempt:0 tagged failed, attempt:1 carrying the
# replica's request subtree.
retry_cache="$tmp/retry-cache"
mkdir -p "$retry_cache"
env -u M3D_CACHE_DIR ./target/release/m3d-gateway --addr 127.0.0.1:0 --replicas 3 \
    --workers 1 --queue-depth 64 --serve-bin ./target/release/m3d-serve \
    --cache-dir "$retry_cache" --probe-interval-ms 5000 \
    >"$tmp/retry-gw.out" 2>"$tmp/retry-gw.err" &
retry_gw_pid=$!
raddr=""
for _ in $(seq 1 150); do
    raddr="$(sed -n 's/.*"listening":"\([^"]*\)".*/\1/p' "$tmp/retry-gw.out")"
    [ -n "$raddr" ] && break
    sleep 0.1
done
if [ -z "$raddr" ]; then
    echo "tier1: FAIL — retry-gate m3d-gateway never announced its port" >&2
    cat "$tmp/retry-gw.err" >&2
    kill "$retry_gw_pid" 2>/dev/null || true
    exit 1
fi
rw_request() {
    exec 6<>"/dev/tcp/${raddr%%:*}/${raddr##*:}"
    printf '%s\n' "$1" >&6
    IFS= read -r rw_reply <&6
    exec 6<&- 6>&-
}
rw_request '{"id":9501,"case":"stats"}'
victim_pid="$(printf '%s' "$rw_reply" | grep -o '"pid":[0-9]*' | head -1 | cut -d: -f2)"
if [ -z "$victim_pid" ]; then
    echo "tier1: FAIL — retry-gate stats carries no replica pid: $rw_reply" >&2
    exit 1
fi
kill -9 "$victim_pid" 2>/dev/null || true
retry_seen=""
for i in $(seq 1 60); do
    rw_request "{\"id\":$((9510 + i)),\"case\":\"sensitivity\",\"quick\":true,\"trace\":true,\"params\":{\"seed\":$((52000 + i))}}"
    case "$rw_reply" in
        *'"name":"attempt:1"'*) retry_seen=1; break ;;
    esac
done
if [ -z "$retry_seen" ]; then
    echo "tier1: FAIL — no retry became visible after 60 traced requests past a SIGKILL" >&2
    exit 1
fi
case "$rw_reply" in
    *'"attempts":2'*'"retries":1'*'"failed":1'*'"name":"attempt:1"'*'"name":"req:sensitivity"'*) ;;
    *) echo "tier1: FAIL — retry trace lacks the failed-then-won attempt pair: $rw_reply" >&2
       exit 1 ;;
esac
rw_request '{"id":9599,"case":"shutdown"}'
if ! wait "$retry_gw_pid"; then
    echo "tier1: FAIL — retry-gate m3d-gateway did not drain and exit 0" >&2
    cat "$tmp/retry-gw.err" >&2
    exit 1
fi

# Bench smoke: the flow bench's warm-vs-cold pair must run, pass its
# internal warm==cold identity assertions, and emit the warm-start
# summary artifact. Only non-timing facts are asserted — medians land in
# the JSON for humans and dashboards, never for gating.
bench_json="$tmp/BENCH_warmstart.json"
M3D_BENCH_WARMSTART_JSON="$bench_json" cargo bench -q -p m3d-bench --bench flow >"$tmp/bench.out" 2>&1
if [ ! -s "$bench_json" ]; then
    echo "tier1: FAIL — flow bench did not emit BENCH_warmstart.json" >&2
    cat "$tmp/bench.out" >&2
    exit 1
fi
for fld in '"bench": "flow_sweep_warm_vs_cold"' '"grid_points"' '"cold_ms_median"' \
           '"warm_ms_median"' '"speedup"'; do
    if ! grep -q "$fld" "$bench_json"; then
        echo "tier1: FAIL — BENCH_warmstart.json lacks $fld:" >&2
        cat "$bench_json" >&2
        exit 1
    fi
done

echo "tier1: OK"
