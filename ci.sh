#!/bin/sh
# ci.sh — the checks a change must pass before it lands.
#
#   ./ci.sh                # vet + gofmt + build + tests + race detector
#   ./ci.sh -short         # the same, with the slow tests trimmed
#   ./ci.sh cluster-smoke  # only the 3-replica router smoke
#
# Tier-1 (build + go test ./...) is the compatibility bar tracked in
# ROADMAP.md; the race run exercises the shared code cache and the
# concurrent differential tests with full interleaving checks.
set -eu
cd "$(dirname "$0")"

short="${1:-}"

# cluster_smoke boots 3 selfserved replicas behind selfrouter on
# ephemeral ports and pins the cluster-serving invariants:
#   - a recorded trace replays deterministically (re-record is
#     byte-identical modulo timestamps),
#   - affinity routing compiles each distinct program on exactly ONE
#     replica (fleet compile-once: the replicas' codecache misses across
#     the first replay sum to the trace's 8 programs), and a second
#     replay of the same trace compiles nothing anywhere,
#   - the router reuses its upstream connections (dials stay at or below
#     the replay's client count),
#   - an overloaded home replica sheds and the router retries the
#     next-ranked replica (>= 1 shed failover observed),
#   - SIGTERM-draining a replica mid-run loses zero requests at the
#     router, and both the replica and the router drain cleanly.
cluster_smoke() {
    echo "== cluster smoke (3 replicas + selfrouter)"
    go build -o /tmp/ci-selfserved ./cmd/selfserved
    go build -o /tmp/ci-selfload ./cmd/selfload
    go build -o /tmp/ci-selfrouter ./cmd/selfrouter
    cwork=$(mktemp -d)
    cpids=""
    trap 'for p in $cpids; do kill "$p" 2>/dev/null || true; done; rm -rf "$cwork"' EXIT

    # 8 distinct programs x 3 reps, 2ms apart.
    awk 'BEGIN{
        for (r = 0; r < 3; r++)
            for (k = 0; k < 8; k++)
                printf("{\"dt_us\":%d,\"endpoint\":\"/eval\",\"body\":\"{\\\"expr\\\": \\\"| s <- 0 | 1 upTo: %d Do: [ :i | s: s + i ]. s\\\"}\"}\n", (r == 0 && k == 0) ? 0 : 2000, 1000 + k);
    }' > "$cwork/trace.jsonl"

    boot() { # boot LOGFILE CMD [flags...] -> $boot_url
        _log=$1; shift
        "$@" >/dev/null 2>"$_log" &
        cpids="$cpids $!"
        boot_url=""
        for _i in $(seq 1 50); do
            boot_url=$(grep -o 'listening on http://[0-9.:]*' "$_log" | head -1 | sed 's/listening on //' || true)
            [ -n "$boot_url" ] && break
            sleep 0.1
        done
        [ -n "$boot_url" ] || { echo "ci: $_log never came up"; cat "$_log"; exit 1; }
    }
    scrape() { /tmp/ci-selfload -url "$1" -scrape "$2"; }

    boot "$cwork/r1.log" /tmp/ci-selfserved -addr 127.0.0.1:0 -pool 2 -queue 2; cr1=$boot_url
    boot "$cwork/r2.log" /tmp/ci-selfserved -addr 127.0.0.1:0 -pool 2 -queue 2; cr2=$boot_url
    boot "$cwork/r3.log" /tmp/ci-selfserved -addr 127.0.0.1:0 -pool 2 -queue 2; cr3=$boot_url
    boot "$cwork/router.log" /tmp/ci-selfrouter -addr 127.0.0.1:0 -replicas "$cr1,$cr2,$cr3"; crouter=$boot_url

    # Replay the trace twice through the router, re-recording both
    # runs: the re-records must match byte-for-byte modulo dt_us.
    b1=$(scrape "$cr1" selfgo_codecache_misses_total)
    b2=$(scrape "$cr2" selfgo_codecache_misses_total)
    b3=$(scrape "$cr3" selfgo_codecache_misses_total)
    /tmp/ci-selfload -url "$crouter" -replay "$cwork/trace.jsonl" -speed 2 \
        -record "$cwork/rec1.jsonl" -fail-on-error -q
    m1=$(scrape "$cr1" selfgo_codecache_misses_total)
    m2=$(scrape "$cr2" selfgo_codecache_misses_total)
    m3=$(scrape "$cr3" selfgo_codecache_misses_total)
    # Fleet compile-once: the 8 distinct programs compile 8 times across
    # the whole fleet, not once per replica each lands on.
    fleet=$((m1 - b1 + m2 - b2 + m3 - b3))
    [ "$fleet" -eq 8 ] || {
        echo "ci: fleet compiled $fleet times for 8 distinct programs ($b1->$m1, $b2->$m2, $b3->$m3)"; exit 1; }
    /tmp/ci-selfload -url "$crouter" -replay "$cwork/trace.jsonl" -speed 2 \
        -record "$cwork/rec2.jsonl" -fail-on-error -q
    sed 's/"dt_us":[0-9]*/"dt_us":0/' "$cwork/rec1.jsonl" > "$cwork/rec1.norm"
    sed 's/"dt_us":[0-9]*/"dt_us":0/' "$cwork/rec2.jsonl" > "$cwork/rec2.norm"
    cmp -s "$cwork/rec1.norm" "$cwork/rec2.norm" || {
        echo "ci: trace replay is not deterministic (re-records differ)"; exit 1; }
    # Per-replica compile-once: the second replay of an already-warm
    # trace must compile NOTHING on any replica.
    for pair in "1 $cr1 $m1" "2 $cr2 $m2" "3 $cr3 $m3"; do
        set -- $pair
        now=$(scrape "$2" selfgo_codecache_misses_total)
        [ "$now" -eq "$3" ] || {
            echo "ci: replica $1 compiled again on a warm trace ($3 -> $now)"; exit 1; }
    done
    # Fleet compile-once: 8 distinct programs -> exactly 8 interned
    # exprs across the whole fleet, on at least 2 replicas.
    i1=$(scrape "$cr1" selfserved_exprs_interned_total)
    i2=$(scrape "$cr2" selfserved_exprs_interned_total)
    i3=$(scrape "$cr3" selfserved_exprs_interned_total)
    [ $((i1 + i2 + i3)) -eq 8 ] || {
        echo "ci: fleet interned $i1+$i2+$i3 exprs for 8 distinct programs"; exit 1; }
    echo "   compile-once held: $fleet compiles, interned $i1/$i2/$i3 across replicas"
    # Pooled upstream connections: 48 replayed requests (and the health
    # probes, which share the pool) must not have opened more
    # connections than one replay can have clients in flight (24, were
    # every request of the open-loop trace to overlap).
    dials=0
    for rep in "$cr1" "$cr2" "$cr3"; do
        d=$(scrape "$crouter" "selfrouter_upstream_dials_total{replica=\"$rep\"}")
        [ "$d" -ge 1 ] || { echo "ci: no upstream dial recorded for $rep ($d)"; exit 1; }
        dials=$((dials + d))
    done
    [ "$dials" -le 24 ] || {
        echo "ci: $dials upstream dials for 2 x 24 replayed requests; connections are not being reused"; exit 1; }
    echo "   upstream connections reused: $dials dials for 48 requests"

    # Shed failover: flood one affinity key's home replica (pool 2 +
    # queue 2) until it sheds; the router must retry the next-ranked
    # replica at least once.
    /tmp/ci-selfload -url "$crouter" -c 8 -n 40 \
        -expr '| s <- 0 | 1 upTo: 300000 Do: [ :i | s: s + 1 ]. s' -q >/dev/null
    fo=$(scrape "$crouter" 'selfrouter_failovers_total{reason="shed"}')
    [ "$fo" -ge 1 ] || { echo "ci: no shed failover observed at the router"; exit 1; }
    echo "   shed failovers at router: $fo"

    # Drain mid-run: three tenants keep the fleet busy while replica 1
    # gets SIGTERM. Every request must still succeed (429 excepted) and
    # the replica and ring must both settle cleanly.
    /tmp/ci-selfload -url "$crouter" -c 2 -n 120 -tenant t1 \
        -expr '| s <- 0 | 1 upTo: 60000 Do: [ :i | s: s + 1 ]. s' -fail-on-error -q >/dev/null &
    l1=$!
    /tmp/ci-selfload -url "$crouter" -c 2 -n 120 -tenant t2 \
        -expr '| s <- 0 | 1 upTo: 60000 Do: [ :i | s: s + 2 ]. s' -fail-on-error -q >/dev/null &
    l2=$!
    /tmp/ci-selfload -url "$crouter" -c 2 -n 120 -tenant t3 \
        -expr '| s <- 0 | 1 upTo: 60000 Do: [ :i | s: s + 3 ]. s' -fail-on-error -q >/dev/null &
    l3=$!
    sleep 0.5
    r1pid=$(echo "$cpids" | awk '{print $1}')
    kill -TERM "$r1pid"
    wait "$l1" || { echo "ci: tenant t1 saw failures during replica drain"; exit 1; }
    wait "$l2" || { echo "ci: tenant t2 saw failures during replica drain"; exit 1; }
    wait "$l3" || { echo "ci: tenant t3 saw failures during replica drain"; exit 1; }
    wait "$r1pid" || { echo "ci: replica 1 did not drain cleanly"; cat "$cwork/r1.log"; exit 1; }
    grep -q 'drained cleanly' "$cwork/r1.log" || {
        echo "ci: no drain line in replica 1 log"; cat "$cwork/r1.log"; exit 1; }
    for _i in $(seq 1 50); do
        [ "$(scrape "$crouter" selfrouter_replicas_healthy)" -eq 2 ] && break
        sleep 0.1
    done
    [ "$(scrape "$crouter" selfrouter_replicas_healthy)" -eq 2 ] || {
        echo "ci: router ring did not drop the drained replica"; exit 1; }
    echo "   drain under router: zero failed requests, ring at 2 replicas"

    # The router itself must shut down cleanly on SIGTERM.
    routerpid=$(echo "$cpids" | awk '{print $4}')
    kill -TERM "$routerpid"
    wait "$routerpid" || { echo "ci: router did not drain cleanly"; cat "$cwork/router.log"; exit 1; }
    grep -q 'drained cleanly' "$cwork/router.log" || {
        echo "ci: no drain line in router log"; cat "$cwork/router.log"; exit 1; }

    for p in $cpids; do kill "$p" 2>/dev/null || true; done
    wait 2>/dev/null || true
    rm -rf "$cwork"
    cpids=""
    trap - EXIT
    echo "   cluster smoke passed"
}

if [ "$short" = "cluster-smoke" ]; then
    cluster_smoke
    exit 0
fi

echo "== go vet ./..."
go vet ./...

echo "== gofmt -l ."
unformatted=$(gofmt -l .)
[ -z "$unformatted" ] || {
    echo "ci: gofmt would reformat:"; echo "$unformatted"; exit 1; }

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test $short ./...

echo "== go test -race ./..."
go test -race $short ./...

# Adaptive smoke: richards under an adaptive tier schedule with a low
# promotion threshold must install at least one background promotion
# (-assert-promoted fails otherwise) and keep its check value.
echo "== adaptive smoke"
go run ./cmd/selfbench -bench richards -tier adaptive -promote 50 -assert-promoted -q

# The differential oracles (tier, code cache, bbv, register allocation,
# fusion, compile digest and determinism) are the root package's oracle
# matrix and the internal packages' unit tests: `go test ./...` above
# runs them all (DESIGN.md "The oracle matrix").

# Benchmark smoke: the repository's rail builds (into the ignored
# .bench_build/) and one quick cold pass answers every op correctly.
echo "== benchmark smoke (corpus.cold)"
bash benchmark/run.sh -quick -workload corpus.cold -trace 0 >/dev/null

# The benchmark rail is a module of its own, so `go vet ./...` and
# `go test ./...` above do not reach it; it builds against the root
# package's API, which a change may narrow.
echo "== benchmark module (vet + tests)"
(cd benchmark && go vet . && go test -count=1 .)

# Server smoke: boot selfserved on an ephemeral port and drive it with
# selfload over >= 8 concurrent connections. Asserts, from the server's
# own /metrics: compile-once under steady load (codecache misses stop
# growing after warm-up), at least one background tier promotion under
# the adaptive schedule, and load-shedding with 429 (not hangs) past
# the admission limit. Finishes with SIGTERM and requires a clean
# drain.
echo "== server smoke"
go build -o /tmp/ci-selfserved ./cmd/selfserved
go build -o /tmp/ci-selfload ./cmd/selfload
server_log=$(mktemp)
/tmp/ci-selfserved -addr 127.0.0.1:0 -tier adaptive -promote 20 -pool 4 -queue 16 2>"$server_log" &
server_pid=$!
trap 'kill "$server_pid" 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
    url=$(grep -o 'http://[0-9.:]*' "$server_log" | head -1 || true)
    [ -n "$url" ] && break
    sleep 0.1
done
[ -n "$url" ] || { echo "ci: selfserved never came up"; cat "$server_log"; exit 1; }
# eval traffic: 8 connections, same expression — compile-once + values,
# and the pool gauges must show live occupancy while requests run.
/tmp/ci-selfload -url "$url" -c 8 -n 120 \
    -expr '| s <- 0 | 1 upTo: 1000 Do: [ :i | s: s + i ]. s' \
    -check-int -expect-int 499500 -fail-on-error -assert-compile-once \
    -assert-pool-moves -q
# named-benchmark traffic: adaptive promotion must land under live load.
/tmp/ci-selfload -url "$url" -c 8 -n 150 -bench sumTo \
    -fail-on-error -min-promotions 1 -q
kill -TERM "$server_pid"
wait "$server_pid" || { echo "ci: selfserved did not drain cleanly"; cat "$server_log"; exit 1; }
trap - EXIT
grep -q 'drained cleanly' "$server_log" || { echo "ci: no drain line in log"; cat "$server_log"; exit 1; }
# bbv replica: the same eval traffic under -strategy bbv must hold
# compile-once (cache keys carry the strategy, so bbv code shares
# nothing with split code), compute the same values, and actually
# version (selfgo_bbv_versions_total > 0).
/tmp/ci-selfserved -addr 127.0.0.1:0 -strategy bbv -pool 4 -queue 16 2>"$server_log" &
server_pid=$!
trap 'kill "$server_pid" 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
    url=$(grep -o 'http://[0-9.:]*' "$server_log" | head -1 || true)
    [ -n "$url" ] && break
    sleep 0.1
done
[ -n "$url" ] || { echo "ci: selfserved (bbv) never came up"; cat "$server_log"; exit 1; }
/tmp/ci-selfload -url "$url" -c 8 -n 120 \
    -expr '| s <- 0 | 1 upTo: 1000 Do: [ :i | s: s + i ]. s' \
    -check-int -expect-int 499500 -fail-on-error -assert-compile-once -q
bbv_vers=$(/tmp/ci-selfload -url "$url" -scrape selfgo_bbv_versions_total)
[ "$bbv_vers" -ge 1 ] || { echo "ci: bbv replica materialized no versions"; exit 1; }
kill -TERM "$server_pid"
wait "$server_pid" || { echo "ci: selfserved (bbv) did not drain cleanly"; cat "$server_log"; exit 1; }
trap - EXIT
grep -q 'drained cleanly' "$server_log" || { echo "ci: no drain line in bbv log"; cat "$server_log"; exit 1; }
# overload: tiny pool + queue, 16 connections — must shed with 429.
/tmp/ci-selfserved -addr 127.0.0.1:0 -pool 2 -queue 2 2>"$server_log" &
server_pid=$!
trap 'kill "$server_pid" 2>/dev/null || true' EXIT
for i in $(seq 1 50); do
    url=$(grep -o 'http://[0-9.:]*' "$server_log" | head -1 || true)
    [ -n "$url" ] && break
    sleep 0.1
done
[ -n "$url" ] || { echo "ci: selfserved (overload) never came up"; cat "$server_log"; exit 1; }
/tmp/ci-selfload -url "$url" -c 16 -n 100 \
    -expr '| s <- 0 | 1 upTo: 300000 Do: [ :i | s: s + 1 ]. s' -min-429 10 -q
kill -TERM "$server_pid"
wait "$server_pid" || { echo "ci: selfserved (overload) did not drain cleanly"; cat "$server_log"; exit 1; }
trap - EXIT
rm -f "$server_log" /tmp/ci-selfserved /tmp/ci-selfload

# Cluster smoke: 3 replicas behind selfrouter — fleet compile-once
# under affinity routing, shed failover, deterministic trace replay,
# and a clean mid-run drain. See cluster_smoke above.
cluster_smoke

# Fuzz smoke: a short budget per front-end fuzzer, enough to catch
# easy regressions in the lexer and parser without stalling CI — plus
# the serving layer's wire codec (request decoding, reply encoding and
# affinity keys, each held to encoding/json), and differential fuzzers
# (compiler tiers, the arena, message lookup). Trimmed from -short runs.
if [ "$short" != "-short" ]; then
    echo "== fuzz smoke: FuzzLexer"
    go test -run '^$' -fuzz '^FuzzLexer$' -fuzztime 10s ./internal/lexer
    echo "== fuzz smoke: FuzzParser"
    go test -run '^$' -fuzz '^FuzzParser$' -fuzztime 10s ./internal/parser
    echo "== fuzz smoke: FuzzDecodeEvalRequest"
    go test -run '^$' -fuzz '^FuzzDecodeEvalRequest$' -fuzztime 10s ./internal/wire
    echo "== fuzz smoke: FuzzDecodeRunRequest"
    go test -run '^$' -fuzz '^FuzzDecodeRunRequest$' -fuzztime 5s ./internal/wire
    echo "== fuzz smoke: FuzzAppendResult"
    go test -run '^$' -fuzz '^FuzzAppendResult$' -fuzztime 10s ./internal/wire
    echo "== fuzz smoke: FuzzAffinityKey"
    go test -run '^$' -fuzz '^FuzzAffinityKey$' -fuzztime 10s ./internal/wire
    echo "== fuzz smoke: FuzzUpstreamResponse"
    go test -run '^$' -fuzz '^FuzzUpstreamResponse$' -fuzztime 10s ./internal/router
    echo "== fuzz smoke: FuzzBBVDifferential"
    go test -run '^$' -fuzz '^FuzzBBVDifferential$' -fuzztime 10s .
    echo "== fuzz smoke: FuzzRegAllocDifferential"
    go test -run '^$' -fuzz '^FuzzRegAllocDifferential$' -fuzztime 10s .
    echo "== fuzz smoke: FuzzFusionDifferential"
    go test -run '^$' -fuzz '^FuzzFusionDifferential$' -fuzztime 10s .
    echo "== fuzz smoke: FuzzEnvModel"
    go test -run '^$' -fuzz '^FuzzEnvModel$' -fuzztime 10s ./internal/core
    echo "== fuzz smoke: FuzzLookup"
    go test -run '^$' -fuzz '^FuzzLookup$' -fuzztime 10s ./internal/obj
    echo "== fuzz smoke: FuzzArena"
    go test -run '^$' -fuzz '^FuzzArena$' -fuzztime 10s ./internal/obj
fi

echo "ci: all checks passed"
