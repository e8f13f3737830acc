#!/bin/sh
# check.sh — the repository's full static + dynamic gate:
#
#   1. go vet      standard toolchain checks
#   2. etlint      repo-specific analyzers (floatcmp, toldef, nopanic,
#                  ctxfirst, maporder, lockguard, stickyerr); the same
#                  pass writes the nopanic exemption audit, which must
#                  match the reviewed allowlist
#                  (scripts/nopanic_exemptions.txt) — worker panics must
#                  convert to coordinator errors, not earn new markers
#   3. planbench   go vet + go build inside planbench/, the benchmark's
#                  own Go module: the root ./... never compiles it, so
#                  an API change it depends on would otherwise go unseen
#   4. go test     full suite under the race detector
#   5. milp race   the parallel branch & bound, twice, under -race
#   6. warm/cold   the warm-start equivalence suite (simplex SolveFrom
#                  plus the milp ReuseBasis property tests), under -race:
#                  warm and cold solves must agree on certified
#                  objective, status and limit label
#   7. obs cover   internal/obs must hold >= 70% statement coverage —
#                  the observability layer is what every other number in
#                  a trace or metrics file is trusted against
#   8. bench lock  every docs/benchmarks/BENCH_*.json must strict-parse
#                  against the etransform-bench/v1 schema (etbench
#                  -validate) — the perf trajectory is part of the
#                  reviewed surface, not a scratch directory
#   9. output lock the golden-plan and metamorphic suites, explicitly:
#                  byte-stable plan JSON + certified-objective invariance
#  10. fault smoke each injectable fault class forced against a small
#                  dataset end to end: the planner must exit 0 (recovered)
#                  or 3 (degraded-but-feasible), never crash; a corrupted
#                  standalone solve must fail cleanly with exit 1
#  11. robust smoke a fixed-seed Monte Carlo robustness batch, run twice
#                  at different -workers values: the two
#                  etransform-robust/v1 reports must be byte-identical
#                  (the replay contract) and strict-parse via etbench
#                  -validate
#  12. cut validity the 16-seed subset of the cut-validity property
#                  suite (no separated cut may eliminate an enumerated
#                  integer-feasible point) plus a short fuzz pass over
#                  both separators
#  13. cut/kernel determinism smoke: one -cuts -kernel planner solve at
#                  -workers 1 and 4 must produce the identical plan cost
#                  block (cuts and the kernel run in the sequential root
#                  phase, so worker count must not leak into the answer)
#  14. etserve smoke: boot the planning daemon on a random port, submit
#                  the smoke state over HTTP, poll to done, fetch the
#                  plan and compare it to the etransform CLI's plan for
#                  the same state — byte-equal after dropping the two
#                  wall-clock fields — then resubmit the same state and
#                  require a cache hit (serve.cache_hits counter)
#
# Run from anywhere; it operates on the repo root. Exits non-zero on the
# first failing stage.
set -eu

cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> etlint ./... (lint + nopanic exemption audit, single pass)"
go run ./cmd/etlint -exemptions-out /tmp/nopanic_exemptions.$$ ./... || {
    rm -f /tmp/nopanic_exemptions.$$; exit 1; }
if ! diff -u scripts/nopanic_exemptions.txt /tmp/nopanic_exemptions.$$; then
    rm -f /tmp/nopanic_exemptions.$$
    echo "nopanic exemption set changed: review the new invariant-violation" >&2
    echo "helpers and update scripts/nopanic_exemptions.txt deliberately." >&2
    exit 1
fi
rm -f /tmp/nopanic_exemptions.$$

echo "==> planbench module: go vet + go build"
(cd planbench && go vet ./... && go build -o /dev/null ./...)

echo "==> go test -race ./..."
go test -race ./...

echo "==> go test -race -count=2 ./internal/milp/..."
go test -race -count=2 ./internal/milp/...

echo "==> warm/cold equivalence suite (-race)"
go test -race -run 'Warm|GapZero' ./internal/simplex ./internal/milp

echo "==> internal/obs coverage floor (70%)"
cover=$(go test -cover ./internal/obs | awk '{for (i=1;i<=NF;i++) if ($i ~ /%$/) {sub(/%/,"",$i); print $i}}')
if [ -z "$cover" ]; then
    echo "could not parse internal/obs coverage" >&2
    exit 1
fi
if ! awk -v c="$cover" 'BEGIN { exit !(c >= 70.0) }'; then
    echo "internal/obs coverage ${cover}% is below the 70% floor" >&2
    exit 1
fi
echo "    internal/obs coverage: ${cover}%"

echo "==> bench report schema validation (docs/benchmarks)"
go run ./cmd/etbench -validate docs/benchmarks

echo "==> golden plan + metamorphic output locks"
go test ./cmd/etransform -run TestGoldenPlans
go test ./internal/core -run 'TestMetamorphic(CostScaling|IndexPermutation|DominatedDC)'

echo "==> fault-injection smoke matrix"
SMOKE_DIR=$(mktemp -d)
trap 'rm -rf "$SMOKE_DIR"' EXIT
go build -o "$SMOKE_DIR/etransform" ./cmd/etransform
go build -o "$SMOKE_DIR/lpsolve" ./cmd/lpsolve
go run ./cmd/etdatagen -dataset enterprise1 -scale 0.05 -o "$SMOKE_DIR/asis.json"

# Every fault class, forced persistently against the planner: the
# resilient pipeline must deliver a plan — exit 0 (retry recovered) or
# exit 3 (degraded-but-feasible via budget surrender or fallback stage).
for spec in pivotxall corruptxall stallxall panicxall deadlinexall; do
    rc=0
    "$SMOKE_DIR/etransform" -state "$SMOKE_DIR/asis.json" -report=false \
        -faults "$spec" -timelimit 60s > "$SMOKE_DIR/out.txt" 2>&1 || rc=$?
    case $rc in
    0|3) echo "    etransform -faults $spec: exit $rc (ok)" ;;
    *)
        echo "etransform -faults $spec: exit $rc, want 0 or 3" >&2
        cat "$SMOKE_DIR/out.txt" >&2
        exit 1
        ;;
    esac
done

# The standalone solver has no fallback chain: a persistently corrupted
# solve must fail cleanly (exit 1), never report a bogus optimum.
cat > "$SMOKE_DIR/m.lp" <<'EOF'
Minimize
 obj: -1 x - 2 y
Subject To
 c: x + y <= 4
Bounds
 0 <= x <= 3
 0 <= y <= 3
End
EOF
rc=0
"$SMOKE_DIR/lpsolve" -faults corruptxall "$SMOKE_DIR/m.lp" > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "lpsolve -faults corruptxall: exit $rc, want 1" >&2
    exit 1
fi
rc=0
"$SMOKE_DIR/lpsolve" "$SMOKE_DIR/m.lp" > /dev/null 2>&1 || rc=$?
if [ "$rc" -ne 0 ]; then
    echo "lpsolve (clean): exit $rc, want 0" >&2
    exit 1
fi

echo "==> robustness determinism smoke"
# One fixed-seed batch at two worker counts: the replay contract says
# the JSON reports must match byte for byte, and both must strict-parse.
"$SMOKE_DIR/etransform" -state "$SMOKE_DIR/asis.json" -report=false \
    -robust scripts/robust_smoke.json -samples 6 -seed 42 -workers 2 \
    -robust-out "$SMOKE_DIR/ROBUST_1.json" > /dev/null
"$SMOKE_DIR/etransform" -state "$SMOKE_DIR/asis.json" -report=false \
    -robust scripts/robust_smoke.json -samples 6 -seed 42 -workers 1 \
    -robust-out "$SMOKE_DIR/ROBUST_2.json" > /dev/null
if ! cmp -s "$SMOKE_DIR/ROBUST_1.json" "$SMOKE_DIR/ROBUST_2.json"; then
    echo "robustness reports differ across -workers values (replay contract broken):" >&2
    diff "$SMOKE_DIR/ROBUST_1.json" "$SMOKE_DIR/ROBUST_2.json" >&2 || true
    exit 1
fi
go run ./cmd/etbench -validate "$SMOKE_DIR"
echo "    robust batch byte-stable at -workers 1 vs 2"

echo "==> cut validity smoke (16-seed subset + short fuzz)"
go test -run 'TestCutValiditySmoke16|TestCoverDegenerateRows' ./internal/milp/cuts
go test -run '^$' -fuzz FuzzGomoryRow -fuzztime 5s ./internal/milp/cuts
go test -run '^$' -fuzz FuzzCoverSeparation -fuzztime 5s ./internal/milp/cuts

echo "==> cut/kernel determinism smoke (-workers 1 vs 4)"
# Cuts and the kernel heuristic run in the sequential root phase, so the
# certified plan — in particular its full cost breakdown — must be
# identical at any worker count.
"$SMOKE_DIR/etransform" -state "$SMOKE_DIR/asis.json" -report=false \
    -cuts -kernel -workers 1 -plan "$SMOKE_DIR/plan_w1.json" > /dev/null
"$SMOKE_DIR/etransform" -state "$SMOKE_DIR/asis.json" -report=false \
    -cuts -kernel -workers 4 -plan "$SMOKE_DIR/plan_w4.json" > /dev/null
jq .cost "$SMOKE_DIR/plan_w1.json" > "$SMOKE_DIR/cost_w1.json"
jq .cost "$SMOKE_DIR/plan_w4.json" > "$SMOKE_DIR/cost_w4.json"
if ! cmp -s "$SMOKE_DIR/cost_w1.json" "$SMOKE_DIR/cost_w4.json"; then
    echo "cuts+kernel plan cost differs across -workers values:" >&2
    diff "$SMOKE_DIR/cost_w1.json" "$SMOKE_DIR/cost_w4.json" >&2 || true
    exit 1
fi
echo "    cuts+kernel plan cost identical at -workers 1 vs 4"

echo "==> etserve service smoke (submit -> poll -> plan parity + cache hit)"
go build -o "$SMOKE_DIR/etserve" ./cmd/etserve
# Random port; -workers 1 for a deterministic solve matching the CLI run.
"$SMOKE_DIR/etserve" -addr 127.0.0.1:0 -workers 1 \
    > "$SMOKE_DIR/etserve.log" 2>&1 &
ETSERVE_PID=$!
trap 'kill "$ETSERVE_PID" 2>/dev/null || true; rm -rf "$SMOKE_DIR"' EXIT
base=""
for _ in $(seq 1 100); do
    base=$(sed -n 's#^etserve listening on ##p' "$SMOKE_DIR/etserve.log")
    [ -n "$base" ] && break
    if ! kill -0 "$ETSERVE_PID" 2>/dev/null; then
        echo "etserve exited before listening:" >&2
        cat "$SMOKE_DIR/etserve.log" >&2
        exit 1
    fi
    sleep 0.1
done
if [ -z "$base" ]; then
    echo "etserve never printed its listen address" >&2
    cat "$SMOKE_DIR/etserve.log" >&2
    exit 1
fi
job=$(curl -sf -X POST --data-binary @"$SMOKE_DIR/asis.json" "$base/v1/plans" \
    | jq -r .id)
state=""
for _ in $(seq 1 600); do
    state=$(curl -sf "$base/v1/plans/$job" | jq -r .state)
    case $state in done|degraded|failed) break ;; esac
    sleep 0.2
done
if [ "$state" != "done" ]; then
    echo "etserve job $job ended in state \"$state\", want done" >&2
    curl -s "$base/v1/plans/$job" >&2 || true
    exit 1
fi
curl -sf "$base/v1/plans/$job/plan" > "$SMOKE_DIR/serve_plan.json"
"$SMOKE_DIR/etransform" -state "$SMOKE_DIR/asis.json" -report=false \
    -workers 1 -plan "$SMOKE_DIR/cli_plan.json" > /dev/null
# The two wall-clock stats are the only machine-dependent bytes.
norm='del(.stats.wall_millis, .stats.work_millis)'
jq "$norm" "$SMOKE_DIR/serve_plan.json" > "$SMOKE_DIR/serve_plan.norm.json"
jq "$norm" "$SMOKE_DIR/cli_plan.json" > "$SMOKE_DIR/cli_plan.norm.json"
if ! cmp -s "$SMOKE_DIR/serve_plan.norm.json" "$SMOKE_DIR/cli_plan.norm.json"; then
    echo "etserve plan differs from the etransform CLI plan:" >&2
    diff "$SMOKE_DIR/serve_plan.norm.json" "$SMOKE_DIR/cli_plan.norm.json" >&2 || true
    exit 1
fi
echo "    serve plan byte-identical to CLI plan (modulo wall-clock stats)"
# An identical resubmission must be answered from the content-hash cache.
if ! curl -sf -X POST --data-binary @"$SMOKE_DIR/asis.json" "$base/v1/plans" \
    | jq -e '.cached == true and .state == "done"' > /dev/null; then
    echo "identical resubmission was not served from the cache" >&2
    exit 1
fi
hits=$(curl -sf "$base/v1/metrics" | jq '.counters["serve.cache_hits"] // 0')
if [ "$hits" -lt 1 ]; then
    echo "serve.cache_hits is $hits after a cache-hit resubmission, want >= 1" >&2
    exit 1
fi
echo "    cache hit on resubmission (serve.cache_hits=$hits)"
kill "$ETSERVE_PID" 2>/dev/null || true
wait "$ETSERVE_PID" 2>/dev/null || true
trap 'rm -rf "$SMOKE_DIR"' EXIT

echo "==> all checks passed"
