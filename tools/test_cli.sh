#!/usr/bin/env bash
# End-to-end smoke test of the itscs CLI: simulate -> corrupt -> clean,
# through real files, checking outputs exist and the report parses.
set -euo pipefail

ITSCS="$1"
WORKDIR="$(mktemp -d)"
trap 'rm -rf "$WORKDIR"' EXIT

echo "== simulate =="
"$ITSCS" simulate --participants 20 --slots 60 --seed 3 --extent-km 20 \
    --out "$WORKDIR/truth.csv"
test -s "$WORKDIR/truth.csv"
# header + 20*60 records
LINES=$(wc -l < "$WORKDIR/truth.csv")
test "$LINES" -eq 1201

echo "== corrupt =="
"$ITSCS" corrupt --in "$WORKDIR/truth.csv" --participants 20 --slots 60 \
    --alpha 0.2 --beta 0.2 --seed 7 \
    --out "$WORKDIR/corrupted.csv" --truth-faults "$WORKDIR/faults.csv"
test -s "$WORKDIR/corrupted.csv"
test -s "$WORKDIR/faults.csv"
# 20% missing -> about 960 data rows (+1 header)
CORRUPTED=$(wc -l < "$WORKDIR/corrupted.csv")
test "$CORRUPTED" -eq 961

echo "== clean =="
"$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --variant full --out "$WORKDIR/cleaned.csv" \
    --flags "$WORKDIR/flags.csv" --report "$WORKDIR/report.json"
test -s "$WORKDIR/cleaned.csv"
test -s "$WORKDIR/flags.csv"
test -s "$WORKDIR/report.json"
# cleaned trace is complete again
CLEANED=$(wc -l < "$WORKDIR/cleaned.csv")
test "$CLEANED" -eq 1201
grep -q '"converged": true' "$WORKDIR/report.json"

echo "== clean with estimated velocity =="
"$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --estimate-velocity --out "$WORKDIR/cleaned2.csv"
test -s "$WORKDIR/cleaned2.csv"

echo "== demo =="
"$ITSCS" demo --alpha 0.1 --beta 0.1 --json | grep -q '"precision"'

echo "== stats-json =="
# Instrumented clean: the counters block must reach stdout and the report.
"$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --out "$WORKDIR/cleaned3.csv" --report "$WORKDIR/report3.json" \
    --stats-json > "$WORKDIR/clean_stats.out"
# stdout is exactly one JSON document: the human summary went to stderr.
python3 - "$WORKDIR/clean_stats.out" <<'EOF'
import json, sys
with open(sys.argv[1]) as f:
    stats = json.load(f)
counters = stats["counters"]
assert "workspace_allocations" in counters, counters
assert counters["asd_iterations"] > 0, counters
EOF
grep -q '"workspace_allocations"' "$WORKDIR/report3.json"
# Instrumented demo: --json merges the counters as a "stats" member.
"$ITSCS" demo --alpha 0.1 --beta 0.1 --json --stats-json \
    > "$WORKDIR/demo_stats.out"
grep -q '"stats"' "$WORKDIR/demo_stats.out"
grep -q '"cs_solves"' "$WORKDIR/demo_stats.out"

echo "== sharded clean is bit-identical across thread counts =="
"$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --threads 1 --shard-size 8 --out "$WORKDIR/cleaned_t1.csv" \
    --report "$WORKDIR/report_t1.json"
"$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --threads 2 --shard-size 8 --out "$WORKDIR/cleaned_t2.csv" \
    --report "$WORKDIR/report_t2.json"
"$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --threads 4 --shard-size 8 --out "$WORKDIR/cleaned_t4.csv"
cmp "$WORKDIR/cleaned_t1.csv" "$WORKDIR/cleaned_t2.csv"
cmp "$WORKDIR/cleaned_t1.csv" "$WORKDIR/cleaned_t4.csv"
grep -q '"runtime"' "$WORKDIR/report_t2.json"
grep -q '"shards"' "$WORKDIR/report_t2.json"
grep -q '"level": "nominal"' "$WORKDIR/report_t2.json"

echo "== chaos run degrades but completes, failure report round-trips =="
"$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --threads 2 --shard-size 8 --chaos=nan=1,seed=5 \
    --out "$WORKDIR/cleaned_chaos.csv" \
    --failure-report "$WORKDIR/failure_report.json"
test -s "$WORKDIR/cleaned_chaos.csv"
test -s "$WORKDIR/failure_report.json"
# Every shard degraded off nominal and each carries a structured failure.
grep -q '"non_finite_input"' "$WORKDIR/failure_report.json"
grep -q '"nominal": 0' "$WORKDIR/failure_report.json"
grep -q '"outcomes"' "$WORKDIR/failure_report.json"
# Per-shard outcomes must sum to the shard count (3 shards of size 8/8/4
# under kSpread become 7/7/6 — count is 3 regardless).
python3 - "$WORKDIR/failure_report.json" <<'EOF'
import json, sys
fr = json.load(open(sys.argv[1]))
total = sum(fr["outcomes"].values())
assert total == fr["shards"] == len(fr["per_shard"]), fr["outcomes"]
for shard in fr["per_shard"]:
    if shard["level"] != "nominal":
        assert shard["failures"], shard
        for failure in shard["failures"]:
            assert failure["kind"] != "none" and failure["phase"], failure
print("failure report OK: outcomes sum to", total)
EOF

echo "== zero-fault chaos spec is bit-identical to no chaos =="
"$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 --slots 60 \
    --threads 2 --shard-size 8 --chaos=seed=5 \
    --out "$WORKDIR/cleaned_nochaos.csv" \
    --failure-report "$WORKDIR/failure_report_clean.json"
cmp "$WORKDIR/cleaned_t1.csv" "$WORKDIR/cleaned_nochaos.csv"
grep -q '"nominal": 3' "$WORKDIR/failure_report_clean.json"

echo "== bad chaos spec is a usage-style failure =="
if "$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 \
    --slots 60 --chaos=bogus=1 --out "$WORKDIR/never.csv" 2>/dev/null; then
    echo "expected chaos spec failure"; exit 1
fi

echo "== there is one recovery solver: --solver is an unknown flag =="
if "$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 \
    --slots 60 --solver lrsd --out "$WORKDIR/never.csv" \
    2> "$WORKDIR/solver.err"; then
    echo "expected --solver to be refused"; exit 1
fi
grep -q 'unknown flag --solver' "$WORKDIR/solver.err"

echo "== the row-block threshold is a constant: --row-block-threshold is an unknown flag =="
if "$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 \
    --slots 60 --row-block-threshold 8 --out "$WORKDIR/never.csv" \
    2> "$WORKDIR/row_block.err"; then
    echo "expected --row-block-threshold to be refused"; exit 1
fi
grep -q 'unknown flag --row-block-threshold' "$WORKDIR/row_block.err"

echo "== help enumerates every flag =="
"$ITSCS" help > "$WORKDIR/help.out"
if grep -q -- '--solver' "$WORKDIR/help.out"; then
    echo "help still lists --solver"; exit 1
fi
if grep -q -- '--row-block' "$WORKDIR/help.out"; then
    echo "help still lists --row-block-threshold"; exit 1
fi
grep -q -- '--kernel-threads=M' "$WORKDIR/help.out"
grep -q -- '--chaos=SPEC' "$WORKDIR/help.out"
grep -q -- '--checkpoint-dir=D' "$WORKDIR/help.out"
"$ITSCS" --help > /dev/null

echo "== unknown flag suggests the nearest valid name =="
if "$ITSCS" clean --tierr fast --in "$WORKDIR/corrupted.csv" \
    --participants 20 --slots 60 --out "$WORKDIR/never.csv" \
    2> "$WORKDIR/unknown.err"; then
    echo "expected unknown-flag failure"; exit 1
fi
grep -q 'unknown flag --tierr (did you mean --tier?)' "$WORKDIR/unknown.err"

echo "== only the exact and fast kernel tiers exist =="
if "$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 \
    --slots 60 --tier mixed --out "$WORKDIR/never.csv" \
    2> "$WORKDIR/tier.err"; then
    echo "expected --tier mixed to be refused"; exit 1
fi
grep -q "unknown kernel tier 'mixed' (expected exact | fast)" \
    "$WORKDIR/tier.err"
grep -q -- '--tier=T .*exact | fast (default exact)' "$WORKDIR/help.out"
if grep -q 'mixed' "$WORKDIR/help.out"; then
    echo "help still mentions the mixed tier"; exit 1
fi

echo "== worker counts above the ceiling are refused before any start =="
# 1025 is one past ThreadPool::kMaxThreads; the CLI refuses it while
# validating flags, so no pool is built.
for flag in --threads --kernel-threads; do
    if "$ITSCS" clean --in "$WORKDIR/corrupted.csv" --participants 20 \
        --slots 60 "$flag" 1025 --out "$WORKDIR/never.csv" \
        2> "$WORKDIR/workers.err"; then
        echo "expected $flag 1025 to be refused"; exit 1
    fi
    grep -q -- "$flag must be at most 1024" "$WORKDIR/workers.err"
done
if "$ITSCS" serve --in "$WORKDIR/corrupted.csv" --participants 20 \
    --slots 60 --threads 1025 2> "$WORKDIR/workers.err"; then
    echo "expected serve --threads 1025 to be refused"; exit 1
fi
grep -q -- "--threads must be at most 1024" "$WORKDIR/workers.err"

echo "== usage errors =="
if "$ITSCS" frobnicate 2>/dev/null; then
    echo "expected usage failure"; exit 1
fi
if "$ITSCS" clean --in /nonexistent.csv --participants 2 --slots 2 \
    --out /tmp/x.csv 2>/dev/null; then
    echo "expected runtime failure"; exit 1
fi

echo "CLI pipeline OK"
