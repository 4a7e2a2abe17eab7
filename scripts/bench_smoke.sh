#!/usr/bin/env bash
# Smoke-run the benchmark suite: every bench binary executes one
# abbreviated pass (criterion `--test` mode — no statistics, just "does
# it run and produce sane numbers"). The E5 scheduler-throughput bench
# additionally emits its measurements as JSON next to this script's
# output directory, so CI can diff against the checked-in BENCH_e5.json
# baselines without a full measurement run.
#
# Usage: scripts/bench_smoke.sh [output-dir]   (default: target/bench-smoke)
set -euo pipefail

cd "$(dirname "$0")/.."
out_dir="${1:-target/bench-smoke}"
# cargo bench runs bench binaries with the package dir as cwd, so the
# CRITERION_JSON path must be absolute.
case "$out_dir" in /*) ;; *) out_dir="$PWD/$out_dir" ;; esac
mkdir -p "$out_dir"

# The engine registry is the single source of truth for router names;
# bench IDs must match it (checked against the E5 JSON below).
echo "== bench smoke: router registry =="
routers="$(cargo run -q -p cst-tools -- list-routers --names)"
printf '%s\n' "$routers"

echo "== bench smoke: e5_scheduler_throughput (JSON -> $out_dir/BENCH_e5.json) =="
CRITERION_JSON="$out_dir/BENCH_e5.json" \
    cargo bench -p bench --bench e5_scheduler_throughput -- --test

echo "== bench smoke: e5 bench IDs resolve in the registry =="
grep -o '"e5_schedulers/[^"]*"' "$out_dir/BENCH_e5.json" | tr -d '"' \
    | while IFS= read -r key; do
    name=${key#e5_schedulers/}
    name=${name%/*}
    # here-string, not a pipe: grep -q exits at the first match, and
    # under pipefail printf's SIGPIPE would read as a spurious failure
    if ! grep -qx "$name" <<< "$routers"; then
        echo "bench id '$name' is not a registry router name" >&2
        exit 1
    fi
done

echo "== bench smoke: e5 timings vs checked-in baseline =="
# Smoke timings are one cold pass, so this is a catastrophic-regression
# guard, not a measurement: every fault-free router/size must stay
# within E5_SMOKE_FACTOR x (default 20) of the checked-in warm median.
factor="${E5_SMOKE_FACTOR:-20}"
awk -v factor="$factor" '
    FNR == 1 { file++ }
    file == 1 && /"current"/ { in_cur = 1 }
    file == 1 && in_cur && /"e5_schedulers\// {
        key = $1; gsub(/[",:]/, "", key); base[key] = $2 + 0
    }
    file == 2 && /"e5_schedulers\// {
        key = $1; gsub(/[",:]/, "", key)
        if (key in base) {
            smoke = $2 + 0
            if (smoke > factor * base[key]) {
                printf "e5 regression: %s took %.0f ns (baseline %.0f ns, limit %.0fx)\n", \
                    key, smoke, base[key], factor > "/dev/stderr"
                bad = 1
            }
            checked++
        }
    }
    END {
        if (checked == 0) {
            print "e5 smoke gate: no comparable bench keys found" > "/dev/stderr"
            exit 1
        }
        if (bad) exit 1
        printf "e5 smoke gate: %d keys within %sx of baseline\n", checked, factor
    }
' BENCH_e5.json "$out_dir/BENCH_e5.json"

echo "== bench smoke: e6_stream_throughput (JSON -> $out_dir/BENCH_e6.json) =="
CRITERION_JSON="$out_dir/BENCH_e6.json" \
    cargo bench -p bench --bench e6_stream_throughput -- --test

echo "== bench smoke: e6 stream bench IDs =="
# The five stream ids are the cache's public contract: the checked-in
# BENCH_e6.json and a fresh smoke run must both carry exactly this set.
e6_ids="e6_stream/cached/1024
e6_stream/cold-baseline/1024
e6_stream/cold/1024
e6_stream/incremental-delta/1024
e6_stream/uncached/1024"
for f in BENCH_e6.json "$out_dir/BENCH_e6.json"; do
    got="$(grep -o '"e6_stream/[^"]*"' "$f" | tr -d '"' | sort -u)"
    if [ "$got" != "$e6_ids" ]; then
        echo "$f: e6_stream ids drifted from the expected set:" >&2
        diff <(printf '%s\n' "$e6_ids") <(printf '%s\n' "$got") >&2 || true
        exit 1
    fi
done
echo "e6 id gate: both files carry the five stream ids"

echo "== bench smoke: e6 cold path vs e5 baseline =="
# Two catastrophic-regression guards on the cache's miss path, in the
# same one-cold-pass spirit as the e5 gate above:
#  1. cold must stay within E6_COLD_FACTOR x (default 3) of cold-baseline
#     measured in the SAME smoke run (insert overhead, apples to apples);
#  2. the fixed-request uncached id must stay within E5_SMOKE_FACTOR x
#     (default 20) of the checked-in BENCH_e5.json csa/1024 warm median
#     (the two ids share the workload shape, so this anchors the e6 run
#     against the cross-file e5 baseline).
cold_factor="${E6_COLD_FACTOR:-3}"
awk -v cold_factor="$cold_factor" -v e5_factor="$factor" '
    FNR == 1 { file++ }
    file == 1 && /"current"/ { in_cur = 1 }
    file == 1 && in_cur && /"e5_schedulers\/csa\/1024"/ {
        e5_base = $2 + 0
    }
    file == 2 && /"e6_stream\// {
        key = $1; gsub(/[",:]/, "", key); sub(/^e6_stream\//, "", key)
        sub(/\/1024$/, "", key)
        val[key] = $2 + 0
    }
    END {
        if (e5_base == 0 || !("cold" in val) || !("cold-baseline" in val) || !("uncached" in val)) {
            print "e6 cold gate: missing bench keys" > "/dev/stderr"
            exit 1
        }
        if (val["cold"] > cold_factor * val["cold-baseline"]) {
            printf "e6 cold regression: cold %.0f ns vs cold-baseline %.0f ns (limit %.1fx)\n", \
                val["cold"], val["cold-baseline"], cold_factor > "/dev/stderr"
            exit 1
        }
        if (val["uncached"] > e5_factor * e5_base) {
            printf "e6/e5 anchor regression: uncached %.0f ns vs e5 csa/1024 %.0f ns (limit %.0fx)\n", \
                val["uncached"], e5_base, e5_factor > "/dev/stderr"
            exit 1
        }
        printf "e6 cold gate: cold/cold-baseline = %.2fx (limit %.1fx), uncached/e5 = %.2fx (limit %.0fx)\n", \
            val["cold"] / val["cold-baseline"], cold_factor, val["uncached"] / e5_base, e5_factor
    }
' BENCH_e5.json "$out_dir/BENCH_e6.json"

echo "== bench smoke: e13_compiled_replay (JSON -> $out_dir/BENCH_e13.json) =="
CRITERION_JSON="$out_dir/BENCH_e13.json" \
    cargo bench -p bench --bench e13_compiled_replay -- --test

echo "== bench smoke: e13 bench IDs =="
# The eleven ids are the compile-and-replay contract: interpreter /
# compiled / compile at each size plus the compile-once-replay-many
# stream pair. The checked-in BENCH_e13.json and a fresh smoke run must
# both carry exactly this set.
e13_ids="e13_compiled_replay/compile/1024
e13_compiled_replay/compile/256
e13_compiled_replay/compile/4096
e13_compiled_replay/compiled/1024
e13_compiled_replay/compiled/256
e13_compiled_replay/compiled/4096
e13_compiled_replay/interpreter/1024
e13_compiled_replay/interpreter/256
e13_compiled_replay/interpreter/4096
e13_compiled_replay/stream-compiled/1024
e13_compiled_replay/stream-interpreter/1024"
for f in BENCH_e13.json "$out_dir/BENCH_e13.json"; do
    got="$(grep -o '"e13_compiled_replay/[^"]*"' "$f" | tr -d '"' | sort -u)"
    if [ "$got" != "$e13_ids" ]; then
        echo "$f: e13_compiled_replay ids drifted from the expected set:" >&2
        diff <(printf '%s\n' "$e13_ids") <(printf '%s\n' "$got") >&2 || true
        exit 1
    fi
done
echo "e13 id gate: both files carry the eleven replay ids"

echo "== bench smoke: e13 compiled must be no slower than the interpreter =="
# Replay of a pre-lowered program must never lose to the event-driven
# interpreter at any size — in the fresh smoke run (one cold pass; the
# real gap is ~10x, so even cold noise cannot legitimately invert it)
# and in the checked-in warm medians.
for f in BENCH_e13.json "$out_dir/BENCH_e13.json"; do
    awk -v file="$f" '
        /"e13_compiled_replay\// {
            key = $1; gsub(/[",:]/, "", key)
            sub(/^e13_compiled_replay\//, "", key)
            val[key] = $2 + 0
        }
        END {
            checked = 0
            for (k in val) {
                if (k !~ /^(compiled|stream-compiled)\//) continue
                ref = k; sub(/^stream-compiled/, "stream-interpreter", ref)
                sub(/^compiled/, "interpreter", ref)
                if (!(ref in val)) {
                    printf "%s: missing interpreter id %s\n", file, ref > "/dev/stderr"
                    exit 1
                }
                if (val[k] > val[ref]) {
                    printf "%s: %s (%.0f ns) slower than %s (%.0f ns)\n", \
                        file, k, val[k], ref, val[ref] > "/dev/stderr"
                    exit 1
                }
                checked++
            }
            if (checked != 4) {
                printf "%s: e13 gate checked %d pairs, expected 4\n", file, checked > "/dev/stderr"
                exit 1
            }
            printf "%s: compiled <= interpreter at every size\n", file
        }
    ' "$f"
done

echo "== bench smoke: e14_decomp (JSON -> $out_dir/BENCH_e14.json) =="
CRITERION_JSON="$out_dir/BENCH_e14.json" \
    cargo bench -p bench --bench e14_decomp -- --test

echo "== bench smoke: e14 bench IDs =="
# The nine ids are the layered front-end's contract: decompose /
# route-layers / warm-cached at each size. The checked-in BENCH_e14.json
# and a fresh smoke run must both carry exactly this set.
e14_ids="e14_decomp/decompose/1024
e14_decomp/decompose/256
e14_decomp/decompose/4096
e14_decomp/route-layers/1024
e14_decomp/route-layers/256
e14_decomp/route-layers/4096
e14_decomp/warm-cached/1024
e14_decomp/warm-cached/256
e14_decomp/warm-cached/4096"
for f in BENCH_e14.json "$out_dir/BENCH_e14.json"; do
    got="$(grep -o '"e14_decomp/[^"]*"' "$f" | tr -d '"' | sort -u)"
    if [ "$got" != "$e14_ids" ]; then
        echo "$f: e14_decomp ids drifted from the expected set:" >&2
        diff <(printf '%s\n' "$e14_ids") <(printf '%s\n' "$got") >&2 || true
        exit 1
    fi
done
echo "e14 id gate: both files carry the nine layering ids"

echo "== bench smoke: e14 warm path must beat fresh layer routing =="
# A warm cached general route (memo + per-layer cache hits) must never
# lose to re-routing every layer — in the fresh smoke run and in the
# checked-in warm medians (the real gap is ~8x; cold noise cannot
# legitimately invert it).
for f in BENCH_e14.json "$out_dir/BENCH_e14.json"; do
    awk -v file="$f" '
        /"e14_decomp\// {
            key = $1; gsub(/[",:]/, "", key)
            sub(/^e14_decomp\//, "", key)
            val[key] = $2 + 0
        }
        END {
            checked = 0
            for (k in val) {
                if (k !~ /^warm-cached\//) continue
                ref = k; sub(/^warm-cached/, "route-layers", ref)
                if (!(ref in val)) {
                    printf "%s: missing route-layers id %s\n", file, ref > "/dev/stderr"
                    exit 1
                }
                if (val[k] > val[ref]) {
                    printf "%s: %s (%.0f ns) slower than %s (%.0f ns)\n", \
                        file, k, val[k], ref, val[ref] > "/dev/stderr"
                    exit 1
                }
                checked++
            }
            if (checked != 3) {
                printf "%s: e14 gate checked %d pairs, expected 3\n", file, checked > "/dev/stderr"
                exit 1
            }
            printf "%s: warm-cached <= route-layers at every size\n", file
        }
    ' "$f"
done

echo "== bench smoke: servebench hit vs miss (serve path) =="
# One short run of the serve-path benchmark (servebench/README.md) per
# path: every request must succeed, and a hit-tier hit at n = 64 must
# be at least 5x faster than a fresh n = 1024 route (p50). The herd
# property (one computation per key) is pinned in tier-1 by
# tests/serve_stress.rs and by servebench's own computations check.
servebench_p50() {
    cargo run --release --offline --quiet --manifest-path servebench/Cargo.toml -- \
        --workload "$1" --seed 1 --seconds 3 --trace 0 | tail -n 1 \
        | python3 -c '
import json, sys
m = json.load(sys.stdin)["metrics"]
if m["ok_frac"]["value"] != 1:
    sys.exit("servebench %s: ok_frac %s, want 1" % (sys.argv[1], m["ok_frac"]["value"]))
print(m["p50_us"]["value"])
' "$1"
}
hit_p50="$(servebench_p50 hit_csa_64)"
miss_p50="$(servebench_p50 miss_csa_1024)"
awk -v hit="$hit_p50" -v miss="$miss_p50" 'BEGIN {
    if (hit * 5 > miss) {
        printf "servebench: hit p50 %.1f us x5 exceeds miss p50 %.1f us\n", hit, miss > "/dev/stderr"
        exit 1
    }
    printf "servebench: ok_frac 1 on both; hit p50 %.1f us x5 <= miss p50 %.1f us\n", hit, miss
}'

echo "== bench smoke: remaining benches =="
for b in e1_rounds_optimality e2_config_changes e3_total_power \
         e4_control_overhead e6_change_histogram e7_segmentable_bus \
         e8_ablation_selection e9_applications e10_sessions \
         e11_bus_emulation e12_motivation substrate_micro; do
    cargo bench -p bench --bench "$b" -- --test
done

echo "== bench smoke: trace emitter zero-cost when disabled =="
# The E5/E13 throughput numbers rest on the warm scheduling path never
# touching the heap; the protocol-trace instrumentation (cst-model
# conformance) threads an Option through that path and must stay free
# when disabled. The allocation gate asserts exactly that.
cargo test --quiet --test alloc_gate

echo "== bench smoke: OK (E5/E6/E13 JSON under $out_dir) =="
