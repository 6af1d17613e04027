#!/usr/bin/env bash
# Repo gate: formatting, lints, and the full offline test suite.
#
# Everything here runs without network access; the workspace has no
# external dependencies (see DESIGN.md). Run from the repo root:
#
#   ./scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== north-star tracker: workspace Rust lines (crates src tests examples) =="
find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (workspace, offline) =="
cargo test --workspace --offline

echo "== cargo build --release (tier-1 gate) =="
cargo build --release --workspace --offline

echo "== benchmark build (perfbench is its own workspace) =="
# The repo benchmark builds the library crates through path dependencies
# from a workspace of its own, so the workspace steps above never compile
# it; a library change that breaks it would otherwise go unnoticed.
cargo build --release --offline --manifest-path perfbench/Cargo.toml

echo "== benchmark smoke (traced replay == untraced run, certificates re-verified) =="
# The traced half of a --trace 1 run goes through perfbench's forwarding
# overlay wrapper, which takes the default RippleOverlay::links_within
# (peer_links filtered through region_intersect); the untraced half takes
# the substrates' overrides. The run exits non-zero unless every traced
# query replays its untraced twin bit for bit and every certificate
# re-verifies.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload paper-queries --seconds 2 --trace 1 > /dev/null

echo "== benchmark smoke (pool fan-out: serve-distinct, oracles and certificates) =="
# serve-distinct is the one benchmark workload that runs queries through
# run_parallel's pool fan-out, whose per-subtree merge the other smokes
# never reach; the run exits non-zero on any failed oracle or certificate
# check.
cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload serve-distinct --seconds 2 --trace 0 > /dev/null

echo "== parallel-exec smoke (sequential == parallel, thread-scaling gate) =="
cargo run --release --offline -p ripple-bench --bin parallel_exec_bench -- --smoke
cargo run --release --offline -p ripple-bench --bin parallel_exec_bench -- --smoke --threads 1

echo "== kernel smoke (blocked == scalar cross-check + pruning, no timing gate) =="
# The equivalence suites prove the columnar block layer is observationally
# invisible: forced-scalar and forced-SIMD runs agree bit for bit, and both
# match the plain-scan oracle (Executor::naive) in ledgers, answers,
# coverage and certificates across mode x query x fault plane x thread
# count on both substrates; the quick bench cross-checks the blocked
# executor against the oracle end to end and verifies blocks get pruned.
cargo test --release --offline -p ripple-core kernel_equivalence -- --quiet
cargo test --release --offline -p ripple-chord --test kernels -- --quiet
cargo run --release --offline -p ripple-bench --bin kernel_bench -- --quick

echo "== replication smoke (k=0 bit-identity, recall 1.0 at crash p <= 0.2 with k >= 1) =="
# The equivalence suites prove k=0 is observationally inert and k>=1
# restores full recall; the sweep gates the same properties end to end
# across crash p in {0,0.1,0.2,0.3} x k in {0,1,2}.
cargo test --release --offline -p ripple-core replica_equivalence -- --quiet
cargo test --release --offline -p ripple-chord --test replica -- --quiet
# The maintenance digests pin what the write path, the replica ledger and
# the repair protocol leave behind over a seeded schedule, on both
# replicated substrates.
cargo test --release --offline --test maintenance_digest -- --quiet
cargo run --release --offline -p ripple-bench --bin resilience_bench -- replication

echo "== certificates (dependency-free checker, mutation harness, verified sweeps) =="
# ripple-verify is the second oracle: it must stay dependency-free (its
# entire normal dependency tree is ripple-geom) so a checker bug cannot
# share a root cause with an executor bug. The mutation harness proves the
# checker *rejects* corrupted executors; the equivalence suite proves
# emission is plan-invisible; the quick bench re-verifies figure-shaped
# sweeps end to end (the <= 5% overhead gate runs only in the full bench —
# timing gates are flaky at smoke scale).
cargo build --release --offline -p ripple-verify
deps="$(cargo tree --offline -p ripple-verify --edges normal --prefix none | awk '{print $1}' | sort -u)"
expected="$(printf 'ripple-geom\nripple-verify\n')"
if [ "$deps" != "$expected" ]; then
    echo "ripple-verify dependency tree changed:" >&2
    echo "$deps" >&2
    exit 1
fi
cargo test --release --offline -p ripple-core verify_mutation -- --quiet
cargo test --release --offline -p ripple-core cert_equivalence -- --quiet
cargo run --release --offline -p ripple-bench --bin certificates_bench -- quick

echo "== audit smoke (corruption plane invisibility + poisoning gate) =="
# The equivalence suites prove the online audit is bit-invisible with the
# corruption plane inert (healthy and crash-damaged, sequential and
# parallel) and schedule-free with it active; the mutation harness pins
# every in-flight corruption mode poisoning the unaudited arm and being
# audited out of the audited one; the sweep gates zero corrupted tuples
# admitted and exact audited recall at p <= 0.2 with k >= 1 (the timed
# <= 5% invisibility gate runs only in `corruption full`).
cargo test --release --offline -p ripple-core audit_equivalence -- --quiet
cargo test --release --offline -p ripple-chord --test audit -- --quiet
cargo run --release --offline -p ripple-bench --bin resilience_bench -- corruption

echo "== simd-planner smoke (SIMD == scalar bit-identity + planner regression, no timing gate) =="
# The geom property tests pin every SIMD kernel bit-identical to the scalar
# oracle; the executor equivalence suites re-run under both forced dispatch
# arms so whole-query behaviour cannot depend on the vector unit; the quick
# benches cross-check the kernels and replay a short planner sweep with
# plan-invisibility asserts (wall-clock gates run only in the full benches).
RIPPLE_KERNEL_DISPATCH=scalar cargo test --release --offline -p ripple-geom --quiet
RIPPLE_KERNEL_DISPATCH=simd cargo test --release --offline -p ripple-geom --quiet
RIPPLE_KERNEL_DISPATCH=scalar cargo test --release --offline -p ripple-core kernel_equivalence -- --quiet
RIPPLE_KERNEL_DISPATCH=simd cargo test --release --offline -p ripple-core kernel_equivalence -- --quiet
# The pinned outcome digests (seeded skyline and top-k runs on MIDAS, top-k
# on a Chord ring) must hold on both arms too: a kernel or ranking change
# that moves one answer, ledger or certificate shows here.
RIPPLE_KERNEL_DISPATCH=scalar cargo test --release --offline -p ripple-core outcome_digest_is_pinned -- --quiet
RIPPLE_KERNEL_DISPATCH=simd cargo test --release --offline -p ripple-core outcome_digest_is_pinned -- --quiet
RIPPLE_KERNEL_DISPATCH=scalar cargo test --release --offline -p ripple-chord --test parallel ring_outcome_digest_is_pinned -- --quiet
RIPPLE_KERNEL_DISPATCH=simd cargo test --release --offline -p ripple-chord --test parallel ring_outcome_digest_is_pinned -- --quiet
cargo run --release --offline -p ripple-bench --bin kernel_microbench -- --quick
cargo run --release --offline -p ripple-bench --bin planner_bench -- --quick

echo "== serving smoke (epoch-pinned scheduling, generation-keyed cache, qps floor) =="
# The property suites prove every served response is pinned to one
# generation, verifies through ripple-verify against the generation it
# claims (quiesced and racing churn alike), and replays bit-identically
# on a lone executor; the smoke bench drives the closed loop end to end
# (clients 1 -> 100, driver sweep, Zipf cache arm) with a hardware-aware
# qps-scaling floor — the 3x gate runs only in the full bench on >= 8-way
# hardware.
cargo test --release --offline -p ripple-core service -- --quiet
cargo test --release --offline -p ripple-chord --test serving -- --quiet
cargo test --release --offline -p ripple-serve -- --quiet
cargo run --release --offline -p ripple-bench --bin serving_bench -- --smoke

echo "== ingest smoke (LSM write path == plain-scan oracle, compaction invisibility) =="
# The equivalence suites drive one overlay per substrate through
# interleaved insert -> query -> compact -> delete schedules and require
# the LSM stores to match the plain-scan oracle (Executor::naive) on the
# same overlay: bit-identical ledgers and certificates, the same answers;
# the quick bench adds a store-level lockstep walk against a Vec<Tuple>
# model and a smaller-preload throughput floor over the rescore-and-sort
# baseline (the 100x sustained-ingest gate runs only in the full bench —
# timing gates are flaky at smoke scale).
cargo test --release --offline -p ripple-core ingest_equivalence -- --quiet
cargo test --release --offline -p ripple-chord --test ingest -- --quiet
cargo run --release --offline -p ripple-bench --bin ingest_bench -- --quick

echo "All checks passed."
