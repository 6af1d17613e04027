//! Incremental write path benchmark (PR acceptance run).
//!
//! Measures the LSM-shaped [`PeerStore`] write path against the plain
//! baseline a scan-based peer runs (append the row, then rescore and
//! stable-sort every surviving row), in three arms:
//!
//! * **equality** — a store-level lockstep pass drives one LSM store and a
//!   flat `Vec<Tuple>` model through an interleaved single-op insert →
//!   compact → delete schedule and compares the ranked merge (id +
//!   `f64::to_bits` score streams) against a stable sort of the model
//!   after every op. A network-level pass drives one MIDAS overlay through
//!   an interleaved schedule and compares every certified top-k answer
//!   (ids *and* score bits), ledger, coverage and certificate of the
//!   indexed executor against the plain-scan oracle (`Executor::naive`).
//! * **throughput** — the gated arm: N preloaded rows, then a closed loop
//!   of insert + ranked top-1 read per op. The LSM store rescores only its
//!   memtable tail per generation; the plain baseline rescores and re-sorts
//!   every row. The baseline arm runs proportionally fewer ops and both
//!   report normalized ops/sec. **Gate: LSM rate ≥ 100× baseline rate.**
//! * **write amplification** — the LSM store's own ingest ledger after the
//!   run: rows ingested vs rows rewritten by freezes and compactions.
//!
//! Writes `results/BENCH_PR10_ingest.json` (`--quick` lands in `target/`
//! instead) and prints a summary table.
//!
//! [`PeerStore`]: ripple_net::PeerStore

use ripple_bench::output::cpu_header_json;
use ripple_core::topk::{run_topk_certified, TopKQuery};
use ripple_core::{Executor, Mode};
use ripple_geom::{LinearScore, ScoreFn, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::PeerStore;
use std::time::Instant;

const DIMS: usize = 2;
const K: usize = 8;

struct Config {
    preload: usize,
    lsm_ops: usize,
    plain_ops: usize,
    eq_rounds: usize,
    eq_batch: usize,
    quick: bool,
}

fn parse_args() -> Config {
    let mut quick = false;
    for a in std::env::args().skip(1) {
        match a.as_str() {
            "--quick" => quick = true,
            other => panic!("unknown flag {other} (supported: --quick)"),
        }
    }
    if quick {
        Config {
            preload: 8_192,
            lsm_ops: 4_096,
            plain_ops: 48,
            eq_rounds: 2,
            eq_batch: 400,
            quick,
        }
    } else {
        Config {
            preload: 32_768,
            lsm_ops: 16_384,
            plain_ops: 192,
            eq_rounds: 3,
            eq_batch: 700,
            quick,
        }
    }
}

fn tuple(id: u64, rng: &mut SmallRng) -> Tuple {
    Tuple::new(id, (0..DIMS).map(|_| rng.gen::<f64>()).collect::<Vec<_>>())
}

/// Top-k of a store via the ranked merge, as `(id, score_bits)` pairs —
/// the bit-exact observable the equality arms compare.
fn ranked_topk(store: &PeerStore, score: &LinearScore, k: usize) -> Vec<(u64, u64)> {
    store
        .with_ranked(score, |it| {
            it.take(k).map(|(t, s)| (t.id, s.to_bits())).collect()
        })
        .expect("linear scores are cacheable")
}

/// The plain baseline's read: rescore every row and stable-sort
/// descending (ties keep row order), then take the top `k` as
/// `(id, score_bits)` pairs — what the ranked merge must reproduce.
fn plain_topk(rows: &[Tuple], score: &LinearScore, k: usize) -> Vec<(u64, u64)> {
    let mut ranked: Vec<(f64, u64)> = rows.iter().map(|t| (score.score(&t.point), t.id)).collect();
    ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
    ranked.truncate(k);
    ranked
        .into_iter()
        .map(|(s, id)| (id, s.to_bits()))
        .collect()
}

/// Store-level lockstep: a single-op schedule on an LSM store and a flat
/// `Vec<Tuple>` model, with the ranked walk compared bit for bit against
/// the model's stable sort after every op.
fn store_lockstep(cfg: &Config) -> usize {
    let score = LinearScore::uniform(DIMS);
    let mut rng = SmallRng::seed_from_u64(0x1a5e);
    let mut lsm = PeerStore::new();
    let mut model: Vec<Tuple> = (0..1_500u64).map(|i| tuple(i, &mut rng)).collect();
    lsm.insert_batch(model.clone());
    let mut next_id = 1_500u64;
    let ops = if cfg.quick { 120 } else { 400 };
    for op in 0..ops {
        let gen = lsm.generation();
        let bumped = match op % 5 {
            4 => {
                // Delete a stride of ids (some already gone: the absent-id
                // path must not bump the generation).
                let doomed: Vec<u64> = (0..20)
                    .map(|j| (op as u64 * 13 + j * 7) % next_id)
                    .collect();
                let before = model.len();
                model.retain(|t| !doomed.contains(&t.id));
                let removed = lsm.delete_batch(doomed.iter().copied());
                assert_eq!(removed, before - model.len(), "op {op}: deleted rows");
                removed > 0
            }
            2 => {
                // Compaction: a physical no-op.
                lsm.compact();
                false
            }
            _ => {
                let t = tuple(next_id, &mut rng);
                next_id += 1;
                model.push(t.clone());
                lsm.insert(t);
                true
            }
        };
        assert_eq!(lsm.tuples(), &model[..], "op {op}: tuple sequence");
        assert_eq!(
            lsm.generation(),
            gen + u64::from(bumped),
            "op {op}: one generation bump per logical mutation"
        );
        assert_eq!(
            ranked_topk(&lsm, &score, 16),
            plain_topk(&model, &score, 16),
            "op {op}: ranked id+score-bit streams must be identical"
        );
    }
    ops
}

/// Network-level equality: one overlay through an interleaved schedule,
/// certified top-k of the indexed executor compared end to end against
/// the plain-scan oracle. Returns queries compared.
fn network_equality(cfg: &Config) -> usize {
    let mut rng = SmallRng::seed_from_u64(0xbeef);
    let mut net = {
        let mut r = SmallRng::seed_from_u64(0x90d5);
        MidasNetwork::build(DIMS, 8, false, &mut r)
    };
    let mut next_id = 0u64;
    let mut live: Vec<u64> = Vec::new();
    let mut compared = 0usize;
    let score = LinearScore::uniform(DIMS);
    for round in 0..cfg.eq_rounds {
        let batch: Vec<Tuple> = (0..cfg.eq_batch)
            .map(|_| {
                let id = next_id;
                next_id += 1;
                live.push(id);
                tuple(id, &mut rng)
            })
            .collect();
        net.insert_batch(batch);
        if round % 2 == 1 {
            net.compact_stores();
        }
        let mut doomed: Vec<u64> = live.iter().copied().filter(|id| id % 5 == 3).collect();
        live.retain(|id| id % 5 != 3);
        let present = doomed.len();
        doomed.push(u64::MAX);
        assert_eq!(
            net.delete_tuples(&doomed),
            present,
            "round {round}: every live doomed row goes"
        );
        for mode in [Mode::Fast, Mode::Broadcast, Mode::Ripple(2)] {
            let w = net.random_peer(&mut rng);
            let exec_l = Executor::new(&net);
            let exec_o = Executor::new(&net).naive();
            let (al, ml, cl, certl) = run_topk_certified(&exec_l, w, score.clone(), K, mode);
            let (ao, mo, co, certo) = run_topk_certified(&exec_o, w, score.clone(), K, mode);
            assert_eq!(al, ao, "round {round} [{mode:?}]: answers");
            let bits = |answers: &[Tuple]| -> Vec<(u64, u64)> {
                answers
                    .iter()
                    .map(|t| (t.id, score.score(&t.point).to_bits()))
                    .collect()
            };
            assert_eq!(bits(&al), bits(&ao), "round {round} [{mode:?}]: score bits");
            assert_eq!(ml, mo, "round {round} [{mode:?}]: ledgers");
            assert_eq!(cl, co, "round {round} [{mode:?}]: coverage");
            assert_eq!(certl, certo, "round {round} [{mode:?}]: certificates");
            let q = TopKQuery::new(score.clone(), K);
            let ls = exec_l.run(w, &q, mode);
            let lp = exec_l.run_parallel(w, &q, mode, 4);
            assert_eq!(
                ls.answers, lp.answers,
                "round {round} [{mode:?}]: parallel answers"
            );
            assert_eq!(
                ls.metrics, lp.metrics,
                "round {round} [{mode:?}]: parallel ledger"
            );
            compared += 2;
        }
        net.check_invariants();
    }
    compared
}

/// The closed insert+read loop of the LSM throughput arm. Every op inserts
/// one tuple and immediately walks the ranked top-1 (a cacheable score, so
/// the incremental projection machinery is on the hot path). Returns
/// ops/sec.
fn lsm_throughput(store: &mut PeerStore, ops: usize, first_id: u64, rng: &mut SmallRng) -> f64 {
    let score = LinearScore::uniform(DIMS);
    // Warm the projection outside the clock.
    let _ = ranked_topk(store, &score, 1);
    let t0 = Instant::now();
    let mut sink = 0u64;
    for i in 0..ops {
        store.insert(tuple(first_id + i as u64, rng));
        sink ^= ranked_topk(store, &score, 1)[0].0;
    }
    let wall = t0.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    ops as f64 / wall.max(1e-9)
}

/// The same loop on the plain baseline: append the row, then rescore and
/// stable-sort every row for the top-1. Returns ops/sec.
fn plain_throughput(rows: &mut Vec<Tuple>, ops: usize, first_id: u64, rng: &mut SmallRng) -> f64 {
    let score = LinearScore::uniform(DIMS);
    let t0 = Instant::now();
    let mut sink = 0u64;
    for i in 0..ops {
        rows.push(tuple(first_id + i as u64, rng));
        sink ^= plain_topk(rows, &score, 1)[0].0;
    }
    let wall = t0.elapsed().as_secs_f64();
    std::hint::black_box(sink);
    ops as f64 / wall.max(1e-9)
}

fn main() {
    let cfg = parse_args();

    // ---- equality arms --------------------------------------------------
    eprintln!("equality: store-level lockstep ...");
    let lockstep_ops = store_lockstep(&cfg);
    println!("equality: {lockstep_ops} lockstep ops, ranked streams bit-identical");
    eprintln!("equality: network-level interleaved schedule ...");
    let eq_queries = network_equality(&cfg);
    println!(
        "equality: {eq_queries} certified queries bit-identical across {} rounds",
        cfg.eq_rounds
    );

    // ---- throughput arm -------------------------------------------------
    let mut rng = SmallRng::seed_from_u64(0xfeed);
    let preload: Vec<Tuple> = (0..cfg.preload as u64)
        .map(|i| tuple(i, &mut rng))
        .collect();

    let mut lsm = PeerStore::new();
    lsm.insert_batch(preload.clone());
    eprintln!(
        "throughput: LSM arm, {} preloaded rows, {} insert+read ops ...",
        cfg.preload, cfg.lsm_ops
    );
    let lsm_rate = lsm_throughput(&mut lsm, cfg.lsm_ops, cfg.preload as u64, &mut rng);
    println!(
        "throughput: LSM    {lsm_rate:>12.0} ops/s ({} ops)",
        cfg.lsm_ops
    );

    let mut plain = preload;
    eprintln!(
        "throughput: plain arm, {} preloaded rows, {} insert+read ops ...",
        cfg.preload, cfg.plain_ops
    );
    let plain_rate = plain_throughput(&mut plain, cfg.plain_ops, cfg.preload as u64, &mut rng);
    println!(
        "throughput: plain  {plain_rate:>12.0} ops/s ({} ops)",
        cfg.plain_ops
    );
    let speedup = lsm_rate / plain_rate.max(1e-9);
    // The 100x target is calibrated to the committed full-scale preload
    // (the baseline's per-op cost grows with store size, the LSM
    // arm's does not); the quick profile's smaller store gets an honest
    // smaller-preload floor so it stays a meaningful smoke gate.
    let (gate_name, gate_speedup) = if cfg.quick {
        (
            "lsm insert+read rate >= 25x rescore-and-sort baseline at bit-equal \
          answers (quick profile: 8k-row preload floor)",
            25.0,
        )
    } else {
        (
            "lsm insert+read rate >= 100x rescore-and-sort baseline at bit-equal \
          answers",
            100.0,
        )
    };
    println!("throughput: speedup {speedup:.1}x (gate: >= {gate_speedup:.0}x)");

    // ---- write-amplification arm ---------------------------------------
    // Mix deletes in and force a compaction so the full rewrite ledger is
    // exercised, then read the store's own accounting.
    let doomed: Vec<u64> = (0..(cfg.preload as u64 + cfg.lsm_ops as u64))
        .filter(|id| id % 3 == 0)
        .collect();
    let removed = lsm.delete_batch(doomed.iter().copied());
    lsm.compact();
    let stats = lsm.ingest_stats();
    println!(
        "ingest ledger: {} ingested, {} deleted ({removed} in final wave), {} frozen, \
         {} compacted across {} compaction(s), write amplification {:.3}, \
         {} runs + {} memtable rows, {} live tombstones",
        stats.rows_ingested,
        stats.rows_deleted,
        stats.rows_frozen,
        stats.rows_compacted,
        stats.compactions_run,
        stats.write_amplification(),
        stats.runs,
        stats.memtable_rows,
        stats.tombstones,
    );
    assert!(
        stats.write_amplification() < 16.0,
        "an LSM ingest must not rewrite rows unboundedly (wa = {:.3})",
        stats.write_amplification()
    );

    let gate_ok = speedup >= gate_speedup;
    let json = format!(
        "{{\n  \"bench\": \"ingest\",\n  {cpu},\n  \"config\": {{ \"dims\": {DIMS}, \"k\": {K}, \
         \"preload\": {}, \"lsm_ops\": {}, \"plain_ops\": {}, \"quick\": {} }},\n  \
         \"equality\": {{ \"lockstep_ops\": {lockstep_ops}, \"network_queries\": {eq_queries}, \
         \"answers_bit_identical\": true }},\n  \
         \"throughput\": {{ \"lsm_ops_per_sec\": {lsm_rate:.1}, \
         \"plain_ops_per_sec\": {plain_rate:.1}, \"speedup\": {speedup:.2} }},\n  \
         \"ingest_ledger\": {{ \"rows_ingested\": {}, \"rows_deleted\": {}, \
         \"rows_frozen\": {}, \"rows_compacted\": {}, \"compactions_run\": {}, \
         \"write_amplification\": {:.4}, \"runs\": {}, \"memtable_rows\": {}, \
         \"tombstones\": {} }},\n  \
         \"acceptance\": {{ \"gate\": \"{gate_name}\", \"speedup\": {speedup:.2}, \
         \"passed\": {gate_ok} }}\n}}\n",
        cfg.preload,
        cfg.lsm_ops,
        cfg.plain_ops,
        cfg.quick,
        stats.rows_ingested,
        stats.rows_deleted,
        stats.rows_frozen,
        stats.rows_compacted,
        stats.compactions_run,
        stats.write_amplification(),
        stats.runs,
        stats.memtable_rows,
        stats.tombstones,
        cpu = cpu_header_json(),
    );
    // Quick runs land in target/ so repeated gate runs never clobber the
    // committed full-scale numbers.
    let path = if cfg.quick {
        std::fs::create_dir_all("target").expect("create target dir");
        "target/BENCH_PR10_ingest_quick.json"
    } else {
        std::fs::create_dir_all("results").expect("create results dir");
        "results/BENCH_PR10_ingest.json"
    };
    std::fs::write(path, json).expect("write results");
    eprintln!("wrote {path}");

    assert!(
        gate_ok,
        "acceptance: LSM rate {lsm_rate:.0} ops/s must be >= {gate_speedup:.0}x \
         plain rate {plain_rate:.0} ops/s (got {speedup:.1}x)"
    );
    println!("acceptance: {speedup:.1}x >= {gate_speedup:.0}x — ok");
}
