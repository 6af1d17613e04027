//! Equivalence suite for the LSM write path (DESIGN.md §15).
//!
//! The LSM-shaped `PeerStore` — memtable overlay, tombstone masks,
//! background compaction — is a *write-path layout*, not a semantics
//! change. The suite drives one network through an interleaved schedule of
//! `insert_batch` → queries → `compact_stores` → `delete_tuples` → queries,
//! and at every checkpoint runs each query twice over it: through the
//! indexed executor ([`Executor::new`]), which reads the runs, masks and
//! memtable, and through the plain-scan oracle ([`Executor::naive`]), which
//! rescans every peer's logical tuple vector as a freshly rebuilt store
//! would hold it.
//!
//! The two must produce **bit-identical ledgers** (excluding the data-plane
//! scan counters, which are the observability payload of the
//! optimisation), **coverage and certificates**, and the same answer sets
//! (id-sorted: an indexed top-k walk emits in score order) — across every
//! mode, under omission-fault planes, under an active corruption plane
//! (where both must also quarantine the same peers), and through the
//! parallel engine, whose answer streams must equal the sequential indexed
//! run element for element. Compaction must be *invisible*: the same query
//! before and after `compact_stores` returns the same everything.
//!
//! The Chord-side suite lives in `ripple-chord`'s `tests/ingest.rs`.

use crate::exec::Executor;
use crate::framework::{Mode, RankQuery};
use crate::index_equivalence::by_id;
use crate::skyline::SkylineQuery;
use crate::topk::TopKQuery;
use ripple_geom::{AdHoc, LinearScore, Rect, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::{CorruptionPlane, FaultPlane, Substrate};

const MODES: [Mode; 5] = [
    Mode::Fast,
    Mode::Broadcast,
    Mode::Ripple(1),
    Mode::Ripple(2),
    Mode::Slow,
];
const THREADS: [usize; 2] = [2, 4];

fn empty_net(dims: usize, peers: usize, seed: u64) -> (MidasNetwork, SmallRng) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let net = MidasNetwork::build(dims, peers, false, &mut rng);
    (net, rng)
}

fn planes() -> [FaultPlane; 2] {
    [FaultPlane::none(), FaultPlane::drops(0.15, 17)]
}

/// Runs `query` through the indexed executor and the oracle under every
/// plane × mode (sequential and parallel) and asserts observational
/// equality.
fn assert_oracle_agrees<Q>(net: &MidasNetwork, query: &Q, rng: &mut SmallRng, label: &str)
where
    Q: RankQuery<Rect> + Sync,
    Q::Global: Send + Sync,
    Q::Local: Send,
{
    for plane in planes() {
        for mode in MODES {
            let initiator = net.random_peer(rng);
            let lsm = Executor::with_faults(net, plane, 7);
            let l = lsm.run(initiator, query, mode);
            let r = Executor::with_faults(net, plane, 7)
                .naive()
                .run(initiator, query, mode);
            let at = format!("{label} [{mode:?}, drop_p={}]", plane.drop_probability);
            assert_eq!(
                l.metrics, r.metrics,
                "{at}: LSM and rebuilt ledgers must be bit-identical (excl. scan counters)"
            );
            assert_eq!(by_id(&l.answers), by_id(&r.answers), "{at}: answer sets");
            assert_eq!(l.coverage, r.coverage, "{at}: coverage");
            assert_eq!(
                l.certificate, r.certificate,
                "{at}: the write path must not leak into the certificate"
            );
            for threads in THREADS {
                let lp = lsm.run_parallel(initiator, query, mode, threads);
                let at = format!("{at}, {threads} threads");
                assert_eq!(r.metrics, lp.metrics, "{at}: parallel LSM ledger");
                assert_eq!(l.answers, lp.answers, "{at}: parallel LSM answers");
                assert_eq!(
                    r.certificate, lp.certificate,
                    "{at}: parallel LSM certificate"
                );
            }
        }
    }
}

/// The query battery: cached and ad-hoc top-k (projection merge and kernel
/// scan paths) plus unconstrained and constrained skyline (the blocked
/// fold over masked runs).
fn check_battery(net: &MidasNetwork, dims: usize, rng: &mut SmallRng) {
    let q = TopKQuery::new(LinearScore::uniform(dims), 8);
    assert_oracle_agrees(net, &q, rng, "topk-cached-linear");
    let q = TopKQuery::new(AdHoc(LinearScore::uniform(dims)), 8);
    assert_oracle_agrees(net, &q, rng, "topk-adhoc-linear");
    assert_oracle_agrees(net, &SkylineQuery::new(), rng, "skyline");
    let c = Rect::new(vec![0.1; dims], vec![0.9; dims]);
    assert_oracle_agrees(
        net,
        &SkylineQuery::constrained(c),
        rng,
        "skyline-constrained",
    );
}

fn fresh_batch(
    dims: usize,
    n: usize,
    next_id: &mut u64,
    live: &mut Vec<u64>,
    rng: &mut SmallRng,
) -> Vec<Tuple> {
    (0..n)
        .map(|_| {
            let id = *next_id;
            *next_id += 1;
            live.push(id);
            Tuple::new(id, (0..dims).map(|_| rng.gen::<f64>()).collect::<Vec<_>>())
        })
        .collect()
}

/// Picks ~`frac` of the live ids (removing them from `live`), plus
/// [`ABSENT`] ids that were never inserted, so `delete_tuples` also
/// exercises the absent-id fast path (which must not bump generations).
fn doomed_ids(live: &mut Vec<u64>, frac: f64, rng: &mut SmallRng) -> Vec<u64> {
    let mut doomed = Vec::new();
    let mut kept = Vec::with_capacity(live.len());
    for &id in live.iter() {
        if rng.gen::<f64>() < frac {
            doomed.push(id);
        } else {
            kept.push(id);
        }
    }
    *live = kept;
    doomed.extend((0..ABSENT as u64).map(|i| u64::MAX - i));
    doomed
}

/// Never-inserted ids appended to every delete batch.
const ABSENT: usize = 2;

/// The LSM contract: an interleaved insert → query → compact → delete
/// schedule leaves the indexed LSM paths observationally identical to the
/// plain-scan oracle at every checkpoint, and compaction is invisible even
/// mid-schedule.
#[test]
fn lsm_matches_rebuilt_twin_under_interleaved_schedule() {
    let dims = 2;
    let (mut net, mut rng) = empty_net(dims, 8, 71);
    let (mut next_id, mut live) = (0u64, Vec::new());
    for round in 0..3 {
        let batch = fresh_batch(dims, 700, &mut next_id, &mut live, &mut rng);
        net.insert_batch(batch);
        check_battery(&net, dims, &mut rng);

        // Compaction is a physical reorganisation: the same query
        // straddling it must return the same everything.
        let q = TopKQuery::new(LinearScore::uniform(dims), 8);
        let initiator = net.random_peer(&mut rng);
        let before = Executor::new(&net).run(initiator, &q, Mode::Fast);
        net.compact_stores();
        let after = Executor::new(&net).run(initiator, &q, Mode::Fast);
        assert_eq!(before.answers, after.answers, "compaction changed answers");
        assert_eq!(before.metrics, after.metrics, "compaction changed ledger");
        assert_eq!(
            before.certificate, after.certificate,
            "compaction changed the certificate"
        );

        let doomed = doomed_ids(&mut live, 0.2, &mut rng);
        let removed = net.delete_tuples(&doomed);
        assert_eq!(
            removed,
            doomed.len() - ABSENT,
            "round {round}: every live doomed row goes, absent ids are skipped"
        );
        net.check_invariants();
        check_battery(&net, dims, &mut rng);
    }
}

/// Same schedule under an *active* corruption plane: the response auditing
/// and quarantine machinery sits above the store, so the indexed run and
/// the oracle must corrupt, audit, and quarantine identically. Each pair
/// starts from the same quarantine registry: the oracle runs on a clone
/// taken before the indexed run flushes its verdicts.
#[test]
fn lsm_matches_rebuilt_twin_under_corruption() {
    let dims = 2;
    let (mut net, mut rng) = empty_net(dims, 8, 72);
    let (mut next_id, mut live) = (0u64, Vec::new());
    let plane = CorruptionPlane::flat(0.35, 19);
    for _round in 0..2 {
        let batch = fresh_batch(dims, 600, &mut next_id, &mut live, &mut rng);
        net.insert_batch(batch);
        let doomed = doomed_ids(&mut live, 0.15, &mut rng);
        assert_eq!(net.delete_tuples(&doomed), doomed.len() - ABSENT);
        net.compact_stores();
        let q = TopKQuery::new(LinearScore::uniform(dims), 10);
        for mode in MODES {
            let initiator = net.random_peer(&mut rng);
            let oracle_net = net.clone();
            let l = Executor::new(&net)
                .with_corruption(plane)
                .run(initiator, &q, mode);
            let r = Executor::new(&oracle_net)
                .with_corruption(plane)
                .naive()
                .run(initiator, &q, mode);
            assert_eq!(
                by_id(&l.answers),
                by_id(&r.answers),
                "[{mode:?}] corrupted answers"
            );
            assert_eq!(l.metrics, r.metrics, "[{mode:?}] corrupted ledger");
            assert_eq!(l.coverage, r.coverage, "[{mode:?}] corrupted coverage");
            assert_eq!(
                net.quarantine().quarantined(),
                oracle_net.quarantine().quarantined(),
                "[{mode:?}] both runs must quarantine the same peers"
            );
        }
    }
}

/// The observability contract: a store churned through the LSM path
/// reports memtable hits and masked tombstones in the query ledger, and
/// the interleaved schedule's compactions surface as `compactions_run` /
/// `write_amplification` — all *excluded* from ledger equality (checked
/// above), all non-zero here.
#[test]
fn ingest_counters_surface_in_the_ledger() {
    let dims = 2;
    let (mut lsm, mut rng) = empty_net(dims, 4, 73);
    let (mut next_id, mut live) = (0u64, Vec::new());
    // Small peer count so per-store row counts cross the freeze threshold;
    // a light delete fraction so the size-triggered compactor does not fold
    // the masks away before the query observes them.
    let batch = fresh_batch(dims, 2000, &mut next_id, &mut live, &mut rng);
    lsm.insert_batch(batch);
    let doomed = doomed_ids(&mut live, 0.1, &mut rng);
    assert!(lsm.delete_tuples(&doomed) > 0);
    // Ad-hoc score: every visited peer runs the blocked kernel scan over
    // its runs-plus-memtable snapshot (the cached-skyline path rebuilds
    // scalar unless a mirror is already warm, so it cannot pin counters).
    let q = TopKQuery::new(AdHoc(LinearScore::uniform(dims)), 16);
    let initiator = lsm.random_peer(&mut rng);
    let r = Executor::new(&lsm).run(initiator, &q, Mode::Broadcast);
    assert!(
        r.metrics.memtable_hits > 0,
        "unfrozen tail rows must be counted as memtable hits"
    );
    assert!(
        r.metrics.tombstones_masked > 0,
        "deleted rows in frozen runs must be counted as masked tombstones"
    );
    // Compaction folds the masks away; the *mutation* is free but the next
    // query over the store sees clean runs.
    assert!(
        lsm.compact_stores() > 0,
        "tombstoned runs must be rewritten"
    );
    let r2 = Executor::new(&lsm).run(initiator, &q, Mode::Broadcast);
    assert_eq!(
        r2.metrics.tombstones_masked, 0,
        "after compaction no masked row survives"
    );
    assert_eq!(r.answers, r2.answers, "compaction must not change answers");
}
