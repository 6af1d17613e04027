//! Maintenance digests: one FNV-1a constant per replicated substrate pins
//! everything the write path, the replica ledger and the repair protocol
//! leave behind over a fixed, seeded schedule.
//!
//! The outcome digests (`ripple-core`'s `outcome_digest_is_pinned`, Chord's
//! `ring_outcome_digest_is_pinned`) cover query answers only. These cover
//! the maintenance side: after every step of a schedule of batch inserts,
//! deletes, compactions, crashes, churn joins and leaves, anti-entropy
//! passes and repairs, the digest folds the epoch, the lost / recovered /
//! repair-message counters, every replica entry (owner, holders,
//! generation, tuple ids), the drained transfer and byte counters, and each
//! live peer's store (generation, tuple ids in order). Structural
//! invariants are checked after every step. A pure refactor of the
//! maintenance code must leave both constants untouched.

use ripple::chord::ChordNetwork;
use ripple::geom::Tuple;
use ripple::midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::{ChurnOverlay, PeerId, PeerStore, ReplicaSet, Substrate};

struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A length-prefixed sequence.
    fn seq(&mut self, xs: impl ExactSizeIterator<Item = u64>) {
        self.u64(xs.len() as u64);
        xs.for_each(|x| self.u64(x));
    }

    /// Every replica entry in owner order, then the drained counters.
    fn replicas(&mut self, set: Option<&mut ReplicaSet>) {
        let Some(set) = set else {
            self.u64(u64::MAX);
            return;
        };
        self.u64(set.k() as u64);
        for owner in set.owners() {
            let rep = set.get(owner).expect("listed owner");
            self.u64(owner.index() as u64);
            self.seq(rep.holders().iter().map(|p| p.index() as u64));
            self.u64(rep.generation());
            self.seq(rep.tuples().iter().map(|t| t.id));
        }
        self.u64(set.drain_repair_transfers());
        self.u64(set.drain_replica_bytes());
    }

    fn store(&mut self, id: PeerId, store: &PeerStore) {
        self.u64(id.index() as u64);
        self.u64(store.generation());
        self.seq(store.tuples().iter().map(|t| t.id));
    }
}

fn points(rng: &mut SmallRng, first_id: u64, n: u64, dims: usize) -> Vec<Tuple> {
    (first_id..first_id + n)
        .map(|id| Tuple::new(id, (0..dims).map(|_| rng.gen::<f64>()).collect::<Vec<_>>()))
        .collect()
}

/// The fixed schedule: which maintenance operation step `i` runs.
#[derive(Clone, Copy, Debug)]
enum Step {
    InsertBatch,
    Delete,
    Compact,
    Crash,
    Join,
    Leave,
    Refresh,
    Repair,
}

#[rustfmt::skip]
const SCHEDULE: [Step; 18] = {
    use Step::*;
    [
        InsertBatch, Delete, Join, Crash, InsertBatch, Refresh, Join, Compact, Crash,
        Crash, Delete, Refresh, Repair, Leave, Crash, Leave, Join, Compact,
    ]
};

const ROUNDS: usize = 4;

/// Ids to delete at step `i`: a deterministic stride over everything
/// inserted so far (some already gone, some never stored).
fn victims(i: usize, next_id: u64) -> Vec<u64> {
    (0..next_id)
        .filter(|id| (id + i as u64).is_multiple_of(7))
        .collect()
}

/// Runs the schedule on a built network and returns its digest. A macro,
/// not a function: `repair_all`, `check_invariants`, `live_peers` and
/// `random_peer` belong to each substrate, not to a shared trait.
macro_rules! maintenance_digest {
    ($net:expr, $rng:expr, $dims:expr) => {{
        let (mut net, mut rng) = ($net, $rng);
        let mut next_id = 300;
        net.insert_all(points(&mut rng, 0, next_id, $dims));
        net.enable_replication(2);
        net.check_invariants();
        let mut h = Fnv1a::new();
        for (i, step) in (0..ROUNDS).flat_map(|_| SCHEDULE).enumerate() {
            match step {
                Step::InsertBatch => {
                    net.insert_batch(points(&mut rng, next_id, 24, $dims));
                    next_id += 24;
                }
                Step::Delete => h.u64(net.delete_tuples(&victims(i, next_id)) as u64),
                Step::Compact => h.u64(net.compact_stores()),
                Step::Crash => {
                    let crashed = ChurnOverlay::churn_crash(&mut net, &mut rng);
                    h.u64(crashed.map_or(u64::MAX, u64::from));
                }
                Step::Join => ChurnOverlay::churn_join(&mut net, &mut rng),
                Step::Leave => ChurnOverlay::churn_leave(&mut net, &mut rng),
                Step::Refresh => h.u64(net.refresh_replicas()),
                Step::Repair => h.u64(net.repair_all()),
            }
            net.check_invariants();
            h.u64(net.epoch());
            h.u64(net.tuples_lost());
            h.u64(net.tuples_recovered());
            h.u64(net.take_repair_messages());
            h.replicas(net.replicas_mut());
            let live: Vec<PeerId> = net.live_peers().to_vec();
            h.seq(live.iter().map(|p| p.index() as u64));
            for &p in &live {
                h.store(p, &net.peer(p).store);
            }
            // Pins the live-peer sampling (MIDAS's swap-remove live order,
            // Chord's rejection sampling over crashed ring entries).
            h.u64(net.random_peer(&mut rng).index() as u64);
        }
        assert!(
            net.tuples_lost() > 0 && net.tuples_recovered() > 0,
            "the schedule loses tuples to crashes and promotes replicas back"
        );
        h.0
    }};
}

#[test]
fn midas_maintenance_digest_is_pinned() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0024);
    let net = MidasNetwork::build(2, 24, false, &mut rng);
    let h = maintenance_digest!(net, rng, 2);
    assert_eq!(
        h, 0xca0d_b3cf_dd7f_7359,
        "MIDAS maintenance digest moved: {h:#018x}"
    );
}

#[test]
fn chord_maintenance_digest_is_pinned() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_0025);
    let net = ChordNetwork::build(24, &mut rng);
    let h = maintenance_digest!(net, rng, 1);
    assert_eq!(
        h, 0xf567_e1a4_d284_1775,
        "Chord maintenance digest moved: {h:#018x}"
    );
}
