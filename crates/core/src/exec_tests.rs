//! Framework-level tests of the three propagation templates, driven on
//! *perfect* overlays so the Lemma 1–3 worst cases can be checked for
//! exact equality (not just as bounds).

use crate::exec::Executor;
use crate::framework::{Mode, Unprioritized};
use crate::latency::{fast_worst_case, ripple_worst_case, slow_worst_case};
use crate::topk::TopKQuery;
use ripple_geom::{LinearScore, Point, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::{PeerId, Substrate};

/// A perfectly balanced MIDAS overlay of `2^depth` peers over a 1-d
/// domain: every leaf at exactly `depth`, every sibling subtree full.
fn perfect_overlay(depth: u32) -> MidasNetwork {
    let n = 1usize << depth;
    let mut net = MidasNetwork::new(1, false);
    // round r splits each of the 2^(r−1) cells once: join at the centre of
    // every cell's upper half, keeping the tree perfectly balanced
    for r in 1..=depth {
        let cells = 1usize << (r - 1);
        let width = 1.0 / cells as f64;
        for c in 0..cells {
            let key = c as f64 * width + 0.75 * width;
            net.join(&Point::new(vec![key]));
        }
    }
    assert_eq!(net.peer_count(), n);
    assert_eq!(net.delta(), depth);
    // perfection: every peer at full depth
    for &p in net.live_peers() {
        assert_eq!(net.peer(p).depth(), depth);
    }
    net
}

/// An unprunable query: top-k with k far beyond the (empty) data, so every
/// link stays relevant and the propagation covers the whole network —
/// exactly the worst case of the Lemmas.
fn unprunable() -> Unprioritized<TopKQuery<LinearScore>> {
    Unprioritized(TopKQuery::new(LinearScore::uniform(1), usize::MAX / 2))
}

#[test]
fn fast_latency_equals_lemma_1_exactly() {
    for depth in [3u32, 4, 5, 6] {
        let net = perfect_overlay(depth);
        let q = unprunable();
        let out = Executor::new(&net).run(net.live_peers()[0], &q, Mode::Fast);
        assert_eq!(
            out.metrics.latency,
            fast_worst_case(depth, 0),
            "Δ = {depth}"
        );
        assert_eq!(out.metrics.peers_visited as usize, 1 << depth);
    }
}

#[test]
fn slow_latency_equals_lemma_2_exactly() {
    for depth in [3u32, 4, 5] {
        let net = perfect_overlay(depth);
        let q = unprunable();
        let out = Executor::new(&net).run(net.live_peers()[0], &q, Mode::Slow);
        assert_eq!(
            out.metrics.latency,
            slow_worst_case(depth, 0),
            "Δ = {depth}"
        );
        assert_eq!(out.metrics.peers_visited as usize, 1 << depth);
    }
}

#[test]
fn ripple_latency_equals_lemma_3_exactly() {
    for depth in [3u32, 4, 5] {
        let net = perfect_overlay(depth);
        for r in 1..=depth {
            let q = unprunable();
            let out = Executor::new(&net).run(net.live_peers()[0], &q, Mode::Ripple(r));
            assert_eq!(
                out.metrics.latency,
                ripple_worst_case(depth, 0, r),
                "Δ = {depth}, r = {r}"
            );
            assert_eq!(out.metrics.peers_visited as usize, 1 << depth);
        }
    }
}

#[test]
fn every_mode_visits_each_peer_exactly_once() {
    // the restriction areas must make re-visits impossible even when
    // nothing is pruned; the executor debug-asserts this internally, and
    // the visit count proves it in release builds too
    let net = perfect_overlay(5);
    for mode in [
        Mode::Fast,
        Mode::Slow,
        Mode::Ripple(2),
        Mode::Ripple(4),
        Mode::Broadcast,
    ] {
        let q = unprunable();
        let out = Executor::new(&net).run(net.live_peers()[7], &q, mode);
        assert_eq!(
            out.metrics.peers_visited as usize,
            net.peer_count(),
            "{mode:?}"
        );
    }
}

#[test]
fn message_accounting_is_exact_on_perfect_overlays() {
    let depth = 4u32;
    let n = 1usize << depth;
    let net = perfect_overlay(depth);
    let q = unprunable();

    // fast: one query message per non-initiator peer, one answer each,
    // no state responses
    let out = Executor::new(&net).run(net.live_peers()[0], &q, Mode::Fast);
    assert_eq!(out.metrics.query_messages as usize, n - 1);
    assert_eq!(out.metrics.response_messages as usize, n, "answers only");

    // slow: additionally one state response per non-initiator peer
    let out = Executor::new(&net).run(net.live_peers()[0], &q, Mode::Slow);
    assert_eq!(out.metrics.query_messages as usize, n - 1);
    assert_eq!(
        out.metrics.response_messages as usize,
        n + (n - 1),
        "answers + state responses"
    );
}

#[test]
fn ripple_extremes_equal_fast_and_slow() {
    let net = perfect_overlay(4);
    let initiator = net.live_peers()[3];
    let run = |mode| {
        let q = unprunable();
        let out = Executor::new(&net).run(initiator, &q, mode);
        (out.metrics.latency, out.metrics.total_messages())
    };
    assert_eq!(run(Mode::Ripple(0)), run(Mode::Fast));
    assert_eq!(run(Mode::Ripple(4)), run(Mode::Slow));
    assert_eq!(run(Mode::Ripple(99)), run(Mode::Slow));
}

/// A two-peer overlay exercises the degenerate edges of all templates.
#[test]
fn two_peer_overlay_edges() {
    let mut net = MidasNetwork::new(1, false);
    net.join(&Point::new(vec![0.75]));
    net.insert_tuple(Tuple::new(1, vec![0.1]));
    net.insert_tuple(Tuple::new(2, vec![0.9]));
    let q = TopKQuery::new(LinearScore::uniform(1), 1);
    for (mode, want_latency) in [(Mode::Fast, 1), (Mode::Slow, 1)] {
        let out = Executor::new(&net).run(net.live_peers()[0], &q, mode);
        assert_eq!(out.metrics.latency, want_latency, "{mode:?}");
        assert_eq!(out.metrics.peers_visited, 2);
        // the single best tuple is id 2 (higher coordinate wins)
        assert!(out.answers.iter().any(|t| t.id == 2));
    }
}

/// The initiator's position must not change the answer, only the cost.
#[test]
fn initiator_independence_on_perfect_overlay() {
    let mut net = perfect_overlay(4);
    for i in 0..32u64 {
        net.insert_tuple(Tuple::new(i, vec![(i as f64 + 0.5) / 32.0]));
    }
    let q = TopKQuery::new(LinearScore::uniform(1), 3);
    let reference: Vec<u64> = {
        let out = Executor::new(&net).run(net.live_peers()[0], &q, Mode::Slow);
        let mut ids: Vec<u64> = out.answers.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        ids
    };
    for &p in net.live_peers().iter().skip(1).take(6) {
        let out = Executor::new(&net).run(p, &q, Mode::Slow);
        let mut ids: Vec<u64> = out.answers.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        // answers may contain extra candidates; the top-3 must agree
        assert!(
            reference.iter().all(|r| ids.contains(r)),
            "initiator {p} lost {reference:?} (got {ids:?})"
        );
    }
}

/// `PeerId`s reported by the ledger refer to real processing events.
#[test]
fn broadcast_message_shape() {
    let net = perfect_overlay(3);
    let q = unprunable();
    let out = Executor::new(&net).run(net.live_peers()[0], &q, Mode::Broadcast);
    // broadcast = fast without pruning; on an unprunable query they match
    let out_fast = Executor::new(&net).run(net.live_peers()[0], &q, Mode::Fast);
    assert_eq!(out.metrics.latency, out_fast.metrics.latency);
    assert_eq!(out.metrics.query_messages, out_fast.metrics.query_messages);
}

/// The executor only needs `RippleOverlay`; a PeerId picked from the live
/// list is always a valid initiator.
#[test]
fn arbitrary_initiators_work() {
    let net = perfect_overlay(4);
    let q = unprunable();
    for idx in [0usize, 5, 15] {
        let p: PeerId = net.live_peers()[idx];
        let out = Executor::new(&net).run(p, &q, Mode::Ripple(2));
        assert_eq!(out.metrics.peers_visited as usize, net.peer_count());
    }
}

/// `RankQuery` object usage: the trait remains usable through the wrapper
/// without changing results (pruning semantics preserved).
#[test]
fn unprioritized_wrapper_preserves_answers() {
    let mut net = perfect_overlay(4);
    for i in 0..64u64 {
        net.insert_tuple(Tuple::new(i, vec![((i * 37) % 64) as f64 / 64.0]));
    }
    let plain = TopKQuery::new(LinearScore::uniform(1), 5);
    let wrapped = Unprioritized(TopKQuery::new(LinearScore::uniform(1), 5));
    let a = Executor::new(&net).run(net.live_peers()[0], &plain, Mode::Slow);
    let b = Executor::new(&net).run(net.live_peers()[0], &wrapped, Mode::Slow);
    let ids = |answers: &[Tuple]| {
        let mut v: Vec<u64> = answers.iter().map(|t| t.id).collect();
        v.sort_unstable();
        v
    };
    // both contain the true top-5; the wrapper may fetch more candidates
    let top5: Vec<u64> = {
        let mut scored: Vec<&Tuple> = a.answers.iter().collect();
        scored.sort_by(|x, y| y.point.coord(0).total_cmp(&x.point.coord(0)));
        let mut v: Vec<u64> = scored.iter().take(5).map(|t| t.id).collect();
        v.sort_unstable();
        v
    };
    assert!(top5.iter().all(|t| ids(&b.answers).contains(t)));
    assert!(top5.iter().all(|t| ids(&a.answers).contains(t)));
}

/// `slow` is Algorithm 3 with a hop budget no walk exhausts (`r ≥ Δ`):
/// `Mode::Slow` and `Mode::Ripple(u32::MAX)` must agree bit for bit —
/// ledger (latency included), answers, coverage and certificate — on a
/// crash-damaged, replicated MIDAS overlay under every combination of the
/// omission and commission fault planes. Audits mutate the overlay's
/// quarantine registry, so each side runs on its own twin network, built
/// from the same seed and driven through the same query sequence.
#[test]
fn slow_equals_unbounded_ripple() {
    use crate::framework::RippleOverlay;
    use crate::skyline::SkylineQuery;
    use ripple_net::rng::rngs::SmallRng;
    use ripple_net::rng::{Rng, SeedableRng};
    use ripple_net::{CorruptionPlane, FaultPlane};

    fn twin() -> (MidasNetwork, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(0x51_0e);
        let mut net = MidasNetwork::build(2, 48, false, &mut rng);
        for i in 0..600u64 {
            net.insert_tuple(Tuple::new(i, vec![rng.gen::<f64>(), rng.gen::<f64>()]));
        }
        net.enable_replication(1);
        for _ in 0..4 {
            let victim = net.random_peer(&mut rng);
            net.crash(victim);
            net.refresh_replicas();
        }
        (net, rng)
    }

    fn compare<Q: crate::framework::RankQuery<<MidasNetwork as RippleOverlay>::Region>>(
        (slow_net, slow_rng): &mut (MidasNetwork, SmallRng),
        (ripple_net, ripple_rng): &mut (MidasNetwork, SmallRng),
        q: &Q,
        label: &str,
    ) {
        let (mut retries, mut audits_failed) = (0, 0);
        for (p, plane) in [FaultPlane::none(), FaultPlane::drops(0.15, 11)]
            .into_iter()
            .enumerate()
        {
            for (c, corruption) in [CorruptionPlane::none(), CorruptionPlane::flat(0.2, 5)]
                .into_iter()
                .enumerate()
            {
                for stream in 0..3u64 {
                    let initiator = slow_net.random_peer(slow_rng);
                    assert_eq!(initiator, ripple_net.random_peer(ripple_rng));
                    let a = Executor::with_faults(&*slow_net, plane, stream)
                        .with_corruption(corruption)
                        .run(initiator, q, Mode::Slow);
                    let b = Executor::with_faults(&*ripple_net, plane, stream)
                        .with_corruption(corruption)
                        .run(initiator, q, Mode::Ripple(u32::MAX));
                    let at = format!("{label} plane {p} corruption {c} stream {stream}");
                    assert_eq!(a.metrics.latency, b.metrics.latency, "{at}: latency");
                    assert_eq!(a.metrics, b.metrics, "{at}: ledger");
                    assert_eq!(a.answers, b.answers, "{at}: answers");
                    assert_eq!(a.coverage, b.coverage, "{at}: coverage");
                    assert_eq!(a.certificate, b.certificate, "{at}: certificate");
                    retries += a.metrics.retries;
                    audits_failed += a.metrics.audits_failed;
                }
            }
        }
        // the sweep must reach the retransmission and audit-recovery paths
        assert!(retries > 0, "{label}: no retransmission exercised");
        assert!(audits_failed > 0, "{label}: no failed audit exercised");
    }

    let (mut slow_side, mut ripple_side) = (twin(), twin());
    for k in [1, 10] {
        let q = TopKQuery::new(LinearScore::uniform(2), k);
        compare(&mut slow_side, &mut ripple_side, &q, &format!("top-{k}"));
    }
    compare(
        &mut slow_side,
        &mut ripple_side,
        &SkylineQuery::new(),
        "skyline",
    );
}

/// FNV-1a over the bit patterns of everything an execution reports, so a
/// single constant pins outcomes across refactors of the query functions.
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

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn coords(&mut self, c: &[f64]) {
        self.u64(c.len() as u64);
        for &x in c {
            self.f64(x);
        }
    }

    fn rect(&mut self, r: &ripple_geom::Rect) {
        self.coords(r.lo().coords());
        self.coords(r.hi().coords());
    }

    /// Raw answers in order, the ledger fields that take part in
    /// `QueryMetrics` equality (visit trace included), coverage, and the
    /// certificate with its witnesses.
    fn outcome<L>(&mut self, out: &crate::framework::QueryOutcome<L>) {
        use ripple_verify::{CertRegion, PruneWitness};
        self.u64(out.answers.len() as u64);
        for t in &out.answers {
            self.u64(t.id);
            self.coords(t.point.coords());
        }
        let m = &out.metrics;
        for x in [
            m.latency,
            m.query_messages,
            m.response_messages,
            m.peers_visited,
            m.tuples_transferred,
            m.retries,
            m.timeouts,
            m.messages_dropped,
            m.repair_messages,
            m.replica_hits,
            m.stale_reads,
            m.replica_bytes,
            m.repair_transfers,
            m.duplicate_visits,
            u64::from(m.trace_off),
            m.visited.len() as u64,
        ] {
            self.u64(x);
        }
        for p in &m.visited {
            self.u64(p.index() as u64);
        }
        self.f64(out.coverage.answered_fraction);
        self.coords(&out.coverage.unreachable);
        let Some(cert) = &out.certificate else {
            self.u64(u64::MAX);
            return;
        };
        self.u64(cert.generation);
        self.f64(cert.domain_volume);
        self.u64(cert.regions.len() as u64);
        for region in &cert.regions {
            match region {
                CertRegion::Scanned { peer, volume } => {
                    self.u64(0);
                    self.u64(*peer);
                    self.f64(*volume);
                }
                CertRegion::Pruned {
                    rects,
                    volume,
                    witness,
                } => {
                    self.u64(1);
                    self.u64(rects.len() as u64);
                    for r in rects {
                        self.rect(r);
                    }
                    self.f64(*volume);
                    match witness {
                        PruneWitness::ScoreBound { bound } => {
                            self.u64(10);
                            self.f64(*bound);
                        }
                        PruneWitness::Dominator { point } => {
                            self.u64(11);
                            self.coords(point.coords());
                        }
                        PruneWitness::Disjoint => self.u64(12),
                        PruneWitness::PhiBound { bound } => {
                            self.u64(13);
                            self.f64(*bound);
                        }
                        PruneWitness::Opaque => self.u64(14),
                    }
                }
                CertRegion::Replica { owner, volume } => {
                    self.u64(2);
                    self.u64(*owner);
                    self.f64(*volume);
                }
                CertRegion::Unreachable { volume } => {
                    self.u64(3);
                    self.f64(*volume);
                }
            }
        }
    }
}

/// Pins the exact outcomes of seeded skyline and top-k queries — answers,
/// ledgers, coverage and certificates — under every propagation mode and
/// both fan-outs, as one FNV-1a digest. A change to the query functions or
/// their geometry primitives that is meant to be a pure speed-up must leave
/// this constant untouched. The ring-region (Chord) twin lives in
/// `ripple-chord`'s `tests/parallel.rs`.
#[test]
fn outcome_digest_is_pinned() {
    use crate::skyline::SkylineQuery;
    use ripple_geom::{Norm, PeakScore, Rect};
    use ripple_net::rng::rngs::SmallRng;
    use ripple_net::rng::{Rng, SeedableRng};

    const MODES: [Mode; 4] = [Mode::Fast, Mode::Slow, Mode::Ripple(2), Mode::Broadcast];

    /// 256 peers and ~2k tuples; in 2-d the data is anti-correlated (large
    /// skylines), and a few exact duplicate points under fresh ids exercise
    /// the min-id representative rule.
    fn loaded(dims: usize, seed: u64) -> (MidasNetwork, SmallRng) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut net = MidasNetwork::build(dims, 256, false, &mut rng);
        let mut data: Vec<Tuple> = (0..2000u64)
            .map(|i| {
                let mut c: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>()).collect();
                if dims == 2 {
                    c[1] = (1.0 - c[0] + 0.2 * (c[1] - 0.5)).clamp(0.0, 1.0);
                }
                Tuple::new(i, c)
            })
            .collect();
        for i in 0..24u64 {
            let src = data[rng.gen_range(0..data.len())].point.clone();
            data.push(Tuple::new(5000 + i, src));
        }
        net.insert_all(data);
        (net, rng)
    }

    fn fold<Q>(h: &mut Fnv1a, net: &MidasNetwork, rng: &mut SmallRng, q: &Q)
    where
        Q: crate::framework::RankQuery<Rect> + Sync,
        Q::Global: Send + Sync,
        Q::Local: Send,
    {
        for mode in MODES {
            for _ in 0..2 {
                let initiator = net.random_peer(rng);
                for exec in [Executor::new(net), Executor::new(net).naive()] {
                    h.outcome(&exec.run(initiator, q, mode));
                    h.outcome(&exec.run_parallel(initiator, q, mode, 2));
                }
            }
        }
    }

    let mut h = Fnv1a::new();
    for (dims, seed, constraint) in [
        (2, 0xd1, Rect::new(vec![0.2, 0.1], vec![0.9, 0.8])),
        (4, 0xd2, Rect::new(vec![0.1; 4], vec![0.8; 4])),
    ] {
        let (net, mut rng) = loaded(dims, seed);
        fold(&mut h, &net, &mut rng, &SkylineQuery::new());
        fold(
            &mut h,
            &net,
            &mut rng,
            &SkylineQuery::constrained(constraint),
        );
        let peak: Vec<f64> = (0..dims).map(|_| rng.gen::<f64>()).collect();
        fold(
            &mut h,
            &net,
            &mut rng,
            &TopKQuery::new(PeakScore::new(peak, Norm::L2), 10),
        );
        fold(
            &mut h,
            &net,
            &mut rng,
            &TopKQuery::new(LinearScore::uniform(dims), 50),
        );
    }
    assert_eq!(
        h.0, 0xd8ae_7691_2c74_d9ed,
        "outcome digest moved: {:#018x}",
        h.0
    );
}

/// The wrapped query unchanged, counting its `update_local_state` calls.
struct CountingMerges<Q> {
    inner: Q,
    merges: std::sync::atomic::AtomicUsize,
}

impl<Q> CountingMerges<Q> {
    fn new(inner: Q) -> Self {
        Self {
            inner,
            merges: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// The calls counted since the last `take`.
    fn take(&self) -> usize {
        self.merges.swap(0, std::sync::atomic::Ordering::Relaxed)
    }
}

impl<R, Q: crate::framework::RankQuery<R>> crate::framework::RankQuery<R> for CountingMerges<Q> {
    type Global = Q::Global;
    type Local = Q::Local;

    fn initial_global(&self) -> Self::Global {
        self.inner.initial_global()
    }

    fn compute_local_state(
        &self,
        view: &ripple_net::LocalView<'_>,
        global: &Self::Global,
    ) -> Self::Local {
        self.inner.compute_local_state(view, global)
    }

    fn compute_global_state(&self, global: &Self::Global, local: &Self::Local) -> Self::Global {
        self.inner.compute_global_state(global, local)
    }

    fn update_local_state(&self, states: Vec<Self::Local>) -> Self::Local {
        self.merges
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.inner.update_local_state(states)
    }

    fn compute_local_answer(
        &self,
        view: &ripple_net::LocalView<'_>,
        local: &Self::Local,
    ) -> Vec<Tuple> {
        self.inner.compute_local_answer(view, local)
    }

    fn is_link_relevant(&self, region: &R, global: &Self::Global) -> bool {
        self.inner.is_link_relevant(region, global)
    }

    fn priority(&self, region: &R) -> f64 {
        self.inner.priority(region)
    }

    fn state_payload(&self, local: &Self::Local) -> usize {
        self.inner.state_payload(local)
    }

    fn prune_witness(&self, region: &R, global: &Self::Global) -> ripple_verify::PruneWitness {
        self.inner.prune_witness(region, global)
    }
}

/// Only the templates that wait for state responses merge states: `slow`
/// and `ripple(r ≥ 1)` call `update_local_state`, while `fast` (Alg. 1,
/// also as `ripple(0)`) and `broadcast` never do, under either fan-out.
/// Skipping the merges moves nothing an execution reports: every wrapped
/// outcome digests exactly like the unwrapped query's.
#[test]
fn only_state_waiting_templates_merge_states() {
    use crate::framework::RankQuery;
    use crate::skyline::SkylineQuery;
    use ripple_geom::Rect;
    use ripple_net::rng::rngs::SmallRng;
    use ripple_net::rng::{Rng, SeedableRng};

    type Outcome<Q> = crate::framework::QueryOutcome<<Q as RankQuery<Rect>>::Local>;

    /// One execution on the inline fan-out, or on a two-thread pool.
    fn run<Q>(net: &MidasNetwork, initiator: PeerId, q: &Q, mode: Mode, pool: bool) -> Outcome<Q>
    where
        Q: RankQuery<Rect> + Sync,
        Q::Global: Send + Sync,
        Q::Local: Send,
    {
        let exec = Executor::new(net);
        if pool {
            exec.run_parallel(initiator, q, mode, 2)
        } else {
            exec.run(initiator, q, mode)
        }
    }

    fn check<Q>(net: &MidasNetwork, initiator: PeerId, q: Q, name: &str)
    where
        Q: RankQuery<Rect> + Sync,
        Q::Global: Send + Sync,
        Q::Local: Send,
    {
        let counted = CountingMerges::new(q);
        for mode in [
            Mode::Fast,
            Mode::Ripple(0),
            Mode::Broadcast,
            Mode::Slow,
            Mode::Ripple(2),
        ] {
            let waits_for_states = matches!(mode, Mode::Slow | Mode::Ripple(1..));
            for pool in [false, true] {
                let plain = run(net, initiator, &counted.inner, mode, pool);
                let wrapped = run(net, initiator, &counted, mode, pool);
                let merges = counted.take();
                let at = format!("{name} {mode:?} pool={pool}");
                if waits_for_states {
                    assert!(merges > 0, "{at}: no merge");
                } else {
                    assert_eq!(merges, 0, "{at}: merged states");
                }
                let (mut a, mut b) = (Fnv1a::new(), Fnv1a::new());
                a.outcome(&plain);
                b.outcome(&wrapped);
                assert_eq!(a.0, b.0, "{at}: outcome moved");
            }
        }
    }

    let mut rng = SmallRng::seed_from_u64(0x5e);
    let mut net = MidasNetwork::build(2, 64, false, &mut rng);
    let data: Vec<Tuple> = (0..400u64)
        .map(|i| Tuple::new(i, vec![rng.gen::<f64>(), rng.gen::<f64>()]))
        .collect();
    net.insert_all(data);
    let initiator = net.random_peer(&mut rng);
    check(&net, initiator, SkylineQuery::new(), "skyline");
    check(
        &net,
        initiator,
        TopKQuery::new(LinearScore::uniform(2), 10),
        "top-10",
    );
}

/// `sortLinks` ranks each link once and stable-sorts on that key: the same
/// permutation as the comparator sort that recomputes both priorities per
/// comparison. Tied links — here whole groups with equal upper bounds, and
/// an unprioritized query where every link ties — keep link order.
#[test]
fn sort_links_matches_comparator_sort_on_ties() {
    use crate::exec::sort_links;
    use crate::framework::RankQuery;
    use ripple_geom::Rect;

    let boxes = [
        ([0.0, 0.0], [0.5, 0.5]),
        ([0.5, 0.0], [1.0, 0.5]),
        ([0.0, 0.5], [0.5, 1.0]),
        ([0.5, 0.5], [1.0, 1.0]),
        ([0.2, 0.3], [0.5, 0.5]),
        ([0.0, 0.0], [0.25, 0.75]),
        ([0.5, 0.0], [1.0, 0.5]),
    ];
    let links: Vec<(PeerId, Rect)> = boxes
        .iter()
        .enumerate()
        .map(|(i, (lo, hi))| (PeerId::new(i as u32), Rect::new(lo.to_vec(), hi.to_vec())))
        .collect();

    fn compare<Q: RankQuery<Rect>>(q: &Q, links: &[(PeerId, Rect)]) -> Vec<PeerId> {
        let mut want = links.to_vec();
        want.sort_by(|a, b| q.priority(&b.1).total_cmp(&q.priority(&a.1)));
        let got: Vec<PeerId> = sort_links(q, links.to_vec()).map(|(p, _)| p).collect();
        assert_eq!(got, want.iter().map(|(p, _)| *p).collect::<Vec<_>>());
        got
    }

    let topk = TopKQuery::new(LinearScore::uniform(2), 3);
    // upper bounds (Σ hi) 1.0 1.5 1.5 2.0 1.0 1.0 1.5: ties in link order
    let order = compare(&topk, &links);
    let want = [3u32, 1, 2, 6, 0, 4, 5].map(PeerId::new);
    assert_eq!(order, want);
    let flat = compare(&Unprioritized(topk), &links);
    assert_eq!(flat, links.iter().map(|(p, _)| *p).collect::<Vec<_>>());
    compare(&crate::skyline::SkylineQuery::new(), &links);
}
