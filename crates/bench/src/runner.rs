//! Shared experiment machinery: network builders and parallel query sweeps.

use ripple_baton::BatonNetwork;
use ripple_can::CanNetwork;
use ripple_geom::Tuple;
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::SeedableRng;
use ripple_net::{MetricsAggregator, PointSummary, QueryMetrics, Substrate};

/// Builds a MIDAS overlay of `n` peers loaded with `data`.
///
/// The data is loaded *before* the overlay grows, so every join splits the
/// responsible zone at its local data median — the load-balancing behaviour
/// that makes zones track the data distribution (and without which
/// dominance/score pruning has nothing to bite on in skewed datasets).
pub fn midas_with_data(
    dims: usize,
    n: usize,
    border_policy: bool,
    data: &[Tuple],
    seed: u64,
) -> MidasNetwork {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = MidasNetwork::new(dims, border_policy);
    net.insert_all(data.iter().cloned());
    while net.peer_count() < n {
        // Joiners are steered toward loaded zones (keys drawn from the data
        // distribution), which is how MIDAS balances storage load; a uniform
        // joiner would keep splitting large *empty* zones instead.
        if data.is_empty() {
            net.join_random(&mut rng);
        } else {
            use ripple_net::rng::Rng as _;
            let t = &data[rng.gen_range(0..data.len())];
            net.join(&t.point);
        }
    }
    net
}

/// Builds a MIDAS overlay of `n` peers with protocol-standard *uniform*
/// joins, loading `data` afterwards. This is the construction for the
/// top-k experiments: with only a couple of tuples per peer, data-steered
/// joins spread the data so thin that the `m < k` clause of Algorithm 8
/// keeps every link relevant and all modes degenerate to broadcasts;
/// uniform zones leave data-dense peers holding ≥ k tuples, which is what
/// gives the threshold immediate pruning power.
pub fn midas_uniform_with_data(
    dims: usize,
    n: usize,
    border_policy: bool,
    data: &[Tuple],
    seed: u64,
) -> MidasNetwork {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = MidasNetwork::build(dims, n, border_policy, &mut rng);
    net.insert_all(data.iter().cloned());
    net
}

/// Builds a CAN overlay of `n` peers loaded with `data`. Joins are steered
/// toward loaded zones (join points drawn from the data) so that zone sizes
/// track the distribution, exactly as for the other substrates; CAN's own
/// split rule (halve the zone) is unchanged.
pub fn can_with_data(dims: usize, n: usize, data: &[Tuple], seed: u64) -> CanNetwork {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = CanNetwork::new(dims);
    net.insert_all(data.iter().cloned());
    while net.peer_count() < n {
        if data.is_empty() {
            net.join_random(&mut rng);
        } else {
            use ripple_net::rng::Rng as _;
            let t = &data[rng.gen_range(0..data.len())];
            net.join(&t.point);
        }
    }
    net
}

/// Builds a BATON overlay of `n` peers loaded with `data`. Joins are
/// steered toward loaded intervals (join keys drawn from the data), keeping
/// BATON's halve-the-interval split rule unchanged.
pub fn baton_with_data(dims: usize, n: usize, data: &[Tuple], seed: u64) -> BatonNetwork {
    let mut rng = SmallRng::seed_from_u64(seed);
    let bits = bits_per_dim(dims);
    let mut net = BatonNetwork::new(dims, bits);
    net.insert_all(data.iter().cloned());
    while net.peer_count() < n {
        if data.is_empty() {
            net.join_random(&mut rng);
        } else {
            use ripple_net::rng::Rng as _;
            let t = &data[rng.gen_range(0..data.len())];
            let z = net.curve().encode(&t.point);
            net.join(z);
        }
    }
    net.refresh_layout();
    net
}

/// Z-curve resolution: as fine as the 128-bit key budget allows, capped at
/// 12 bits/dimension.
pub fn bits_per_dim(dims: usize) -> u32 {
    (128 / dims as u32).min(12)
}

/// Runs `seeds.len()` queries in parallel across the available cores and
/// aggregates their ledgers into one summary.
///
/// An empty seed list yields the empty summary (zero queries) rather than
/// panicking: `chunks(0)` is what a naive `div_ceil` chunking would ask for.
pub fn parallel_queries<F>(seeds: &[u64], query: F) -> PointSummary
where
    F: Fn(u64) -> QueryMetrics + Sync,
{
    if seeds.is_empty() {
        return PointSummary::empty();
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(seeds.len().max(1));
    let agg = std::sync::Mutex::new(MetricsAggregator::new());
    std::thread::scope(|scope| {
        for chunk in seeds.chunks(seeds.len().div_ceil(threads)) {
            let agg = &agg;
            let query = &query;
            scope.spawn(move || {
                let mut local = MetricsAggregator::new();
                for &seed in chunk {
                    local.record(&query(seed));
                }
                agg.lock().expect("no poisoned aggregator").merge(&local);
            });
        }
    });
    let agg = agg.into_inner().expect("no poisoned aggregator");
    agg.summary()
}

/// Merges summaries from several networks into one figure point (each
/// summary must carry its query count for a weighted average).
pub fn merge_summaries(parts: &[PointSummary]) -> PointSummary {
    assert!(!parts.is_empty());
    let total_q: u64 = parts.iter().map(|p| p.queries).sum();
    let w = |f: fn(&PointSummary) -> f64| -> f64 {
        parts.iter().map(|p| f(p) * p.queries as f64).sum::<f64>() / total_q as f64
    };
    PointSummary {
        queries: total_q,
        latency: w(|p| p.latency),
        latency_max: parts.iter().map(|p| p.latency_max).max().unwrap_or(0),
        congestion: w(|p| p.congestion),
        messages: w(|p| p.messages),
        tuples: w(|p| p.tuples),
        // Each part comes from a different network instance, so per-peer
        // counts must not add across parts; the hottest peer anywhere is
        // the honest figure-level hotspot.
        congestion_max: parts.iter().map(|p| p.congestion_max).max().unwrap_or(0),
        retries: w(|p| p.retries),
        timeouts: w(|p| p.timeouts),
        messages_dropped: w(|p| p.messages_dropped),
        repair_messages: w(|p| p.repair_messages),
        replica_hits: w(|p| p.replica_hits),
        stale_reads: w(|p| p.stale_reads),
        replica_bytes: w(|p| p.replica_bytes),
        repair_transfers: w(|p| p.repair_transfers),
        tuples_scanned: w(|p| p.tuples_scanned),
        blocks_pruned: w(|p| p.blocks_pruned),
        // Anomaly totals add: one broken restriction area anywhere is a
        // figure-level red flag.
        duplicate_visits: parts.iter().map(|p| p.duplicate_visits).sum(),
        queue_wait_ns: w(|p| p.queue_wait_ns),
        // Hit totals add like anomalies: a count, not a per-query rate.
        cache_hits: parts.iter().map(|p| p.cache_hits).sum(),
        audits_run: w(|p| p.audits_run),
        audits_failed: w(|p| p.audits_failed),
        // A peer total, not a per-query rate: each part quarantines on its
        // own network, so totals add.
        quarantined_peers: parts.iter().map(|p| p.quarantined_peers).sum(),
        tainted_tuples_discarded: w(|p| p.tainted_tuples_discarded),
        memtable_hits: w(|p| p.memtable_hits),
        tombstones_masked: w(|p| p.tombstones_masked),
        // Compactions are store events, not per-query rates: totals add.
        compactions_run: parts.iter().map(|p| p.compactions_run).sum(),
        write_amplification: w(|p| p.write_amplification),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_queries_aggregate_all_seeds() {
        let seeds: Vec<u64> = (0..97).collect();
        let s = parallel_queries(&seeds, |seed| {
            let mut m = QueryMetrics {
                latency: seed % 7,
                query_messages: 1,
                ..QueryMetrics::default()
            };
            // every query hits peer 0, plus one per-seed peer
            m.visit(ripple_net::PeerId::new(0));
            m.visit(ripple_net::PeerId::new(seed as u32 + 1));
            m
        });
        assert_eq!(s.queries, 97);
        assert!((s.congestion - 2.0).abs() < 1e-12);
        let expect: f64 = (0..97u64).map(|s| (s % 7) as f64).sum::<f64>() / 97.0;
        assert!((s.latency - expect).abs() < 1e-12);
        assert_eq!(
            s.congestion_max, 97,
            "chunk merge must sum per-peer visit counts"
        );
    }

    #[test]
    fn parallel_queries_with_no_seeds_returns_empty_summary() {
        // Regression: `seeds.len().div_ceil(threads)` is 0 for an empty seed
        // list, and `chunks(0)` panics. Sweeps with a filtered-out point must
        // degrade to the empty summary instead of tearing down the run.
        let s = parallel_queries(&[], |_| unreachable!("no query must run"));
        assert_eq!(s.queries, 0);
        assert_eq!(s.latency, 0.0);
        assert_eq!(s.congestion_max, 0);
        assert_eq!(s.duplicate_visits, 0);
    }

    #[test]
    fn summaries_merge_weighted() {
        let a = PointSummary {
            queries: 1,
            latency: 10.0,
            latency_max: 10,
            congestion: 1.0,
            messages: 1.0,
            tuples: 0.0,
            congestion_max: 1,
            retries: 4.0,
            timeouts: 4.0,
            messages_dropped: 4.0,
            repair_messages: 0.0,
            replica_hits: 4.0,
            stale_reads: 0.0,
            replica_bytes: 400.0,
            repair_transfers: 0.0,
            tuples_scanned: 100.0,
            blocks_pruned: 8.0,
            duplicate_visits: 1,
            queue_wait_ns: 4000.0,
            cache_hits: 1,
            audits_run: 8.0,
            audits_failed: 4.0,
            quarantined_peers: 2,
            tainted_tuples_discarded: 12.0,
            memtable_hits: 8.0,
            tombstones_masked: 4.0,
            compactions_run: 1,
            write_amplification: 2048.0,
        };
        let b = PointSummary {
            queries: 3,
            latency: 2.0,
            latency_max: 4,
            congestion: 3.0,
            messages: 3.0,
            tuples: 4.0,
            congestion_max: 3,
            retries: 0.0,
            timeouts: 0.0,
            messages_dropped: 0.0,
            repair_messages: 8.0,
            replica_hits: 0.0,
            stale_reads: 4.0,
            replica_bytes: 0.0,
            repair_transfers: 8.0,
            tuples_scanned: 20.0,
            blocks_pruned: 0.0,
            duplicate_visits: 0,
            queue_wait_ns: 0.0,
            cache_hits: 2,
            audits_run: 0.0,
            audits_failed: 0.0,
            quarantined_peers: 1,
            tainted_tuples_discarded: 0.0,
            memtable_hits: 0.0,
            tombstones_masked: 0.0,
            compactions_run: 2,
            write_amplification: 0.0,
        };
        let m = merge_summaries(&[a, b]);
        assert_eq!(m.queries, 4);
        assert!((m.latency - 4.0).abs() < 1e-12);
        assert_eq!(m.latency_max, 10);
        assert!((m.congestion - 2.5).abs() < 1e-12);
        assert_eq!(
            m.congestion_max, 3,
            "hotspot is max across networks, not sum"
        );
        assert!((m.retries - 1.0).abs() < 1e-12, "weighted by query count");
        assert!((m.repair_messages - 6.0).abs() < 1e-12);
        assert!((m.replica_hits - 1.0).abs() < 1e-12);
        assert!((m.stale_reads - 3.0).abs() < 1e-12);
        assert!((m.replica_bytes - 100.0).abs() < 1e-12);
        assert!((m.repair_transfers - 6.0).abs() < 1e-12);
        assert!((m.tuples_scanned - 40.0).abs() < 1e-12);
        assert!((m.blocks_pruned - 2.0).abs() < 1e-12);
        assert_eq!(m.duplicate_visits, 1, "anomalies add across networks");
        assert!((m.queue_wait_ns - 1000.0).abs() < 1e-12);
        assert_eq!(m.cache_hits, 3, "hit counts add across networks");
        assert!((m.audits_run - 2.0).abs() < 1e-12, "weighted by queries");
        assert!((m.audits_failed - 1.0).abs() < 1e-12);
        assert_eq!(m.quarantined_peers, 3, "peer totals add across networks");
        assert!((m.tainted_tuples_discarded - 3.0).abs() < 1e-12);
        assert!((m.memtable_hits - 2.0).abs() < 1e-12);
        assert!((m.tombstones_masked - 1.0).abs() < 1e-12);
        assert_eq!(m.compactions_run, 3, "store events add across networks");
        assert!((m.write_amplification - 512.0).abs() < 1e-12);
    }

    #[test]
    fn bits_budget_fits_u128() {
        for d in 1..=10 {
            assert!(bits_per_dim(d) * d as u32 <= 128);
            assert!(bits_per_dim(d) >= 1);
        }
    }

    #[test]
    fn builders_produce_loaded_networks() {
        let data: Vec<Tuple> = (0..50u64)
            .map(|i| Tuple::new(i, vec![(i as f64) / 50.0, 0.5]))
            .collect();
        let m = midas_with_data(2, 8, false, &data, 1);
        assert_eq!(m.peer_count(), 8);
        let total: usize = m.live_peers().iter().map(|&p| m.peer(p).store.len()).sum();
        assert_eq!(total, 50);
        let c = can_with_data(2, 8, &data, 1);
        assert_eq!(c.peer_count(), 8);
        let b = baton_with_data(2, 8, &data, 1);
        assert_eq!(b.peer_count(), 8);
    }
}
