//! Per-layer metrics from a traced pass: spans and counts from the
//! decorators, the cost ledgers the program returns, and the program's own
//! counters (ingest statistics, service statistics).

use crate::report::{mean, percentile, ratio, sorted, windowed, Family, Metrics, Sample};
use crate::trace::{Count, Kind, Span, Trace, NO_QUERY};
use ripple_net::{IngestStats, PlanSource, BLOCK_ROWS};
use std::collections::HashMap;

/// Write-path totals summed over every peer store of a workload.
#[derive(Clone, Copy, Debug, Default)]
pub struct IngestTotals {
    rows_ingested: u64,
    rows_rewritten: u64,
    compactions: u64,
    runs: u64,
    memtable_rows: u64,
}

impl IngestTotals {
    /// Adds one store's statistics.
    pub fn add(&mut self, s: &IngestStats) {
        self.rows_ingested += s.rows_ingested;
        self.rows_rewritten += s.rows_rewritten();
        self.compactions += s.compactions_run;
        self.runs += s.runs as u64;
        self.memtable_rows += s.memtable_rows as u64;
    }
}

/// Serving-layer observations of a traced pass.
#[derive(Clone, Debug, Default)]
pub struct ServiceLayer {
    /// Queue wait of every response, nanoseconds.
    pub queue_wait_ns: Vec<f64>,
    /// Latency minus queue wait of every response, nanoseconds.
    pub exec_ns: Vec<f64>,
    /// Completed responses answered from the result cache.
    pub cache_hits: u64,
    /// Completed responses.
    pub completed: u64,
    /// Cache entries purged by generation bumps.
    pub cache_invalidated: u64,
    /// Queries rejected at admission.
    pub rejected: u64,
}

/// Everything besides the trace and the samples.
#[derive(Clone, Debug, Default)]
pub struct Extras {
    /// Store write-path totals at the end of the traced pass.
    pub ingest: IngestTotals,
    /// Serving observations (empty for the closed loop).
    pub service: ServiceLayer,
    /// Messages of the planned queries over the best static mode's
    /// messages on the same query instances (0 without a planner).
    pub msg_regret: f64,
    /// Mean time of the benchmark's own `verify_*` calls per response, µs.
    pub check_us: f64,
    /// p99 of how late the open-loop generator sent, ms.
    pub gen_late_p99_ms: f64,
    /// Traced over untraced mean execution time, minus one, in percent.
    pub overhead_pct: f64,
    /// Untraced latencies of top-k queries, ns, in time order.
    pub topk_ns: Vec<f64>,
    /// Untraced latencies of skyline queries, ns, in time order.
    pub skyline_ns: Vec<f64>,
    /// Untraced latencies of diversification queries, ns, in time order.
    pub div_ns: Vec<f64>,
    /// Untraced latencies of write batches, ns.
    pub write_ns: Vec<f64>,
    /// Failed over attempted operations in the untraced pass.
    pub failed_frac: f64,
}

/// Latencies of one family, in sample order.
pub fn latencies(samples: &[Sample], family: Family) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.family == family)
        .map(|s| s.latency_ns as f64)
        .collect()
}

/// Self time and offload of the traced queries.
struct QueryTimes {
    queries: usize,
    self_ns: Vec<f64>,
    query_fn_ns: u64,
    offloaded_ns: u64,
}

/// Splits every query span into its children (same query id) and derives
/// self time — span minus the union of its children's intervals — and the
/// share of `RankQuery` time spent on threads other than the query's own.
fn query_times(spans: &[Span]) -> QueryTimes {
    let mut roots: HashMap<u32, Span> = HashMap::new();
    let mut children: HashMap<u32, Vec<Span>> = HashMap::new();
    for s in spans {
        if s.qid == NO_QUERY {
            continue;
        }
        if s.kind == Kind::Query {
            roots.insert(s.qid, *s);
        } else {
            children.entry(s.qid).or_default().push(*s);
        }
    }
    let mut out = QueryTimes {
        queries: roots.len(),
        self_ns: Vec::with_capacity(roots.len()),
        query_fn_ns: 0,
        offloaded_ns: 0,
    };
    for (qid, root) in &roots {
        let mut ivs: Vec<(u64, u64)> = Vec::new();
        for c in children.get(qid).map(Vec::as_slice).unwrap_or_default() {
            if c.kind.is_query_fn() {
                out.query_fn_ns += c.dur_ns();
                if c.tid != root.tid {
                    out.offloaded_ns += c.dur_ns();
                }
            }
            let (s, e) = (c.start_ns.max(root.start_ns), c.end_ns.min(root.end_ns));
            if s < e {
                ivs.push((s, e));
            }
        }
        ivs.sort_unstable();
        let (mut covered, mut cur) = (0u64, None::<(u64, u64)>);
        for (s, e) in ivs {
            cur = match cur {
                Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                Some((cs, ce)) => {
                    covered += ce - cs;
                    Some((s, e))
                }
                None => Some((s, e)),
            };
        }
        if let Some((cs, ce)) = cur {
            covered += ce - cs;
        }
        out.self_ns
            .push(root.dur_ns().saturating_sub(covered) as f64);
    }
    out
}

fn total_us(spans: &[Span], kind: Kind) -> (f64, u64) {
    let mut ns = 0u64;
    let mut n = 0u64;
    for s in spans.iter().filter(|s| s.kind == kind) {
        ns += s.dur_ns();
        n += 1;
    }
    (ns as f64 / 1e3, n)
}

/// The per-layer metrics of one traced pass. Per-query values are per
/// *executed* query (cache hits never reach the layers below the service).
pub fn per_layer(trace: &Trace, samples: &[Sample], x: &Extras) -> Metrics {
    let spans = &trace.spans;
    let times = query_times(spans);
    let nq = times.queries as f64;
    let executed: Vec<&Sample> = samples.iter().filter(|s| !s.metrics.cache_hit).collect();
    let per_exec = |f: fn(&Sample) -> f64| mean(executed.iter().map(|s| f(s)));
    let mut m = Metrics::default();

    let (links_us, links_calls) = total_us(spans, Kind::PeerLinks);
    m.put("overlay.peer_links_us", ratio(links_us, nq), "us");
    m.put(
        "overlay.peer_links_calls",
        ratio(links_calls as f64, nq),
        "count",
    );
    m.put(
        "overlay.links_per_call",
        ratio(trace.count(Count::LinksReturned) as f64, links_calls as f64),
        "count",
    );
    m.put(
        "overlay.intersects",
        ratio(trace.count(Count::Intersects) as f64, nq),
        "count",
    );
    m.put(
        "overlay.route_hops",
        ratio(trace.count(Count::RouteHops) as f64, nq),
        "count",
    );

    m.put(
        "exec.self_us",
        mean(times.self_ns.iter().map(|ns| ns / 1e3)),
        "us",
    );
    m.put(
        "exec.visits",
        per_exec(|s| s.metrics.peers_visited as f64),
        "count",
    );
    m.put(
        "exec.duplicate_visits",
        executed
            .iter()
            .map(|s| s.metrics.duplicate_visits as f64)
            .sum(),
        "count",
    );

    m.put(
        "query.local_state_us",
        ratio(total_us(spans, Kind::LocalState).0, nq),
        "us",
    );
    m.put(
        "query.local_answer_us",
        ratio(total_us(spans, Kind::LocalAnswer).0, nq),
        "us",
    );
    m.put(
        "query.merge_us",
        ratio(total_us(spans, Kind::Merge).0, nq),
        "us",
    );
    let checks = trace.count(Count::RelevanceChecks) as f64;
    m.put("query.relevance_checks", ratio(checks, nq), "count");
    m.put(
        "query.prune_ratio",
        ratio(trace.count(Count::Pruned) as f64, checks),
        "ratio",
    );

    let scanned = per_exec(|s| s.metrics.tuples_scanned as f64);
    let pruned = per_exec(|s| s.metrics.blocks_pruned as f64);
    m.put("store.tuples_scanned", scanned, "count");
    m.put("store.blocks_pruned", pruned, "count");
    // Blocks read are estimated from rows scanned at full block size.
    m.put(
        "store.block_prune_ratio",
        ratio(pruned, pruned + scanned / BLOCK_ROWS as f64),
        "ratio",
    );
    m.put(
        "store.memtable_hits",
        per_exec(|s| s.metrics.memtable_hits as f64),
        "count",
    );
    m.put(
        "store.tombstones_masked",
        per_exec(|s| s.metrics.tombstones_masked as f64),
        "count",
    );

    for (name, kind) in [
        ("store.insert_us", Kind::Insert),
        ("store.delete_us", Kind::Delete),
        ("store.compact_us", Kind::Compact),
    ] {
        let (us, n) = total_us(spans, kind);
        m.put(name, ratio(us, n as f64), "us");
    }
    let ing = &x.ingest;
    m.put("store.compactions", ing.compactions as f64, "count");
    m.put(
        "store.write_amp",
        ratio(
            (ing.rows_ingested + ing.rows_rewritten) as f64,
            ing.rows_ingested as f64,
        ),
        "ratio",
    );
    m.put("store.runs", ing.runs as f64, "count");
    m.put("store.memtable_rows", ing.memtable_rows as f64, "count");

    m.put(
        "verify.cert_regions",
        per_exec(|s| s.cert_regions as f64),
        "count",
    );
    m.put(
        "verify.audits_run",
        per_exec(|s| s.metrics.audits_run as f64),
        "count",
    );
    m.put("verify.check_us", x.check_us, "us");

    let planned: Vec<_> = samples
        .iter()
        .filter_map(|s| s.metrics.plan.as_ref())
        .collect();
    let (plan_us, plans) = total_us(spans, Kind::Plan);
    m.put("planner.plan_us", ratio(plan_us, plans as f64), "us");
    let frac = |src: PlanSource| {
        ratio(
            planned.iter().filter(|p| p.source == src).count() as f64,
            planned.len() as f64,
        )
    };
    m.put("planner.probe_frac", frac(PlanSource::Probe), "ratio");
    m.put("planner.fallback_frac", frac(PlanSource::Fallback), "ratio");
    m.put("planner.msg_regret", x.msg_regret, "ratio");

    let sv = &x.service;
    let waits = sorted(sv.queue_wait_ns.iter().map(|ns| ns / 1e6).collect());
    m.put("service.queue_wait_p50_ms", percentile(&waits, 50.0), "ms");
    m.put("service.queue_wait_p99_ms", percentile(&waits, 99.0), "ms");
    let execs = sorted(sv.exec_ns.iter().map(|ns| ns / 1e6).collect());
    m.put("service.exec_p50_ms", percentile(&execs, 50.0), "ms");
    m.put(
        "service.cache_hit_rate",
        ratio(sv.cache_hits as f64, sv.completed as f64),
        "ratio",
    );
    m.put(
        "service.cache_invalidated",
        sv.cache_invalidated as f64,
        "count",
    );
    m.put("service.rejected", sv.rejected as f64, "count");
    let (epoch_us, epochs) = total_us(spans, Kind::Epoch);
    m.put(
        "service.epoch_lock_ms",
        ratio(epoch_us / 1e3, epochs as f64),
        "ms",
    );

    m.put(
        "pool.offload_frac",
        ratio(times.offloaded_ns as f64, times.query_fn_ns as f64),
        "ratio",
    );

    m.put("bench.gen_late_p99_ms", x.gen_late_p99_ms, "ms");
    m.put("bench.trace_overhead_pct", x.overhead_pct, "%");
    m.put("topk_p99_ms", windowed("topk", &x.topk_ns).1, "ms");
    m.put("skyline_p99_ms", windowed("skyline", &x.skyline_ns).1, "ms");
    m.latency("div", &x.div_ns);
    m.latency("write", &x.write_ns);
    m.put("failed_frac", x.failed_frac, "ratio");
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(qid: u32, tid: u32, kind: Kind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            qid,
            tid,
            kind,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 0, Kind::Query, 0, 100),
            span(0, 0, Kind::LocalState, 10, 30),
            span(0, 1, Kind::LocalState, 20, 40), // overlaps: union 10..40
            span(0, 0, Kind::PeerLinks, 50, 60),
            span(1, 0, Kind::LocalState, 0, 5), // another query, no root
        ];
        let t = query_times(&spans);
        assert_eq!(t.queries, 1);
        assert_eq!(t.self_ns, vec![60.0]);
        assert_eq!(t.query_fn_ns, 40);
        assert_eq!(t.offloaded_ns, 20);
    }
}
