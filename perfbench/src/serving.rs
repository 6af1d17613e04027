//! The serving workloads: open loops at a fixed arrival rate into
//! `QueryService` over one MIDAS overlay.
//!
//! * `serve-distinct` — one driver with two intra-query threads; every
//!   query has its own top-k weight vector or skyline box, so neither the
//!   result cache nor the per-store projection cache can help.
//! * `ingest-serve` — two drivers on the sequential engine; Zipf-hot
//!   queries over 16 shapes (which fit both caches) while write batches
//!   (insert, delete, sometimes compact) arrive through `advance_epoch`.
//!
//! The generator thread sends each query at its scheduled time; a pool of
//! waiter threads, each blocked on one ticket, timestamps completions, so a
//! finished query never waits behind an earlier unfinished one (unless
//! more than [`WAITERS`] tickets are outstanding).
//!
//! The open loop's completion rate is the generator's rate, so `qps` comes
//! from a closed loop on a fresh service after it: a client keeps a fixed
//! number of queries in flight, and `qps` is the median completion rate of
//! [`BURSTS`] bursts of that phase, each scaled to the yardstick's reference
//! speed by readings taken while the service idles between bursts (see
//! [`crate::yardstick`]).

use crate::check::{self, Ask};
use crate::layers::{self, Extras, IngestTotals, ServiceLayer};
use crate::report::{
    mean, median, peak_rss_mb, percentile, sorted, windowed, Family, Metrics,
    Outcomes, Sample,
};
use crate::yardstick::Yardstick;
use crate::trace::{self, Kind, Traced, NO_QUERY};
use ripple_bench::runner::midas_uniform_with_data;
use ripple_core::service::{
    QueryService, Servable, ServiceConfig, ServiceError, ServiceQuery, ServiceResponse,
    ServiceScore,
};
use ripple_core::Mode;
use ripple_data::workload::data_query_point;
use ripple_data::Zipf;
use ripple_geom::{Norm, Rect, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::PeerId;
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Threads blocked on tickets.
const WAITERS: usize = 16;
/// Queries each setup sends (closed loop) to warm the service.
const WARM_UP: u64 = 200;
/// One response in this many is compared with the oracle.
const ORACLE_EVERY: u64 = 16;
/// At most this many oracle comparisons per pass.
const ORACLE_CAP: usize = 300;
/// Rows inserted, and rows deleted, by one write batch: one per peer of
/// `ingest-serve` on average, so each batch moves most stores.
const BATCH: usize = 64;
/// Every this many batches also compacts every store: at one delete per
/// store per batch, when about an eighth of a 256-row run is dead, half way
/// to the store's own compaction trigger (a quarter dead).
const COMPACT_EVERY: u64 = 32;
/// Hot shapes of `ingest-serve`.
const HOT_SHAPES: usize = 16;
/// Share of the measured window given to the closed loop that measures
/// `qps`; the open loop gets the rest.
const CLOSED_SHARE: f64 = 0.375;
/// Share of the closed loop that runs before its rate is measured. Its
/// rate starts high while the stores still hold only the generated rows.
const CLOSED_SETTLE: f64 = 1.0 / 3.0;
/// Bursts of the measured part of the closed loop; `qps` is the median of
/// their scaled rates. The host's speed changes for seconds at a time, so
/// each burst is short and read against the yardstick on both sides.
const BURSTS: usize = 24;
/// One closed-loop response in this many is kept and checked.
const CHECK_EVERY: u64 = 64;
/// Yardstick readings per thread between two bursts of the closed loop.
const SPEED_READINGS: usize = 15;
/// Mixed into the seed for the closed loop's query stream.
const CLOSED_STREAM: u64 = 0xC705_ED00;

/// One serving workload's fixed parameters.
pub struct Workload {
    /// Peers of the overlay.
    pub peers: usize,
    /// Tuples loaded before the run.
    pub records: usize,
    /// Driver threads.
    pub drivers: usize,
    /// Intra-query threads per driver.
    pub intra: usize,
    /// Query arrivals per second of the open loop: a small share of the
    /// closed-loop capacity `--calibrate` measures, for steady medians (see
    /// the README).
    pub rate: f64,
    /// Tenant shares of the arrivals.
    pub tenants: &'static [f64],
    /// Write batches per second (0: none).
    pub write_rate: f64,
    /// True for the Zipf-hot shape set, false for distinct shapes.
    pub hot: bool,
    /// Queries the closed loop that measures `qps` keeps outstanding: four
    /// per driver, so a driver finds the next query queued when it
    /// finishes one.
    pub outstanding: usize,
}

/// `serve-distinct`.
pub const SERVE_DISTINCT: Workload = Workload {
    peers: 512,
    records: 100_000,
    drivers: 1,
    intra: 2,
    rate: 400.0,
    tenants: &[0.6, 0.3, 0.1],
    write_rate: 0.0,
    hot: false,
    outstanding: 4,
};

/// `ingest-serve`. 64 peers over 40k rows put about 600 rows in a store,
/// so each store holds frozen 256-row runs beside its memtable, and the
/// deletes tombstone run rows that compaction later folds away.
/// 10 batches/s at 1000 queries/s leave 100 queries per generation; with
/// Zipf(1.0) over 16 shapes about 15 of them are distinct, so about 85% of
/// the queries hit the result cache.
pub const INGEST_SERVE: Workload = Workload {
    peers: 64,
    records: 40_000,
    drivers: 2,
    intra: 0,
    rate: 1000.0,
    tenants: &[0.7, 0.3],
    write_rate: 10.0,
    hot: true,
    outstanding: 8,
};

/// The capability the writes need from a served overlay.
pub trait Substrate: Servable + Send + Sync + 'static {
    /// The MIDAS overlay underneath.
    fn midas(&self) -> &MidasNetwork;
    /// Mutable access to it.
    fn midas_mut(&mut self) -> &mut MidasNetwork;
}

impl Substrate for MidasNetwork {
    fn midas(&self) -> &MidasNetwork {
        self
    }
    fn midas_mut(&mut self) -> &mut MidasNetwork {
        self
    }
}

impl Substrate for Traced<MidasNetwork> {
    fn midas(&self) -> &MidasNetwork {
        &self.0
    }
    fn midas_mut(&mut self) -> &mut MidasNetwork {
        &mut self.0
    }
}

/// The generated inputs of a serving workload.
pub struct World {
    wl: &'static Workload,
    seed: u64,
    base: MidasNetwork,
    data: Vec<Tuple>,
    hot: Vec<ServiceQuery>,
    zipf: Zipf,
}

struct Arrival {
    tenant: u32,
    initiator: PeerId,
    query: ServiceQuery,
}

fn mix(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

fn random_box(rng: &mut SmallRng) -> Rect {
    let lo: Vec<f64> = (0..2).map(|_| rng.gen_range(0.0..0.6)).collect();
    let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.15..0.4)).collect();
    Rect::new(lo, hi)
}

fn family(q: &ServiceQuery) -> Family {
    match q {
        ServiceQuery::TopK { .. } => Family::TopK,
        ServiceQuery::Skyline { .. } => Family::Skyline,
    }
}

impl World {
    /// Generates the dataset, the hot shape set and the loaded overlay (all
    /// fixed, as a deployment is); `seed` draws the query stream and the
    /// write stream.
    pub fn build(wl: &'static Workload, seed: u64) -> World {
        let mut data_rng = SmallRng::seed_from_u64(crate::DATA_SEED);
        let data = ripple_data::synth::uniform(2, wl.records, &mut data_rng);
        let base = midas_uniform_with_data(2, wl.peers, false, &data, crate::DATA_SEED ^ 0x21);
        // The hot set is part of the deployment too: 12 peak top-k shapes
        // and 4 skyline boxes, the boxes at Zipf ranks 1, 5, 9 and 13. Most
        // queries of each family then hit the result cache, so each p50 is
        // a hit latency; with the boxes on the rarest ranks only about half
        // the skylines hit and their median flipped between hit and miss.
        let hot = (0..HOT_SHAPES)
            .map(|i| {
                if i % 4 == 0 {
                    ServiceQuery::Skyline {
                        constraint: Some(random_box(&mut data_rng)),
                    }
                } else {
                    let peak = data_query_point(&data, 0.1, &mut data_rng);
                    ServiceQuery::TopK {
                        score: ServiceScore::Peak(peak.coords().to_vec(), Norm::L1),
                        k: 10,
                    }
                }
            })
            .collect();
        World {
            wl,
            seed,
            base,
            data,
            hot,
            zipf: Zipf::new(HOT_SHAPES, 1.0),
        }
    }

    fn config(&self) -> ServiceConfig {
        ServiceConfig {
            drivers: self.wl.drivers,
            intra_query_threads: self.wl.intra,
            queue_capacity: 4096,
            ..ServiceConfig::default()
        }
    }

    /// A service over a copy of the overlay.
    pub fn service<O: Substrate>(&self, wrap: impl FnOnce(MidasNetwork) -> O) -> QueryService<O> {
        QueryService::new(wrap(self.base.clone()), self.config())
    }

    /// The `i`-th arrival of the stream seeded by `stream`.
    fn arrival(&self, stream: u64, i: u64) -> Arrival {
        let mut rng = SmallRng::seed_from_u64(mix(stream, i));
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        let tenant = self
            .wl
            .tenants
            .iter()
            .position(|s| {
                acc += s;
                u < acc
            })
            .unwrap_or(self.wl.tenants.len() - 1) as u32;
        let initiator = self.base.live_peers()[rng.gen_range(0..self.base.peer_count())];
        let query = if self.wl.hot {
            self.hot[self.zipf.sample(&mut rng)].clone()
        } else if rng.gen::<f64>() < 0.5 {
            // A distinct linear weight vector per query.
            let w2 = (rng.gen_range(-2.0..2.0f64)).exp();
            ServiceQuery::TopK {
                score: ServiceScore::Linear(vec![1.0, w2]),
                k: 10,
            }
        } else {
            ServiceQuery::Skyline {
                constraint: Some(random_box(&mut rng)),
            }
        };
        Arrival {
            tenant,
            initiator,
            query,
        }
    }

    /// Warms a fresh service: a closed loop over a separate stream.
    pub fn warm_up<O: Substrate>(&self, service: &QueryService<O>) {
        for i in 0..WARM_UP {
            let a = self.arrival(self.seed ^ 0x3A3A, i);
            let ticket = service
                .submit(a.tenant, a.initiator, a.query, Mode::Fast)
                .expect("warm-up admission");
            ticket.wait().expect("warm-up query completes");
        }
    }
}

/// One write batch as applied: the generation it produced and its rows.
struct WriteLog {
    generation: u64,
    inserted: Vec<Tuple>,
    deleted: Vec<u64>,
}

/// One response, checked by the waiter that received it once the
/// completion time is taken. Checking there keeps memory flat (a run would
/// otherwise hold every certificate until the window ends), at the price of
/// a few percent of a core during the window.
struct Done {
    index: u64,
    /// The completed query; `None` when it was refused or shut down.
    sample: Option<Sample>,
    /// Incomplete coverage (or no response at all).
    failed: bool,
    error: Option<String>,
    check_ns: u64,
    generation: u64,
    /// The answer, kept when the query is in the oracle sample.
    answers: Option<Vec<Tuple>>,
}

/// Checks the response to the `index`-th query of the stream seeded by
/// `stream`: its certificate through `ripple-verify`, its ledger for
/// duplicate visits, its coverage. `latency` is in nanoseconds.
fn settle(
    w: &World,
    stream: u64,
    index: u64,
    latency: u64,
    result: Result<ServiceResponse, ServiceError>,
) -> Done {
    let mut out = Done {
        index,
        sample: None,
        failed: true,
        error: None,
        check_ns: 0,
        generation: 0,
        answers: None,
    };
    let Ok(r) = result else {
        return out;
    };
    let a = w.arrival(stream, index);
    let ask = Ask::of_service(&a.query);
    let c0 = Instant::now();
    let verdict = check::verify(
        &ask,
        &r.answers,
        &r.coverage,
        r.certificate.as_deref(),
        r.generation,
    );
    out.check_ns = c0.elapsed().as_nanos() as u64;
    out.error = match verdict {
        Err(e) => Some(format!("query {index}: certificate rejected: {e}")),
        Ok(()) if r.metrics.duplicate_visits > 0 => {
            Some(format!("query {index}: duplicate visits"))
        }
        Ok(()) => None,
    };
    out.failed = !r.coverage.is_complete();
    out.generation = r.generation;
    if sampled(stream, index, ORACLE_EVERY) {
        out.answers = Some(r.answers);
    }
    let regions = r.certificate.as_ref().map_or(0, |c| c.regions.len());
    out.sample = Some(Sample::new(family(&a.query), latency, r.metrics, regions));
    out
}

/// True for one query in `every` of the stream seeded by `stream`.
fn sampled(stream: u64, index: u64, every: u64) -> bool {
    mix(stream ^ 0x0AC1E, index).is_multiple_of(every)
}

/// What one pass produced.
struct Loop {
    /// Seed of the pass's query stream.
    stream: u64,
    /// The checked responses: all of an open loop, a sample of a closed one.
    done: Vec<Done>,
    attempted: u64,
    /// Refused, shut-down and incomplete-coverage queries.
    failed: u64,
    late_ns: Vec<f64>,
    write_ns: Vec<f64>,
    log: Vec<WriteLog>,
    start_generation: u64,
    errors: Vec<String>,
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn maybe_span<T>(traced: bool, kind: Kind, f: impl FnOnce() -> T) -> T {
    if traced {
        trace::span(kind, NO_QUERY, f)
    } else {
        f()
    }
}

/// Applies one write batch through the epoch handshake and returns the
/// generation it produced.
fn write_batch<O: Substrate>(
    service: &QueryService<O>,
    batch: &[Tuple],
    victims: &[u64],
    compact: bool,
    traced: bool,
) -> (u64, usize) {
    maybe_span(traced, Kind::Epoch, || {
        service.advance_epoch(|net| {
            let m = net.midas_mut();
            maybe_span(traced, Kind::Insert, || {
                m.insert_batch(batch.iter().cloned())
            });
            let removed = maybe_span(traced, Kind::Delete, || m.delete_tuples(victims));
            if compact {
                maybe_span(traced, Kind::Compact, || m.compact_stores());
            }
            (m.epoch(), removed)
        })
    })
}

/// Sends write batches until `due` says to stop: each inserts [`BATCH`] new
/// rows and deletes the [`BATCH`] oldest ones. `due(j)` waits until batch
/// `j` is due and returns the time it was due, or `None` when the stream
/// ends. Returns each batch's latency (due to applied), the write log, and
/// any batch that did not delete exactly its rows.
fn write_stream<O: Substrate>(
    w: &World,
    service: &QueryService<O>,
    traced: bool,
    mut due: impl FnMut(u64) -> Option<Instant>,
) -> (Vec<f64>, Vec<WriteLog>, Vec<String>) {
    let mut rng = SmallRng::seed_from_u64(w.seed ^ 0x5717E);
    let mut fifo: VecDeque<u64> = w.data.iter().map(|t| t.id).collect();
    let mut next_id = w.wl.records as u64;
    let (mut lat, mut log, mut errors) = (Vec::new(), Vec::new(), Vec::new());
    for j in 0u64.. {
        let batch: Vec<Tuple> = (0..BATCH)
            .map(|_| {
                next_id += 1;
                Tuple::new(next_id, vec![rng.gen::<f64>(), rng.gen::<f64>()])
            })
            .collect();
        let victims: Vec<u64> = (0..BATCH)
            .map(|_| fifo.pop_front().expect("more rows than a batch"))
            .collect();
        fifo.extend(batch.iter().map(|t| t.id));
        let Some(sched) = due(j) else {
            break;
        };
        let compact = (j + 1) % COMPACT_EVERY == 0;
        let (generation, removed) = write_batch(service, &batch, &victims, compact, traced);
        lat.push(sched.elapsed().as_nanos() as f64);
        if removed != BATCH {
            errors.push(format!("write batch {j} deleted {removed} of {BATCH} rows"));
        }
        log.push(WriteLog {
            generation,
            inserted: batch,
            deleted: victims,
        });
    }
    (lat, log, errors)
}

/// Runs the open loop for `seconds`.
fn open_loop<O: Substrate>(
    w: &World,
    service: &QueryService<O>,
    seconds: f64,
    traced: bool,
) -> Loop {
    let start_generation = service.generation();
    let period = 1.0 / w.wl.rate;
    let (tx, rx) = mpsc::channel::<(u64, Instant, ripple_core::Ticket)>();
    let rx = Mutex::new(rx);
    let t0 = Instant::now() + Duration::from_millis(5);
    let end = t0 + Duration::from_secs_f64(seconds);
    let mut late_ns = Vec::new();
    let mut rejected = 0u64;
    let (done, writes) = std::thread::scope(|s| {
        let waiters: Vec<_> = (0..WAITERS)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let next = rx.lock().expect("ticket channel poisoned").recv();
                        let Ok((index, sched, ticket)) = next else {
                            return out;
                        };
                        let result = ticket.wait();
                        let latency = sched.elapsed().as_nanos() as u64;
                        out.push(settle(w, w.seed, index, latency, result));
                    }
                })
            })
            .collect();
        let writer = (w.wl.write_rate > 0.0).then(|| {
            s.spawn(|| {
                write_stream(w, service, traced, |j| {
                    let sched = t0 + Duration::from_secs_f64(j as f64 / w.wl.write_rate);
                    (sched < end).then(|| {
                        sleep_until(sched);
                        sched
                    })
                })
            })
        });
        for i in 0u64.. {
            let sched = t0 + Duration::from_secs_f64(i as f64 * period);
            if sched >= end {
                break;
            }
            let a = w.arrival(w.seed, i);
            sleep_until(sched);
            late_ns.push(sched.elapsed().as_nanos() as f64);
            match service.submit(a.tenant, a.initiator, a.query, Mode::Fast) {
                Ok(ticket) => tx.send((i, sched, ticket)).expect("waiters alive"),
                Err(_) => rejected += 1,
            }
        }
        drop(tx);
        let done: Vec<Done> = waiters
            .into_iter()
            .flat_map(|h| h.join().expect("waiter panicked"))
            .collect();
        let writes = writer.map(|h| h.join().expect("writer panicked"));
        (done, writes)
    });
    let (write_ns, log, errors) = writes.unwrap_or_default();
    Loop {
        stream: w.seed,
        attempted: done.len() as u64 + rejected,
        failed: rejected + done.iter().filter(|d| d.failed).count() as u64,
        done,
        late_ns,
        write_ns,
        log,
        start_generation,
        errors,
    }
}

/// Runs a closed loop for `seconds`: one client thread keeps `outstanding`
/// queries in flight, sending the next as soon as it has collected the
/// oldest. Write batches keep the open loop's ratio to queries: one batch
/// per `rate / write_rate` completions. Every response's coverage counts;
/// one in [`CHECK_EVERY`] is kept and checked once the loop ends, so the
/// checks stay off the client's clock.
///
/// After the first [`CLOSED_SETTLE`] of the window the loop runs in
/// [`BURSTS`] equal bursts. Before the first burst and after each one the
/// client drains its queries, waits for the writer to finish its batch, and
/// reads `yard` on every hardware thread while the service idles.
/// Returns the pass, each burst's completions per second, and the
/// `BURSTS + 1` readings.
fn closed_loop<O: Substrate>(
    w: &World,
    service: &QueryService<O>,
    outstanding: usize,
    seconds: f64,
    yard: &Yardstick,
) -> (Loop, Vec<f64>, Vec<f64>) {
    let stream = w.seed ^ CLOSED_STREAM;
    let start_generation = service.generation();
    let per_batch = (w.wl.rate / w.wl.write_rate.max(f64::MIN_POSITIVE)).round() as u64;
    let next = AtomicU64::new(0);
    let completed = AtomicU64::new(0);
    // The batch the writer waits for; it has applied every earlier one.
    let writer_at = AtomicU64::new(0);
    let finished = AtomicBool::new(false);
    let (kept, failed, rates, slowdowns, writes) = std::thread::scope(|s| {
        let writer = (w.wl.write_rate > 0.0).then(|| {
            let (completed, writer_at, finished) = (&completed, &writer_at, &finished);
            s.spawn(move || {
                write_stream(w, service, false, |j| loop {
                    writer_at.store(j, Ordering::Release);
                    if finished.load(Ordering::Acquire) {
                        return None;
                    }
                    if completed.load(Ordering::Relaxed) >= (j + 1) * per_batch {
                        return Some(Instant::now());
                    }
                    std::thread::sleep(Duration::from_micros(100));
                })
            })
        });
        let client = s.spawn(|| {
            let (mut kept, mut failed) = (Vec::new(), 0u64);
            let mut in_flight = VecDeque::with_capacity(outstanding);
            // Keeps the loop full until `until`, then drains it.
            let mut run_until = |until: Instant| loop {
                while in_flight.len() < outstanding && Instant::now() < until {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    let a = w.arrival(stream, index);
                    match service.submit(a.tenant, a.initiator, a.query, Mode::Fast) {
                        Ok(ticket) => in_flight.push_back((index, ticket)),
                        Err(_) => failed += 1,
                    }
                }
                let Some((index, ticket)) = in_flight.pop_front() else {
                    return;
                };
                match ticket.wait() {
                    Ok(r) => {
                        completed.fetch_add(1, Ordering::Relaxed);
                        failed += u64::from(!r.coverage.is_complete());
                        if sampled(stream, index, CHECK_EVERY) {
                            kept.push((index, r));
                        }
                    }
                    Err(_) => failed += 1,
                }
            };
            let quiet_reading = || {
                if w.wl.write_rate > 0.0 {
                    let due = completed.load(Ordering::Relaxed) / per_batch;
                    while writer_at.load(Ordering::Acquire) < due {
                        std::thread::sleep(Duration::from_micros(50));
                    }
                }
                yard.machine_slowdown(SPEED_READINGS)
            };
            let t0 = Instant::now();
            run_until(t0 + Duration::from_secs_f64(seconds * CLOSED_SETTLE));
            let burst = Duration::from_secs_f64(seconds * (1.0 - CLOSED_SETTLE) / BURSTS as f64);
            let mut slowdowns = vec![quiet_reading()];
            let mut rates = Vec::with_capacity(BURSTS);
            for _ in 0..BURSTS {
                let (start, n) = (Instant::now(), completed.load(Ordering::Relaxed));
                run_until(start + burst);
                let done = completed.load(Ordering::Relaxed) - n;
                rates.push(done as f64 / start.elapsed().as_secs_f64());
                slowdowns.push(quiet_reading());
            }
            finished.store(true, Ordering::Release);
            (kept, failed, rates, slowdowns)
        });
        let (kept, failed, rates, slowdowns) = client.join().expect("client panicked");
        let writes = writer.map(|h| h.join().expect("writer panicked"));
        (kept, failed, rates, slowdowns, writes)
    });
    let (write_ns, log, errors) = writes.unwrap_or_default();
    // The closed loop's latencies are not reported.
    let done = kept
        .into_iter()
        .map(|(index, r)| settle(w, stream, index, 0, Ok(r)))
        .collect();
    let l = Loop {
        stream,
        done,
        attempted: next.into_inner(),
        failed,
        late_ns: Vec::new(),
        write_ns,
        log,
        start_generation,
        errors,
    };
    (l, rates, slowdowns)
}

/// The checked results of one pass.
#[derive(Default)]
struct Digest {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    check_ns: u64,
    queue_wait_ns: Vec<f64>,
    exec_ns: Vec<f64>,
    cache_hits: u64,
}

/// Verifies every response and compares a seeded sample with the oracle
/// over the overlay's tuples at the response's generation, rebuilt by
/// replaying the write log from the generated dataset.
fn digest(w: &World, l: Loop) -> Digest {
    let mut d = Digest {
        attempted: l.attempted,
        failed: l.failed,
        errors: l.errors,
        ..Digest::default()
    };
    let mut sampled: Vec<(u64, u64, Vec<Tuple>)> = Vec::new();
    let mut generations = std::collections::BTreeSet::new();
    let mut done = l.done;
    done.sort_by_key(|d| d.index);
    for dn in done {
        d.errors.extend(dn.error);
        d.check_ns += dn.check_ns;
        let Some(sample) = dn.sample else {
            continue;
        };
        generations.insert(dn.generation);
        if let Some(answers) = dn.answers.filter(|_| sampled.len() < ORACLE_CAP) {
            sampled.push((dn.generation, dn.index, answers));
        }
        let wait = sample.metrics.queue_wait_ns;
        d.queue_wait_ns.push(wait as f64);
        d.exec_ns
            .push(sample.latency_ns.saturating_sub(wait) as f64);
        d.cache_hits += u64::from(sample.metrics.cache_hit);
        d.samples.push(sample);
    }
    if w.wl.write_rate > 0.0 && generations.len() < 2 {
        d.errors.push(format!(
            "queries were served at {} generation(s); writes never reached them",
            generations.len()
        ));
    }

    // Oracle replay, in generation order.
    sampled.sort_by_key(|(g, i, _)| (*g, *i));
    let mut rows: BTreeMap<u64, Tuple> = w.data.iter().map(|t| (t.id, t.clone())).collect();
    let mut generation = l.start_generation;
    let mut log = l.log.iter().peekable();
    let mut snapshot: Option<(u64, Vec<Tuple>)> = None;
    for (g, index, answers) in sampled {
        while let Some(entry) = log.next_if(|e| e.generation <= g) {
            for t in &entry.inserted {
                rows.insert(t.id, t.clone());
            }
            for id in &entry.deleted {
                rows.remove(id);
            }
            generation = entry.generation;
        }
        if generation != g {
            d.errors
                .push(format!("query {index}: generation {g} was never produced"));
            continue;
        }
        if snapshot.as_ref().is_none_or(|(sg, _)| *sg != g) {
            snapshot = Some((g, rows.values().cloned().collect()));
        }
        let tuples = &snapshot.as_ref().expect("snapshot taken").1;
        let ask = Ask::of_service(&w.arrival(l.stream, index).query);
        if let Err(e) = check::against(&ask, &answers, &check::oracle(&ask, tuples)) {
            d.errors.push(format!("query {index}: {e}"));
        }
    }
    d
}

/// Checks that the overlay holds exactly the rows the write log implies.
fn check_final<O: Substrate>(
    service: &QueryService<O>,
    log_ids: Vec<u64>,
    errors: &mut Vec<String>,
) {
    let mut stored: Vec<u64> = service.with_network(|n| {
        let m = n.midas();
        m.live_peers()
            .iter()
            .flat_map(|&p| {
                m.peer(p)
                    .store
                    .tuples()
                    .iter()
                    .map(|t| t.id)
                    .collect::<Vec<_>>()
            })
            .collect()
    });
    stored.sort_unstable();
    if stored != log_ids {
        errors.push(format!(
            "overlay holds {} rows, the write log implies {}",
            stored.len(),
            log_ids.len()
        ));
    }
}

fn final_ids(w: &World, log: &[WriteLog]) -> Vec<u64> {
    let mut rows: std::collections::BTreeSet<u64> = w.data.iter().map(|t| t.id).collect();
    for e in log {
        rows.extend(e.inserted.iter().map(|t| t.id));
        for id in &e.deleted {
            rows.remove(id);
        }
    }
    rows.into_iter().collect()
}

/// Runs an open-loop pass and checks it; also returns how late the
/// generator sent and the write batches' latencies.
fn run_pass<O: Substrate>(
    w: &World,
    service: &QueryService<O>,
    seconds: f64,
    traced: bool,
) -> (Digest, Vec<f64>, Vec<f64>) {
    let mut l = open_loop(w, service, seconds, traced);
    let (late, writes) = (std::mem::take(&mut l.late_ns), l.write_ns.clone());
    (check_pass(w, service, l), late, writes)
}

/// Checks a finished pass, and the overlay's rows against its write log.
fn check_pass<O: Substrate>(w: &World, service: &QueryService<O>, l: Loop) -> Digest {
    let ids = final_ids(w, &l.log);
    let mut d = digest(w, l);
    check_final(service, ids, &mut d.errors);
    d
}

/// Closed-loop capacity of a fresh, warmed service over `seconds`: each
/// burst's completion rate as measured, the same rate at the yardstick's
/// reference speed (times the mean of the readings either side of the
/// burst), and the checked pass.
fn closed_pass(w: &World, outstanding: usize, seconds: f64) -> (Vec<f64>, Vec<f64>, Digest) {
    // Fresh, because the write stream starts from the generated rows.
    let service = w.service(|n| n);
    w.warm_up(&service);
    let yard = Yardstick::new();
    let (l, rates, slowdowns) = closed_loop(w, &service, outstanding, seconds, &yard);
    let scaled: Vec<f64> = rates
        .iter()
        .zip(slowdowns.windows(2))
        .map(|(r, s)| r * (s[0] + s[1]) / 2.0)
        .collect();
    eprintln!(
        "qps: closed loop, {outstanding} in flight; median burst {:.1} at reference speed \
         ({:.1} as measured); host slowdown {slowdowns:.3?}; bursts {rates:.1?}",
        median(&scaled),
        median(&rates)
    );
    (rates, scaled, check_pass(w, &service, l))
}

/// Closed-loop capacity, in completed queries per second as measured (the
/// median burst).
pub fn capacity(w: &World, outstanding: usize, seconds: f64) -> f64 {
    median(&closed_pass(w, outstanding, seconds).0)
}

/// The end-to-end metrics: latencies of the open loop `d`, and the closed
/// loop's `qps`.
fn e2e(d: &Digest, qps: f64, m: &mut Metrics) {
    for (family, name) in [(Family::TopK, "topk"), (Family::Skyline, "skyline")] {
        let p50 = windowed(name, &layers::latencies(&d.samples, family)).0;
        m.put(&format!("{name}_p50_ms"), p50, "ms");
    }
    m.put("qps", qps, "1/s");
    // Paper costs per executed query: a cache hit costs nothing, and how
    // many queries hit depends on how writes fall between them.
    let executed = || d.samples.iter().filter(|s| !s.metrics.cache_hit);
    let per = |f: fn(&Sample) -> f64| mean(executed().map(f));
    m.put(
        "msgs_per_query",
        per(|s| s.metrics.total_messages() as f64),
        "count",
    );
    m.put("hops_per_query", per(|s| s.metrics.latency as f64), "count");
    m.put(
        "visits_per_query",
        per(|s| s.metrics.peers_visited as f64),
        "count",
    );
    m.put(
        "tuples_per_query",
        per(|s| s.metrics.tuples_transferred as f64),
        "count",
    );
}

/// Runs the measured part of a serving workload; `service` is the warmed
/// untraced service built during set-up.
pub fn measure(
    w: &World,
    service: QueryService<MidasNetwork>,
    seconds: f64,
    traced: bool,
) -> Outcomes {
    if !traced {
        let (d, _, _) = run_pass(w, &service, seconds * (1.0 - CLOSED_SHARE), false);
        drop(service);
        // Taken before the closed loop: without writes the result cache
        // keeps every distinct answer, so a closed loop's memory grows with
        // its throughput.
        let peak_rss_mb = peak_rss_mb();
        let (_, scaled, closed) = closed_pass(w, w.wl.outstanding, seconds * CLOSED_SHARE);
        let mut metrics = Metrics::default();
        e2e(&d, median(&scaled), &mut metrics);
        let note = format!(
            "{}; closed loop: {} queries",
            sample_note(&d),
            closed.attempted
        );
        let mut errors = d.errors;
        errors.extend(closed.errors);
        return Outcomes {
            metrics,
            attempted: d.attempted + closed.attempted,
            failed: d.failed + closed.failed,
            note,
            errors,
            peak_rss_mb,
        };
    }
    let (plain, late, writes) = run_pass(w, &service, seconds / 2.0, false);
    drop(service);

    let traced_service = w.service(Traced);
    w.warm_up(&traced_service);
    let before = traced_service.stats();
    trace::take();
    let (tr_digest, _, _) = run_pass(w, &traced_service, seconds / 2.0, true);
    let tr = trace::take();
    let after = traced_service.stats();
    let mut ingest = IngestTotals::default();
    traced_service.with_network(|n| {
        for &p in n.0.live_peers() {
            ingest.add(&n.0.peer(p).store.ingest_stats());
        }
    });
    drop(traced_service);

    let executed_mean = |d: &Digest| {
        mean(
            d.samples
                .iter()
                .zip(&d.exec_ns)
                .filter(|(s, _)| !s.metrics.cache_hit)
                .map(|(_, e)| *e),
        )
    };
    let extras = Extras {
        ingest,
        service: ServiceLayer {
            queue_wait_ns: tr_digest.queue_wait_ns.clone(),
            exec_ns: tr_digest.exec_ns.clone(),
            cache_hits: tr_digest.cache_hits,
            completed: tr_digest.samples.len() as u64,
            cache_invalidated: after.cache_invalidated - before.cache_invalidated,
            rejected: after.rejected - before.rejected,
        },
        check_us: tr_digest.check_ns as f64 / 1e3 / tr_digest.samples.len().max(1) as f64,
        gen_late_p99_ms: percentile(&sorted(late), 99.0) / 1e6,
        overhead_pct: (executed_mean(&tr_digest) / executed_mean(&plain) - 1.0) * 100.0,
        topk_ns: layers::latencies(&plain.samples, Family::TopK),
        skyline_ns: layers::latencies(&plain.samples, Family::Skyline),
        write_ns: writes,
        failed_frac: plain.failed as f64 / plain.attempted.max(1) as f64,
        ..Extras::default()
    };
    let note = format!(
        "{}; traced pass: {} spans",
        sample_note(&plain),
        tr.spans.len()
    );
    let mut errors = plain.errors;
    errors.extend(tr_digest.errors.iter().cloned());
    Outcomes {
        metrics: layers::per_layer(&tr, &tr_digest.samples, &extras),
        attempted: plain.attempted + tr_digest.attempted,
        failed: plain.failed + tr_digest.failed,
        note,
        errors,
        peak_rss_mb: peak_rss_mb(),
    }
}

fn sample_note(d: &Digest) -> String {
    let count = |f: Family| d.samples.iter().filter(|s| s.family == f).count();
    format!(
        "topk {} skyline {} samples, cache hits {}",
        count(Family::TopK),
        count(Family::Skyline),
        d.cache_hits
    )
}
