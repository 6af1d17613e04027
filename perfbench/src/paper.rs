//! `paper-queries`: one closed-loop client over static data.
//!
//! A lone sequential executor with certificates on rotates through the
//! figure shapes of the paper on MIDAS overlays built with the `runner`
//! builders — top-k (d=2/k=10, d=5/k=10, d=2/k=50), skyline (d=2, d=4),
//! constrained skyline, single-tuple diversification at λ=0.5 — plus a
//! Chord top-k slice. Every query instance runs under `fast`, `slow`,
//! `ripple(2)` and `run_planned`.

use crate::check::{self, Ask, Score};
use crate::layers::{self, Extras, IngestTotals};
use crate::report::{median, peak_rss_mb, percentile, sorted, Family, Metrics, Outcomes, Sample};
use crate::yardstick::Yardstick;
use crate::run::{self, How, Outcome};
use crate::trace::{self, Kind, Traced};
use ripple_bench::runner::{midas_uniform_with_data, midas_with_data};
use ripple_chord::ChordNetwork;
use ripple_core::diversify::run_single_tuple_certified;
use ripple_core::topk::TopKQuery;
use ripple_core::{
    run_skyline_certified, run_topk_certified, Executor, Mode, PlanInputs, Planner, QueryHint,
    RankQuery, RippleOverlay, SkylineQuery,
};
use ripple_data::synth;
use ripple_data::workload::data_query_point;
use ripple_geom::{DiversityQuery, Norm, PeakScore, Rect, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::{PeerId, PlannedMode, QueryMetrics};
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::Instant;

/// Peers of every overlay.
const PEERS: usize = 1024;
/// Tuples of the d=1, d=2 and d=5 datasets.
const RECORDS: usize = 20_000;
/// Tuples of the d=4 skyline dataset (4-d skylines are large).
const SKY4_RECORDS: usize = 8_000;
/// Query instances (each run under all four modes) whose static-mode
/// ledgers make the paper-cost metrics: a fixed prefix of the seeded
/// stream, so the costs repeat exactly for a seed. With 200 instances
/// `tuples_per_query` moved by 0.13 (IQR/median) across ten seeds.
const COST_INSTANCES: usize = 1000;
/// One instance in this many is also checked against the oracles.
const ORACLE_EVERY: u64 = 8;
/// Fewest rotations (every shape under every mode) in a timing window.
const WINDOW_ROTATIONS: usize = 16;
/// Most timing windows.
const MAX_WINDOWS: usize = 32;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Shape {
    TopK2,
    TopK5,
    TopK2Wide,
    Sky2,
    Sky4,
    SkyBox,
    Div,
    Chord,
}

const SHAPES: [Shape; 8] = [
    Shape::TopK2,
    Shape::Sky2,
    Shape::TopK5,
    Shape::Div,
    Shape::TopK2Wide,
    Shape::Sky4,
    Shape::Chord,
    Shape::SkyBox,
];

impl Shape {
    fn family(self) -> Family {
        match self {
            Shape::TopK2 | Shape::TopK5 | Shape::TopK2Wide | Shape::Chord => Family::TopK,
            Shape::Sky2 | Shape::Sky4 | Shape::SkyBox => Family::Skyline,
            Shape::Div => Family::Div,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Run {
    Static(Mode),
    Planned,
}

const RUNS: [Run; 4] = [
    Run::Static(Mode::Fast),
    Run::Static(Mode::Slow),
    Run::Static(Mode::Ripple(2)),
    Run::Planned,
];

/// The overlays, each kept in its decorator; untraced runs reach through
/// to the bare overlay.
pub struct World {
    topk2: Traced<MidasNetwork>,
    topk5: Traced<MidasNetwork>,
    sky2: Traced<MidasNetwork>,
    sky4: Traced<MidasNetwork>,
    div2: Traced<MidasNetwork>,
    chord: Traced<ChordNetwork>,
    d1: Vec<Tuple>,
    d2: Vec<Tuple>,
    d5: Vec<Tuple>,
    inputs: Vec<PlanInputs>,
}

impl World {
    /// Generates the datasets and builds and loads every overlay. Data and
    /// overlays are fixed, like the paper's datasets; the run's seed draws
    /// the query stream.
    pub fn build() -> World {
        let seed = crate::DATA_SEED;
        let mut rng = SmallRng::seed_from_u64(seed);
        let d1 = synth::uniform(1, RECORDS, &mut rng);
        let d2 = synth::uniform(2, RECORDS, &mut rng);
        let d4 = synth::uniform(4, SKY4_RECORDS, &mut rng);
        let d5 = synth::uniform(5, RECORDS, &mut rng);
        let topk2 = midas_uniform_with_data(2, PEERS, false, &d2, seed ^ 0x11);
        let topk5 = midas_uniform_with_data(5, PEERS, false, &d5, seed ^ 0x12);
        let sky2 = midas_with_data(2, PEERS, true, &d2, seed ^ 0x13);
        let sky4 = midas_with_data(4, PEERS, true, &d4, seed ^ 0x14);
        let div2 = midas_with_data(2, PEERS, false, &d2, seed ^ 0x15);
        let mut chord = ChordNetwork::build(PEERS, &mut SmallRng::seed_from_u64(seed ^ 0x16));
        chord.insert_all(d1.iter().cloned());
        let midas_inputs = |net: &MidasNetwork, hint| PlanInputs {
            peers: net.peer_count(),
            delta: net.delta(),
            hint,
        };
        let sky = QueryHint::Skyline { selectivity: 1.0 };
        let inputs = SHAPES
            .iter()
            .map(|shape| match shape {
                Shape::TopK2 => midas_inputs(&topk2, QueryHint::TopK { k: 10 }),
                Shape::TopK5 => midas_inputs(&topk5, QueryHint::TopK { k: 10 }),
                Shape::TopK2Wide => midas_inputs(&topk2, QueryHint::TopK { k: 50 }),
                Shape::Sky2 => midas_inputs(&sky2, sky),
                Shape::Sky4 => midas_inputs(&sky4, sky),
                Shape::SkyBox => midas_inputs(&sky2, QueryHint::Skyline { selectivity: 0.1 }),
                Shape::Div => midas_inputs(&div2, QueryHint::Diversify),
                Shape::Chord => PlanInputs {
                    peers: chord.peer_count(),
                    delta: chord.finger_count(),
                    hint: QueryHint::TopK { k: 10 },
                },
            })
            .collect();
        World {
            topk2: Traced(topk2),
            topk5: Traced(topk5),
            sky2: Traced(sky2),
            sky4: Traced(sky4),
            div2: Traced(div2),
            chord: Traced(chord),
            d1,
            d2,
            d5,
            inputs,
        }
    }

    fn midas(&self, shape: Shape) -> &Traced<MidasNetwork> {
        match shape {
            Shape::TopK2 | Shape::TopK2Wide => &self.topk2,
            Shape::TopK5 => &self.topk5,
            Shape::Sky2 | Shape::SkyBox => &self.sky2,
            Shape::Sky4 => &self.sky4,
            Shape::Div => &self.div2,
            Shape::Chord => unreachable!("the Chord slice is not a MIDAS overlay"),
        }
    }

    fn generation(&self, shape: Shape) -> u64 {
        match shape {
            Shape::Chord => self.chord.0.snapshot_generation(),
            _ => self.midas(shape).0.snapshot_generation(),
        }
    }

    /// Every tuple stored in the overlay a shape runs on.
    fn stored(&self, shape: Shape) -> Vec<Tuple> {
        match shape {
            Shape::Chord => {
                let net = &self.chord.0;
                net.live_peers()
                    .into_iter()
                    .flat_map(|p| net.peer(p).store.tuples().to_vec())
                    .collect()
            }
            _ => {
                let net = &self.midas(shape).0;
                net.live_peers()
                    .iter()
                    .flat_map(|&p| net.peer(p).store.tuples().to_vec())
                    .collect()
            }
        }
    }

    fn ingest_totals(&self) -> IngestTotals {
        let mut totals = IngestTotals::default();
        for net in [&self.topk2, &self.topk5, &self.sky2, &self.sky4, &self.div2] {
            for &p in net.0.live_peers() {
                totals.add(&net.0.peer(p).store.ingest_stats());
            }
        }
        totals
    }

    /// The `i`-th query instance of the stream seeded by `seed`.
    fn instance(&self, seed: u64, i: u64) -> Instance {
        let shape = SHAPES[(i % SHAPES.len() as u64) as usize];
        let mut rng = SmallRng::seed_from_u64(mix(seed, i));
        let peak = |data: &[Tuple], jitter: f64, rng: &mut SmallRng| {
            Score::Peak(PeakScore::new(
                data_query_point(data, jitter, rng),
                Norm::L1,
            ))
        };
        let (initiator, ask) = match shape {
            Shape::TopK2 | Shape::TopK2Wide => (
                self.topk2.0.random_peer(&mut rng),
                Ask::TopK {
                    score: peak(&self.d2, 0.1, &mut rng),
                    k: if shape == Shape::TopK2 { 10 } else { 50 },
                },
            ),
            Shape::TopK5 => (
                self.topk5.0.random_peer(&mut rng),
                Ask::TopK {
                    score: peak(&self.d5, 0.1, &mut rng),
                    k: 10,
                },
            ),
            Shape::Sky2 => (
                self.sky2.0.random_peer(&mut rng),
                Ask::Skyline { constraint: None },
            ),
            Shape::Sky4 => (
                self.sky4.0.random_peer(&mut rng),
                Ask::Skyline { constraint: None },
            ),
            Shape::SkyBox => {
                let initiator = self.sky2.0.random_peer(&mut rng);
                let lo: Vec<f64> = (0..2).map(|_| rng.gen_range(0.0..0.6)).collect();
                let hi: Vec<f64> = lo.iter().map(|l| l + rng.gen_range(0.15..0.4)).collect();
                (
                    initiator,
                    Ask::Skyline {
                        constraint: Some(Rect::new(lo, hi)),
                    },
                )
            }
            Shape::Div => {
                let initiator = self.div2.0.random_peer(&mut rng);
                let q = data_query_point(&self.d2, 0.2, &mut rng);
                // The set a greedy diversification would start from: the
                // four tuples nearest the query point.
                let mut by_distance: Vec<(f64, &Tuple)> = self
                    .d2
                    .iter()
                    .map(|t| (Norm::L1.dist(&t.point, &q), t))
                    .collect();
                by_distance.select_nth_unstable_by(3, |a, b| a.0.total_cmp(&b.0));
                let set = by_distance[..4].iter().map(|(_, t)| (*t).clone()).collect();
                (
                    initiator,
                    Ask::Div {
                        div: DiversityQuery::new(q, 0.5, Norm::L1),
                        set,
                        tau: f64::INFINITY,
                    },
                )
            }
            Shape::Chord => (
                self.chord.0.random_peer(&mut rng),
                Ask::TopK {
                    score: peak(&self.d1, 0.05, &mut rng),
                    k: 10,
                },
            ),
        };
        Instance {
            shape,
            initiator,
            ask,
        }
    }
}

fn mix(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03)
}

struct Instance {
    shape: Shape,
    initiator: PeerId,
    ask: Ask,
}

/// Top-k on either substrate: the library's runner when untraced and
/// static, the benchmark's runner otherwise.
#[allow(clippy::too_many_arguments)]
fn topk_on<O>(
    net: &Traced<O>,
    initiator: PeerId,
    score: PeakScore,
    k: usize,
    run: Run,
    planner: &mut Planner,
    inputs: &PlanInputs,
    qid: Option<u32>,
) -> Outcome
where
    O: RippleOverlay + Sync,
    O::Region: Send,
    TopKQuery<PeakScore>: RankQuery<O::Region> + Sync,
    <TopKQuery<PeakScore> as RankQuery<O::Region>>::Global: Send + Sync,
    <TopKQuery<PeakScore> as RankQuery<O::Region>>::Local: Send,
{
    match (run, qid) {
        (Run::Static(mode), None) => {
            let (answers, metrics, coverage, cert) =
                run_topk_certified(&Executor::new(&net.0), initiator, score, k, mode);
            Outcome {
                answers,
                metrics,
                coverage,
                cert,
            }
        }
        (Run::Static(mode), Some(_)) => run::topk(
            &Executor::new(net),
            initiator,
            score,
            k,
            How::Seq(mode),
            qid,
        ),
        (Run::Planned, None) => run::topk(
            &Executor::new(&net.0),
            initiator,
            score,
            k,
            How::Planned(planner, inputs),
            None,
        ),
        (Run::Planned, Some(_)) => run::topk(
            &Executor::new(net),
            initiator,
            score,
            k,
            How::Planned(planner, inputs),
            qid,
        ),
    }
}

fn how<'p>(run: Run, planner: &'p mut Planner, inputs: &'p PlanInputs) -> How<'p> {
    match run {
        Run::Static(mode) => How::Seq(mode),
        Run::Planned => How::Planned(planner, inputs),
    }
}

fn run_one(
    w: &World,
    inst: &Instance,
    run: Run,
    planner: &mut Planner,
    qid: Option<u32>,
) -> Outcome {
    let inputs = &w.inputs[SHAPES.iter().position(|s| *s == inst.shape).expect("shape")];
    let init = inst.initiator;
    let how = |planner| how(run, planner, inputs);
    match (&inst.ask, inst.shape) {
        (
            Ask::TopK {
                score: Score::Peak(s),
                k,
            },
            Shape::Chord,
        ) => topk_on(&w.chord, init, s.clone(), *k, run, planner, inputs, qid),
        (
            Ask::TopK {
                score: Score::Peak(s),
                k,
            },
            shape,
        ) => topk_on(
            w.midas(shape),
            init,
            s.clone(),
            *k,
            run,
            planner,
            inputs,
            qid,
        ),
        (Ask::Skyline { constraint }, shape) => {
            let net = w.midas(shape);
            let q = match constraint {
                Some(c) => SkylineQuery::constrained(c.clone()),
                None => SkylineQuery::new(),
            };
            match (run, qid) {
                (Run::Static(mode), None) => {
                    let (answers, metrics, coverage, cert) =
                        run_skyline_certified(&Executor::new(&net.0), init, q, mode);
                    Outcome {
                        answers,
                        metrics,
                        coverage,
                        cert,
                    }
                }
                (_, None) => run::skyline(&Executor::new(&net.0), init, &q, how(planner), None),
                (_, Some(_)) => run::skyline(&Executor::new(net), init, &q, how(planner), qid),
            }
        }
        (Ask::Div { div, set, tau }, shape) => {
            let net = w.midas(shape);
            match (run, qid) {
                (Run::Static(mode), None) => {
                    let (_, answers, metrics, coverage, cert) = run_single_tuple_certified(
                        &Executor::new(&net.0),
                        init,
                        div,
                        set,
                        *tau,
                        mode,
                    );
                    Outcome {
                        answers,
                        metrics,
                        coverage,
                        cert,
                    }
                }
                (_, None) => run::single_tuple(
                    &Executor::new(&net.0),
                    init,
                    div,
                    set,
                    *tau,
                    how(planner),
                    None,
                ),
                (_, Some(_)) => {
                    run::single_tuple(&Executor::new(net), init, div, set, *tau, how(planner), qid)
                }
            }
        }
        (Ask::TopK { .. }, _) => unreachable!("paper top-k shapes use peak scores"),
    }
}

fn hash_of(v: &impl std::fmt::Debug) -> u64 {
    let mut h = DefaultHasher::new();
    format!("{v:?}").hash(&mut h);
    h.finish()
}

/// What the traced replay must reproduce of one untraced query.
struct Fingerprint {
    metrics: QueryMetrics,
    /// Hash of answers, coverage and certificate (`Debug` renders every
    /// float exactly, so equal hashes mean equal bits).
    full: u64,
    /// Hash of [`check::canonical`], which every mode must agree on.
    answer: u64,
    plan: Option<PlannedMode>,
}

fn fingerprint(ask: &Ask, out: &Outcome) -> Fingerprint {
    Fingerprint {
        metrics: out.metrics.clone(),
        full: hash_of(&(&out.answers, &out.coverage, &out.cert)),
        answer: hash_of(&check::canonical(ask, &out.answers)),
        plan: out.metrics.plan.as_ref().map(|p| p.mode),
    }
}

/// One pass over the query stream.
#[derive(Default)]
struct Pass {
    samples: Vec<Sample>,
    instances: u64,
    measured_ns: u64,
    failed: u64,
    errors: Vec<String>,
    fingerprints: Vec<Fingerprint>,
    check_ns: u64,
    /// Static-mode ledger sums over the cost prefix: messages, hops,
    /// visits, tuples, queries.
    costs: [f64; 5],
    /// Messages of the planned runs, and of each static mode, summed over
    /// the same instances.
    planned_msgs: f64,
    static_msgs: [f64; 3],
    /// One yardstick reading before each rotation, when the pass reads it.
    slowdowns: Vec<f64>,
}

/// Runs the stream for `seconds` of measured time (and at least the cost
/// prefix), or replays exactly `replay` instances. With a `yard`, reads it
/// off the clock before every rotation.
#[allow(clippy::too_many_arguments)]
fn pass(
    w: &World,
    seed: u64,
    seconds: f64,
    replay: Option<u64>,
    traced: bool,
    keep_fingerprints: bool,
    oracle_sets: &[Vec<Tuple>],
    yard: Option<&Yardstick>,
) -> Pass {
    let mut planners: Vec<Planner> = SHAPES.iter().map(|_| Planner::new(1)).collect();
    let mut p = Pass::default();
    let budget_ns = (seconds * 1e9) as u64;
    for i in 0.. {
        let done = match replay {
            Some(n) => i >= n,
            None => p.measured_ns >= budget_ns && i >= COST_INSTANCES as u64,
        };
        if done {
            break;
        }
        if let Some(y) = yard.filter(|_| i.is_multiple_of(SHAPES.len() as u64)) {
            p.slowdowns.push(y.slowdown());
        }
        let inst = w.instance(seed, i);
        let si = SHAPES.iter().position(|s| *s == inst.shape).expect("shape");
        // One oracle answer serves all four runs of the instance.
        let want = mix(seed ^ 0x0AC1E, i)
            .is_multiple_of(ORACLE_EVERY)
            .then(|| check::oracle(&inst.ask, &oracle_sets[si]));
        for (ri, &run) in RUNS.iter().enumerate() {
            let planner = &mut planners[si];
            let t0 = Instant::now();
            let out = if traced {
                let qid = trace::new_query();
                trace::span(Kind::Query, qid, || {
                    run_one(w, &inst, run, planner, Some(qid))
                })
            } else {
                run_one(w, &inst, run, planner, None)
            };
            let ns = t0.elapsed().as_nanos() as u64;
            p.measured_ns += ns;

            // Everything below is off the clock.
            let c0 = Instant::now();
            if let Err(e) = check::verify(
                &inst.ask,
                &out.answers,
                &out.coverage,
                out.cert.as_ref(),
                w.generation(inst.shape),
            ) {
                p.errors.push(format!(
                    "{:?} {run:?}: certificate rejected: {e}",
                    inst.shape
                ));
            }
            p.check_ns += c0.elapsed().as_nanos() as u64;
            if let Some(want) = &want {
                if let Err(e) = check::against(&inst.ask, &out.answers, want) {
                    p.errors.push(format!("{:?} {run:?}: {e}", inst.shape));
                }
            }
            if out.metrics.duplicate_visits > 0 {
                p.errors
                    .push(format!("{:?} {run:?}: duplicate visits", inst.shape));
            }
            if !out.coverage.is_complete() {
                p.failed += 1;
            }
            let msgs = out.metrics.total_messages() as f64;
            match run {
                Run::Static(_) => {
                    p.static_msgs[ri] += msgs;
                    if i < COST_INSTANCES as u64 {
                        let m = &out.metrics;
                        for (acc, v) in p.costs.iter_mut().zip([
                            msgs,
                            m.latency as f64,
                            m.peers_visited as f64,
                            m.tuples_transferred as f64,
                            1.0,
                        ]) {
                            *acc += v;
                        }
                    }
                }
                Run::Planned => p.planned_msgs += msgs,
            }
            if keep_fingerprints {
                p.fingerprints.push(fingerprint(&inst.ask, &out));
            }
            let regions = out.cert.as_ref().map_or(0, |c| c.regions.len());
            p.samples
                .push(Sample::new(inst.shape.family(), ns, out.metrics, regions));
        }
        p.instances = i + 1;
    }
    p
}

/// Compares the traced replay with the untraced pass. Static runs must
/// match bit for bit. A planned run must match bit for bit when the
/// planner chose the same mode in both passes (its choice reads the wall
/// clock, which tracing slows), and in its final answer otherwise.
fn compare(
    untraced: &[Fingerprint],
    traced: &[Fingerprint],
    errors: &mut Vec<String>,
) -> (u64, u64) {
    let (mut full, mut answer_only) = (0u64, 0u64);
    if untraced.len() != traced.len() {
        errors.push(format!(
            "traced replay ran {} queries, untraced pass {}",
            traced.len(),
            untraced.len()
        ));
    }
    for (i, (a, b)) in untraced.iter().zip(traced).enumerate() {
        let same_mode = a.plan == b.plan;
        if same_mode {
            full += 1;
            if a.metrics != b.metrics || a.full != b.full {
                errors.push(format!(
                    "query {i}: traced run differs from the untraced run"
                ));
            }
        } else {
            answer_only += 1;
            if a.answer != b.answer {
                errors.push(format!("query {i}: traced planned answer differs"));
            }
        }
    }
    (full, answer_only)
}

/// The latencies of the pass's whole rotations (every shape under every
/// mode), in time order, in nanoseconds at the yardstick's reference speed.
/// The host's speed changes for seconds to minutes at a time, so each
/// window of rotations is scaled by the median of the yardstick readings
/// taken at its rotations.
fn scaled(p: &Pass) -> Vec<(Family, f64)> {
    let rotation = SHAPES.len() * RUNS.len();
    let rotations = (p.samples.len() / rotation).min(p.slowdowns.len());
    let k = (rotations / WINDOW_ROTATIONS).clamp(1, MAX_WINDOWS);
    let mut out = Vec::with_capacity(rotations * rotation);
    let mut by_window = Vec::with_capacity(k);
    for w in 0..k {
        let (a, b) = (w * rotations / k, (w + 1) * rotations / k);
        let slowdown = median(&p.slowdowns[a..b]);
        by_window.push(slowdown);
        out.extend(
            p.samples[a * rotation..b * rotation]
                .iter()
                .map(|s| (s.family, s.latency_ns as f64 / slowdown)),
        );
    }
    eprintln!(
        "host slowdown per window of {} rotations: {by_window:.3?}",
        rotations / k
    );
    out
}

fn e2e(p: &Pass, m: &mut Metrics) {
    let scaled = scaled(p);
    for (family, name) in [(Family::TopK, "topk"), (Family::Skyline, "skyline")] {
        let ms = sorted(
            scaled
                .iter()
                .filter(|(f, _)| *f == family)
                .map(|(_, ns)| ns / 1e6)
                .collect(),
        );
        let measured = percentile(&sorted(layers::latencies(&p.samples, family)), 50.0) / 1e6;
        eprintln!(
            "{name}: p50 {:.4} ms at reference speed ({:.4} ms as measured) over {} samples",
            percentile(&ms, 50.0),
            measured,
            ms.len()
        );
        m.put(&format!("{name}_p50_ms"), percentile(&ms, 50.0), "ms");
    }
    let busy_s = scaled.iter().map(|(_, ns)| ns).sum::<f64>() / 1e9;
    m.put("qps", scaled.len() as f64 / busy_s, "1/s");
    let n = p.costs[4];
    m.put("msgs_per_query", p.costs[0] / n, "count");
    m.put("hops_per_query", p.costs[1] / n, "count");
    m.put("visits_per_query", p.costs[2] / n, "count");
    m.put("tuples_per_query", p.costs[3] / n, "count");
}

/// Warm-up: one rotation of a separate instance stream, untraced.
pub fn warm_up(w: &World, seed: u64) {
    let mut planners: Vec<Planner> = SHAPES.iter().map(|_| Planner::new(1)).collect();
    for i in 0..SHAPES.len() as u64 {
        let inst = w.instance(seed ^ 0x3A3A, i);
        let si = i as usize % SHAPES.len();
        for &run in &RUNS {
            run_one(w, &inst, run, &mut planners[si], None);
        }
    }
}

/// Runs the measured part of the workload on a built and warmed world.
pub fn measure(w: &World, seed: u64, seconds: f64, traced: bool) -> Outcomes {
    let oracle_sets: Vec<Vec<Tuple>> = SHAPES.iter().map(|&s| w.stored(s)).collect();
    for (shape, set) in SHAPES.iter().zip(&oracle_sets) {
        let expect = if *shape == Shape::Sky4 {
            SKY4_RECORDS
        } else {
            RECORDS
        };
        assert_eq!(
            set.len(),
            expect,
            "{shape:?}: every generated tuple is stored"
        );
    }
    let count = |p: &Pass, f: Family| p.samples.iter().filter(|s| s.family == f).count();
    if !traced {
        let yard = Yardstick::new();
        let p = pass(w, seed, seconds, None, false, false, &oracle_sets, Some(&yard));
        let mut metrics = Metrics::default();
        e2e(&p, &mut metrics);
        return Outcomes {
            metrics,
            attempted: p.samples.len() as u64,
            failed: p.failed,
            note: format!(
                "topk {} skyline {} div {} samples over {} instances",
                count(&p, Family::TopK),
                count(&p, Family::Skyline),
                count(&p, Family::Div),
                p.instances
            ),
            errors: p.errors,
            peak_rss_mb: peak_rss_mb(),
        };
    }
    let plain = pass(w, seed, seconds / 2.0, None, false, true, &oracle_sets, None);
    trace::take();
    let traced_pass = pass(
        w,
        seed,
        0.0,
        Some(plain.instances),
        true,
        true,
        &oracle_sets,
        None,
    );
    let tr = trace::take();
    let mut errors = plain.errors;
    errors.extend(traced_pass.errors.iter().cloned());
    let (full, answer_only) = compare(&plain.fingerprints, &traced_pass.fingerprints, &mut errors);
    let n = plain.samples.len() as f64;
    let best_static = traced_pass
        .static_msgs
        .iter()
        .copied()
        .fold(f64::INFINITY, f64::min);
    let extras = Extras {
        ingest: w.ingest_totals(),
        msg_regret: traced_pass.planned_msgs / best_static,
        check_us: traced_pass.check_ns as f64 / 1e3 / traced_pass.samples.len() as f64,
        overhead_pct: (traced_pass.measured_ns as f64 / plain.measured_ns as f64 - 1.0) * 100.0,
        topk_ns: layers::latencies(&plain.samples, Family::TopK),
        skyline_ns: layers::latencies(&plain.samples, Family::Skyline),
        div_ns: layers::latencies(&plain.samples, Family::Div),
        failed_frac: plain.failed as f64 / n,
        ..Extras::default()
    };
    Outcomes {
        metrics: layers::per_layer(&tr, &traced_pass.samples, &extras),
        attempted: (plain.samples.len() + traced_pass.samples.len()) as u64,
        failed: plain.failed + traced_pass.failed,
        note: format!(
            "{} instances replayed traced: {full} queries bit-identical, {answer_only} planned \
             queries chose another mode and matched on the answer; {} spans",
            plain.instances,
            tr.spans.len()
        ),
        errors,
        peak_rss_mb: peak_rss_mb(),
    }
}
