//! Adaptive cost-based mode planning (the "which template?" question).
//!
//! Section 7 of the paper shows there is no universally best propagation
//! mode: `fast` wins on latency and, at small networks, even on messages
//! (fig. 4, n = 1024: slow costs *more* messages than fast because the
//! refined-threshold savings never amortize the sequential overhead), while
//! `slow`/`ripple(Δ/3)` win on messages at large networks by more than 2×
//! (fig. 4, n = 8192: 374 → ~174 messages). The figure sweeps pick the mode
//! by hand per experiment; a deployment cannot.
//!
//! [`Planner`] closes that gap. Per query class it keeps a
//! [`QueryStats`] ledger — per-mode EWMAs of messages, hop latency and
//! wall-clock, a per-peer visit-cost EWMA, and result-size history — and
//! chooses a [`Plan`] (mode + ripple radius + thread count) for each query:
//!
//! 1. **Explore.** Each candidate mode — `fast`, `ripple(Δ/3)`,
//!    `ripple(2Δ/3)`, `slow`, `broadcast` — is probed [`MIN_SAMPLES`]
//!    times, in that order, before the planner trusts its model
//!    ([`PlanSource::Probe`]). `broadcast` is probed *last* and earns its
//!    place in the pool through its wall-clock: its `2n` message flood is
//!    never the message optimum, but on non-selective queries (e.g. an
//!    unconstrained skyline, where sequential refinement prunes nothing)
//!    its embarrassingly-parallel propagation beats every tree walk on
//!    wall-clock by an order of magnitude — a fact only an observation can
//!    surface, because it depends on per-visit state size, not on message
//!    counts.
//! 2. **Exploit.** Every candidate is scored by a normalized weighted cost
//!    (messages and wall-clock weighted equally, hop latency as a mild
//!    tiebreaker; see [`CostWeights`]) using observations where they exist
//!    and the calibrated worst-case model otherwise; the argmin wins
//!    ([`PlanSource::Model`]). Message and latency costs use EWMAs; the
//!    wall-clock cost uses the *running floor* of observed walls —
//!    wall-clock noise is one-sided (interference only adds time), so the
//!    floor converges to the true cost from above and one clean sample
//!    undoes a spiked one.
//! 3. **Re-explore.** Exploiting only the winner would freeze the losers'
//!    wall-clock estimates at whatever their single probe happened to
//!    measure — a spiked probe could pin the planner on a wall-worse mode
//!    forever. Every [`REPROBE_PERIOD`]-th query therefore re-probes one
//!    mode from the *frontier* — candidates within [`FALLBACK_SLACK`] of
//!    the best observed message cost and within [`REPROBE_WALL_SLACK`] of
//!    the best wall floor — in rotation. Frontier modes are near-optimal
//!    on messages by construction, so re-probing costs at most a few
//!    percent of the congestion budget while keeping every competitive
//!    mode's wall estimate honest.
//! 4. **Never much worse.** If the weighted winner's message cost exceeds
//!    the best *observed* mode's by more than [`FALLBACK_SLACK`], the
//!    planner pins the message-optimal observed mode instead
//!    ([`PlanSource::Fallback`]). This bounds regret against the best
//!    static mode even when the model is miscalibrated for a workload.
//!
//! The chosen plan is stamped into [`QueryMetrics::plan`] **after** the run
//! completes and is excluded from ledger equality, so a planned execution is
//! bit-identical — answers, metrics, visit trace, coverage — to a static
//! execution of the same mode. The regression suite enforces both that
//! identity and the ≤ 10 % regret bound across the fig. 4–12 configurations.
//!
//! [`QueryMetrics::plan`]: ripple_net::QueryMetrics::plan

use std::time::Instant;

use ripple_net::{BlockSet, PeerId, Plan, PlanSource, PlannedMode, QueryMetrics, QueryStats};

use crate::exec::Executor;
use crate::framework::{Mode, QueryOutcome, RankQuery, RippleOverlay};
use crate::latency;

/// Probes per candidate mode before the planner exploits its ledger.
pub const MIN_SAMPLES: u64 = 1;

/// Never-much-worse bound: the weighted winner may cost at most this factor
/// of the best observed mode's messages before the fallback pins the latter.
/// Aligned with the regression suite's ≤ 1.10× regret budget, so a mode that
/// buys a large wall-clock win with a few percent more messages (broadcast on
/// non-selective queries) stays eligible.
pub const FALLBACK_SLACK: f64 = 1.10;

/// Every this-many queries (once the probe phase is complete), the planner
/// re-probes one frontier mode in rotation instead of running the model's
/// winner — see step 3 of the module docs. Small enough that a spiked
/// probe sample is corrected within a few dozen queries, large enough that
/// re-probe overhead stays a rounding error.
pub const REPROBE_PERIOD: u64 = 8;

/// A candidate joins the re-probe frontier only while its wall floor is
/// within this factor of the best wall floor: modes already measured far
/// slower than the best are not worth re-measuring (the floor can only
/// have overestimated them by scheduler noise, and noise this large is
/// rare), and re-running them would bleed wall-clock for nothing.
pub const REPROBE_WALL_SLACK: f64 = 4.0;

/// Per-peer visit cost (ns) assumed before any wall-clock observation
/// exists. Only used to price `broadcast` during the explore phase; once a
/// single query has run, the ledger's own visit EWMA replaces it.
const DEFAULT_VISIT_NS: f64 = 20_000.0;

/// What the planner knows about the query before running it.
#[derive(Clone, Debug)]
pub struct PlanInputs {
    /// Peers currently in the overlay (`n`).
    pub peers: usize,
    /// Overlay depth `Δ` (MIDAS: tree depth; Chord: log₂ of the ring), the
    /// scale of the ripple radius.
    pub delta: u32,
    /// Query-class hint refining the message model.
    pub hint: QueryHint,
}

/// Query-class hint: how strongly sequential state refinement (the slow
/// template's thesis) is expected to prune downstream work.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum QueryHint {
    /// Top-k: a tight `k` makes the threshold τ selective early.
    TopK {
        /// Number of results requested.
        k: usize,
    },
    /// (Constrained) skyline: `selectivity` is the fraction of stored rows
    /// whose blocks intersect the constraint box — see [`box_selectivity`].
    Skyline {
        /// Estimated fraction of rows inside the constraint box, in `[0, 1]`.
        selectivity: f64,
    },
    /// k-diversification (Section 6): single-tuple refinement rounds.
    Diversify,
    /// No query-specific knowledge.
    Generic,
}

impl QueryHint {
    /// Modeled ratio of slow-template to fast-template message volume at
    /// network size `n` — the factor sequential τ-refinement is expected to
    /// shrink (or, at small `n`, inflate) the flood by.
    ///
    /// Calibrated against fig. 4 (NBA, k = 10): `σ(8192) ≈ 0.47`
    /// (374 → 174 messages) and `σ(1024) ≈ 1.26` (14.1 → 17.8 — slow is
    /// *worse* at small n). A log-linear fit through those two points gives
    /// `σ(n) = 3.9 − 0.264·log₂(n)`, clamped to `[0.3, 1.5]`. Hints shift
    /// the baseline: selective queries (small `k`, tight boxes) refine
    /// harder, permissive ones barely refine at all.
    fn slow_shrink(&self, peers: usize) -> f64 {
        let log_n = (peers.max(2) as f64).log2();
        let base = 3.9 - 0.264 * log_n;
        let bias = match self {
            QueryHint::TopK { k } => 0.02 * (*k as f64).max(1.0).log2(),
            QueryHint::Skyline { selectivity } => 0.3 * (selectivity.clamp(0.0, 1.0) - 0.5),
            QueryHint::Diversify => 0.1,
            QueryHint::Generic => 0.0,
        };
        (base + bias).clamp(0.3, 1.5)
    }
}

/// Weights of the normalized cost terms. Messages (the paper's congestion
/// metric, the scalability bottleneck) and wall-clock (what a single-site
/// deployment actually waits for) carry equal weight; hop latency is a
/// mild tiebreaker that orders message-tied ripple radii — matching the
/// paper's framing of `ripple(r)` as trading a little latency for a lot
/// of communication, without letting the latency term veto a mode that
/// wins outright on wall-clock.
#[derive(Clone, Copy, Debug)]
pub struct CostWeights {
    /// Weight of the normalized message cost.
    pub messages: f64,
    /// Weight of the normalized wall-clock cost.
    pub wall: f64,
    /// Weight of the normalized hop-latency cost.
    pub latency: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        CostWeights {
            messages: 1.0,
            wall: 1.0,
            latency: 0.05,
        }
    }
}

/// Cost estimate for one candidate: messages, hop latency, wall-clock ns.
#[derive(Clone, Copy, Debug, Default)]
struct CostTriple {
    messages: f64,
    latency: f64,
    wall_ns: f64,
}

/// The adaptive mode planner. One instance per query class (its ledger
/// assumes the queries it observes are statistically exchangeable).
#[derive(Clone, Debug)]
pub struct Planner {
    stats: QueryStats,
    weights: CostWeights,
    threads: usize,
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new(1)
    }
}

impl Planner {
    /// A planner that hands `threads` workers to the parallel executor for
    /// fast-phase modes (`threads ≤ 1` keeps every run sequential).
    pub fn new(threads: usize) -> Self {
        Planner {
            stats: QueryStats::new(),
            weights: CostWeights::default(),
            threads: threads.max(1),
        }
    }

    /// Overrides the cost weights.
    pub fn with_weights(mut self, weights: CostWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Read access to the ledger.
    pub fn stats(&self) -> &QueryStats {
        &self.stats
    }

    /// The probe candidates for an overlay of depth `delta`, in probe
    /// order, written into a fixed buffer — [`plan`](Self::plan) sits on
    /// every query's critical path, so candidate enumeration must not
    /// allocate.
    fn candidates_into(delta: u32, buf: &mut [PlannedMode; 5]) -> usize {
        let r1 = (delta / 3).max(1);
        let r2 = (2 * delta / 3).max(1);
        let mut n = 0;
        for mode in [
            PlannedMode::Fast,
            PlannedMode::Ripple(r1),
            PlannedMode::Ripple(r2),
            PlannedMode::Slow,
            PlannedMode::Broadcast,
        ] {
            if n == 0 || buf[n - 1] != mode {
                buf[n] = mode;
                n += 1;
            }
        }
        n
    }

    /// The probe candidates for an overlay of depth `delta`, in probe
    /// order. `broadcast` probes last: its message flood is known in
    /// advance, but its per-visit wall-clock profile is not.
    pub fn candidates(delta: u32) -> Vec<PlannedMode> {
        let mut buf = [PlannedMode::Fast; 5];
        let n = Self::candidates_into(delta, &mut buf);
        buf[..n].to_vec()
    }

    /// Chooses the plan for the next query.
    pub fn plan(&self, inputs: &PlanInputs) -> Plan {
        let mut buf = [PlannedMode::Fast; 5];
        let n = Self::candidates_into(inputs.delta, &mut buf);
        let candidates = &buf[..n];
        // Explore: every candidate earns MIN_SAMPLES observations first.
        for &mode in candidates {
            if self.stats.samples(mode) < MIN_SAMPLES {
                return Plan {
                    mode,
                    threads: self.threads_for(mode),
                    source: PlanSource::Probe,
                };
            }
        }
        // Re-explore: every REPROBE_PERIOD-th query refreshes one frontier
        // mode's wall estimate (rotation is keyed off the observation count,
        // so it is deterministic and advances one slot per period).
        let obs = self.stats.observations();
        if obs.is_multiple_of(REPROBE_PERIOD) {
            let mut best_msgs = f64::MAX;
            let mut best_floor = f64::MAX;
            for &m in candidates {
                if let Some(s) = self.stats.mode_stats(m) {
                    best_msgs = best_msgs.min(s.messages.get().unwrap_or(f64::MAX));
                    best_floor = best_floor.min(s.wall_floor_ns);
                }
            }
            let mut frontier = [PlannedMode::Fast; 5];
            let mut fl = 0;
            for &m in candidates {
                if let Some(s) = self.stats.mode_stats(m) {
                    let msgs = s.messages.get().unwrap_or(f64::MAX);
                    if msgs <= FALLBACK_SLACK * best_msgs
                        && s.wall_floor_ns <= REPROBE_WALL_SLACK * best_floor
                    {
                        frontier[fl] = m;
                        fl += 1;
                    }
                }
            }
            // A one-mode frontier has nothing to compare against: the
            // winner below refreshes it on every query anyway.
            if fl >= 2 {
                let mode = frontier[((obs / REPROBE_PERIOD) as usize) % fl];
                return Plan {
                    mode,
                    threads: self.threads_for(mode),
                    source: PlanSource::Probe,
                };
            }
        }
        // Exploit: normalized weighted argmin over the candidates, in a
        // fixed buffer for the same reason as above.
        let mut scored = [(PlannedMode::Fast, CostTriple::default()); 5];
        for (slot, &m) in scored.iter_mut().zip(candidates) {
            *slot = (m, self.cost_of(m, inputs));
        }
        let scored = &scored[..n];
        let tiny = f64::MIN_POSITIVE;
        let min_msg = scored
            .iter()
            .map(|(_, c)| c.messages)
            .fold(f64::MAX, f64::min)
            .max(tiny);
        let min_lat = scored
            .iter()
            .map(|(_, c)| c.latency)
            .fold(f64::MAX, f64::min)
            .max(tiny);
        let min_wall = scored
            .iter()
            .map(|(_, c)| c.wall_ns)
            .fold(f64::MAX, f64::min)
            .max(tiny);
        let w = self.weights;
        let mut winner = scored[0].0;
        let mut winner_msgs = scored[0].1.messages;
        let mut best_score = f64::MAX;
        for (mode, c) in scored {
            let score = w.messages * (c.messages / min_msg)
                + w.wall * (c.wall_ns / min_wall)
                + w.latency * (c.latency / min_lat);
            // Strict `<` keeps ties on the earlier (probe-order) candidate,
            // so the choice is deterministic.
            if score < best_score {
                best_score = score;
                winner = *mode;
                winner_msgs = c.messages;
            }
        }
        // Never much worse (on the congestion metric) than the best mode we
        // have actually *seen*.
        let best_observed = self
            .stats
            .observed_modes()
            .filter_map(|m| m.messages.get().map(|v| (m.mode, v)))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        if let Some((obs_mode, obs_msgs)) = best_observed {
            if winner_msgs > FALLBACK_SLACK * obs_msgs {
                return Plan {
                    mode: obs_mode,
                    threads: self.threads_for(obs_mode),
                    source: PlanSource::Fallback,
                };
            }
        }
        Plan {
            mode: winner,
            threads: self.threads_for(winner),
            source: PlanSource::Model,
        }
    }

    /// Feeds one completed query back into the ledger.
    pub fn observe(
        &mut self,
        mode: PlannedMode,
        metrics: &QueryMetrics,
        result_size: usize,
        wall_ns: u64,
    ) {
        self.stats.observe(
            mode,
            metrics.total_messages(),
            metrics.latency,
            metrics.peers_visited,
            result_size,
            wall_ns,
        );
    }

    /// Observed costs when the mode has samples (message and latency EWMAs,
    /// the wall-clock *floor* — see the module docs on one-sided wall
    /// noise), model estimate otherwise.
    fn cost_of(&self, mode: PlannedMode, inputs: &PlanInputs) -> CostTriple {
        match self.stats.mode_stats(mode) {
            Some(m) if m.messages.count() > 0 => CostTriple {
                messages: m.messages.get().unwrap_or(f64::MAX),
                latency: m.latency.get().unwrap_or(f64::MAX),
                wall_ns: if m.wall_floor_ns.is_finite() {
                    m.wall_floor_ns
                } else {
                    f64::MAX
                },
            },
            _ => self.model_cost(mode, inputs),
        }
    }

    /// Calibrated worst-case cost model (Lemmas 1–3 for latency, the fig. 4
    /// shrink fit for messages, the ledger's visit EWMA for wall-clock).
    fn model_cost(&self, mode: PlannedMode, inputs: &PlanInputs) -> CostTriple {
        let n = inputs.peers.max(1) as f64;
        let delta = inputs.delta.min(60);
        let flood = 2.0 * n; // one query + one response per peer
        let shrink = inputs.hint.slow_shrink(inputs.peers);
        let (messages, hops) = match mode {
            PlannedMode::Broadcast => (flood, latency::fast_worst_case(delta, 0) as f64),
            PlannedMode::Fast => (flood, latency::fast_worst_case(delta, 0) as f64),
            PlannedMode::Slow => (flood * shrink, latency::slow_worst_case(delta, 0) as f64),
            PlannedMode::Ripple(r) => {
                let frac = (r as f64 / delta.max(1) as f64).min(1.0);
                (
                    flood * (1.0 + (shrink - 1.0) * frac),
                    latency::ripple_worst_case(delta, 0, r.min(delta)) as f64,
                )
            }
        };
        let visit = self.stats.visit_ns().unwrap_or(DEFAULT_VISIT_NS);
        CostTriple {
            messages,
            latency: hops,
            // The single-core simulator's wall-clock tracks total local work,
            // i.e. visits — not the hop-latency critical path.
            wall_ns: messages / 2.0 * visit,
        }
    }

    /// `slow` is semantically sequential; everything else may fan out.
    fn threads_for(&self, mode: PlannedMode) -> usize {
        match mode {
            PlannedMode::Slow => 1,
            _ => self.threads,
        }
    }
}

/// Converts a planner decision into an executor mode.
impl From<PlannedMode> for Mode {
    fn from(p: PlannedMode) -> Mode {
        match p {
            PlannedMode::Fast => Mode::Fast,
            PlannedMode::Slow => Mode::Slow,
            PlannedMode::Ripple(r) => Mode::Ripple(r),
            PlannedMode::Broadcast => Mode::Broadcast,
        }
    }
}

/// Converts an executor mode into its ledger key.
impl From<Mode> for PlannedMode {
    fn from(m: Mode) -> PlannedMode {
        match m {
            Mode::Fast => PlannedMode::Fast,
            Mode::Slow => PlannedMode::Slow,
            Mode::Ripple(r) => PlannedMode::Ripple(r),
            Mode::Broadcast => PlannedMode::Broadcast,
        }
    }
}

/// Fraction of stored rows whose *blocks* intersect the box `[lo, hi]` —
/// the planner's box-selectivity estimate, read straight off the block
/// corner metadata (no tuple scan). Upward-biased (a block overlaps when
/// any of its rows might), which is the safe direction for a pruning hint.
pub fn box_selectivity(blocks: &BlockSet, lo: &[f64], hi: &[f64]) -> f64 {
    if blocks.rows() == 0 {
        return 1.0;
    }
    let mut rows = 0usize;
    for b in 0..blocks.num_blocks() {
        let bmin = blocks.block_min(b);
        let bmax = blocks.block_max(b);
        let overlaps = bmin
            .iter()
            .zip(bmax)
            .zip(lo.iter().zip(hi))
            .all(|((&mn, &mx), (&l, &h))| mx >= l && mn <= h);
        if overlaps {
            rows += blocks.block_live(b);
        }
    }
    rows as f64 / blocks.rows() as f64
}

/// Plans, runs and records one query: asks `planner` for a [`Plan`],
/// executes it on `exec` (parallel when the plan says so), feeds the
/// observed cost back into the ledger, and stamps the plan into the
/// outcome's metrics. Everything except the stamp is identical to a static
/// run of the chosen mode — the regression suite pins that bit-for-bit.
pub fn run_planned<O, Q>(
    planner: &mut Planner,
    exec: &Executor<'_, O>,
    initiator: PeerId,
    query: &Q,
    inputs: &PlanInputs,
) -> QueryOutcome<Q::Local>
where
    O: RippleOverlay + Sync,
    O::Region: Send,
    Q: RankQuery<O::Region> + Sync,
    Q::Global: Send + Sync,
    Q::Local: Send,
{
    let plan = planner.plan(inputs);
    let mode: Mode = plan.mode.into();
    let start = Instant::now();
    let mut outcome = if plan.threads > 1 {
        exec.run_parallel(initiator, query, mode, plan.threads)
    } else {
        exec.run(initiator, query, mode)
    };
    let wall_ns = start.elapsed().as_nanos() as u64;
    planner.observe(plan.mode, &outcome.metrics, outcome.answers.len(), wall_ns);
    outcome.metrics.plan = Some(plan);
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topk::TopKQuery;
    use ripple_geom::{LinearScore, Tuple};
    use ripple_midas::MidasNetwork;
    use ripple_net::rng::rngs::SmallRng;
    use ripple_net::rng::{Rng, SeedableRng};
    use ripple_net::Substrate;

    fn inputs(peers: usize, delta: u32) -> PlanInputs {
        PlanInputs {
            peers,
            delta,
            hint: QueryHint::TopK { k: 10 },
        }
    }

    /// Synthetic observation with the given per-query costs.
    fn feed(p: &mut Planner, mode: PlannedMode, msgs: u64, lat: u64, wall_us: u64) {
        let mut m = QueryMetrics::new();
        m.query_messages = msgs / 2;
        m.response_messages = msgs - msgs / 2;
        m.latency = lat;
        m.peers_visited = (msgs / 2).max(1);
        p.observe(mode, &m, 10, wall_us * 1_000);
    }

    #[test]
    fn candidates_are_deduped_and_probe_ordered() {
        assert_eq!(
            Planner::candidates(9),
            vec![
                PlannedMode::Fast,
                PlannedMode::Ripple(3),
                PlannedMode::Ripple(6),
                PlannedMode::Slow,
                PlannedMode::Broadcast
            ]
        );
        // Δ = 1 collapses both ripple radii to 1.
        assert_eq!(
            Planner::candidates(1),
            vec![
                PlannedMode::Fast,
                PlannedMode::Ripple(1),
                PlannedMode::Slow,
                PlannedMode::Broadcast
            ]
        );
    }

    #[test]
    fn explore_probes_each_candidate_once_in_order() {
        let mut p = Planner::new(1);
        let inp = inputs(512, 9);
        for &expect in &Planner::candidates(9) {
            let plan = p.plan(&inp);
            assert_eq!(plan.source, PlanSource::Probe);
            assert_eq!(plan.mode, expect);
            feed(&mut p, plan.mode, 100, 9, 500);
        }
        // Ledger complete: next plan is no longer a probe.
        assert_ne!(p.plan(&inp).source, PlanSource::Probe);
    }

    #[test]
    fn exploit_matches_fig4_at_both_network_sizes() {
        // fig. 4, n = 8192 shape: ripple(Δ/3) matches slow's messages at a
        // fraction of its latency — the weighted argmin must pick it.
        let mut p = Planner::new(1);
        feed(&mut p, PlannedMode::Fast, 374, 9, 3740);
        feed(&mut p, PlannedMode::Ripple(4), 175, 42, 1750);
        feed(&mut p, PlannedMode::Ripple(8), 174, 52, 1740);
        feed(&mut p, PlannedMode::Slow, 174, 61, 1740);
        feed(&mut p, PlannedMode::Broadcast, 16384, 9, 163_840);
        let plan = p.plan(&inputs(8192, 13));
        assert_eq!(plan.source, PlanSource::Model);
        assert_eq!(plan.mode, PlannedMode::Ripple(4));

        // fig. 4, n = 1024 shape: fast wins both metrics outright.
        let mut p = Planner::new(1);
        feed(&mut p, PlannedMode::Fast, 14, 7, 140);
        feed(&mut p, PlannedMode::Ripple(3), 18, 25, 180);
        feed(&mut p, PlannedMode::Ripple(6), 18, 31, 180);
        feed(&mut p, PlannedMode::Slow, 18, 38, 180);
        feed(&mut p, PlannedMode::Broadcast, 2048, 7, 20_480);
        let plan = p.plan(&inputs(1024, 10));
        assert_eq!(plan.source, PlanSource::Model);
        assert_eq!(plan.mode, PlannedMode::Fast);
    }

    #[test]
    fn fallback_pins_message_best_observed_mode() {
        // Wall-clock lies (fast looks cheap on wall), but its messages are
        // far above the best observed — fallback must refuse the winner if
        // the weighted score would otherwise cross the slack bound.
        let mut p = Planner::new(1).with_weights(CostWeights {
            messages: 0.0,
            wall: 1.0,
            latency: 1.0,
        });
        feed(&mut p, PlannedMode::Fast, 400, 9, 10);
        feed(&mut p, PlannedMode::Ripple(4), 170, 42, 1700);
        feed(&mut p, PlannedMode::Ripple(8), 171, 52, 1710);
        feed(&mut p, PlannedMode::Slow, 172, 61, 1720);
        feed(&mut p, PlannedMode::Broadcast, 16384, 9, 163_840);
        let plan = p.plan(&inputs(8192, 13));
        assert_eq!(plan.source, PlanSource::Fallback);
        assert_eq!(plan.mode, PlannedMode::Ripple(4));
    }

    #[test]
    fn broadcast_probes_last_and_loses_on_topk_shapes() {
        let mut p = Planner::new(1);
        let inp = inputs(512, 9);
        for &mode in &Planner::candidates(9) {
            let plan = p.plan(&inp);
            assert_eq!(plan.source, PlanSource::Probe);
            assert_eq!(plan.mode, mode);
            // Broadcast's probe observes its 2n flood and a proportional
            // wall; the tree modes share a cheap profile.
            if mode == PlannedMode::Broadcast {
                feed(&mut p, mode, 1024, 12, 10_240);
            } else {
                feed(&mut p, mode, 120, 12, 600);
            }
        }
        for _ in 0..32 {
            let plan = p.plan(&inp);
            assert_ne!(plan.mode, PlannedMode::Broadcast);
            feed(&mut p, plan.mode, 120, 12, 600);
        }
        assert_eq!(p.stats().samples(PlannedMode::Broadcast), 1);
    }

    #[test]
    fn broadcast_wins_on_wall_dominant_shapes_within_message_slack() {
        // fig. 9 shape (unconstrained skyline): every mode floods — the
        // tree walks carry huge intermediate state, broadcast's flat
        // propagation is ~10x cheaper on wall at ~8% more messages. The
        // planner must pick broadcast, and the fallback must not veto it
        // (8% < FALLBACK_SLACK).
        let mut p = Planner::new(1);
        feed(&mut p, PlannedMode::Fast, 117, 6, 2070);
        feed(&mut p, PlannedMode::Ripple(3), 139, 30, 600);
        feed(&mut p, PlannedMode::Ripple(6), 139, 40, 620);
        feed(&mut p, PlannedMode::Slow, 139, 46, 610);
        feed(&mut p, PlannedMode::Broadcast, 127, 6, 210);
        let plan = p.plan(&inputs(512, 9));
        assert_eq!(plan.source, PlanSource::Model);
        assert_eq!(plan.mode, PlannedMode::Broadcast);
    }

    #[test]
    fn reprobe_corrects_a_spiked_probe_wall() {
        // Slow is truly the wall-cheapest of the message-tied modes, but
        // its probe sample catches a scheduler spike. Winner-only
        // exploitation would freeze that estimate forever; the periodic
        // frontier re-probe must refresh it and flip the winner to slow.
        let mut p = Planner::new(1);
        let inp = inputs(512, 9);
        let truth = |m: PlannedMode| match m {
            PlannedMode::Fast => (200, 6, 500),
            PlannedMode::Ripple(3) => (120, 20, 600),
            PlannedMode::Ripple(6) => (120, 30, 610),
            PlannedMode::Slow => (120, 40, 300),
            _ => (1024, 6, 10_240),
        };
        let mut slow_probed = false;
        for round in 0..64u64 {
            let plan = p.plan(&inp);
            let (msgs, lat, mut wall) = truth(plan.mode);
            if plan.mode == PlannedMode::Slow && !slow_probed {
                wall = 1_900; // the spike: >6x slow's true wall
                slow_probed = true;
            }
            // Within a few re-probe rotations the floor is corrected and
            // every model decision from then on picks slow.
            if round >= 24 && plan.source == PlanSource::Model {
                assert_eq!(plan.mode, PlannedMode::Slow, "round {round}");
            }
            feed(&mut p, plan.mode, msgs, lat, wall);
        }
        let slow = p.stats().mode_stats(PlannedMode::Slow).expect("observed");
        assert_eq!(slow.wall_floor_ns, 300_000.0, "floor recovered the truth");
    }

    #[test]
    fn reprobe_stays_inside_the_message_and_wall_frontier() {
        // fig. 9 shape: broadcast wins, fast is message-competitive but
        // ~10x worse on wall. Fast must not be re-probed — bleeding a 10x
        // wall round every re-probe period would forfeit the wall win —
        // and the message-expensive tree modes must not be either.
        let mut p = Planner::new(1);
        let inp = inputs(512, 9);
        for &mode in &Planner::candidates(9) {
            let plan = p.plan(&inp);
            assert_eq!(plan.source, PlanSource::Probe);
            match mode {
                PlannedMode::Fast => feed(&mut p, mode, 117, 6, 2070),
                PlannedMode::Broadcast => feed(&mut p, mode, 127, 6, 210),
                m => feed(&mut p, m, 139, 30, 610),
            }
        }
        for round in 0..40 {
            let plan = p.plan(&inp);
            assert_eq!(plan.mode, PlannedMode::Broadcast, "round {round}");
            assert_eq!(plan.source, PlanSource::Model, "round {round}");
            feed(&mut p, plan.mode, 127, 6, 210);
        }
    }

    #[test]
    fn slow_plans_are_sequential_fast_plans_fan_out() {
        let p = Planner::new(4);
        assert_eq!(p.threads_for(PlannedMode::Slow), 1);
        assert_eq!(p.threads_for(PlannedMode::Fast), 4);
        assert_eq!(p.threads_for(PlannedMode::Ripple(2)), 4);
    }

    #[test]
    fn box_selectivity_counts_overlapping_block_rows() {
        use ripple_geom::KernelDispatch;
        let tuples: Vec<Tuple> = (0..600u64)
            .map(|i| Tuple::new(i, vec![i as f64 / 600.0, 0.5]))
            .collect();
        let blocks = ripple_net::BlockSet::build(&tuples, 0, KernelDispatch::Auto);
        let all = box_selectivity(&blocks, &[0.0, 0.0], &[1.0, 1.0]);
        assert!((all - 1.0).abs() < 1e-12);
        let none = box_selectivity(&blocks, &[2.0, 2.0], &[3.0, 3.0]);
        assert_eq!(none, 0.0);
        let some = box_selectivity(&blocks, &[0.0, 0.0], &[0.2, 1.0]);
        assert!(some > 0.0 && some < 1.0, "partial overlap, got {some}");
    }

    #[test]
    fn planned_runs_are_bit_identical_to_static_runs() {
        let mut rng = SmallRng::seed_from_u64(77);
        let mut net = MidasNetwork::build(2, 24, false, &mut rng);
        for i in 0..1200u64 {
            let p = vec![rng.gen::<f64>(), rng.gen::<f64>()];
            net.insert_tuple(Tuple::new(i, p));
        }
        let exec = Executor::new(&net);
        let mut planner = Planner::new(1);
        let inp = PlanInputs {
            peers: net.peer_count(),
            delta: net.delta(),
            hint: QueryHint::TopK { k: 8 },
        };
        let query = TopKQuery::new(LinearScore::uniform(2), 8);
        let initiator = net.random_peer(&mut rng);
        for round in 0..12 {
            let planned = run_planned(&mut planner, &exec, initiator, &query, &inp);
            let plan = planned.metrics.plan.clone().expect("plan stamped");
            let modes: Mode = plan.mode.into();
            let fixed = exec.run(initiator, &query, modes);
            assert_eq!(planned.answers, fixed.answers, "round {round}");
            assert_eq!(planned.metrics, fixed.metrics, "round {round}");
            assert_eq!(
                planned.coverage.answered_fraction,
                fixed.coverage.answered_fraction
            );
            assert!(fixed.metrics.plan.is_none(), "static runs carry no plan");
        }
        assert!(planner.stats().observations() >= 12);
    }

    #[test]
    fn mode_conversions_round_trip() {
        for mode in [Mode::Fast, Mode::Slow, Mode::Ripple(5), Mode::Broadcast] {
            let planned: PlannedMode = mode.into();
            let back: Mode = planned.into();
            assert_eq!(back, mode);
        }
    }
}
