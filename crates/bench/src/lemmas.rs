//! The Lemma 1–3 latency table (Section 3.2) and its empirical validation.
//!
//! Analytic part: evaluates the worst-case recurrences for the paper's
//! overlay depths. Empirical part: drives broadcast-style queries through
//! real MIDAS overlays and checks the measured latencies against the
//! bounds (`fast ≤ Δ`, `slow ≤ 2^Δ − 1`, `ripple(r) ≤ L_r(0, r)`).

use ripple_core::framework::{Mode, Unprioritized};
use ripple_core::latency::{fast_worst_case, ripple_worst_case, slow_worst_case};
use ripple_core::topk::TopKQuery;
use ripple_core::Executor;
use ripple_data::synth::{self, SynthConfig};
use ripple_geom::LinearScore;
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::SeedableRng;
use ripple_net::Substrate;
use std::fmt::Write as _;

/// Renders the analytic worst-case table for depths `Δ ∈ [4, 17]`.
pub fn analytic_table() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Lemmas 1-3: worst-case latency over MIDAS (δ = 0) =="
    );
    let _ = writeln!(
        out,
        "  {:>3} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "Δ", "fast (L1)", "r=1", "r=2", "r=3", "slow (L2)"
    );
    for delta in 4..=17u32 {
        let _ = writeln!(
            out,
            "  {:>3} {:>10} {:>10} {:>10} {:>10} {:>12}",
            delta,
            fast_worst_case(delta, 0),
            ripple_worst_case(delta, 0, 1),
            ripple_worst_case(delta, 0, 2),
            ripple_worst_case(delta, 0, 3),
            slow_worst_case(delta, 0),
        );
    }
    out
}

/// Result of the empirical bound check.
pub struct EmpiricalCheck {
    /// Overlay depth Δ.
    pub delta: u32,
    /// Measured max latency and analytic bound per mode label.
    pub rows: Vec<(String, u64, u64)>,
}

/// Runs exhaustive-ish queries on a real overlay and reports measured
/// maxima against the analytic bounds.
pub fn empirical_check(peers: usize, queries: usize, seed: u64) -> EmpiricalCheck {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut net = MidasNetwork::build(2, peers, false, &mut rng);
    let data = synth::generate(&SynthConfig::scaled(2, peers * 4), &mut rng);
    net.insert_all(data);
    let delta = net.delta();

    // a k large enough that no pruning occurs — worst-case propagation;
    // queries run through the bare executor (the Lemma accounting covers
    // processing only, not the initial peak lookup run_topk performs)
    let k_all = peers * 8;
    let modes: Vec<(String, Mode, u64)> = vec![
        ("fast".into(), Mode::Fast, fast_worst_case(delta, 0)),
        (
            "ripple(1)".into(),
            Mode::Ripple(1),
            ripple_worst_case(delta, 0, 1),
        ),
        (
            "ripple(2)".into(),
            Mode::Ripple(2),
            ripple_worst_case(delta, 0, 2),
        ),
        ("slow".into(), Mode::Slow, slow_worst_case(delta, 0)),
    ];
    let rows = modes
        .into_iter()
        .map(|(label, mode, bound)| {
            let mut worst = 0u64;
            for _ in 0..queries {
                let initiator = net.random_peer(&mut rng);
                let query = Unprioritized(TopKQuery::new(LinearScore::uniform(2), k_all));
                let out = Executor::new(&net).run(initiator, &query, mode);
                worst = worst.max(out.metrics.latency);
            }
            (label, worst, bound)
        })
        .collect();
    EmpiricalCheck { delta, rows }
}

/// Renders the empirical check.
pub fn render_empirical(check: &EmpiricalCheck) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "\n== empirical worst case (unprunable top-k, Δ = {}) ==",
        check.delta
    );
    let _ = writeln!(
        out,
        "  {:>10} {:>14} {:>14}",
        "mode", "measured max", "bound"
    );
    for (label, measured, bound) in &check.rows {
        let ok = measured <= bound;
        let _ = writeln!(
            out,
            "  {:>10} {:>14} {:>14}  {}",
            label,
            measured,
            bound,
            if ok { "≤ ok" } else { "VIOLATED" }
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analytic_table_renders() {
        let t = analytic_table();
        assert!(t.contains("Δ"));
        // Δ=17 slow bound is 2^17 − 1
        assert!(t.contains("131071"));
    }

    #[test]
    fn empirical_latencies_respect_bounds() {
        let check = empirical_check(64, 12, 99);
        for (label, measured, bound) in &check.rows {
            assert!(
                measured <= bound,
                "{label}: measured {measured} exceeds analytic bound {bound}"
            );
        }
        let rendered = render_empirical(&check);
        assert!(!rendered.contains("VIOLATED"));
    }
}
