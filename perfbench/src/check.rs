//! Correctness checks: every certificate through `ripple-verify`, and a
//! seeded sample of answers against the centralized oracles.

use crate::run::div_best;
use ripple_core::service::{ServiceQuery, ServiceScore};
use ripple_core::skyline::centralized_skyline;
use ripple_core::topk::centralized_topk;
use ripple_core::Coverage;
use ripple_geom::{DiversityQuery, LinearScore, PeakScore, Rect, Tuple};
use ripple_verify::{verify_coverage, verify_diversify, verify_skyline, verify_topk, Certificate};

/// A scoring function the benchmark asks for.
#[derive(Clone, Debug)]
pub enum Score {
    /// A unimodal peak score.
    Peak(PeakScore),
    /// A linear score.
    Linear(LinearScore),
}

/// What a query asked for: enough to verify and to recompute its answer.
#[derive(Clone, Debug)]
pub enum Ask {
    /// Top-k under a score.
    TopK {
        /// The score.
        score: Score,
        /// Results requested.
        k: usize,
    },
    /// Skyline, optionally constrained to a box.
    Skyline {
        /// The constraint box.
        constraint: Option<Rect>,
    },
    /// Single-tuple diversification.
    Div {
        /// Query point, λ and norms.
        div: DiversityQuery,
        /// The current set `O`.
        set: Vec<Tuple>,
        /// The initial threshold.
        tau: f64,
    },
}

impl Ask {
    /// The ask behind a wire-form service query.
    pub fn of_service(query: &ServiceQuery) -> Ask {
        match query {
            ServiceQuery::TopK { score, k } => Ask::TopK {
                score: match score {
                    ServiceScore::Linear(w) => Score::Linear(LinearScore::new(w.clone())),
                    ServiceScore::Peak(p, norm) => Score::Peak(PeakScore::new(p.clone(), *norm)),
                },
                k: *k,
            },
            ServiceQuery::Skyline { constraint } => Ask::Skyline {
                constraint: constraint.clone(),
            },
        }
    }
}

/// Checks a response's certificate against the generation the response
/// claims: the query-type verifier plus the coverage check. `answers` is
/// the final answer (for diversification, the raw candidate stream).
pub fn verify(
    ask: &Ask,
    answers: &[Tuple],
    coverage: &Coverage,
    cert: Option<&Certificate>,
    generation: u64,
) -> Result<(), String> {
    let cert = cert.ok_or("no certificate")?;
    verify_coverage(cert, coverage.answered_fraction, &coverage.unreachable)
        .map_err(|e| format!("coverage: {e:?}"))?;
    let checked = match ask {
        Ask::TopK {
            score: Score::Peak(s),
            k,
        } => verify_topk(cert, answers, s, *k, generation),
        Ask::TopK {
            score: Score::Linear(s),
            k,
        } => verify_topk(cert, answers, s, *k, generation),
        Ask::Skyline { constraint } => {
            verify_skyline(cert, answers, constraint.as_ref(), generation)
        }
        Ask::Div { div, set, tau } => verify_diversify(cert, answers, div, set, *tau, generation),
    };
    checked.map_err(|e| format!("{e:?}"))
}

/// What every correct execution of the query must agree on, rendered
/// exactly (`Debug` prints every float bit). For top-k and skyline that is
/// the final answer. For single-tuple diversification it is the least
/// insertion score φ only: a region whose φ lower bound equals the
/// threshold is pruned, so among tuples that tie on the least φ any one
/// may be returned.
pub fn canonical(ask: &Ask, answers: &[Tuple]) -> String {
    match ask {
        Ask::Div { div, set, tau } => {
            format!(
                "{:?}",
                div_best(div, set, *tau, answers).map(|(_, phi)| phi)
            )
        }
        _ => format!("{answers:?}"),
    }
}

/// [`canonical`] of a lone centralized evaluation over `tuples`.
pub fn oracle(ask: &Ask, tuples: &[Tuple]) -> String {
    match ask {
        Ask::TopK {
            score: Score::Peak(s),
            k,
        } => canonical(ask, &centralized_topk(tuples, s, *k)),
        Ask::TopK {
            score: Score::Linear(s),
            k,
        } => canonical(ask, &centralized_topk(tuples, s, *k)),
        Ask::Skyline { constraint } => {
            let inside: Vec<Tuple> = tuples
                .iter()
                .filter(|t| constraint.as_ref().is_none_or(|c| c.contains(&t.point)))
                .cloned()
                .collect();
            canonical(ask, &centralized_skyline(&inside))
        }
        // Every stored tuple is a candidate.
        Ask::Div { .. } => canonical(ask, tuples),
    }
}

/// Compares a final answer with an [`oracle`] result.
pub fn against(ask: &Ask, answers: &[Tuple], want: &str) -> Result<(), String> {
    let got = canonical(ask, answers);
    if got == want {
        Ok(())
    } else {
        Err(format!(
            "answer differs from the centralized oracle: got {got}, want {want}"
        ))
    }
}
