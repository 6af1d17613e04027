//! `ripple-serve`: the multi-tenant front door as a process.
//!
//! A thin wire layer over [`ripple_core::QueryService`]: newline-delimited
//! JSON requests in, newline-delimited JSON responses out (the
//! `ripple-serve` binary pipes stdin/stdout through a [`Session`]). The
//! protocol is deliberately tiny — this is the demo skin over the serving
//! plane, not a network server; the scheduler, epoch handshake and result
//! cache all live in `ripple-core`.
//!
//! ```text
//! {"op":"topk","tenant":0,"k":3,"weights":[1.0,0.5]}
//! {"op":"topk","k":5,"peak":[0.3,0.6],"norm":"l2","mode":"slow"}
//! {"op":"skyline","constraint":{"lo":[0.2,0.2],"hi":[0.9,0.9]}}
//! {"op":"churn","kind":"join"}
//! {"op":"stats"}
//! ```

#![warn(missing_docs)]

pub mod json;

use json::{escape, parse, Json};
use ripple_core::framework::Mode;
use ripple_core::service::{QueryService, ServiceConfig, ServiceError, ServiceQuery, ServiceScore};
use ripple_geom::{Norm, Rect, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::Substrate;

/// One serving session: a seeded MIDAS overlay behind a [`QueryService`],
/// speaking the line protocol.
pub struct Session {
    service: QueryService<MidasNetwork>,
    rng: SmallRng,
    dims: usize,
    next_insert_id: u64,
}

impl Session {
    /// Builds a `dims`-dimensional overlay of `peers` peers loaded with
    /// `tuples` uniform tuples, and wraps it in a service.
    pub fn new(dims: usize, peers: usize, tuples: u64, seed: u64, config: ServiceConfig) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut net = MidasNetwork::build(dims, peers, false, &mut rng);
        for i in 0..tuples {
            let p: Vec<f64> = (0..dims).map(|_| rng.gen()).collect();
            net.insert_tuple(Tuple::new(i, p));
        }
        Self {
            service: QueryService::new(net, config),
            rng,
            dims,
            next_insert_id: tuples,
        }
    }

    /// The wrapped service (for tests and embedding).
    pub fn service(&self) -> &QueryService<MidasNetwork> {
        &self.service
    }

    /// Handles one request line, returning one response line (no trailing
    /// newline). Malformed input never panics: it becomes an `"ok":false`
    /// response.
    pub fn handle_line(&mut self, line: &str) -> String {
        match self.dispatch(line) {
            Ok(resp) => resp,
            Err(msg) => format!("{{\"ok\":false,\"error\":\"{}\"}}", escape(&msg)),
        }
    }

    fn dispatch(&mut self, line: &str) -> Result<String, String> {
        let req = parse(line)?;
        let op = req
            .get("op")
            .and_then(Json::as_str)
            .ok_or("missing \"op\"")?;
        match op {
            "topk" | "skyline" => self.query(&req),
            "churn" => self.churn(&req),
            "stats" => Ok(self.stats()),
            other => Err(format!("unknown op {other:?}")),
        }
    }

    fn query(&mut self, req: &Json) -> Result<String, String> {
        let query = parse_query(req)?;
        let mode = parse_mode(req)?;
        let tenant = req.get("tenant").and_then(Json::as_usize).unwrap_or(0) as u32;
        let initiator = self
            .service
            .with_network(|net| net.random_peer(&mut self.rng));
        let ticket = self
            .service
            .submit(tenant, initiator, query, mode)
            .map_err(|e| e.to_string())?;
        let resp = match ticket.wait() {
            Ok(resp) => resp,
            Err(ServiceError::Shutdown) => return Err("service shut down".into()),
            Err(e) => return Err(e.to_string()),
        };
        let answers: Vec<String> = resp
            .answers
            .iter()
            .map(|t| {
                let coords: Vec<String> = t.point.coords().iter().map(|c| format!("{c}")).collect();
                format!("{{\"id\":{},\"point\":[{}]}}", t.id, coords.join(","))
            })
            .collect();
        Ok(format!(
            "{{\"ok\":true,\"generation\":{},\"cache_hit\":{},\"queue_wait_ns\":{},\
             \"messages\":{},\"certified\":{},\"answers\":[{}]}}",
            resp.generation,
            resp.cache_hit,
            resp.metrics.queue_wait_ns,
            resp.metrics.total_messages(),
            resp.certificate.is_some(),
            answers.join(",")
        ))
    }

    fn churn(&mut self, req: &Json) -> Result<String, String> {
        let kind = req
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing \"kind\"")?;
        let rng = &mut self.rng;
        let generation = match kind {
            "join" => {
                self.service.advance_epoch(|net| net.join_random(rng));
                self.service.generation()
            }
            "insert" => {
                let point = match req.get("point").and_then(Json::as_f64_vec) {
                    Some(p) => p,
                    None => (0..self.dims).map(|_| rng.gen()).collect(),
                };
                let id = self.next_insert_id;
                self.next_insert_id += 1;
                self.service
                    .advance_epoch(|net| net.insert_tuple(Tuple::new(id, point)));
                self.service.generation()
            }
            other => return Err(format!("unknown churn kind {other:?}")),
        };
        Ok(format!("{{\"ok\":true,\"generation\":{generation}}}"))
    }

    fn stats(&self) -> String {
        let s = self.service.stats();
        format!(
            "{{\"ok\":true,\"generation\":{},\"admitted\":{},\"rejected\":{},\
             \"completed\":{},\"cache_hits\":{},\"cache_invalidated\":{},\"queued\":{}}}",
            self.service.generation(),
            s.admitted,
            s.rejected,
            s.completed,
            s.cache_hits,
            s.cache_invalidated,
            self.service.queue_len()
        )
    }
}

fn parse_query(req: &Json) -> Result<ServiceQuery, String> {
    match req.get("op").and_then(Json::as_str) {
        Some("topk") => {
            let k = req
                .get("k")
                .and_then(Json::as_usize)
                .filter(|&k| k > 0)
                .ok_or("top-k needs a positive \"k\"")?;
            let score = if let Some(w) = req.get("weights").and_then(Json::as_f64_vec) {
                ServiceScore::Linear(w)
            } else if let Some(p) = req.get("peak").and_then(Json::as_f64_vec) {
                let norm = match req.get("norm").and_then(Json::as_str).unwrap_or("l2") {
                    "l1" => Norm::L1,
                    "l2" => Norm::L2,
                    "linf" => Norm::Linf,
                    other => return Err(format!("unknown norm {other:?}")),
                };
                ServiceScore::Peak(p, norm)
            } else {
                return Err("top-k needs \"weights\" or \"peak\"".into());
            };
            Ok(ServiceQuery::TopK { score, k })
        }
        Some("skyline") => {
            let constraint = match req.get("constraint") {
                None => None,
                Some(c) => {
                    let lo = c
                        .get("lo")
                        .and_then(Json::as_f64_vec)
                        .ok_or("constraint needs \"lo\"")?;
                    let hi = c
                        .get("hi")
                        .and_then(Json::as_f64_vec)
                        .ok_or("constraint needs \"hi\"")?;
                    if lo.len() != hi.len() {
                        return Err("constraint lo/hi dimensionality mismatch".into());
                    }
                    Some(Rect::new(lo, hi))
                }
            };
            Ok(ServiceQuery::Skyline { constraint })
        }
        _ => Err("unknown query op".into()),
    }
}

fn parse_mode(req: &Json) -> Result<Mode, String> {
    match req.get("mode").and_then(Json::as_str) {
        None | Some("fast") => Ok(Mode::Fast),
        Some("slow") => Ok(Mode::Slow),
        Some("broadcast") => Ok(Mode::Broadcast),
        Some("ripple") => {
            let r = req.get("radius").and_then(Json::as_usize).unwrap_or(2);
            Ok(Mode::Ripple(r.max(1) as u32))
        }
        Some(other) => Err(format!("unknown mode {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn session() -> Session {
        Session::new(2, 32, 300, 7, ServiceConfig::default())
    }

    #[test]
    fn topk_request_roundtrip() {
        let mut s = session();
        let resp = s.handle_line(r#"{"op":"topk","tenant":1,"k":3,"weights":[1.0,0.5]}"#);
        let v = parse(&resp).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("answers").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("certified"), Some(&Json::Bool(true)));
        // A repeat of the same shape is a cache hit.
        let resp = s.handle_line(r#"{"op":"topk","tenant":2,"k":3,"weights":[1.0,0.5]}"#);
        let v = parse(&resp).unwrap();
        assert_eq!(v.get("cache_hit"), Some(&Json::Bool(true)));
        assert_eq!(v.get("messages"), Some(&Json::Num(0.0)));
    }

    #[test]
    fn skyline_peak_and_modes() {
        let mut s = session();
        for line in [
            r#"{"op":"skyline"}"#,
            r#"{"op":"skyline","constraint":{"lo":[0.2,0.2],"hi":[0.9,0.9]},"mode":"slow"}"#,
            r#"{"op":"topk","k":5,"peak":[0.3,0.6],"norm":"l1","mode":"ripple","radius":2}"#,
            r#"{"op":"topk","k":5,"peak":[0.3,0.6],"mode":"broadcast"}"#,
        ] {
            let v = parse(&s.handle_line(line)).unwrap();
            assert_eq!(v.get("ok"), Some(&Json::Bool(true)), "{line}");
        }
    }

    #[test]
    fn churn_bumps_generation_and_invalidates() {
        let mut s = session();
        let v = parse(&s.handle_line(r#"{"op":"topk","k":2,"weights":[1.0,1.0]}"#)).unwrap();
        let g0 = v.get("generation").unwrap().as_f64().unwrap();
        let v = parse(&s.handle_line(r#"{"op":"churn","kind":"join"}"#)).unwrap();
        assert!(v.get("generation").unwrap().as_f64().unwrap() > g0);
        let v = parse(&s.handle_line(r#"{"op":"topk","k":2,"weights":[1.0,1.0]}"#)).unwrap();
        assert_eq!(v.get("cache_hit"), Some(&Json::Bool(false)));
        let v =
            parse(&s.handle_line(r#"{"op":"churn","kind":"insert","point":[0.5,0.5]}"#)).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let v = parse(&s.handle_line(r#"{"op":"stats"}"#)).unwrap();
        assert_eq!(v.get("admitted"), Some(&Json::Num(2.0)));
        assert_eq!(v.get("completed"), Some(&Json::Num(2.0)));
    }

    #[test]
    fn malformed_requests_answer_instead_of_panicking() {
        let mut s = session();
        for line in [
            "",
            "not json",
            r#"{"op":"nope"}"#,
            r#"{"op":"topk"}"#,
            r#"{"op":"topk","k":0,"weights":[1.0,1.0]}"#,
            r#"{"op":"topk","k":3,"weights":[1.0],"mode":"warp"}"#,
            r#"{"op":"skyline","constraint":{"lo":[0.1]}}"#,
            r#"{"op":"churn","kind":"meteor"}"#,
        ] {
            let v = parse(&s.handle_line(line)).unwrap();
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "{line:?}");
            assert!(v.get("error").is_some(), "{line:?}");
        }
    }
}
