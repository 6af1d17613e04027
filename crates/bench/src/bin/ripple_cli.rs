//! `ripple-cli` — build an overlay, load a dataset, pose rank queries.
//!
//! A single-shot command-line front end over the library, for exploring
//! RIPPLE's behaviour without writing code:
//!
//! ```text
//! ripple_cli --peers 1024 --dataset nba topk --k 10 --mode fast
//! ripple_cli --peers 512 --dataset synth --dims 3 skyline --mode slow
//! ripple_cli --peers 512 --dataset mirflickr diversify --k 8 --lambda 0.5
//! ripple_cli --peers 256 --dataset synth --dims 2 range --lo 0.2,0.3 --hi 0.6,0.7
//! ripple_cli --peers 1024 --dataset nba stats
//! ```
//!
//! Every run prints the answer, the cost ledger (hops, peers processed,
//! messages, tuples shipped) and — where one exists — a centralized oracle
//! check.

use ripple_core::diversify::{diversify, Initialize};
use ripple_core::framework::Mode;
use ripple_core::range::run_range;
use ripple_core::skyline::{centralized_skyline, run_skyline};
use ripple_core::topk::{centralized_topk, run_topk};
use ripple_data::synth::SynthConfig;
use ripple_data::{mirflickr, nba, synth};
use ripple_geom::{DiversityQuery, Norm, PeakScore, Point, Rect, ScoreFn, Tuple};
use ripple_midas::MidasNetwork;
use ripple_net::rng::rngs::SmallRng;
use ripple_net::rng::{Rng, SeedableRng};
use ripple_net::{Distribution, QueryMetrics, Substrate};

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parse<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        self.flag(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }

    fn subcommand(&self) -> Option<&str> {
        // the first non-flag, non-flag-value token
        let mut skip = false;
        for a in &self.0 {
            if skip {
                skip = false;
                continue;
            }
            if a.starts_with("--") {
                skip = true;
                continue;
            }
            return Some(a);
        }
        None
    }
}

fn parse_point(s: &str) -> Point {
    Point::new(
        s.split(',')
            .map(|c| {
                c.trim()
                    .parse::<f64>()
                    .unwrap_or_else(|_| die("bad coordinate"))
            })
            .collect::<Vec<_>>(),
    )
}

fn parse_mode(s: &str) -> Mode {
    match s {
        "fast" => Mode::Fast,
        "slow" => Mode::Slow,
        "broadcast" => Mode::Broadcast,
        other => match other.strip_prefix("ripple:").and_then(|r| r.parse().ok()) {
            Some(r) => Mode::Ripple(r),
            None => die("mode must be fast|slow|broadcast|ripple:<r>"),
        },
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: ripple_cli [--peers N] [--dataset nba|mirflickr|synth] [--dims D] \
         [--records N] [--seed S] <topk|skyline|diversify|range|stats> \
         [--k K] [--mode fast|slow|broadcast|ripple:R] [--lambda L] \
         [--peak x,y,..] [--lo x,y,..] [--hi x,y,..]"
    );
    std::process::exit(2)
}

fn report(metrics: &QueryMetrics) {
    println!(
        "cost: {} hops latency, {} peers processed, {} messages ({} query + {} response), {} tuples shipped",
        metrics.latency,
        metrics.peers_visited,
        metrics.total_messages(),
        metrics.query_messages,
        metrics.response_messages,
        metrics.tuples_transferred
    );
}

fn main() {
    let args = Args(std::env::args().skip(1).collect());
    let Some(cmd) = args.subcommand() else {
        die("missing subcommand")
    };
    let cmd = cmd.to_string();

    let peers: usize = args.parse("--peers", 512);
    let seed: u64 = args.parse("--seed", 7);
    let dataset = args.flag("--dataset").unwrap_or("synth").to_string();
    let records: usize = args.parse("--records", 20_000);
    let mut rng = SmallRng::seed_from_u64(seed);

    let (data, dims): (Vec<Tuple>, usize) = match dataset.as_str() {
        "nba" => (nba::paper(&mut rng), nba::DIMS),
        "mirflickr" => (mirflickr::generate(records, &mut rng), mirflickr::DIMS),
        "synth" => {
            let dims: usize = args.parse("--dims", 2);
            (
                synth::generate(&SynthConfig::scaled(dims, records), &mut rng),
                dims,
            )
        }
        _ => die("dataset must be nba|mirflickr|synth"),
    };

    eprintln!(
        "building a {peers}-peer MIDAS overlay over {} {dims}-d tuples…",
        data.len()
    );
    let mut net = MidasNetwork::new(dims, true);
    net.insert_all(data.iter().cloned());
    while net.peer_count() < peers {
        let at = data[rng.gen_range(0..data.len())].point.clone();
        net.join(&at);
    }
    let initiator = net.random_peer(&mut rng);
    let mode = parse_mode(args.flag("--mode").unwrap_or("fast"));
    let k: usize = args.parse("--k", 10);

    match cmd.as_str() {
        "topk" => {
            let peak = args
                .flag("--peak")
                .map(parse_point)
                .unwrap_or_else(|| Point::origin(dims));
            let score = PeakScore::new(peak.clone(), Norm::L1);
            let (top, m) = run_topk(&net, initiator, score.clone(), k, mode);
            println!("top-{k} around {peak:?} ({mode:?}):");
            for t in &top {
                println!(
                    "  #{:<6} {:?}  score {:.4}",
                    t.id,
                    t.point,
                    score.score(&t.point)
                );
            }
            report(&m);
            let oracle = centralized_topk(&data, &score, k);
            let ok = top
                .iter()
                .zip(&oracle)
                .all(|(a, b)| (score.score(&a.point) - score.score(&b.point)).abs() < 1e-12);
            println!("oracle check: {}", if ok { "exact" } else { "MISMATCH" });
        }
        "skyline" => {
            let (sky, m) = run_skyline(&net, initiator, mode);
            println!("skyline: {} tuples ({mode:?})", sky.len());
            for t in sky.iter().take(10) {
                println!("  #{:<6} {:?}", t.id, t.point);
            }
            if sky.len() > 10 {
                println!("  … and {} more", sky.len() - 10);
            }
            report(&m);
            println!(
                "oracle check: {}",
                if sky.len() == centralized_skyline(&data).len() {
                    "exact"
                } else {
                    "MISMATCH"
                }
            );
        }
        "diversify" => {
            let lambda: f64 = args.parse("--lambda", 0.5);
            let q = args
                .flag("--peak")
                .map(parse_point)
                .unwrap_or_else(|| data[rng.gen_range(0..data.len())].point.clone());
            let div = DiversityQuery::new(q.clone(), lambda, Norm::L1);
            let (set, m) = diversify(&net, initiator, &div, k, mode, Initialize::Greedy, 5);
            println!(
                "{k}-diversified set around {q:?} (λ = {lambda}, {mode:?}), objective {:.4}:",
                div.objective(&set)
            );
            for t in &set {
                println!("  #{:<6} {:?}", t.id, t.point);
            }
            report(&m);
        }
        "range" => {
            let lo = args
                .flag("--lo")
                .map(parse_point)
                .unwrap_or_else(|| Point::origin(dims));
            let hi = args
                .flag("--hi")
                .map(parse_point)
                .unwrap_or_else(|| Point::splat(dims, 0.5));
            let range = Rect::new(lo, hi);
            let (hits, m) = run_range(&net, initiator, range.clone());
            println!("range {range:?}: {} tuples", hits.len());
            report(&m);
        }
        "stats" => {
            let loads = Distribution::of(
                net.live_peers()
                    .iter()
                    .map(|&p| net.peer(p).store.len() as f64),
            );
            let depths =
                Distribution::of(net.live_peers().iter().map(|&p| net.peer(p).depth() as f64));
            println!("overlay: {} peers, Δ = {}", net.peer_count(), net.delta());
            println!(
                "storage load: min {} / median {} / mean {:.1} / max {} (gini {:.3})",
                loads.min, loads.median, loads.mean, loads.max, loads.gini
            );
            println!(
                "peer depth:   min {} / median {} / mean {:.1} / max {}",
                depths.min, depths.median, depths.mean, depths.max
            );
        }
        _ => die("unknown subcommand"),
    }
}
