//! The repository's benchmark: end-to-end metrics of three workloads with
//! tracing off, per-layer metrics from a traced run, and correctness checks
//! on every answer.
//!
//! ```text
//! perfbench --workload <paper-queries|serve-distinct|ingest-serve>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --calibrate [--seed <n>]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The line before it records the workload, seed, kernel arm and sample
//! counts. `--calibrate` measures the closed-loop capacity of both serving
//! workloads, against which their fixed open-loop rates were set. See
//! `README.md` next to this crate for the workloads and the metrics.

mod check;
mod layers;
mod paper;
mod report;
mod run;
mod serving;
mod trace;
mod yardstick;

use report::{median, result_line, Outcomes};
use std::time::Instant;

/// Fewest set-ups per run; `setup_s` is their median.
const SETUPS_MIN: usize = 5;
/// Most set-ups per run.
const SETUPS_MAX: usize = 25;
/// Set-ups go on past [`SETUPS_MIN`] until they have taken this long, so a
/// short set-up is timed often enough for a steady median.
const SETUP_BUDGET_S: f64 = 1.5;
/// Yardstick readings after each set-up.
const SETUP_READINGS: usize = 5;

/// Seed of the datasets and overlays. They stay fixed across runs, like
/// the paper's datasets, so `--seed` varies the queries and writes a
/// workload sends, not the data it sends them to.
pub const DATA_SEED: u64 = 0x5EED_DA7A;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    calibrate: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        calibrate: false,
    };
    while let Some(flag) = argv.next() {
        if flag == "--calibrate" {
            args.calibrate = true;
            continue;
        }
        let value = argv.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| bad("not a seed"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("not a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("out of range"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.calibrate && args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The library resolves unknown `RIPPLE_KERNEL_DISPATCH` values to
/// hardware detection without a word, so a run with a typo would measure
/// another arm than it claims. Refuse such a run.
fn check_dispatch() -> Result<(), String> {
    match std::env::var("RIPPLE_KERNEL_DISPATCH") {
        Err(std::env::VarError::NotPresent) => Ok(()),
        Ok(v) if v == "scalar" || v == "simd" => Ok(()),
        Ok(v) => Err(format!(
            "RIPPLE_KERNEL_DISPATCH={v:?} is not one of \"scalar\", \"simd\""
        )),
        Err(e) => Err(format!("RIPPLE_KERNEL_DISPATCH: {e}")),
    }
}

/// Runs `build` repeatedly (see [`SETUPS_MIN`]), dropping the previous
/// result before each build; returns the last result and the median build
/// time in seconds at the yardstick's reference speed (each build's time
/// over the yardstick reading taken right after it).
fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let yard = yardstick::Yardstick::new();
    let (mut times, mut scaled) = (Vec::with_capacity(SETUPS_MAX), Vec::new());
    let mut last = None;
    while times.len() < SETUPS_MIN
        || (times.len() < SETUPS_MAX && times.iter().sum::<f64>() < SETUP_BUDGET_S)
    {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        let s = t0.elapsed().as_secs_f64();
        times.push(s);
        scaled.push(s / median(&yard.readings(SETUP_READINGS)));
    }
    eprintln!(
        "setup: {} set-ups, median {:.4} s at reference speed ({:.4} s as measured)",
        times.len(),
        median(&scaled),
        median(&times)
    );
    (last.expect("at least one set-up"), median(&scaled))
}

fn run(args: &Args) -> Result<(Outcomes, f64), String> {
    let (seed, seconds, traced) = (args.seed, args.seconds, args.trace);
    Ok(match args.workload.as_str() {
        "paper-queries" => {
            let (world, setup_s) = timed_setup(|| {
                let w = paper::World::build();
                paper::warm_up(&w, seed);
                w
            });
            (paper::measure(&world, seed, seconds, traced), setup_s)
        }
        name @ ("serve-distinct" | "ingest-serve") => {
            let wl = if name == "serve-distinct" {
                &serving::SERVE_DISTINCT
            } else {
                &serving::INGEST_SERVE
            };
            let ((world, service), setup_s) = timed_setup(|| {
                let w = serving::World::build(wl, seed);
                let service = w.service(|n| n);
                w.warm_up(&service);
                (w, service)
            });
            (serving::measure(&world, service, seconds, traced), setup_s)
        }
        other => return Err(format!("unknown workload {other:?}")),
    })
}

fn calibrate(seed: u64) {
    for (name, wl) in [
        ("serve-distinct", &serving::SERVE_DISTINCT),
        ("ingest-serve", &serving::INGEST_SERVE),
    ] {
        let w = serving::World::build(wl, seed);
        for outstanding in [2, 4, 8] {
            let qps = serving::capacity(&w, outstanding, 6.0);
            println!(
                "{name}: closed-loop capacity with {outstanding} queries in flight: {qps:.1} qps \
                 (60%: {:.1}; configured rate {})",
                0.6 * qps,
                wl.rate
            );
        }
    }
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = check_dispatch() {
        eprintln!("perfbench: refusing to run: {e}");
        std::process::exit(2);
    }
    if args.calibrate {
        calibrate(args.seed);
        return;
    }
    let (out, setup_s) = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut metrics = out.metrics;
    if !args.trace {
        metrics.put("setup_s", setup_s, "s");
        metrics.put("peak_rss_mb", out.peak_rss_mb, "MiB");
    }
    for e in out.errors.iter().take(20) {
        eprintln!("perfbench: check failed: {e}");
    }
    if out.errors.len() > 20 {
        eprintln!(
            "perfbench: ... {} more failed checks",
            out.errors.len() - 20
        );
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
         \"threads\": {threads}, {}, \"note\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        ripple_bench::output::cpu_header_json(),
        out.note.replace('"', "'")
    );
    println!(
        "{}",
        result_line(out.errors.is_empty(), out.attempted, out.failed, &metrics)
    );
    if !out.errors.is_empty() {
        std::process::exit(1);
    }
}
