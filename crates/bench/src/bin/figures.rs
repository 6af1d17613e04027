//! Regenerates the paper's tables and figures.
//!
//! Usage:
//! ```text
//! figures <all|table1|lemmas|fig4..fig12|abl-border|abl-priority|abl-split|ext-chord|ext-skyframe|ext-churn>...
//!         [--scale quick|medium|paper] [--seed N] [--out DIR]
//! ```
//!
//! Each figure prints the paper's two panels (latency, congestion) as text
//! tables and writes a CSV under `--out` (default `results/`).

use ripple_bench::config::{PaperGrid, Scale};
use ripple_bench::{ablations, fig_div, fig_sky, fig_topk, lemmas};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut seed = 20140324u64; // EDBT 2014, March 24
    let mut out_dir = PathBuf::from("results");
    let mut targets: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                scale = Scale::parse(args.get(i).map(String::as_str).unwrap_or(""))
                    .unwrap_or_else(|| die("--scale expects quick|medium|paper"));
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed expects an integer"));
            }
            "--out" => {
                i += 1;
                out_dir = args
                    .get(i)
                    .map(PathBuf::from)
                    .unwrap_or_else(|| die("--out expects a directory"));
            }
            t => targets.push(t.to_string()),
        }
        i += 1;
    }
    if targets.is_empty() {
        die("no target; try `figures all --scale quick`");
    }
    let targets = expand_all(targets);

    eprintln!("scale: {scale:?}, seed: {seed}, out: {}", out_dir.display());
    for t in &targets {
        let started = std::time::Instant::now();
        match t.as_str() {
            "table1" => print_table1(),
            "lemmas" => {
                print!("{}", lemmas::analytic_table());
                let check = lemmas::empirical_check(512, 24, seed);
                print!("{}", lemmas::render_empirical(&check));
            }
            _ => {
                let fig = match t.as_str() {
                    "fig4" => fig_topk::fig4(scale, seed),
                    "fig5" => fig_topk::fig5(scale, seed),
                    "fig6" => fig_topk::fig6(scale, seed),
                    "fig7" => fig_sky::fig7(scale, seed),
                    "fig8" => fig_sky::fig8(scale, seed),
                    "fig9" => fig_div::fig9(scale, seed),
                    "fig10" => fig_div::fig10(scale, seed),
                    "fig11" => fig_div::fig11(scale, seed),
                    "fig12" => fig_div::fig12(scale, seed),
                    "abl-border" => ablations::ablation_border(scale, seed),
                    "abl-priority" => ablations::ablation_priority(scale, seed),
                    "abl-split" => ablations::ablation_split(scale, seed),
                    "ext-chord" => ablations::ext_chord(scale, seed),
                    "ext-skyframe" => ablations::ext_skyframe(scale, seed),
                    "ext-churn" => ablations::ext_churn(scale, seed),
                    other => die(&format!("unknown target {other}")),
                };
                print!("{}", fig.render());
                if let Err(e) = fig.save_csv(&out_dir) {
                    eprintln!("warning: could not write CSV: {e}");
                }
            }
        }
        eprintln!("[{t} done in {:.1?}]", started.elapsed());
    }
}

/// The paper's tables and figures, in order: what `all` stands for.
const ALL: [&str; 11] = [
    "table1", "lemmas", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
];

/// Expands each `all` in place into [`ALL`], keeping every other target
/// where it stands (`all abl-border` runs the paper set, then the
/// ablation).
fn expand_all(targets: Vec<String>) -> Vec<String> {
    targets
        .into_iter()
        .flat_map(|t| {
            if t == "all" {
                ALL.iter().map(|s| s.to_string()).collect()
            } else {
                vec![t]
            }
        })
        .collect()
}

fn print_table1() {
    println!("== Table 1: experimental configuration ==");
    println!("  parameter          range                                  default");
    println!(
        "  overlay size       {:?}  {}",
        PaperGrid::OVERLAY_SIZES,
        PaperGrid::DEFAULT_SIZE
    );
    println!(
        "  dimensions         {:?}          {} (SYNTH), 6 (NBA), 5 (MIRFLICKR)",
        PaperGrid::DIMENSIONS,
        PaperGrid::DEFAULT_DIMS
    );
    println!(
        "  result size        {:?}  {}",
        PaperGrid::RESULT_SIZES,
        PaperGrid::DEFAULT_K
    );
    println!(
        "  rel/div tradeoff   {:?}        {}",
        PaperGrid::LAMBDAS,
        PaperGrid::DEFAULT_LAMBDA
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_keeps_the_explicit_targets_around_it() {
        let args = ["abl-split", "all", "abl-border", "ext-chord"].map(String::from);
        let got = expand_all(args.to_vec());
        let mut want = vec!["abl-split".to_string()];
        want.extend(ALL.iter().map(|s| s.to_string()));
        want.extend(["abl-border", "ext-chord"].map(String::from));
        assert_eq!(got, want);
    }
}
