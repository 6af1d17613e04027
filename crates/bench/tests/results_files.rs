//! The committed bench artifacts back every gate they claim: no value in a
//! `results/BENCH_*.json` file may be `null` (a gate whose figure was never
//! measured reads as `null`, which would let a smoke run's output pass for
//! a full run's).

use std::path::{Path, PathBuf};

/// Paths of the committed `results/BENCH_*.json` files, sorted.
fn bench_results() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("BENCH_") && name.ends_with(".json")
        })
        .collect();
    files.sort();
    files
}

/// Byte offsets of every `null` literal outside a JSON string.
fn null_literals(json: &str) -> Vec<usize> {
    let bytes = json.as_bytes();
    let (mut found, mut in_string, mut i) = (Vec::new(), false, 0);
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_string => i += 1, // skip the escaped byte
            b'"' => in_string = !in_string,
            b'n' if !in_string && bytes[i..].starts_with(b"null") => found.push(i),
            _ => {}
        }
        i += 1;
    }
    found
}

#[test]
fn null_scanner_ignores_strings() {
    assert_eq!(
        null_literals(r#"{ "a": null, "b": "null", "c\"null": 1 }"#),
        [7]
    );
    assert!(null_literals(r#"{ "gate": "no nulls \\", "x": [1, 2.5] }"#).is_empty());
}

#[test]
fn committed_bench_results_hold_no_null() {
    let files = bench_results();
    assert!(!files.is_empty(), "no results/BENCH_*.json found");
    let mut offenders = Vec::new();
    for path in &files {
        let json = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        for at in null_literals(&json) {
            let line = json[..at].lines().count().max(1);
            offenders.push(format!("{}:{line}", path.display()));
        }
    }
    assert!(
        offenders.is_empty(),
        "null values in committed bench results (a gate without its measured \
         figure): {offenders:?}"
    );
}
