//! Shared helpers for the figure benches.
//!
//! Every table and figure in the paper's evaluation has a `harness =
//! false` bench target in this crate (`fig01`…`fig16`, `table1`) that
//! regenerates its rows. `cargo bench -p datacomp-bench` runs them all;
//! each prints a human-readable table and writes JSON lines under
//! `target/figures/` for EXPERIMENTS.md.
//!
//! Set `DATACOMP_QUICK=1` to run reduced workloads (used by CI and the
//! integration tests). Set `DATACOMP_TELEMETRY=1` to also write each
//! bench's telemetry snapshot (codec counters, stage spans, latency
//! histograms) next to its artifact as `<name>.telemetry.json`.

use std::io::Write;
use std::path::PathBuf;

/// Workload scale for the figure benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full sizes (default for `cargo bench`).
    Full,
    /// Reduced sizes (set `DATACOMP_QUICK=1`).
    Quick,
}

impl Scale {
    /// Reads the scale from the environment.
    pub fn from_env() -> Self {
        if std::env::var_os("DATACOMP_QUICK").is_some_and(|v| v != "0") {
            Scale::Quick
        } else {
            Scale::Full
        }
    }

    /// Picks `full` or `quick` by scale.
    pub fn pick<T>(self, full: T, quick: T) -> T {
        match self {
            Scale::Full => full,
            Scale::Quick => quick,
        }
    }
}

/// Prints a titled ASCII table with aligned columns.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>w$}", w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Writes JSON-lines artifact for a figure under `target/figures/`.
///
/// Errors are reported to stderr but never fail the bench: artifacts
/// are a convenience, the printed table is the deliverable.
pub fn write_artifact(name: &str, json_lines: &str) {
    let dir = artifact_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warn: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.jsonl"));
    match std::fs::File::create(&path) {
        Ok(mut f) => {
            if let Err(e) = f.write_all(json_lines.as_bytes()) {
                eprintln!("warn: cannot write {}: {e}", path.display());
            } else {
                println!("[artifact] {}", path.display());
            }
        }
        Err(e) => eprintln!("warn: cannot create {}: {e}", path.display()),
    }
    if std::env::var_os("DATACOMP_TELEMETRY").is_some_and(|v| v != "0") {
        let tel_path = dir.join(format!("{name}.telemetry.json"));
        let json = telemetry::export::to_json(&telemetry::snapshot());
        match std::fs::write(&tel_path, json) {
            Ok(()) => println!("[artifact] {}", tel_path.display()),
            Err(e) => eprintln!("warn: cannot write {}: {e}", tel_path.display()),
        }
    }
    if std::env::var_os("DATACOMP_TRACE").is_some_and(|v| v != "0") {
        let trace_path = dir.join(format!("{name}.trace.json"));
        let json = telemetry::chrome::to_chrome_json(&telemetry::requests().sampled());
        match std::fs::write(&trace_path, json) {
            Ok(()) => println!("[artifact] {}", trace_path.display()),
            Err(e) => eprintln!("warn: cannot write {}: {e}", trace_path.display()),
        }
    }
}

/// The artifact directory (`target/figures`).
fn artifact_dir() -> PathBuf {
    // CARGO_TARGET_DIR handling: fall back to ./target.
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
        .join("figures")
}

/// Formats bytes as a compact human unit.
pub fn fmt_bytes(b: f64) -> String {
    if b >= 1024.0 * 1024.0 {
        format!("{:.1}MB", b / (1024.0 * 1024.0))
    } else if b >= 1024.0 {
        format!("{:.1}KB", b / 1024.0)
    } else {
        format!("{b:.0}B")
    }
}

/// Shared implementation of Figures 8 and 9 (cache item size
/// distributions).
pub fn cache_sizes_figure(title: &str, artifact: &str, profile: &corpus::cache::CacheProfile) {
    use corpus::sizes::{log_bucket_fractions, percentile};
    use serde::Serialize;

    #[derive(Serialize)]
    struct Row {
        bucket: String,
        fraction: f64,
    }

    let scale = Scale::from_env();
    let items = corpus::cache::generate_items(profile, scale.pick(20_000, 2_000), 8);
    let sizes: Vec<usize> = items.iter().map(|i| i.data.len()).collect();
    let rows: Vec<Row> = log_bucket_fractions(&sizes)
        .into_iter()
        .map(|(bucket, fraction)| Row { bucket, fraction })
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.bucket.clone(), format!("{:.1}%", r.fraction * 100.0)])
        .collect();
    print_table(title, &["size bucket", "items"], &table);
    println!(
        "\np50={}B p90={}B p99={}B (skew below 1KB with a long tail)",
        percentile(&sizes, 50.0),
        percentile(&sizes, 90.0),
        percentile(&sizes, 99.0)
    );
    write_artifact(artifact, &compopt::report::to_json_lines(&rows));
}

/// Shared implementation of Figures 10 and 11 (dictionary vs plain
/// speed/ratio curves over zstdx levels 1, 3, 6, 11).
pub fn cache_dict_figure(title: &str, artifact: &str, profile: &corpus::cache::CacheProfile) {
    use serde::Serialize;

    #[derive(Serialize)]
    struct Row {
        level: i32,
        mode: &'static str,
        ratio: f64,
        compress_mbps: f64,
    }

    let scale = Scale::from_env();
    let items = corpus::cache::generate_items(profile, scale.pick(3_000, 400), 9);
    let split = items.len() / 2;
    // Train per-type dictionaries, as the paper describes ("one
    // dictionary per data type").
    let mut dicts: std::collections::HashMap<u32, codecs::Dictionary> = Default::default();
    for type_id in 0..profile.n_types as u32 {
        let train: Vec<&[u8]> = items[..split]
            .iter()
            .filter(|i| i.type_id == type_id)
            .map(|i| i.data.as_slice())
            .collect();
        if !train.is_empty() {
            dicts.insert(type_id, codecs::dict::train(&train, 16 * 1024, type_id));
        }
    }
    let test = &items[split..];

    let mut rows = Vec::new();
    for level in [1, 3, 6, 11] {
        let z = codecs::zstdx::Zstdx::new(level);
        for dict_mode in [false, true] {
            let mut m = codecs::CompressionMetrics::default();
            for item in test {
                let dict = dict_mode.then(|| &dicts[&item.type_id]);
                let single = [item.data.as_slice()];
                let one = codecs::metrics::measure_with_dict(&z, &single, dict);
                m.accumulate(&one);
            }
            rows.push(Row {
                level,
                mode: if dict_mode { "dict" } else { "plain" },
                ratio: m.ratio(),
                compress_mbps: m.compress_mbps(),
            });
        }
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.level.to_string(),
                r.mode.to_string(),
                format!("{:.2}", r.ratio),
                format!("{:.1}", r.compress_mbps),
            ]
        })
        .collect();
    print_table(title, &["level", "mode", "ratio", "comp MB/s"], &table);
    // Paper's claim: dict beats plain at every level.
    for level in [1, 3, 6, 11] {
        let plain = rows
            .iter()
            .find(|r| r.level == level && r.mode == "plain")
            .unwrap();
        let dict = rows
            .iter()
            .find(|r| r.level == level && r.mode == "dict")
            .unwrap();
        println!(
            "level {level}: dict ratio {:.2} vs plain {:.2} ({:.0}% better)",
            dict.ratio,
            plain.ratio,
            (dict.ratio / plain.ratio - 1.0) * 100.0
        );
    }
    write_artifact(artifact, &compopt::report::to_json_lines(&rows));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale::Full.pick(10, 2), 10);
        assert_eq!(Scale::Quick.pick(10, 2), 2);
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(fmt_bytes(512.0), "512B");
        assert_eq!(fmt_bytes(2048.0), "2.0KB");
        assert_eq!(fmt_bytes(3.0 * 1024.0 * 1024.0), "3.0MB");
    }
}
