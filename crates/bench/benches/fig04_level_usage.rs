//! Figure 4: zstdx level usage by compute cycles.
//!
//! Paper: "compression levels 1-4 take more than 50% of entire CPU
//! cycles" (§III-E).

use benchkit::{print_table, write_artifact, Scale};
use fleet::{profile_fleet, ProfileConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    level_bucket: String,
    cycles_pct: f64,
}

fn main() {
    let scale = Scale::from_env();
    let profile = profile_fleet(&ProfileConfig {
        work_units: scale.pick(10, 3),
        seed: 32,
    });
    let rows: Vec<Row> = fleet::agg::level_usage(&profile)
        .into_iter()
        .map(|(b, f)| Row {
            level_bucket: b,
            cycles_pct: f * 100.0,
        })
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.level_bucket.clone(), format!("{:.1}%", r.cycles_pct)])
        .collect();
    print_table(
        "Figure 4: zstdx level usage by cycles",
        &["levels", "cycles"],
        &table,
    );
    let low = rows
        .iter()
        .find(|r| r.level_bucket == "1-4")
        .map(|r| r.cycles_pct)
        .unwrap_or(0.0);
    println!("\nlevels 1-4 hold {low:.1}% of zstd cycles (paper: > 50%)");
    write_artifact("fig04_level_usage", &compopt::report::to_json_lines(&rows));
}
