//! Figure 2: compute cycles (%) used by zstdx per service category.
//!
//! Paper: "considerable variance in compression CPU cycles percentage
//! from 1.8 to 21.2% depending on service categories" (§III-C).

use benchkit::{print_table, write_artifact, Scale};
use fleet::{profile_fleet, ProfileConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    category: String,
    zstd_cycles_pct: f64,
}

fn main() {
    let scale = Scale::from_env();
    let profile = profile_fleet(&ProfileConfig {
        work_units: scale.pick(10, 3),
        seed: 30,
    });
    let rows: Vec<Row> = fleet::agg::category_zstd_cycles(&profile)
        .into_iter()
        .map(|(c, f)| Row {
            category: c.to_string(),
            zstd_cycles_pct: f * 100.0,
        })
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.category.clone(), format!("{:.1}%", r.zstd_cycles_pct)])
        .collect();
    print_table(
        "Figure 2: zstdx cycles by category",
        &["category", "zstd cycles"],
        &table,
    );
    let min = rows
        .iter()
        .map(|r| r.zstd_cycles_pct)
        .fold(f64::MAX, f64::min);
    let max = rows
        .iter()
        .map(|r| r.zstd_cycles_pct)
        .fold(f64::MIN, f64::max);
    println!("\nrange: {min:.1}% .. {max:.1}% (paper: 1.8% .. 21.2%)");
    write_artifact(
        "fig02_category_cycles",
        &compopt::report::to_json_lines(&rows),
    );
}
