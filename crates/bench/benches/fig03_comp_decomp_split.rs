//! Figure 3: zstdx compression vs decompression cycle split per
//! category plus the fleet-wide row.

use benchkit::{print_table, write_artifact, Scale};
use fleet::{profile_fleet, ProfileConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    scope: String,
    compression_pct: f64,
    decompression_pct: f64,
}

fn main() {
    let scale = Scale::from_env();
    let profile = profile_fleet(&ProfileConfig {
        work_units: scale.pick(10, 3),
        seed: 31,
    });
    let rows: Vec<Row> = fleet::agg::comp_decomp_split(&profile)
        .into_iter()
        .map(|(scope, comp)| Row {
            scope,
            compression_pct: comp * 100.0,
            decompression_pct: (1.0 - comp) * 100.0,
        })
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.scope.clone(),
                format!("{:.1}%", r.compression_pct),
                format!("{:.1}%", r.decompression_pct),
            ]
        })
        .collect();
    print_table(
        "Figure 3: compression/decompression split",
        &["scope", "compression", "decompression"],
        &table,
    );
    // Call-count context the paper highlights.
    let (c, d) = profile.observations.iter().fold((0u64, 0u64), |(c, d), o| {
        (c + o.comp_calls, d + o.decomp_calls)
    });
    println!("\ncall counts: {c} compressions vs {d} decompressions");
    write_artifact(
        "fig03_comp_decomp_split",
        &compopt::report::to_json_lines(&rows),
    );
}
