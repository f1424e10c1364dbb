//! Figure 7: warehouse services' zstd time split — compression vs
//! decompression, and match finding vs entropy within compression.
//!
//! Paper: "the match finding stage dominates the compute cycles (up to
//! 80%) for DW1, where compression level 7 is mainly used, while match
//! finding only takes around 30% of Zstd compute cycles of DW4" (§IV-B).

use benchkit::{print_table, write_artifact, Scale};
use fleet::{profile_fleet, ProfileConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    service: String,
    compression_pct: f64,
    decompression_pct: f64,
    match_find_pct: f64,
    entropy_pct: f64,
}

fn main() {
    let scale = Scale::from_env();
    let profile = profile_fleet(&ProfileConfig {
        work_units: scale.pick(10, 3),
        seed: 35,
    });
    let rows: Vec<Row> = fleet::agg::warehouse_split(&profile)
        .into_iter()
        .map(|w| Row {
            service: w.service.to_string(),
            compression_pct: w.compression_fraction * 100.0,
            decompression_pct: (1.0 - w.compression_fraction) * 100.0,
            match_find_pct: w.match_find_fraction * 100.0,
            entropy_pct: (1.0 - w.match_find_fraction) * 100.0,
        })
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.service.clone(),
                format!("{:.1}%", r.compression_pct),
                format!("{:.1}%", r.decompression_pct),
                format!("{:.1}%", r.match_find_pct),
                format!("{:.1}%", r.entropy_pct),
            ]
        })
        .collect();
    print_table(
        "Figure 7: warehouse zstd split",
        &["service", "comp", "decomp", "match-find", "entropy"],
        &table,
    );
    println!("\npaper anchors: DW1 match-find ~80% (level 7), DW4 ~30% (level 1)");
    write_artifact(
        "fig07_warehouse_split",
        &compopt::report::to_json_lines(&rows),
    );
}
