//! §III-B headline numbers: fleet-wide compression tax and the
//! per-algorithm cycle split.
//!
//! Paper: "an average of 4.6% of compute cycles are spent for
//! compression and decompression operations... Zstd is dominant with
//! 3.9% compute cycles while 0.4% and 0.3% are used for LZ4 and Zlib
//! respectively."

use benchkit::{print_table, write_artifact, Scale};
use fleet::{profile_fleet, ProfileConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    metric: String,
    pct_of_fleet_cycles: f64,
}

fn main() {
    let scale = Scale::from_env();
    let profile = profile_fleet(&ProfileConfig {
        work_units: scale.pick(10, 3),
        seed: 36,
    });
    let tax = fleet::agg::fleet_compression_tax(&profile);
    let mut rows = vec![Row {
        metric: "all compression".into(),
        pct_of_fleet_cycles: tax * 100.0,
    }];
    for (algo, share) in fleet::agg::algorithm_split(&profile) {
        rows.push(Row {
            metric: algo.name().into(),
            pct_of_fleet_cycles: share * 100.0,
        });
    }
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.metric.clone(), format!("{:.2}%", r.pct_of_fleet_cycles)])
        .collect();
    print_table(
        "§III-B: fleet compression tax and algorithm split",
        &["metric", "fleet cycles"],
        &table,
    );
    println!("\npaper: 4.6% total; zstd 3.9%, lz4 0.4%, zlib 0.3%");
    write_artifact("fleet_summary", &compopt::report::to_json_lines(&rows));
}
