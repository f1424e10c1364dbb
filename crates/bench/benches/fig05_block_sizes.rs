//! Figure 5: average compression input size across services.
//!
//! Paper: "Different use cases of compression pass vastly different
//! data sizes to the compressor" (§III-F).

use benchkit::{fmt_bytes, print_table, write_artifact, Scale};
use fleet::{profile_fleet, ProfileConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    service: String,
    avg_input_bytes: f64,
}

fn main() {
    let scale = Scale::from_env();
    let profile = profile_fleet(&ProfileConfig {
        work_units: scale.pick(10, 3),
        seed: 33,
    });
    let mut rows: Vec<Row> = fleet::agg::service_block_sizes(&profile)
        .into_iter()
        .map(|(s, b)| Row {
            service: s.to_string(),
            avg_input_bytes: b,
        })
        .collect();
    rows.sort_by(|a, b| b.avg_input_bytes.total_cmp(&a.avg_input_bytes));
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.service.clone(), fmt_bytes(r.avg_input_bytes)])
        .collect();
    print_table(
        "Figure 5: average input size per service",
        &["service", "avg size"],
        &table,
    );
    let max = rows.first().map(|r| r.avg_input_bytes).unwrap_or(0.0);
    let min = rows.last().map(|r| r.avg_input_bytes).unwrap_or(1.0);
    println!(
        "\nspread: {:.0}x between largest and smallest",
        max / min.max(1.0)
    );
    write_artifact("fig05_block_sizes", &compopt::report::to_json_lines(&rows));
}
