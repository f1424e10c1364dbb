//! Figure 6: compute cycles (%) used by zstdx for the Table I services.
//!
//! Paper: "the compute cycles spent for compression vary dramatically
//! across eight services (from 1.7% to 30.5%)" (§IV-A).

use benchkit::{print_table, write_artifact, Scale};
use fleet::{profile_fleet, ProfileConfig};
use serde::Serialize;

#[derive(Serialize)]
struct Row {
    service: String,
    zstd_cycles_pct: f64,
}

fn main() {
    let scale = Scale::from_env();
    let profile = profile_fleet(&ProfileConfig {
        work_units: scale.pick(10, 3),
        seed: 34,
    });
    let rows: Vec<Row> = fleet::agg::service_zstd_cycles(&profile)
        .into_iter()
        .map(|(s, f)| Row {
            service: s.to_string(),
            zstd_cycles_pct: f * 100.0,
        })
        .collect();
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| vec![r.service.clone(), format!("{:.1}%", r.zstd_cycles_pct)])
        .collect();
    print_table(
        "Figure 6: zstdx cycles by service",
        &["service", "zstd cycles"],
        &table,
    );
    write_artifact(
        "fig06_service_cycles",
        &compopt::report::to_json_lines(&rows),
    );
}
