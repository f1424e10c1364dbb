//! Integration tests spanning crates: corpus data through codecs into
//! CompOpt, and the fleet profiler end to end.

use compopt::prelude::*;
use datacomp::codecs::{self, Algorithm};
use datacomp::{compopt, corpus, fleet};

#[test]
fn every_workload_roundtrips_through_every_codec() {
    let workloads: Vec<(&str, Vec<u8>)> = vec![
        ("orc", corpus::orc::generate_stripe(800, 1)),
        ("sst", corpus::sst::generate_sst(40_000, 2)),
        (
            "ads-b",
            corpus::mlreq::generate_request(corpus::mlreq::Model::B, 3),
        ),
        (
            "xml",
            corpus::silesia::generate(corpus::silesia::FileClass::Xml, 30_000, 4),
        ),
        (
            "binary",
            corpus::silesia::generate(corpus::silesia::FileClass::Binary, 30_000, 5),
        ),
    ];
    for (name, data) in &workloads {
        for algo in Algorithm::ALL {
            for level in [*algo.levels().start(), 1, *algo.levels().end()] {
                let c = algo.compressor(level);
                let frame = c.compress(data);
                assert_eq!(
                    &c.decompress(&frame).unwrap(),
                    data,
                    "{name} via {} level {level}",
                    algo.name()
                );
            }
        }
    }
}

#[test]
fn compopt_end_to_end_on_cache_items_with_dictionary() {
    let items = corpus::cache::generate_items(&corpus::cache::cache1_profile(), 120, 3);
    let train: Vec<&[u8]> = items[..60].iter().map(|i| i.data.as_slice()).collect();
    let test: Vec<&[u8]> = items[60..].iter().map(|i| i.data.as_slice()).collect();
    let dict = codecs::dict::train(&train, 16 * 1024, 5);

    let mut engine = CompEngine::new();
    engine.add_levels(Algorithm::Zstdx, [1, 3]);
    engine.add_levels(Algorithm::Lz4x, [1]);
    engine.with_dictionary(dict);
    let measured = engine.measure(&test);

    let params = CostParams::from_pricing(&Pricing::aws_2023(), 0.5, 7.0);
    // Price bytes only (storage + network): in an unoptimized test
    // build, measured compute time would otherwise swamp the tiny
    // sample's byte costs and the comparison would test the build
    // profile, not the model.
    let weights = CostWeights {
        compute: 0.0,
        storage: 1.0,
        network: 1.0,
    };
    let evals = evaluate_all(&measured, &params, weights, &[]);
    assert_eq!(evals.len(), 3);
    let best = optimum(&evals).expect("feasible");
    // With bytes priced, the dictionary-boosted zstd configs must beat
    // dict-less lz4x.
    assert!(best.label.contains("zstdx"), "{}", best.label);
}

#[test]
fn fleet_profile_feeds_all_figure_queries() {
    let profile = fleet::profile_fleet(&fleet::ProfileConfig {
        work_units: 2,
        seed: 5,
    });
    assert!(fleet::agg::fleet_compression_tax(&profile) > 0.0);
    assert_eq!(fleet::agg::category_zstd_cycles(&profile).len(), 6);
    assert_eq!(fleet::agg::comp_decomp_split(&profile).len(), 7);
    assert_eq!(fleet::agg::level_usage(&profile).len(), 4);
    assert_eq!(fleet::agg::service_zstd_cycles(&profile).len(), 8);
    assert_eq!(fleet::agg::warehouse_split(&profile).len(), 4);
    let sizes = fleet::agg::service_block_sizes(&profile);
    assert!(sizes.iter().all(|(_, b)| *b > 0.0));
}

#[test]
fn compsim_candidates_compete_with_software_in_one_engine() {
    let samples: Vec<Vec<u8>> = (0..2)
        .map(|i| corpus::silesia::generate(corpus::silesia::FileClass::Database, 32 << 10, i))
        .collect();
    let refs: Vec<&[u8]> = samples.iter().map(|v| v.as_slice()).collect();

    let pricing = Pricing::aws_2023();
    let base = CompressionConfig::new(Algorithm::Zstdx, 1);
    let mut engine = CompEngine::new();
    engine.add_config(base);
    engine.add_simulated(CompSim::new(base, 10.0, pricing.accelerator_per_second));
    let measured = engine.measure(&refs);
    assert_eq!(measured.len(), 2);
    let sw = &measured[0];
    let hw = &measured[1];
    assert!(hw.simulated && !sw.simulated);
    // Same ratio (same algorithm), and clearly faster. The exact 10x
    // scaling is asserted deterministically in compsim's unit tests;
    // here the two candidates are measured in separate passes, so under
    // parallel test load the wall-clock comparison needs slack.
    assert!((hw.metrics.ratio() - sw.metrics.ratio()).abs() < 1e-9);
    assert!(hw.metrics.compress_mbps() > 2.0 * sw.metrics.compress_mbps());
}

#[test]
fn stage_timing_flows_from_codec_to_fleet_figure() {
    // DW1 (level 7) must show a higher match-finding share than DW4
    // (level 1) all the way through the figure pipeline.
    let profile = fleet::profile_fleet(&fleet::ProfileConfig {
        work_units: 2,
        seed: 6,
    });
    let rows = fleet::agg::warehouse_split(&profile);
    let dw1 = rows.iter().find(|r| r.service == "DW1").unwrap();
    let dw4 = rows.iter().find(|r| r.service == "DW4").unwrap();
    // Stage-split ordering is a relative-speed property that unoptimized
    // builds distort; assert it only when optimized (fig07 shows it).
    if !cfg!(debug_assertions) {
        assert!(dw1.match_find_fraction > dw4.match_find_fraction);
    }
    assert!(dw1.match_find_fraction > 0.0 && dw4.match_find_fraction > 0.0);
}

#[test]
fn report_rows_serialize_for_artifacts() {
    let samples = [corpus::silesia::generate(
        corpus::silesia::FileClass::Log,
        8 << 10,
        1,
    )];
    let refs: Vec<&[u8]> = samples.iter().map(|v| v.as_slice()).collect();
    let mut engine = CompEngine::new();
    engine.add_levels(Algorithm::Zstdx, [1]);
    let measured = engine.measure(&refs);
    let params = CostParams::from_pricing(&Pricing::aws_2023(), 1.0, 30.0);
    let evals = evaluate_all(&measured, &params, CostWeights::ALL, &[]);
    let json = compopt::report::to_json_lines(&evals);
    assert!(json.contains("total_cost"));
    assert_eq!(json.lines().count(), 1);
}
