//! Integration tests for the extension layers: parallel compression,
//! the managed dictionary service, and the auto-tuner.

use datacomp::codecs::{parallel, zstdx::Zstdx, Compressor};
use datacomp::compopt::autotune::AutoTuner;
use datacomp::compopt::prelude::*;
use datacomp::corpus;
use managed::{ManagedCompression, ManagedConfig};

#[path = "common/streaming.rs"]
mod streaming;

#[test]
fn streaming_pipeline_over_warehouse_data() {
    // ORC blocks in one streaming frame, the DW2 shuffle shape, read
    // back by the slice decoder.
    let blocks = corpus::orc::generate_blocks(1 << 20, 3);
    let expected: Vec<u8> = blocks.concat();
    let frame = streaming::streaming_frame(&expected, 1);
    // Column-encoded ORC data is already dense; level 1 squeezes the
    // residual redundancy (~1.6x), like the paper's warehouse stack.
    assert!(frame.len() < expected.len() * 3 / 4);
    assert_eq!(Zstdx::new(1).decompress(&frame).unwrap(), expected);
}

#[test]
fn parallel_compression_of_sst_files() {
    let sst = corpus::sst::generate_sst(2 << 20, 4);
    let z = Zstdx::new(3);
    let frame = parallel::compress_parallel(&z, &sst, 4).unwrap();
    assert_eq!(z.decompress(&frame).unwrap(), sst);
}

#[test]
fn managed_service_over_cache_items() {
    let items = corpus::cache::generate_items(&corpus::cache::cache1_profile(), 400, 5);
    let mut svc = ManagedCompression::new(ManagedConfig {
        retrain_interval: 100,
        ..ManagedConfig::default()
    });
    let mut frames = Vec::new();
    for item in &items {
        let case = format!("type-{}", item.type_id);
        frames.push((
            case.clone(),
            item.data.clone(),
            svc.compress(&case, &item.data).expect("admitted"),
        ));
    }
    // All frames (across all dictionary rollouts) decode.
    for (case, original, frame) in &frames {
        assert_eq!(&svc.decompress(case, frame).unwrap(), original);
    }
    // At least the popular type got a dictionary and a ratio win.
    let st = svc.stats("type-0").expect("popular type seen");
    assert!(st.versions_trained >= 1);
    assert!(st.ratio() > 1.2, "managed ratio {}", st.ratio());
}

#[test]
fn autotuner_tracks_kvstore_workload() {
    let configs = vec![
        CompressionConfig::new(datacomp::codecs::Algorithm::Zstdx, 1).with_block_size(16 << 10),
        CompressionConfig::new(datacomp::codecs::Algorithm::Zstdx, 1).with_block_size(64 << 10),
        CompressionConfig::new(datacomp::codecs::Algorithm::Lz4x, 1).with_block_size(16 << 10),
    ];
    let params = CostParams::from_pricing(&Pricing::aws_2023(), 1.0, 90.0);
    let weights = CostWeights {
        compute: 0.0,
        storage: 1.0,
        network: 0.0,
    };
    let mut tuner = AutoTuner::new(configs, params, weights);
    let sst = corpus::sst::generate_sst(256 << 10, 6);
    let refs: Vec<&[u8]> = vec![&sst];
    let e = tuner.retune(&refs).expect("feasible");
    // Storage-only objective: the best-ratio config (zstd, large blocks)
    // must win.
    assert!(
        e.label.contains("zstdx") && e.label.contains("64KB"),
        "{}",
        e.label
    );
    // A second round on the same data keeps the choice.
    tuner.retune(&refs);
    assert!(!tuner.history()[1].switched);
}

#[test]
fn far_memory_pages_roundtrip_all_codecs() {
    let pages = corpus::mempage::generate_pages(&corpus::mempage::PageMix::cold_memory(), 50, 7);
    for algo in datacomp::codecs::Algorithm::ALL {
        let c = algo.compressor(1);
        for (_, page) in &pages {
            assert_eq!(&c.decompress(&c.compress(page)).unwrap(), page);
        }
    }
}
