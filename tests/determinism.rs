//! Determinism tests: compression output is a pure function of input
//! and configuration — across calls, across thread counts, and across
//! the dictionary path. Silent nondeterminism would invalidate every
//! recorded experiment.

use datacomp::codecs::{self, Algorithm, Compressor, DecodeLimits};
use datacomp::corpus;

#[path = "common/streaming.rs"]
mod streaming;

#[test]
fn codecs_are_deterministic_across_calls() {
    let data = corpus::silesia::generate(corpus::silesia::FileClass::Database, 100_000, 5);
    for algo in Algorithm::ALL {
        for level in [1, 3, *algo.levels().end()] {
            let c = algo.compressor(level);
            assert_eq!(
                c.compress(&data),
                c.compress(&data),
                "{} level {level} nondeterministic",
                algo.name()
            );
        }
    }
}

/// The sized frame and the streaming frame of one input are each a
/// pure function of it, and both decode to it through both engines.
#[test]
fn streaming_and_batch_framing_are_stable() {
    let data = corpus::silesia::generate(corpus::silesia::FileClass::Xml, 300_000, 8);
    let z = codecs::zstdx::Zstdx::new(2);
    let sized = z.compress(&data);
    assert_eq!(sized, z.compress(&data));
    let stream = streaming::streaming_frame(&data, 2);
    assert_eq!(stream, streaming::streaming_frame(&data, 2));
    assert_ne!(stream, sized);
    for frame in [&sized, &stream] {
        assert_eq!(z.decompress(frame).unwrap(), data);
        let reference = z.decompress_reference(frame, &DecodeLimits::default());
        assert_eq!(reference.unwrap(), data);
    }
}

#[test]
fn parallel_compression_is_thread_count_invariant() {
    let data = corpus::sst::generate_sst(600_000, 6);
    let z = codecs::zstdx::Zstdx::new(3);
    let frames: Vec<Vec<u8>> = [1usize, 2, 4, 8]
        .iter()
        .map(|&t| codecs::parallel::compress_parallel(&z, &data, t).unwrap())
        .collect();
    for f in &frames[1..] {
        assert_eq!(f, &frames[0]);
    }
}

#[test]
fn dictionary_training_and_use_are_deterministic() {
    let items = corpus::cache::generate_items(&corpus::cache::cache1_profile(), 100, 7);
    let refs: Vec<&[u8]> = items.iter().map(|i| i.data.as_slice()).collect();
    let d1 = codecs::dict::train(&refs, 8192, 1);
    let d2 = codecs::dict::train(&refs, 8192, 1);
    assert_eq!(d1.as_bytes(), d2.as_bytes());
    let z = codecs::zstdx::Zstdx::new(3);
    assert_eq!(
        z.compress_with_dict(&items[0].data, &d1),
        z.compress_with_dict(&items[0].data, &d2)
    );
}

#[test]
fn all_generators_are_seed_pure() {
    use corpus::silesia::FileClass;
    assert_eq!(
        corpus::silesia::generate(FileClass::Log, 10_000, 9),
        corpus::silesia::generate(FileClass::Log, 10_000, 9)
    );
    assert_eq!(
        corpus::sst::generate_sst(10_000, 9),
        corpus::sst::generate_sst(10_000, 9)
    );
    assert_eq!(
        corpus::mlreq::generate_request(corpus::mlreq::Model::B, 9),
        corpus::mlreq::generate_request(corpus::mlreq::Model::B, 9)
    );
    assert_eq!(
        corpus::orc::generate_stripe(100, 9),
        corpus::orc::generate_stripe(100, 9)
    );
    assert_eq!(
        corpus::mempage::generate_pages(&corpus::mempage::PageMix::cold_memory(), 10, 9),
        corpus::mempage::generate_pages(&corpus::mempage::PageMix::cold_memory(), 10, 9)
    );
}
