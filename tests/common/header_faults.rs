//! Frames with one container fault each: every codec, plain and
//! checksummed, over a match-dominated input and a literal-dominated
//! one (whose zstdx and zlibx frames hold v4 blocks), with each bit of
//! the flag byte flipped, and with 1 and 8 zero bytes appended. Each
//! case says what decoding it must give (DESIGN.md §6, "One frame
//! container").

use datacomp::codecs::zstdx::Zstdx;
use datacomp::codecs::{Algorithm, Compressor};
use datacomp::corpus::silesia::{generate, FileClass};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// The input: the named no-op, a v4 bit set on a frame without v4
    /// blocks.
    Intact,
    /// `BadFrame`: a flag bit the codec does not know, or bytes after
    /// the frame, which a cleared checksum bit leaves too.
    BadFrame,
    /// Any typed error.
    Error,
}

#[allow(dead_code)] // decode_differential reads only the frame and its name.
pub struct Case {
    pub algo: Algorithm,
    pub what: String,
    pub frame: Vec<u8>,
    pub input: Vec<u8>,
    pub expect: Expect,
}

pub fn cases() -> Vec<Case> {
    let mut x = 0x2545_f491u32;
    // Symbol k of 40 drawn with weight 2k + 1.
    let literal_heavy = (0..20 << 10).map(|_| {
        x = x.wrapping_mul(1_103_515_245).wrapping_add(12_345);
        f64::from((x >> 16) % 1600).sqrt() as u8
    });
    let inputs = [
        ("xml", generate(FileClass::Xml, 20 << 10, 0x31c5)),
        ("literal-heavy", literal_heavy.collect()),
    ];
    let mut cases = Vec::new();
    for ((name, input), algo) in inputs.iter().flat_map(|i| Algorithm::ALL.map(|a| (i, a))) {
        // The flag byte, the bits the codec knows, its v4 and checksum bits.
        let (at, known, v4, checksum) = match algo {
            Algorithm::Zstdx => (4, 0x0f, 0x08, 0x02),
            Algorithm::Zlibx => (1, 0x81, 0x01, 0x80),
            Algorithm::Lz4x => (1, 0x80, 0, 0x80),
        };
        let plain: Box<dyn Compressor> = match algo {
            Algorithm::Zstdx => Box::new(Zstdx::new(6).with_checksum(false)),
            _ => algo.compressor(6),
        };
        for (mode, writer) in [
            ("plain", plain),
            ("checksummed", algo.compressor_checked(6)),
        ] {
            let frame = writer.compress(input);
            assert_eq!(frame[at] & v4 != 0, v4 != 0 && *name == "literal-heavy");
            let flips = (0..8).map(|i| 1u8 << i).map(|bit| {
                let set = frame[at] & bit == 0;
                let expect = match () {
                    // A cleared checksum bit leaves the trailer after the frame.
                    _ if bit & known == 0 || (bit == checksum && !set) => Expect::BadFrame,
                    _ if bit == v4 && set => Expect::Intact,
                    _ => Expect::Error,
                };
                let mut bad = frame.clone();
                bad[at] ^= bit;
                let how = if set { "set" } else { "cleared" };
                (format!("flag bit {bit:#04x} {how}"), bad, expect)
            });
            let appended = [1, 8].map(|n| {
                let long = [&frame[..], &vec![0; n]].concat();
                (format!("{n} bytes appended"), long, Expect::BadFrame)
            });
            cases.extend(flips.chain(appended).map(|(what, frame, expect)| Case {
                algo,
                what: format!("{algo} {mode} {name}: {what}"),
                frame,
                input: input.clone(),
                expect,
            }));
        }
    }
    cases
}
