//! Byte-identity goldens for every codec's compressed stream.
//!
//! The entropy and kernel layers under the codecs (bit I/O, Huffman
//! tables, CRC-32, the SZ2 block quantizer, the LZ match finder) are
//! performance-critical and get rewritten; the wire format must not
//! notice. The `(length, CRC-32)` pairs below were captured on the
//! commit *before* the word-at-a-time rewrite (PR 13, `485bbf3`), so
//! "the streams are byte-identical" is a test rather than a claim. A
//! change that moves any of them is a wire-format change and needs a
//! version bump, not a new golden. Two formats have had exactly that:
//! `psum` was `(256566, 0x5906717a)` until the byte-plane coder replaced
//! the shuffle + LZ frame (PR 17; the frame magic went `0xF5` → `0xF6`),
//! and SZ2's `VERSION` went 1 → 2 (PR 23: the tensor's mean in the
//! header as a third, zero-byte block predictor, a 1–2 bit flag code per
//! block, the block choice priced in coded bits, the `f32` bound rounded
//! down from the `f64` asked for instead of to nearest), which moved its
//! six streams and the FedSZ container that wraps one:
//!
//! | stream | version 1 | version 2 |
//! |---|---|---|
//! | `sz2.rel1e-2` | `(11674, 0x12e794db)` | `(10123, 0x3adb5d12)` |
//! | `sz2.rel1e-3` | `(32989, 0xbe34a3f9)` | `(32474, 0x4131231c)` |
//! | `sz2.rel1e-2.block1000` | `(7596, 0x73459319)` | `(7678, 0x5eb10889)` |
//! | `sz2.lorenzo_only.rel1e-2` | `(10368, 0xfadc096a)` | `(10382, 0x20653d64)` |
//! | `sz2.lorenzo_only.rel1e-3` | `(33960, 0x2d4d90f9)` | `(33980, 0x44a8dd29)` |
//! | `sz2.abs1e-6` | `(141297, 0x13032dc5)` | `(141059, 0xe4cb324e)` |
//! | `fedsz.default.mobilenet_v2@0.02` | `(70411, 0x2144df1c)` | `(66531, 0x2144df1c)` |
//!
//! (The container ends in its own CRC-32, so the CRC of the whole is
//! the same residue at any length; its length is what is pinned.)
//!
//! The FMSG frame is pinned the same way, one sample frame per tag, so
//! a rewrite of the wire module cannot move a byte unnoticed either.
//!
//! The CRC here is a bit-at-a-time reference private to this file, so
//! the goldens do not lean on the `checksum` module they help guard.

use fedsz::FedSz;
use fedsz_lossless::{LosslessKind, PsumCodec};
use fedsz_lossy::{ErrorBound, ErrorBounded, LossyKind, Sz2};
use fedsz_net::Message;
use fedsz_nn::models::specs::ModelSpec;

/// Bit-at-a-time IEEE CRC-32.
fn crc32_reference(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
        }
    }
    crc ^ 0xFFFF_FFFF
}

/// 64 Ki weight-like values from a splitmix64 stream, in `+ - *` only
/// (no libm call, so the bytes do not depend on the platform): a
/// heavy-tailed bulk (scale ~0.02) on a slow triangle-wave drift, with
/// an outlier every 997th element, a constant stretch and a smooth
/// stretch — so constant, Lorenzo and regression blocks, unpredictable
/// values and LZ matches all occur.
fn weights() -> Vec<f32> {
    let mut state = 0x5EED_F00D_u64;
    let mut uniform = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    (0..1usize << 16)
        .map(|i| {
            let (u, spread) = (uniform(), uniform());
            // Product of a uniform and a squared uniform: peaked at 0,
            // tails out to +-0.08.
            let bulk = 0.64 * u * spread * spread;
            let phase = (i % 4096) as f64 / 4096.0;
            let drift = 0.05 * if phase < 0.5 { 4.0 * phase - 1.0 } else { 3.0 - 4.0 * phase };
            let v = match i {
                _ if i % 997 == 0 => 1.5 * if u < 0.0 { -1.0 } else { 1.0 },
                20_000..=20_511 => 0.125,
                30_000..=34_095 => drift + 1e-4 * u,
                _ => drift + bulk,
            };
            v as f32
        })
        .collect()
}

fn f32_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Every pinned stream, by name.
fn streams() -> Vec<(&'static str, Vec<u8>)> {
    let data = weights();
    let raw = f32_bytes(&data);
    let lossy = |codec: &dyn ErrorBounded, bound| codec.compress(&data, bound).unwrap();
    let mut out = vec![
        ("sz2.rel1e-2", lossy(&Sz2::new(), ErrorBound::Relative(1e-2))),
        ("sz2.rel1e-3", lossy(&Sz2::new(), ErrorBound::Relative(1e-3))),
        ("sz2.rel1e-2.block1000", lossy(&Sz2::with_block_size(1000), ErrorBound::Relative(1e-2))),
        ("sz2.lorenzo_only.rel1e-2", lossy(&Sz2::new().lorenzo_only(), ErrorBound::Relative(1e-2))),
        ("sz2.lorenzo_only.rel1e-3", lossy(&Sz2::new().lorenzo_only(), ErrorBound::Relative(1e-3))),
        // A bound far below the spread: the outliers and the bulk's tails
        // leave the quantizer's range and are stored verbatim.
        ("sz2.abs1e-6", lossy(&Sz2::new(), ErrorBound::Absolute(1e-6))),
        ("sz3.rel1e-2", lossy(&*LossyKind::Sz3.codec(), ErrorBound::Relative(1e-2))),
        ("sz3.abs1e-6", lossy(&*LossyKind::Sz3.codec(), ErrorBound::Absolute(1e-6))),
        ("szx.rel1e-2", lossy(&*LossyKind::Szx.codec(), ErrorBound::Relative(1e-2))),
        ("zfp.prec12", lossy(&*LossyKind::Zfp.codec(), ErrorBound::FixedPrecision(12))),
        ("zfp.abs1e-3", lossy(&*LossyKind::Zfp.codec(), ErrorBound::Absolute(1e-3))),
    ];
    for (name, kind) in [
        ("blosc-lz", LosslessKind::BloscLz),
        ("gzip", LosslessKind::Gzip),
        ("zlib", LosslessKind::Zlib),
        ("zstd", LosslessKind::Zstd),
        ("xz", LosslessKind::Xz),
    ] {
        out.push((name, kind.codec().compress(&raw)));
    }
    // What an aggregation tree forwards: f64 partial sums of the weights.
    let sums: Vec<u8> =
        data.iter().flat_map(|&v| (f64::from(v) * 3.0 + 0.25).to_le_bytes()).collect();
    out.push(("psum", PsumCodec::new().compress(&sums)));
    let model = ModelSpec::mobilenet_v2().instantiate_scaled(5, 0.02);
    out.push((
        "fedsz.default.mobilenet_v2@0.02",
        FedSz::default().compress(&model).unwrap().into_bytes(),
    ));
    out
}

/// `(name, stream length, CRC-32 of the stream)` on the parent commit.
const GOLDEN: &[(&str, usize, u32)] = &[
    ("sz2.rel1e-2", 10123, 0x3adb5d12),
    ("sz2.rel1e-3", 32474, 0x4131231c),
    ("sz2.rel1e-2.block1000", 7678, 0x5eb10889),
    ("sz2.lorenzo_only.rel1e-2", 10382, 0x20653d64),
    ("sz2.lorenzo_only.rel1e-3", 33980, 0x44a8dd29),
    ("sz2.abs1e-6", 141059, 0xe4cb324e),
    ("sz3.rel1e-2", 10318, 0x0d34590c),
    ("sz3.abs1e-6", 144937, 0x99596cf5),
    ("szx.rel1e-2", 97189, 0x2c20ccbc),
    ("zfp.prec12", 104990, 0x6b460fe3),
    ("zfp.abs1e-3", 87708, 0x7e6a76fe),
    ("blosc-lz", 235266, 0xe28df476),
    ("gzip", 240846, 0x33a7cf6a),
    ("zlib", 240842, 0xc1a3f35e),
    ("zstd", 240834, 0xf8e78b70),
    ("xz", 233241, 0x95c29da9),
    ("psum", 244614, 0xe44f13c6),
    ("fedsz.default.mobilenet_v2@0.02", 66531, 0x2144df1c),
];

#[test]
fn compressed_streams_are_byte_identical_to_the_parent_commit() {
    let got: Vec<(&str, usize, u32)> =
        streams().iter().map(|(name, s)| (*name, s.len(), crc32_reference(s))).collect();
    let table: String =
        got.iter().map(|(n, len, crc)| format!("    (\"{n}\", {len}, 0x{crc:08x}),\n")).collect();
    assert_eq!(got, GOLDEN, "streams moved; this run produced:\n{table}");
}

/// The goldens pin what is sent; this pins that it still decodes, so a
/// matched pair of encoder and decoder bugs cannot hide behind them.
#[test]
fn pinned_streams_still_round_trip() {
    let data = weights();
    let range =
        data.iter().fold(f32::MIN, |m, &v| m.max(v)) - data.iter().fold(f32::MAX, |m, &v| m.min(v));
    for (codec, rel) in [
        (Box::new(Sz2::new()) as Box<dyn ErrorBounded>, 1e-2f32),
        (Box::new(Sz2::new()), 1e-3),
        (Box::new(Sz2::with_block_size(1000)), 1e-2),
        (Box::new(Sz2::new().lorenzo_only()), 1e-2),
        (LossyKind::Sz3.codec(), 1e-2),
    ] {
        let packed = codec.compress(&data, ErrorBound::Relative(f64::from(rel))).unwrap();
        let back = codec.decompress(&packed).unwrap();
        let worst = data.iter().zip(&back).map(|(a, b)| (a - b).abs()).fold(0.0f32, f32::max);
        assert!(worst <= rel * range * (1.0 + 1e-5), "{}: {worst} > {}", codec.name(), rel * range);
    }
    let raw = f32_bytes(&data);
    for kind in LosslessKind::all() {
        let codec = kind.codec();
        assert_eq!(codec.decompress(&codec.compress(&raw)).unwrap(), raw, "{kind}");
    }
    let (_, psum) = streams().into_iter().find(|(name, _)| *name == "psum").expect("pinned");
    assert_eq!(PsumCodec::new().decompress(&psum).unwrap().len(), 8 * data.len());
}

/// One FMSG frame per tag, 1 through 7: varints of more than one byte,
/// both flag values and payloads from empty to past a two-byte length
/// prefix.
fn fmsg_samples() -> Vec<(u8, Message)> {
    let bytes = |n: usize, seed: u8| (0..n).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect();
    vec![
        (1, Message::Join { client_id: 300, round: 2, relay: true }),
        (2, Message::GlobalModel { round: 7, dict_bytes: bytes(200, 1) }),
        (
            3,
            Message::Update {
                round: 3,
                client_id: 1 << 40,
                payload: bytes(20_000, 2),
                compressed: true,
            },
        ),
        (4, Message::Shutdown),
        (5, Message::EncodedGlobal { round: u32::MAX, payload: Vec::new() }),
        (
            6,
            Message::PartialSum {
                round: 4,
                shard: 70_000,
                clients: 61,
                weight: 61.5,
                payload: bytes(129, 3),
                compressed: false,
            },
        ),
        (
            7,
            Message::PartialSum {
                round: 9,
                shard: 5,
                clients: 200,
                weight: -0.0,
                payload: bytes(5, 4),
                compressed: true,
            },
        ),
    ]
}

/// `(tag, frame length, CRC-32 of the frame without its trailer)` for
/// [`fmsg_samples`], as the commit before the FMSG field-table rewrite
/// encoded them. (A frame ends in the CRC-32 of what precedes it, so the
/// CRC of a whole frame is one residue at any content; the trailer
/// follows from the bytes pinned here.)
const FMSG_GOLDEN: &[(u8, usize, u32)] = &[
    (1, 16, 0x5d29a86b),
    (2, 215, 0x96008745),
    (3, 20023, 0x13fb7467),
    (4, 9, 0xae405726),
    (5, 14, 0x6ce6dd42),
    (6, 156, 0x30bc8387),
    (7, 30, 0xca0e0ee2),
];

#[test]
fn fmsg_frames_are_byte_identical_to_the_parent_commit() {
    let got: Vec<(u8, usize, u32)> = fmsg_samples()
        .iter()
        .map(|(tag, m)| {
            let frame = m.encode();
            assert_eq!(frame[4], *tag, "{m:?}");
            assert_eq!(Message::decode(&frame).as_ref(), Ok(m));
            (*tag, frame.len(), crc32_reference(&frame[..frame.len() - 4]))
        })
        .collect();
    let table: String =
        got.iter().map(|(t, len, crc)| format!("    ({t}, {len}, 0x{crc:08x}),\n")).collect();
    assert_eq!(got, FMSG_GOLDEN, "frames moved; this run produced:\n{table}");
}
