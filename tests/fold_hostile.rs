//! Hostile-input tests of every decoder a peer's bytes can reach: the
//! fold step's two (`FoldStep::decode` for worker uploads,
//! `FoldStep::decode_partial` for relay partial-sum frames), the four
//! EBLC families and the five lossless back-ends on their own, and
//! `FedSz::decompress_with_config` — FSZ1 with no template, which is
//! what a worker runs on its downlink and `fedsz decompress` on a file.
//!
//! Every byte of an upload may come from a peer, so for each payload
//! kind — an `FSZ1` FedSZ stream, `FUC1` sparse and quantized delta
//! streams, raw dict bytes, `PsumCodec` frames of the exact (stride 16)
//! and the `f64` (stride 8) partial-sum image, a bare exact image, bare
//! SZ3, SZx and ZFP streams, bare blosc-lz, gzip, zlib, zstd and xz
//! frames, an `FSZ1` stream read without a template —
//! bit flips, truncations and forged length fields (with the CRC
//! trailer recomputed, as an attacker would) must come back as `Err`,
//! or as a dict or sum that still passed validation: never a panic, and
//! never an allocation sized by a length field that neither the
//! template nor the bytes present back.
//!
//! The allocation bound is observed, not assumed: this test binary
//! installs a global allocator that records the largest single request
//! each thread makes.

use fedsz::{FedSz, FedSzConfig, LossyKind};
use fedsz_codec::checksum::crc32;
use fedsz_codec::huffman::{self, HuffmanTable};
use fedsz_codec::varint::{read_bytes, read_uvarint, uvarint_len, write_bytes, write_uvarint};
use fedsz_fl::agg::PartialSum;
use fedsz_fl::codec::FamilyCodec;
use fedsz_fl::step::FoldStep;
use fedsz_fl::{FlConfig, StagePolicy};
use fedsz_lossless::{Lossless, LosslessKind, PsumCodec, ZstdLike};
use fedsz_net::Message;
use fedsz_nn::StateDict;
use fedsz_tensor::Tensor;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Largest allocation this thread requested since the last reset.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, plus a per-thread high-water mark of request
/// sizes (per thread, so tests running in parallel do not see each
/// other's allocations).
struct Watching;

fn note(size: usize) {
    // `try_with`: the slot is gone while a thread tears down.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` only touches a
// const-initialized, destructor-free thread-local `Cell` and never
// allocates.
unsafe impl GlobalAlloc for Watching {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Watching = Watching;

/// A four-entry architecture: one tensor the FedSZ partition rule
/// sends down the lossy path (a `weight` above the tiny-model
/// threshold of 128 elements — a ramp, so SZ2 predicts it perfectly and
/// its inner Huffman block is redundant enough that the zstd-class
/// backend really compresses it instead of storing it), and a small
/// weight, a bias and batch-norm statistics that stay lossless.
fn template() -> StateDict {
    let mut dict = StateDict::new();
    let wave = |n: usize, k: f32| (0..n).map(|i| (i as f32 * k).sin() * 0.1).collect();
    let ramp = (0..2048).map(|i| i as f32 * 1e-4).collect();
    dict.insert("conv.weight", Tensor::from_vec(vec![16, 128], ramp));
    dict.insert("fc.weight", Tensor::from_vec(vec![4, 16], wave(64, 0.91)));
    dict.insert("fc.bias", Tensor::from_vec(vec![4], wave(4, 1.7)));
    // Constant statistics make the lossless blob compressible too, so
    // its LZ frame is a real token stream rather than stored bytes.
    dict.insert("bn.running_var", Tensor::filled(vec![96], 1.0));
    dict
}

/// The template nudged the way a round of training would.
fn update_of(reference: &StateDict) -> StateDict {
    let mut update = reference.clone();
    for (_, tensor) in update.iter_mut() {
        if tensor.len() == 96 {
            continue; // running statistics barely move in one round
        }
        for (i, v) in tensor.data_mut().iter_mut().enumerate() {
            *v += ((i * 7 % 13) as f32 - 6.0) * 1e-3;
        }
    }
    update
}

/// How a payload reaches the fold.
#[derive(Clone, Copy, PartialEq)]
enum Route {
    /// A worker upload, through `FoldStep::decode`. The compressed
    /// containers (and only they) end in a CRC-32 of all before it.
    Upload { compressed: bool },
    /// A relay's exact image, `PsumCodec`-compressed or not, through
    /// `FoldStep::decode_partial` — what the socket root runs.
    PsumExact { compressed: bool },
    /// A compressed `f64` image of this many bytes, through the codec
    /// — the simulator's self-check.
    PsumF64 { image_len: usize },
    /// A bare EBLC stream, through that family's `decompress`: what an
    /// FSZ1 header's lossy id selects, with no template to check the
    /// element count first.
    Lossy(LossyKind),
    /// A bare lossless frame, through that back-end's `decompress`:
    /// what an FSZ1 header's lossless id selects, before any template
    /// can check the length the frame claims.
    Lossless(LosslessKind),
    /// An FSZ1 stream through `FedSz::decompress_with_config`, which
    /// has no template: the worker's downlink, `fedsz decompress`.
    Templateless,
}

/// One payload kind: the policy whose fold step accepts it, an honest
/// payload, and its route. (A psum frame's CRC is of the decoded image,
/// not of the frame before it, so there is no trailer to re-forge.)
struct Kind {
    name: &'static str,
    fold: FoldStep,
    payload: Vec<u8>,
    route: Route,
}

impl Kind {
    fn crc_trailer(&self) -> bool {
        matches!(self.route, Route::Upload { compressed: true } | Route::Templateless)
    }
}

/// The architecture of the psum kinds: one tensor under a one-letter
/// name, so an image's header is shorter than either stride and most
/// byte planes hold nothing but one byte position of the sums.
fn psum_template() -> StateDict {
    let mut dict = StateDict::new();
    dict.insert("w", Tensor::zeros(vec![2560]));
    dict
}

/// A partial sum whose images put all four plane modes in a frame:
/// magnitudes within one binade and one element in sixteen negative,
/// so the low bytes are constant zeros, the mantissa bytes noise, the
/// exponent byte skewed and the sign bytes dominated by one value.
fn partial_of(template: &StateDict) -> PartialSum {
    let mut sum = PartialSum::new();
    for (client, weight) in [(1u32, 1.0), (2, 2.0)] {
        let mut dict = template.clone();
        for (i, v) in dict.get_mut("w").unwrap().data_mut().iter_mut().enumerate() {
            let hash = (i as u32 ^ client << 16).wrapping_mul(0x9E37_79B9) >> 9;
            let magnitude = 0.25 + hash as f32 / (1u32 << 23) as f32 * 0.125;
            *v = if i % 16 == 5 { -magnitude } else { magnitude };
        }
        sum.accumulate(&dict, weight);
    }
    sum
}

/// What the bare lossless kinds carry: the update's small tensors
/// serialized, the bytes FedSZ's lossless stage codes. Its constant
/// statistics make every back-end code a real token stream.
fn lossless_blob(reference: &StateDict) -> Vec<u8> {
    let mut blob = StateDict::new();
    for (name, tensor) in update_of(reference).iter().filter(|(name, _)| *name != "conv.weight") {
        blob.insert(name, tensor.clone());
    }
    blob.to_bytes()
}

fn kinds(reference: &StateDict) -> Vec<Kind> {
    let update = update_of(reference);
    let codec: FedSzConfig = FlConfig::tiny_model_compression();
    let topk =
        StagePolicy::Family { codec: FamilyCodec::top_k(0.25).unwrap(), error_feedback: false };
    let q8 =
        StagePolicy::Family { codec: FamilyCodec::quant(8, false).unwrap(), error_feedback: false };
    let sparse = FamilyCodec::top_k(0.25).unwrap().encode_delta(&update, reference, None, 0);
    let quant = FamilyCodec::quant(8, false).unwrap().encode_delta(&update, reference, None, 0);
    let kind_over = |template: &StateDict, name, policy: &StagePolicy, payload, route| Kind {
        name,
        fold: FoldStep::new(policy, template.clone()),
        payload,
        route,
    };
    let kind = |name, policy, payload, route| kind_over(reference, name, policy, payload, route);
    let upload = |compressed| Route::Upload { compressed };
    let psum_template = psum_template();
    let sum = partial_of(&psum_template);
    let f64_image = sum.encode_payload();
    let fsz1 = FedSz::new(codec).compress(&update).unwrap().into_bytes();
    let bare = |name, family: LossyKind| {
        let tensor = update.get("conv.weight").unwrap();
        let stream = family.codec().compress(tensor.data(), codec.error_bound).unwrap();
        kind(name, &StagePolicy::Raw, stream, Route::Lossy(family))
    };
    let blob = lossless_blob(reference);
    let lossless = |name, backend: LosslessKind| {
        let frame = backend.codec().compress(&blob);
        kind(name, &StagePolicy::Raw, frame, Route::Lossless(backend))
    };
    vec![
        kind("FSZ1", &StagePolicy::Lossy(codec), fsz1.clone(), upload(true)),
        // The FSZ1 header's lossy id, not the server's plan, picks the
        // decoder: a server whose plan says SZ2 still runs SZ3 on a
        // frame that says SZ3.
        kind(
            "FSZ1-sz3",
            &StagePolicy::Lossy(codec),
            FedSz::new(codec.with_lossy(LossyKind::Sz3)).compress(&update).unwrap().into_bytes(),
            upload(true),
        ),
        kind("FUC1-sparse", &topk, sparse.unwrap(), upload(true)),
        kind("FUC1-quant", &q8, quant.unwrap(), upload(true)),
        kind("raw", &StagePolicy::Raw, update.to_bytes(), upload(false)),
        kind_over(
            &psum_template,
            "psum-exact",
            &StagePolicy::Raw,
            PsumCodec::with_stride(PartialSum::EXACT_STRIDE).compress(&sum.encode_exact()),
            Route::PsumExact { compressed: true },
        ),
        kind_over(
            &psum_template,
            "psum-raw",
            &StagePolicy::Raw,
            sum.encode_exact(),
            Route::PsumExact { compressed: false },
        ),
        kind_over(
            &psum_template,
            "psum-f64",
            &StagePolicy::Raw,
            PsumCodec::with_stride(PartialSum::PAYLOAD_STRIDE).compress(&f64_image),
            Route::PsumF64 { image_len: f64_image.len() },
        ),
        bare("sz3", LossyKind::Sz3),
        bare("szx", LossyKind::Szx),
        bare("zfp", LossyKind::Zfp),
        lossless("blosclz", LosslessKind::BloscLz),
        lossless("gzip", LosslessKind::Gzip),
        lossless("zlib", LosslessKind::Zlib),
        lossless("zstd", LosslessKind::Zstd),
        lossless("xz", LosslessKind::Xz),
        kind("FSZ1-no-template", &StagePolicy::Raw, fsz1, Route::Templateless),
    ]
}

/// One of [`kinds`], by name.
fn kind_named(reference: &StateDict, name: &str) -> Kind {
    kinds(reference).into_iter().find(|k| k.name == name).expect("a kind of that name")
}

/// Overwrites `payload` at `at` with the LEB128 encoding of `value`
/// (growing the payload if the varint runs past its end).
fn forge_varint(payload: &mut Vec<u8>, at: usize, value: u64) {
    let mut varint = Vec::new();
    write_uvarint(&mut varint, value);
    let end = (at + varint.len()).min(payload.len());
    payload.splice(at..end, varint);
}

/// Recomputes the CRC-32 trailer over everything before it.
fn fix_crc(payload: &mut [u8]) {
    if let Some(body_len) = payload.len().checked_sub(4) {
        let crc = crc32(&payload[..body_len]);
        payload[body_len..].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Runs the kind's decoder, asserting on an `Ok` that the result is
/// one the template still vouches for.
fn decode(kind: &Kind, payload: &[u8], reference: &StateDict, what: &str) -> Result<(), String> {
    match kind.route {
        Route::Upload { compressed } => {
            let dict = kind.fold.decode(payload, compressed, Some(reference))?;
            assert_eq!(dict.len(), reference.len(), "{}: {what}", kind.name);
            for ((name, tensor), (want, like)) in dict.iter().zip(reference.iter()) {
                assert_eq!((name, tensor.shape()), (want, like.shape()), "{}: {what}", kind.name);
                assert!(tensor.data().iter().all(|v| v.is_finite()), "{}: {what}", kind.name);
            }
        }
        Route::PsumExact { compressed } => {
            let sum = kind.fold.decode_partial(payload.to_vec(), compressed)?;
            let template = kind.fold.template();
            assert!(sum.is_empty() || sum.shape_matches(template), "{}: {what}", kind.name);
        }
        Route::PsumF64 { image_len } => {
            PsumCodec::with_stride(PartialSum::PAYLOAD_STRIDE)
                .decompress_within(payload, image_len)
                .map_err(|e| e.to_string())?;
        }
        Route::Lossy(family) => {
            family.codec().decompress(payload).map_err(|e| e.to_string())?;
        }
        Route::Lossless(backend) => {
            backend.codec().decompress(payload).map_err(|e| e.to_string())?;
        }
        Route::Templateless => {
            FedSz::decompress_with_config(payload).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Decodes one (possibly hostile) payload, asserting the contract that
/// holds for *any* input: no panic, no allocation beyond the bound,
/// and an `Ok` only for a result the template still vouches for.
/// Returns whether the payload was accepted.
fn decode_is_total(kind: &Kind, payload: &[u8], reference: &StateDict, what: &str) -> bool {
    // Decode tables (Huffman lookups, LZ windows) are alphabet-sized,
    // not input-sized, hence the constant; everything else must scale
    // with the architecture, not with what the payload claims.
    let limit = 16 * reference.byte_size() + (4 << 20);
    LARGEST.with(|largest| largest.set(0));
    let outcome = std::panic::catch_unwind(|| decode(kind, payload, reference, what));
    let largest = LARGEST.with(Cell::get);
    let outcome = outcome.unwrap_or_else(|_| panic!("{}: decode panicked on {what}", kind.name));
    assert!(
        largest <= limit,
        "{}: {what} made decode request {largest} bytes at once (limit {limit})",
        kind.name
    );
    match outcome {
        Ok(()) => true,
        Err(reason) => {
            assert!(!reason.is_empty());
            false
        }
    }
}

/// The mode byte of every plane of an honest `PsumCodec` frame.
fn plane_modes(frame: &[u8]) -> Vec<u8> {
    let stride = usize::from(frame[1]);
    let mut pos = 2;
    let n = read_uvarint(frame, &mut pos).unwrap() as usize / stride;
    let mut modes = Vec::new();
    for _ in 0..stride {
        modes.push(frame[pos]);
        pos += 1;
        match modes[modes.len() - 1] {
            0 => pos += 1,
            1 => pos += n,
            2 => {
                HuffmanTable::read_header(frame, &mut pos).unwrap();
                read_bytes(frame, &mut pos).unwrap();
            }
            _ => {
                read_bytes(frame, &mut pos).unwrap();
            }
        }
    }
    modes
}

#[test]
fn honest_payloads_decode() {
    let reference = template();
    for kind in kinds(&reference) {
        assert!(decode_is_total(&kind, &kind.payload, &reference, "the honest payload"));
        // An honest frame decodes to its bytes, and is coded rather
        // than stored, so the sweeps below reach its decoder.
        if let Route::Lossless(backend) = kind.route {
            assert_eq!(kind.payload[0], 1, "{}: stored", kind.name);
            let decoded = backend.codec().decompress(&kind.payload).unwrap();
            assert_eq!(decoded, lossless_blob(&reference), "{}", kind.name);
        }
        // The sweeps below must reach every plane decoder.
        if matches!(kind.name, "psum-exact" | "psum-f64") {
            let modes = plane_modes(&kind.payload);
            assert!((0..4).all(|mode| modes.contains(&mode)), "{}: modes {modes:?}", kind.name);
        }
    }
}

/// The frame from the bug report: a 30-byte `FUC1` sparse upload with
/// a valid CRC whose one stream claims `total = kept = 2^44`. Before
/// the fix it reached `Vec::with_capacity(2^44)` — a 128 TiB request
/// and a SIGABRT, not a catchable panic — on any server whose uplink
/// policy is a family.
#[test]
fn thirty_byte_sparse_frame_is_an_error_not_an_abort() {
    let mut reference = StateDict::new();
    reference.insert("w", Tensor::zeros(vec![4]));
    let mut frame = b"FUC1".to_vec();
    frame.extend([1, 0]); // version, sparse family
    frame.extend([1, 1, b'w', 1, 4]); // one entry: "w", rank 1, shape [4]
    let mut stream = Vec::new();
    write_uvarint(&mut stream, 1 << 44);
    write_uvarint(&mut stream, 1 << 44);
    frame.push(stream.len() as u8);
    frame.extend(&stream);
    frame.extend(crc32(&frame).to_le_bytes());
    assert_eq!(frame.len(), 30);

    let topk =
        StagePolicy::Family { codec: FamilyCodec::top_k(0.5).unwrap(), error_feedback: false };
    let kind = Kind {
        name: "FUC1-sparse",
        fold: FoldStep::new(&topk, reference.clone()),
        payload: frame,
        route: Route::Upload { compressed: true },
    };
    assert!(!decode_is_total(&kind, &kind.payload, &reference, "the 30-byte hostile frame"));
}

/// Swaps the `honest` lossy stream inside an FSZ1 payload for `forged`
/// and fixes its length prefix and the CRC trailer: how a forged EBLC
/// stream reaches a decoder from the network.
fn swap_lossy_stream(fsz1: &[u8], honest: &[u8], forged: &[u8]) -> Vec<u8> {
    let mut prefixed = Vec::new();
    write_bytes(&mut prefixed, honest);
    let at = fsz1
        .windows(prefixed.len())
        .position(|w| w == prefixed)
        .expect("the FSZ1 frame carries the honest stream");
    let mut payload = fsz1[..at].to_vec();
    write_bytes(&mut payload, forged);
    payload.extend_from_slice(&fsz1[at + prefixed.len()..]);
    fix_crc(&mut payload);
    payload
}

/// The stream from the SZ3 bug report: a well-formed SZ3 stream whose
/// residual container claims 2^60 unpredictable values, so every outer
/// length and checksum is consistent. Before the fix `Sz3::decompress`
/// passed that count to `Vec::with_capacity` — a 4 EiB request and a
/// SIGABRT. It must be an `Err` both bare and wrapped in an FSZ1 frame
/// whose header says SZ3, which is how it reaches a server from the
/// network.
#[test]
fn forged_sz3_unpredictable_count_is_an_error_not_an_abort() {
    let reference = template();
    let (bare, framed) = (&kind_named(&reference, "sz3"), &kind_named(&reference, "FSZ1-sz3"));

    // Built by hand: header, bound, and a container of one
    // zero-residual code per element of the lossy tensor, closed by the
    // raw-value count.
    let n = reference.get("conv.weight").unwrap().len();
    let stream = |count: u64| {
        let mut inner = huffman::encode_block(&vec![1u16 << 15; n]);
        write_uvarint(&mut inner, count);
        let mut stream = vec![LossyKind::Sz3.id(), 1];
        write_uvarint(&mut stream, n as u64);
        stream.extend(1e-3f64.to_le_bytes());
        write_bytes(&mut stream, &ZstdLike::new().compress(&inner));
        stream
    };
    assert!(decode_is_total(bare, &stream(0), &reference, "the hand-built stream"));
    let forged = stream(1 << 60);
    assert!(!decode_is_total(bare, &forged, &reference, "the forged SZ3 stream"));
    let payload = swap_lossy_stream(&framed.payload, &bare.payload, &forged);
    assert!(!decode_is_total(framed, &payload, &reference, "the forged SZ3 frame"));
}

/// The two streams from the SZx/ZFP bug report: a header whose element
/// count is 2^40 and nothing behind it. Both decoders passed the count
/// to `Vec::with_capacity` as read — a 4 TiB request: a SIGABRT in
/// release, a capacity panic in debug. They must be an `Err` bare and
/// inside an FSZ1 frame read with no template, where the frame's
/// header, not a plan, picks the decoder.
#[test]
fn forged_element_counts_are_errors_not_aborts() {
    let reference = template();
    let no_template = kind_named(&reference, "FSZ1-no-template");
    let codec: FedSzConfig = FlConfig::tiny_model_compression();
    let mut count = Vec::new();
    write_uvarint(&mut count, 1 << 40);
    // id, version, n, then SZx's bound and block size / ZFP's mode and
    // precision.
    let szx = [&[18, 1][..], &count, &1e-3f64.to_le_bytes(), &[128, 1]].concat();
    let zfp = [&[19, 1][..], &count, &[0, 12]].concat();
    assert_eq!((szx.len(), zfp.len()), (18, 10));
    for (family, name, forged) in [(LossyKind::Szx, "szx", szx), (LossyKind::Zfp, "zfp", zfp)] {
        let bare = kind_named(&reference, name);
        assert!(!decode_is_total(&bare, &forged, &reference, "the forged count, bare"));
        let fsz1 = FedSz::new(codec.with_lossy(family)).compress(&update_of(&reference)).unwrap();
        let framed = swap_lossy_stream(fsz1.bytes(), &bare.payload, &forged);
        assert!(!decode_is_total(&no_template, &framed, &reference, "the forged count, framed"));
    }
}

/// The frame from the psum bug report: an honest relay frame with its
/// declared image length rewritten to 2^60. The shuffle + LZ codec
/// passed that length to `Vec::with_capacity` — a SIGABRT at the root
/// of a sharded run. It must be an `Err` on the codec alone and inside
/// a compressed `PartialSum` message with a valid frame CRC, which is
/// how it reaches `fold_upload` from the network.
#[test]
fn forged_psum_length_is_an_error_not_an_abort() {
    let reference = template();
    let kind = kind_named(&reference, "psum-exact");
    let image_len = partial_of(kind.fold.template()).encode_exact().len() as u64;
    let mut forged = kind.payload[..2].to_vec();
    write_uvarint(&mut forged, 1 << 60);
    forged.extend_from_slice(&kind.payload[2 + uvarint_len(image_len)..]);

    // Bare, under the allocation watch, at the bound a root derives and
    // through the entry point that takes none.
    let codec = PsumCodec::with_stride(PartialSum::EXACT_STRIDE);
    let bound = PartialSum::max_exact_image_len(kind.fold.template());
    let limit = 16 * reference.byte_size() + (4 << 20);
    LARGEST.with(|largest| largest.set(0));
    assert!(codec.decompress_within(&forged, bound).is_err());
    assert!(codec.decompress(&forged).is_err());
    let largest = LARGEST.with(Cell::get);
    assert!(largest <= limit, "bare decode requested {largest} bytes at once");

    // Framed: the message survives the wire's own CRC check, and the
    // fold step refuses its payload.
    let wire = Message::PartialSum {
        round: 0,
        shard: 1,
        clients: 2,
        weight: 3.0,
        payload: forged,
        compressed: true,
    }
    .encode();
    let Ok(Message::PartialSum { payload, compressed: true, .. }) = Message::decode(&wire) else {
        panic!("a well-framed message must decode");
    };
    assert!(!decode_is_total(&kind, &payload, &reference, "the forged psum frame"));
}

/// Every byte offset of every payload kind, overwritten with a huge
/// varint and re-checksummed: whichever length field lives there —
/// entry counts, ranks, dimensions, stream and blob lengths, the
/// codecs' own element counts and inner frame sizes — must be refused
/// or harmless.
#[test]
fn a_forged_length_at_any_offset_is_refused_or_harmless() {
    let reference = template();
    for kind in kinds(&reference) {
        for forged in [1u64 << 24, 1 << 44, u64::MAX] {
            for at in 0..kind.payload.len() {
                let mut payload = kind.payload.clone();
                forge_varint(&mut payload, at, forged);
                if kind.crc_trailer() {
                    fix_crc(&mut payload);
                }
                let what = format!("{forged:#x} forged at byte {at}");
                decode_is_total(&kind, &payload, &reference, &what);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(600))]

    /// Random single-bit flips, truncations and forged varints, with
    /// and without the CRC recomputed.
    #[test]
    fn mutated_uploads_are_errors_not_crashes(
        which in 0usize..17,
        mutation in 0usize..3,
        at in any::<u32>(),
        bit in 0u32..8,
        forged in prop_oneof![
            Just(1u64 << 24), Just(1u64 << 31), Just(1u64 << 44), Just(u64::MAX >> 1),
            Just(u64::MAX),
        ],
        recompute_crc in any::<bool>(),
    ) {
        let reference = template();
        let kind = kinds(&reference).swap_remove(which);
        let mut payload = kind.payload.clone();
        let at = at as usize % payload.len();
        let what = match mutation {
            0 => {
                payload[at] ^= 1 << bit;
                format!("bit {bit} of byte {at} flipped")
            }
            1 => {
                payload.truncate(at);
                format!("truncation to {at} bytes")
            }
            _ => {
                forge_varint(&mut payload, at, forged);
                format!("{forged:#x} forged at byte {at}")
            }
        };
        let recompute_crc = recompute_crc && kind.crc_trailer();
        if recompute_crc {
            fix_crc(&mut payload);
        }
        let accepted = decode_is_total(&kind, &payload, &reference, &what);
        // A truncated payload can never be whole, and a CRC-carrying
        // container whose trailer no longer matches is always refused.
        if mutation == 1 || (kind.crc_trailer() && !recompute_crc) {
            prop_assert!(!accepted, "{}: {what} was accepted", kind.name);
        }
    }
}
