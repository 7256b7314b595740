//! Per-layer probes: each times one layer's public entry points from
//! outside, on the tensors the workloads themselves run on.
//!
//! The lossy and lossless probes follow the pipeline's own partition and
//! per-tensor bounds. Concatenating a dict's lossy partition into one
//! array and compressing that — what `crates/bench/benches/compressors.rs`
//! does — gives ratios that mean nothing (SZ3 at 22 000× where
//! `FedSz::compress` on the same dict gives 10×): predictors see one
//! long smooth array instead of many short ranges with their own bounds.

use crate::inputs;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::Metric;
use fedsz::{partition, ErrorBound, FedSz, LossyKind};
use fedsz_codec::quantizer::{Quantized, Quantizer};
use fedsz_codec::{checksum, huffman};
use fedsz_dp::{DpMechanism, DpPolicy};
use fedsz_fl::agg::{Downlink, DownlinkMode, ExactAcc, PartialSum};
use fedsz_fl::codec::FamilyCodec;
use fedsz_fl::{Experiment, FlConfig};
use fedsz_lossless::{LosslessKind, PsumCodec};
use fedsz_net::{FrameReader, FrameWriter, Message, Reactor, ReactorEvent};
use fedsz_nn::StateDict;
use fedsz_telemetry::Telemetry;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

const MB: f64 = 1e6;

/// Pushes a throughput row: `bytes` (or elements) per `secs`, in millions.
fn push_rate(
    out: &mut Vec<Metric>,
    name: impl Into<String>,
    amount: f64,
    secs: f64,
    unit: &'static str,
) {
    out.push(Metric::new(name, amount / secs / MB, unit));
}

/// Runs `f` once inside a span; returns its result and wall seconds.
fn once<T>(tracer: &mut Tracer, name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let span = tracer.enter(name);
    let t0 = Instant::now();
    let out = black_box(f());
    let secs = t0.elapsed().as_secs_f64();
    tracer.exit(span);
    (out, secs)
}

/// Median wall seconds per call of `f`: at least three calls, and as many
/// more as fit in ~40 ms, so sub-millisecond layers get a real sample.
fn per_call<T>(tracer: &mut Tracer, name: &str, mut f: impl FnMut() -> T) -> f64 {
    let span = tracer.enter(name);
    let started = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3
        || (started.elapsed() < Duration::from_millis(40) && samples.len() < 10_000)
    {
        let t0 = Instant::now();
        black_box(f());
        samples.push(t0.elapsed().as_secs_f64());
    }
    tracer.exit(span);
    median(&samples)
}

/// The pipeline's lossy partition of `models`: each tensor with the
/// bound `FedSz` would compress it under.
fn lossy_partition<'a>(
    fedsz: &FedSz,
    models: &'a [(&'static str, StateDict)],
) -> Vec<(&'a [f32], ErrorBound)> {
    models
        .iter()
        .flat_map(|(_, model)| model.iter())
        .filter(|(name, t)| partition::is_lossy(name, t.len(), fedsz.config().threshold))
        .map(|(name, t)| (t.data(), fedsz.bound_for(name)))
        .collect()
}

/// The pipeline's lossless partition of `models`, serialized as the
/// pipeline serializes it (one little-endian `f32` blob).
fn lossless_blob(fedsz: &FedSz, models: &[(&'static str, StateDict)]) -> Vec<u8> {
    models
        .iter()
        .flat_map(|(_, model)| model.iter())
        .filter(|(name, t)| !partition::is_lossy(name, t.len(), fedsz.config().threshold))
        .flat_map(|(_, t)| t.data().iter().flat_map(|v| v.to_le_bytes()))
        .collect()
}

/// What one lossy codec did over a tensor list.
struct LossyRun {
    compress_s: f64,
    decompress_s: f64,
    raw_bytes: f64,
    packed_bytes: f64,
    /// Worst `max|x − x̂| / eb` over the tensors.
    err_over_eb: f64,
}

fn lossy_run(
    tracer: &mut Tracer,
    kind: LossyKind,
    tensors: &[(&[f32], ErrorBound)],
    decompress: bool,
) -> LossyRun {
    let codec = kind.codec();
    let mut run = LossyRun {
        compress_s: 0.0,
        decompress_s: 0.0,
        raw_bytes: 0.0,
        packed_bytes: 0.0,
        err_over_eb: 0.0,
    };
    let span = tracer.enter(&format!("lossy.{}", kind.name()));
    for &(data, bound) in tensors {
        let t0 = Instant::now();
        let packed = codec.compress(data, bound).expect("finite model weights");
        run.compress_s += t0.elapsed().as_secs_f64();
        run.raw_bytes += (data.len() * 4) as f64;
        run.packed_bytes += packed.len() as f64;
        if !decompress {
            continue;
        }
        let t1 = Instant::now();
        let back = codec.decompress(&packed).expect("own stream");
        run.decompress_s += t1.elapsed().as_secs_f64();
        let eb = bound.absolute_for(data).expect("relative bound on non-empty data");
        let worst = data
            .iter()
            .zip(&back)
            .map(|(&x, &y)| (f64::from(x) - f64::from(y)).abs())
            .fold(0.0, f64::max);
        run.err_over_eb = run.err_over_eb.max(worst / eb);
    }
    tracer.exit(span);
    run
}

/// `lossy.*`, `lossless.{blosclz..xz}.*` and `core.fedsz.*_self_frac` on
/// the `codec_models` inputs. `wire_ratio` is that workload's measured
/// ratio: the byte-weighted per-tensor probes must reproduce it.
pub fn codec_layers(
    tracer: &mut Tracer,
    fedsz: &FedSz,
    models: &[(&'static str, StateDict)],
    wire_ratio: f64,
    out: &mut Vec<Metric>,
) {
    let all = lossy_partition(fedsz, models);
    // SZ2 is the paper's pick and the one the ratio check needs, so it
    // sees all three models; the others see MobileNetV2 (14 MB) only.
    let mobilenet = lossy_partition(fedsz, &models[1..2]);
    let (mut sz2_lossy_s, mut sz2_bytes) = ((0.0, 0.0), (0.0, 0.0));
    for kind in LossyKind::all() {
        let tensors = if kind == LossyKind::Sz2 { &all } else { &mobilenet };
        let run = lossy_run(tracer, kind, tensors, true);
        let name = kind.name().to_ascii_lowercase();
        push_rate(
            out,
            format!("lossy.{name}.compress_mbps"),
            run.raw_bytes,
            run.compress_s,
            "MB/s",
        );
        push_rate(
            out,
            format!("lossy.{name}.decompress_mbps"),
            run.raw_bytes,
            run.decompress_s,
            "MB/s",
        );
        out.push(Metric::new(format!("lossy.{name}.ratio"), run.raw_bytes / run.packed_bytes, "x"));
        out.push(Metric::new(format!("lossy.{name}.err_over_eb"), run.err_over_eb, "fraction"));
        if kind == LossyKind::Sz2 {
            sz2_lossy_s = (run.compress_s, run.decompress_s);
            sz2_bytes = (run.raw_bytes, run.packed_bytes);
        }
    }
    let tight: Vec<(&[f32], ErrorBound)> =
        mobilenet.iter().map(|&(data, _)| (data, ErrorBound::Relative(1e-3))).collect();
    let run = lossy_run(tracer, LossyKind::Sz2, &tight, false);
    push_rate(out, "lossy.sz2.rel1e-3.compress_mbps", run.raw_bytes, run.compress_s, "MB/s");
    out.push(Metric::new("lossy.sz2.rel1e-3.ratio", run.raw_bytes / run.packed_bytes, "x"));

    let blob = lossless_blob(fedsz, models);
    let mut blosclz_s = (0.0, 0.0);
    for kind in LosslessKind::all() {
        let codec = kind.codec();
        let name = kind.name().to_ascii_lowercase().replace('-', "");
        let packed = codec.compress(&blob);
        let c = per_call(tracer, &format!("lossless.{name}.compress"), || codec.compress(&blob));
        let d = per_call(tracer, &format!("lossless.{name}.decompress"), || {
            codec.decompress(&packed).expect("own stream")
        });
        push_rate(out, format!("lossless.{name}.compress_mbps"), blob.len() as f64, c, "MB/s");
        push_rate(out, format!("lossless.{name}.decompress_mbps"), blob.len() as f64, d, "MB/s");
        out.push(Metric::new(
            format!("lossless.{name}.ratio"),
            blob.len() as f64 / packed.len() as f64,
            "x",
        ));
        if kind == fedsz.config().lossless {
            blosclz_s = (c, d);
            // The two partitions, each probed on its own, must add up to
            // what the pipeline put on the wire (its header and CRC are
            // a few hundred bytes): if not, the probes are not seeing
            // the tensors and bounds the pipeline sees.
            let ratio = (sz2_bytes.0 + blob.len() as f64) / (sz2_bytes.1 + packed.len() as f64);
            assert!(
                (ratio / wire_ratio - 1.0).abs() < 0.02,
                "per-tensor lossy.sz2 + lossless probes give ratio {ratio:.3}, codec_models \
                 measured wire_ratio {wire_ratio:.3}"
            );
        }
    }

    // What the pipeline adds on top of its two codecs on the same
    // tensors: partitioning, serialization, framing, the CRC.
    let (packed, pipeline_c) = once(tracer, "core.fedsz.compress", || {
        models.iter().map(|(_, m)| fedsz.compress(m).expect("finite weights")).collect::<Vec<_>>()
    });
    let (_, pipeline_d) = once(tracer, "core.fedsz.decompress", || {
        packed.iter().map(|p| fedsz.decompress(p.bytes()).expect("own stream")).collect::<Vec<_>>()
    });
    let self_frac = |pipeline: f64, parts: f64| ((pipeline - parts) / pipeline).max(0.0);
    out.push(Metric::new(
        "core.fedsz.compress_self_frac",
        self_frac(pipeline_c, sz2_lossy_s.0 + blosclz_s.0),
        "fraction",
    ));
    out.push(Metric::new(
        "core.fedsz.decompress_self_frac",
        self_frac(pipeline_d, sz2_lossy_s.1 + blosclz_s.1),
        "fraction",
    ));
}

/// `codec.*`, `core.delta.*`, `fl.codec.*`, `nn.state_dict.*`, `dp.*` on
/// one paper-scale model (MobileNetV2, 14 MB) and a drifted copy of it.
pub fn model_layers(
    tracer: &mut Tracer,
    seed: u64,
    fedsz: &FedSz,
    model: &StateDict,
    out: &mut Vec<Metric>,
) {
    let raw = model.byte_size() as f64;
    let update = inputs::perturbed(model, seed, 7, 0.002);

    // The Huffman stage sees what SZ2 feeds it: the quantizer's code
    // stream of one tensor under a previous-value predictor.
    let (_, tensor) = model
        .iter()
        .filter(|(name, t)| partition::is_lossy(name, t.len(), fedsz.config().threshold))
        .max_by_key(|(_, t)| t.len())
        .expect("the model has a lossy tensor");
    let eb = fedsz.config().error_bound.absolute_for(tensor.data()).expect("relative bound");
    let quantizer = Quantizer::new(eb as f32);
    let mut pred = 0.0f32;
    let codes: Vec<u16> = tensor
        .data()
        .iter()
        .map(|&x| match quantizer.quantize(pred, x) {
            Quantized::Code { code, reconstructed } => {
                pred = reconstructed;
                code
            }
            Quantized::Unpredictable(v) => {
                pred = v;
                0
            }
        })
        .collect();
    let code_bytes = (codes.len() * 2) as f64;
    let block = huffman::encode_block(&codes);
    let e = per_call(tracer, "codec.huffman.encode", || huffman::encode_block(&codes));
    let d = per_call(tracer, "codec.huffman.decode", || {
        huffman::decode_block(&block, &mut 0).expect("own block")
    });
    push_rate(out, "codec.huffman.encode_mbps", code_bytes, e, "MB/s");
    push_rate(out, "codec.huffman.decode_mbps", code_bytes, d, "MB/s");

    let bytes = model.to_bytes();
    let crc = per_call(tracer, "codec.crc32", || checksum::crc32(&bytes));
    push_rate(out, "codec.crc32.mbps", bytes.len() as f64, crc, "MB/s");
    let ser = per_call(tracer, "nn.state_dict.to_bytes", || model.to_bytes());
    let de = per_call(tracer, "nn.state_dict.from_bytes", || {
        StateDict::from_bytes(&bytes).expect("own bytes")
    });
    push_rate(out, "nn.state_dict.to_bytes_mbps", raw, ser, "MB/s");
    push_rate(out, "nn.state_dict.from_bytes_mbps", raw, de, "MB/s");

    let (delta, c) = once(tracer, "core.delta.compress", || {
        fedsz.compress_delta(&update, model).expect("finite weights")
    });
    let (_, d) = once(tracer, "core.delta.decompress", || {
        fedsz.decompress_delta(delta.bytes(), model).expect("own stream")
    });
    push_rate(out, "core.delta.compress_mbps", raw, c, "MB/s");
    push_rate(out, "core.delta.decompress_mbps", raw, d, "MB/s");

    let families = [
        ("topk", FamilyCodec::top_k(0.1).expect("valid ratio")),
        ("q8", FamilyCodec::quant(8, false).expect("valid width")),
        ("q4s", FamilyCodec::quant(4, true).expect("valid width")),
    ];
    for (name, codec) in families {
        let (stream, e) = once(tracer, &format!("fl.codec.{name}.encode"), || {
            codec.encode_delta(&update, model, None, seed).expect("finite weights")
        });
        let (_, d) = once(tracer, &format!("fl.codec.{name}.decode"), || {
            FamilyCodec::decode_delta(&stream, model).expect("own stream")
        });
        push_rate(out, format!("fl.codec.{name}.encode_mbps"), raw, e, "MB/s");
        push_rate(out, format!("fl.codec.{name}.decode_mbps"), raw, d, "MB/s");
        out.push(Metric::new(format!("fl.codec.{name}.ratio"), raw / stream.len() as f64, "x"));
    }

    let policy =
        DpPolicy { clip_norm: 1.0, noise_multiplier: 0.5, mechanism: DpMechanism::Gaussian, seed };
    let mut noised = update.clone();
    let (_, dp) = once(tracer, "dp.apply", || {
        let mut chunks: Vec<&mut [f32]> = noised.iter_mut().map(|(_, t)| t.data_mut()).collect();
        policy.apply(&mut chunks, 0, 0)
    });
    push_rate(out, "dp.apply_mbps", raw, dp, "MB/s");
}

/// `nn.*` and `data.*`: one client's epoch, one validation pass, one
/// dataset generation, on the `fl_sim` configuration.
pub fn nn_layers(tracer: &mut Tracer, config: &FlConfig, out: &mut Vec<Metric>) {
    let (_, generate) = once(tracer, "data.generate", || config.dataset.generate(&config.data));
    out.push(Metric::new("data.generate_s", generate, "s"));
    let mut client = config.build_client(0);
    let epoch = per_call(tracer, "nn.train_epoch", || client.train_epoch());
    out.push(Metric::new("nn.train_epoch_ms", epoch * 1e3, "ms"));
    let mut experiment = Experiment::new(config.clone());
    let evaluate = per_call(tracer, "nn.evaluate", || experiment.evaluate());
    out.push(Metric::new("nn.evaluate_ms", evaluate * 1e3, "ms"));
}

/// `fl.agg.*` (but the tree, which `agg_tree` itself measures) and
/// `lossless.psum.*`, on `update`: one tiny-AlexNet client update.
pub fn agg_layers(tracer: &mut Tracer, update: &StateDict, out: &mut Vec<Metric>) {
    let elems = update.total_elements() as f64;
    let values: Vec<f32> = update.iter().flat_map(|(_, t)| t.data().iter().copied()).collect();
    let mut accs = vec![ExactAcc::default(); values.len()];
    let add = per_call(tracer, "fl.agg.exactacc.add_slice", || {
        ExactAcc::add_slice(&mut accs, &values, 1.5)
    });
    let src = accs.clone();
    let merge =
        per_call(tracer, "fl.agg.exactacc.merge_slice", || ExactAcc::merge_slice(&mut accs, &src));
    push_rate(out, "fl.agg.exactacc.add_slice_melems", elems, add, "Melem/s");
    push_rate(out, "fl.agg.exactacc.merge_slice_melems", elems, merge, "Melem/s");

    // A leaf's worth of contributions, so the image has realistic high
    // bytes for the psum codec.
    let mut sum = PartialSum::new();
    let accumulate = per_call(tracer, "fl.agg.partial.accumulate", || sum.accumulate(update, 2.0));
    while sum.contributions() < 128 {
        sum.accumulate(update, 1.0 + (sum.contributions() % 7) as f64);
    }
    let finish = per_call(tracer, "fl.agg.partial.finish", || sum.finish());
    let image = sum.encode_exact();
    let encode = per_call(tracer, "fl.agg.partial.encode_exact", || sum.encode_exact());
    let decode = per_call(tracer, "fl.agg.partial.decode_exact", || {
        PartialSum::decode_exact(&image).expect("own image")
    });
    let image_bytes = image.len() as f64;
    push_rate(out, "fl.agg.partial.accumulate_melems", elems, accumulate, "Melem/s");
    push_rate(out, "fl.agg.partial.finish_melems", elems, finish, "Melem/s");
    push_rate(out, "fl.agg.partial.encode_exact_mbps", image_bytes, encode, "MB/s");
    push_rate(out, "fl.agg.partial.decode_exact_mbps", image_bytes, decode, "MB/s");

    let psum = PsumCodec::new();
    let frame = psum.compress(&image);
    let c = per_call(tracer, "lossless.psum.compress", || psum.compress(&image));
    let d = per_call(tracer, "lossless.psum.decompress", || {
        psum.decompress(&frame).expect("own frame")
    });
    push_rate(out, "lossless.psum.compress_mbps", image_bytes, c, "MB/s");
    push_rate(out, "lossless.psum.decompress_mbps", image_bytes, d, "MB/s");
    out.push(Metric::new("lossless.psum.ratio", image_bytes / frame.len() as f64, "x"));

    let downlink =
        Downlink::new(DownlinkMode::Compressed, Some(FlConfig::tiny_model_compression()));
    let payload = downlink.encode(update, None, 2);
    let e = per_call(tracer, "fl.agg.downlink.encode", || downlink.encode(update, None, 2));
    let d = per_call(tracer, "fl.agg.downlink.decode", || {
        downlink.decode(&payload.bytes, true).expect("own stream")
    });
    out.push(Metric::new("fl.agg.downlink.encode_ms", e * 1e3, "ms"));
    out.push(Metric::new("fl.agg.downlink.decode_ms", d * 1e3, "ms"));
}

/// A byte source that hands out at most 4 KiB per read, like a socket
/// delivering a frame in pieces.
struct Trickle<'a>(&'a [u8]);

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.0.len().min(buf.len()).min(4096);
        buf[..n].copy_from_slice(&self.0[..n]);
        self.0 = &self.0[n..];
        Ok(n)
    }
}

/// `net.*`: message encode/decode, framed stream I/O and the bare
/// reactor, on the two payload sizes `server_ingest` puts on the wire (a
/// FedSZ update and a raw state dict).
pub fn net_layers(
    tracer: &mut Tracer,
    packed_update: &[u8],
    raw_update: &[u8],
    out: &mut Vec<Metric>,
) {
    let messages: Vec<Message> = [(packed_update, true), (raw_update, false)]
        .into_iter()
        .map(|(payload, compressed)| Message::Update {
            round: 3,
            client_id: 1,
            payload: payload.to_vec(),
            compressed,
        })
        .collect();
    let frames: Vec<Vec<u8>> = messages.iter().map(Message::encode).collect();
    let wire_bytes: f64 = frames.iter().map(|f| f.len() as f64).sum();
    let e = per_call(tracer, "net.wire.encode", || {
        messages.iter().map(Message::encode).collect::<Vec<_>>()
    });
    let d = per_call(tracer, "net.wire.decode", || {
        frames.iter().map(|f| Message::decode(f).expect("own frame")).collect::<Vec<_>>()
    });
    push_rate(out, "net.wire.encode_mbps", wire_bytes, e, "MB/s");
    push_rate(out, "net.wire.decode_mbps", wire_bytes, d, "MB/s");

    // The smallest message: what a frame costs before any payload.
    let join = Message::Join { client_id: 1, round: 0, relay: false };
    let join_frame = join.encode();
    let e = per_call(tracer, "net.wire.join_encode", || join.encode());
    let d = per_call(tracer, "net.wire.join_decode", || {
        Message::decode(&join_frame).expect("own frame")
    });
    out.push(Metric::new("net.wire.join_encode_ns", e * 1e9, "ns"));
    out.push(Metric::new("net.wire.join_decode_ns", d * 1e9, "ns"));

    let stream: Vec<u8> = frames.iter().flatten().copied().collect();
    let w = per_call(tracer, "net.frame.write", || {
        let mut writer = FrameWriter::new(Vec::with_capacity(stream.len()));
        for frame in &frames {
            writer.write_frame(frame).expect("vec sink");
        }
        writer.into_inner()
    });
    let r = per_call(tracer, "net.frame.read", || {
        let mut reader = FrameReader::new(Trickle(&stream));
        let mut count = 0;
        while reader.read_message().expect("own stream").is_some() {
            count += 1;
        }
        assert_eq!(count, frames.len());
    });
    push_rate(out, "net.frame.write_mbps", wire_bytes, w, "MB/s");
    push_rate(out, "net.frame.read_mbps", wire_bytes, r, "MB/s");

    reactor_layers(tracer, &frames[0], out);
}

/// The bare reactor with two sessions: the cost of a tick that finds
/// nothing, and frames per second when a peer thread replays one cached
/// frame down both sessions.
fn reactor_layers(tracer: &mut Tracer, frame: &[u8], out: &mut Vec<Metric>) {
    const FRAMES: usize = 2000;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let addr = listener.local_addr().expect("bound listener");
    let mut reactor = Reactor::new(listener, 8).expect("nonblocking listener");
    let mut peers: Vec<TcpStream> =
        (0..2).map(|_| TcpStream::connect(addr).expect("connect to own reactor")).collect();
    let mut events = Vec::new();
    while reactor.sessions() < peers.len() {
        reactor.poll(Duration::from_millis(50), &mut events).expect("reactor tick");
    }
    let idle = per_call(tracer, "net.reactor.idle_poll", || {
        reactor.poll(Duration::ZERO, &mut events).expect("reactor tick")
    });
    out.push(Metric::new("net.reactor.idle_poll_us", idle * 1e6, "us"));

    let frame = Arc::new(frame.to_vec());
    let span = tracer.enter("net.reactor.frames");
    let t0 = Instant::now();
    let writer = {
        let frame = Arc::clone(&frame);
        std::thread::spawn(move || {
            for i in 0..FRAMES {
                peers[i % 2].write_all(&frame).expect("reactor is reading");
            }
            peers
        })
    };
    let mut received = 0;
    while received < FRAMES {
        reactor.poll(Duration::from_millis(50), &mut events).expect("reactor tick");
        received += events.iter().filter(|e| matches!(e, ReactorEvent::Frame(..))).count();
        assert!(
            !events.iter().any(|e| matches!(e, ReactorEvent::Closed(..))),
            "a replay session closed early"
        );
    }
    let secs = t0.elapsed().as_secs_f64();
    tracer.exit(span);
    drop(writer.join().expect("writer thread"));
    out.push(Metric::new("net.reactor.frames_per_s", FRAMES as f64 / secs, "1/s"));
}

/// `telemetry.*`: what one span costs with the handle on and off.
pub fn telemetry_layers(tracer: &mut Tracer, dir: &Path, out: &mut Vec<Metric>) {
    const BATCH: usize = 1000;
    let sink = dir.join("telemetry_probe.jsonl");
    let on = Telemetry::with_trace(&sink).expect("trace directory is writable");
    let enabled = per_call(tracer, "telemetry.span_enabled", || {
        for _ in 0..BATCH {
            drop(black_box(on.span("probe.span")));
        }
    });
    let off = Telemetry::disabled();
    let disabled = per_call(tracer, "telemetry.span_disabled", || {
        for _ in 0..BATCH {
            drop(black_box(off.span("probe.span")));
        }
    });
    // Ten megabytes of probe spans are nobody's trace.
    drop(on);
    let _ = std::fs::remove_file(&sink);
    out.push(Metric::new("telemetry.span_enabled_ns", enabled / BATCH as f64 * 1e9, "ns"));
    out.push(Metric::new("telemetry.span_disabled_ns", disabled / BATCH as f64 * 1e9, "ns"));
}
