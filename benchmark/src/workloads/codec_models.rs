//! `codec_models`: FedSZ compress + decompress of three paper-scale
//! model states on one thread.
//!
//! `lossy`, `lossless` and `core` do all the work here and `nn`,
//! `fl.agg` and `net` none, so this is the workload on which a codec
//! kernel change must show. Compress (client side) and decompress
//! (server side) are timed apart, so a gain for one that costs the other
//! stays visible.

use super::{Metric, Op, Summary, Workload};
use crate::inputs;
use crate::stats::median;
use crate::trace::Tracer;
use fedsz::{partition, CodecError, FedSz};
use fedsz_nn::StateDict;
use std::path::Path;
use std::time::Instant;

/// See the module docs.
pub struct CodecModels {
    fedsz: FedSz,
    models: Vec<(&'static str, StateDict)>,
    raw_bytes: usize,
    wire_bytes: usize,
    compress_s: Vec<f64>,
    decompress_s: Vec<f64>,
}

/// Checks one restored dict against its original: every lossy tensor
/// within the absolute bound the pipeline used for it, every other
/// tensor bit-exact.
pub fn verify(
    fedsz: &FedSz,
    original: &StateDict,
    restored: &Result<StateDict, CodecError>,
) -> Result<(), String> {
    let restored = restored.as_ref().map_err(|e| format!("decompress failed: {e}"))?;
    if restored.len() != original.len() {
        return Err("entry count differs".into());
    }
    for (name, tensor) in original.iter() {
        let back = restored.get(name).ok_or_else(|| format!("`{name}` missing"))?;
        if back.len() != tensor.len() {
            return Err(format!("`{name}` length differs"));
        }
        if partition::is_lossy(name, tensor.len(), fedsz.config().threshold) {
            let bound = fedsz
                .bound_for(name)
                .absolute_for(tensor.data())
                .ok_or_else(|| format!("`{name}` has no absolute bound"))?;
            let worst = tensor
                .data()
                .iter()
                .zip(back.data())
                .map(|(&x, &y)| (f64::from(x) - f64::from(y)).abs())
                .fold(0.0, f64::max);
            if worst > bound * (1.0 + 1e-6) {
                return Err(format!("`{name}` off by {worst:e}, bound {bound:e}"));
            }
        } else if tensor.data().iter().zip(back.data()).any(|(x, y)| x.to_bits() != y.to_bits()) {
            return Err(format!("lossless `{name}` is not bit-exact"));
        }
    }
    Ok(())
}

impl Workload for CodecModels {
    const NAME: &'static str = "codec_models";
    const THREADS: usize = 1;
    const CONNECTIONS: usize = 0;
    const WARMUP: usize = 1;
    const LEDGER_OPS: usize = 2;

    fn setup(seed: u64, _trace_dir: Option<&Path>) -> Self {
        let models = inputs::paper_models(seed);
        let raw_bytes = models.iter().map(|(_, m)| m.byte_size()).sum();
        Self {
            // The paper's pick, which is the default: SZ2, REL 1e-2, blosc-lz.
            fedsz: FedSz::default(),
            models,
            raw_bytes,
            wire_bytes: 0,
            compress_s: Vec::new(),
            decompress_s: Vec::new(),
        }
    }

    fn end_warmup(&mut self) {
        self.compress_s.clear();
        self.decompress_s.clear();
    }

    fn op(&mut self, tracer: &mut Tracer) -> Op {
        let (mut compress_s, mut decompress_s, mut wire_bytes) = (0.0, 0.0, 0usize);
        let mut failed = false;
        for (name, model) in &self.models {
            let span = tracer.enter("core.fedsz.compress");
            let t0 = Instant::now();
            let packed = self.fedsz.compress(model);
            compress_s += t0.elapsed().as_secs_f64();
            tracer.exit(span);
            let packed = match packed {
                Ok(packed) => packed,
                Err(why) => {
                    eprintln!("codec_models: {name}: compress failed: {why}");
                    failed = true;
                    continue;
                }
            };
            wire_bytes += packed.bytes().len();
            let span = tracer.enter("core.fedsz.decompress");
            let t1 = Instant::now();
            let restored = self.fedsz.decompress(packed.bytes());
            decompress_s += t1.elapsed().as_secs_f64();
            tracer.exit(span);
            if let Err(why) =
                tracer.scope("benchmark.verify", || verify(&self.fedsz, model, &restored))
            {
                eprintln!("codec_models: {name}: {why}");
                failed = true;
            }
        }
        self.wire_bytes = wire_bytes;
        self.compress_s.push(compress_s);
        self.decompress_s.push(decompress_s);
        Op { ms: (compress_s + decompress_s) * 1e3, failed }
    }

    fn finish(self, _tracer: &mut Tracer) -> Summary {
        let (c, d) = (median(&self.compress_s), median(&self.decompress_s));
        let raw = self.raw_bytes as f64;
        let saved_bits = 8.0 * (raw - self.wire_bytes as f64);
        Summary {
            model_bytes_per_op: raw,
            wire_ratio: raw / self.wire_bytes.max(1) as f64,
            late_failures: 0,
            extras: vec![
                Metric::new("compress_mbps", raw / c / 1e6, "MB/s"),
                Metric::new("decompress_mbps", raw / d / 1e6, "MB/s"),
                // The link speed at which Eqn 1 is an equality: below it
                // compressing pays, above it sending raw is faster.
                Metric::new("eqn1_breakeven_mbps", saved_bits / (c + d) / 1e6, "Mbit/s"),
            ],
            layers: vec![
                Metric::new("core.fedsz.compress_busy_s", c, "s"),
                Metric::new("core.fedsz.decompress_busy_s", d, "s"),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedsz_nn::models::specs::ModelSpec;

    fn small() -> (FedSz, StateDict) {
        (FedSz::default(), ModelSpec::mobilenet_v2().instantiate_scaled(5, 0.02))
    }

    #[test]
    fn clean_round_trip_passes() {
        let (fedsz, model) = small();
        let packed = fedsz.compress(&model).unwrap();
        assert_eq!(verify(&fedsz, &model, &fedsz.decompress(packed.bytes())), Ok(()));
    }

    #[test]
    fn one_flipped_payload_byte_is_a_failure() {
        let (fedsz, model) = small();
        let mut bytes = fedsz.compress(&model).unwrap().into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        assert!(verify(&fedsz, &model, &fedsz.decompress(&bytes)).is_err());
    }

    #[test]
    fn a_value_outside_its_bound_is_a_failure() {
        let (fedsz, model) = small();
        let (name, tensor) = model
            .iter()
            .find(|(n, t)| partition::is_lossy(n, t.len(), fedsz.config().threshold))
            .expect("the model has a lossy tensor");
        let bound = fedsz.bound_for(name).absolute_for(tensor.data()).unwrap();
        let mut off = model.clone();
        off.get_mut(name).unwrap().data_mut()[0] += (2.0 * bound) as f32;
        assert!(verify(&fedsz, &model, &Ok(off)).unwrap_err().contains("bound"));

        // And the lossless partition must come back bit for bit.
        let (name, _) = model
            .iter()
            .find(|(n, t)| !partition::is_lossy(n, t.len(), fedsz.config().threshold))
            .expect("the model has a lossless tensor");
        let mut off = model.clone();
        let v = &mut off.get_mut(name).unwrap().data_mut()[0];
        *v = f32::from_bits(v.to_bits() ^ 1);
        assert!(verify(&fedsz, &model, &Ok(off)).unwrap_err().contains("bit-exact"));
    }
}
