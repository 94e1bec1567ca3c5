//! Stochastic linear quantization (TernGrad; Wen et al., NeurIPS 2017),
//! generalized over a bitwidth parameter exactly as in the paper's
//! Figure 5 CompLL listing.
//!
//! Encoding maps each element to an integer level in
//! `[0, 2^bitwidth - 1]` between the gradient's min and max, using
//! *stochastic rounding* so the quantizer is unbiased:
//!
//! ```text
//! gap = (max - min) / (2^bitwidth - 1)
//! q   = floor((x - min) / gap + U[0,1))
//! x̂   = min + q * gap
//! ```
//!
//! With `bitwidth = 2` this is the ternary-style low-precision
//! quantizer the paper evaluates; Figure 12b sweeps bitwidth over
//! {2, 4, 8}.
//!
//! Stream layout after the common header:
//!
//! ```text
//! [bitwidth u8][min f32][max f32][elems x bitwidth bits]
//! ```

use crate::header::{read_f32, AlgoId, Header, HEADER_LEN};
use crate::{AlgorithmKind, Compressor, KernelCostProfile};
use hipress_util::bits::{pack, packed_len, unpack};
use hipress_util::rng::{Rng64, Xoshiro256};
use hipress_util::{Error, Result};

/// The optimized stochastic linear quantizer.
#[derive(Debug, Clone, Copy)]
pub struct TernGrad {
    bitwidth: u8,
}

impl TernGrad {
    /// Creates the quantizer with the given bits-per-element.
    ///
    /// # Panics
    ///
    /// Panics unless `bitwidth` is in `1..=8`.
    pub fn new(bitwidth: u8) -> Self {
        assert!(
            (1..=8).contains(&bitwidth),
            "TernGrad bitwidth must be in 1..=8"
        );
        Self { bitwidth }
    }

    /// The configured bits-per-element.
    pub fn bitwidth(&self) -> u8 {
        self.bitwidth
    }

    /// Number of quantization levels (`2^bitwidth`).
    fn levels(&self) -> u32 {
        1u32 << self.bitwidth
    }
}

impl Compressor for TernGrad {
    fn name(&self) -> &'static str {
        "terngrad"
    }

    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::Quantization
    }

    fn encode(&self, grad: &[f32], seed: u64) -> Vec<u8> {
        let mut rng = Xoshiro256::new(seed);
        // Pass 1 (fused reduction): min and max.
        let (mut min, mut max) = (f32::INFINITY, f32::NEG_INFINITY);
        for &x in grad {
            min = min.min(x);
            max = max.max(x);
        }
        if grad.is_empty() {
            min = 0.0;
            max = 0.0;
        }
        let span = max - min;
        let gap = if span > 0.0 {
            span / (self.levels() - 1) as f32
        } else {
            0.0
        };

        let mut out = Vec::with_capacity(self.compressed_size(grad.len()) as usize);
        Header {
            algo: AlgoId::TernGrad,
            elems: grad.len() as u32,
        }
        .write(&mut out);
        out.push(self.bitwidth);
        out.extend_from_slice(&min.to_le_bytes());
        out.extend_from_slice(&max.to_le_bytes());

        // Pass 2: stochastic rounding + bit packing.
        let top = self.levels() - 1;
        pack(&mut out, self.bitwidth as u32, grad, |&x| {
            let q = if gap > 0.0 {
                let r = (x - min) / gap;
                // floor() without the libm call: a float-to-int `as`
                // truncates toward zero and saturates every negative
                // value (and NaN) to 0, which is exactly `floor() as
                // u32` on every input.
                let rounded = (r + rng.next_f32()) as u32;
                rounded.min(top)
            } else {
                0
            };
            q as u64
        });
        out
    }

    fn decode(&self, data: &[u8]) -> Result<Vec<f32>> {
        let (h, rest) = Header::read_expecting(data, AlgoId::TernGrad)?;
        let bitwidth = *rest
            .first()
            .ok_or_else(|| Error::codec("terngrad stream missing bitwidth"))?;
        if !(1..=8).contains(&bitwidth) {
            return Err(Error::codec(format!(
                "invalid terngrad bitwidth {bitwidth}"
            )));
        }
        let min = read_f32(rest, 1)?;
        let max = read_f32(rest, 5)?;
        let bits = &rest[9..];
        let levels = (1u32 << bitwidth) - 1;
        let gap = if levels > 0 && max > min {
            (max - min) / levels as f32
        } else {
            0.0
        };
        unpack(bits, bitwidth as u32, h.elems as usize, |q| {
            min + q as f32 * gap
        })
        .ok_or_else(|| Error::codec("terngrad stream truncated"))
    }

    fn compressed_size(&self, elems: usize) -> u64 {
        (HEADER_LEN + 9 + packed_len(elems, self.bitwidth as u32)) as u64
    }

    fn cost_profile(&self) -> KernelCostProfile {
        // Fused min/max reduction pass + quantize/pack pass on encode;
        // one scatter pass on decode.
        KernelCostProfile {
            encode_passes: 2.0,
            decode_passes: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_snap_to_levels() {
        let c = TernGrad::new(2);
        let grad = [0.0, 1.0, 2.0, 3.0];
        let dec = c.decode(&c.encode(&grad, 1)).unwrap();
        // min=0, max=3, 4 levels => gap=1. Values exactly on levels are
        // preserved... except stochastic rounding can push an interior
        // value up by one level. Error is bounded by gap.
        for (o, d) in grad.iter().zip(&dec) {
            assert!((o - d).abs() <= 1.0 + 1e-6, "{o} vs {d}");
            let level = d / 1.0;
            assert!((level - level.round()).abs() < 1e-6, "not on a level: {d}");
        }
        // Endpoints are always exact.
        assert_eq!(dec[0], 0.0);
        assert_eq!(dec[3], 3.0);
    }

    #[test]
    fn error_bounded_by_gap() {
        for bitwidth in [1u8, 2, 4, 8] {
            let c = TernGrad::new(bitwidth);
            let grad: Vec<f32> = (0..1000).map(|i| (i as f32 * 0.7).sin()).collect();
            let dec = c.decode(&c.encode(&grad, 42)).unwrap();
            let (min, max) = grad
                .iter()
                .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &x| {
                    (lo.min(x), hi.max(x))
                });
            let gap = (max - min) / ((1u32 << bitwidth) - 1).max(1) as f32;
            for (o, d) in grad.iter().zip(&dec) {
                assert!(
                    (o - d).abs() <= gap + 1e-5,
                    "bitwidth {bitwidth}: error {} > gap {gap}",
                    (o - d).abs()
                );
            }
        }
    }

    #[test]
    fn stochastic_rounding_is_unbiased() {
        let c = TernGrad::new(2);
        // A constant interior value: its expectation over many seeds
        // must approach the true value.
        let grad = vec![0.0f32, 3.0, 1.3];
        let mut sum = 0.0f64;
        let trials = 20_000;
        for seed in 0..trials {
            let dec = c.decode(&c.encode(&grad, seed)).unwrap();
            sum += dec[2] as f64;
        }
        let mean = sum / trials as f64;
        assert!((mean - 1.3).abs() < 0.02, "biased mean {mean}");
    }

    #[test]
    fn deterministic_given_seed() {
        let c = TernGrad::new(4);
        let grad: Vec<f32> = (0..257).map(|i| (i as f32).cos()).collect();
        assert_eq!(c.encode(&grad, 9), c.encode(&grad, 9));
        assert_ne!(c.encode(&grad, 9), c.encode(&grad, 10));
    }

    /// The encoder's `as u32` stands in for `floor() as u32`: equal on
    /// specials, near-integers and a sweep of bit patterns.
    #[test]
    fn truncation_equals_floor_then_cast() {
        let mut xs = vec![
            0.0f32,
            -0.0,
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            0.999_999_94,
            -0.999_999_94,
            1.0,
            -1.0,
            4_294_967_296.0,
            f32::MAX,
        ];
        xs.extend((0..=u32::MAX).step_by(65_521).map(f32::from_bits));
        for x in xs {
            assert_eq!(x as u32, x.floor() as u32, "{x:e}");
        }
    }

    #[test]
    fn constant_gradient() {
        let c = TernGrad::new(2);
        let grad = [5.5f32; 33];
        let dec = c.decode(&c.encode(&grad, 0)).unwrap();
        assert_eq!(dec, vec![5.5; 33]);
    }

    #[test]
    fn empty_gradient() {
        let c = TernGrad::new(8);
        assert!(c.decode(&c.encode(&[], 0)).unwrap().is_empty());
    }

    #[test]
    fn size_scales_with_bitwidth() {
        for (b, expect_bits) in [(1u8, 1usize), (2, 2), (4, 4), (8, 8)] {
            let c = TernGrad::new(b);
            let n = 1024;
            assert_eq!(
                c.compressed_size(n),
                (HEADER_LEN + 9 + n * expect_bits / 8) as u64
            );
        }
    }

    #[test]
    fn decode_rejects_bad_bitwidth() {
        let c = TernGrad::new(2);
        let mut enc = c.encode(&[1.0, 2.0], 0);
        enc[HEADER_LEN] = 13; // Corrupt the bitwidth byte.
        assert!(c.decode(&enc).is_err());
    }

    #[test]
    #[should_panic(expected = "bitwidth must be in 1..=8")]
    fn invalid_bitwidth_panics() {
        TernGrad::new(0);
    }
}
