//! 1-bit quantization (Seide et al., "1-bit stochastic gradient
//! descent", Interspeech 2014).
//!
//! Every element is reduced to its sign bit. Reconstruction maps a set
//! bit to the mean of the positive elements and a clear bit to the
//! mean of the non-positive elements, which minimizes the squared
//! reconstruction error for the chosen partition. This is the
//! algorithm AWS integrated into BytePS ("BytePS-onebit") and the one
//! the paper most frequently evaluates.
//!
//! Stream layout after the common header:
//!
//! ```text
//! [neg_mean f32][pos_mean f32][elems x 1 bit, LSB-first, zero padded]
//! ```
//!
//! The data volume reduction is 1/32 of fp32 plus 16 bytes of
//! metadata — the "96.9%" figure quoted in §2.4.

use crate::header::{read_f32, AlgoId, Header, HEADER_LEN};
use crate::{AlgorithmKind, Compressor, KernelCostProfile};
use hipress_util::bits::{pack, packed_len, unpack};
use hipress_util::{Error, Result};

/// The optimized (CompLL-style) 1-bit quantizer.
///
/// Encode makes two passes (mean computation fused into one scan, sign
/// packing in a second), matching the fused-kernel implementation the
/// paper's code generator emits.
#[derive(Debug, Default, Clone, Copy)]
pub struct OneBit;

impl OneBit {
    /// Creates the compressor (it is parameterless).
    pub fn new() -> Self {
        OneBit
    }
}

/// The positive subset's sum, the non-positive subset's sum, and the
/// positive count, each sum taken in element order in `f64`.
///
/// Branch-free, a block at a time: each element is selected into one
/// side's block and `0.0` into the other's, then both blocks are
/// summed in element order. Each sum thus sees its own subset's
/// elements in order, and adding `+0.0` leaves a sum unchanged (neither
/// sum can hold `-0.0`: both start at `+0.0`), so both sums are
/// bit-identical to summing each subset alone.
fn subset_sums(grad: &[f32]) -> (f64, f64, u64) {
    const BLOCK: usize = 64;
    let (mut pos_sum, mut neg_sum, mut pos_n) = (0.0f64, 0.0f64, 0u64);
    for block in grad.chunks(BLOCK) {
        let (mut pos, mut neg) = ([0.0f32; BLOCK], [0.0f32; BLOCK]);
        for ((&x, p), n) in block.iter().zip(&mut pos).zip(&mut neg) {
            let is_pos = x > 0.0;
            *p = if is_pos { x } else { 0.0 };
            *n = if is_pos { 0.0 } else { x };
            pos_n += is_pos as u64;
        }
        for (&p, &n) in pos[..block.len()].iter().zip(&neg[..block.len()]) {
            pos_sum += p as f64;
            neg_sum += n as f64;
        }
    }
    (pos_sum, neg_sum, pos_n)
}

/// Computes the reconstruction levels: means of the positive and
/// non-positive element subsets. Zero-count subsets get level 0.
fn reconstruction_levels(grad: &[f32]) -> (f32, f32) {
    let (pos_sum, neg_sum, pos_n) = subset_sums(grad);
    let neg_n = grad.len() as u64 - pos_n;
    let mean = |sum: f64, n: u64| if n > 0 { (sum / n as f64) as f32 } else { 0.0 };
    (mean(neg_sum, neg_n), mean(pos_sum, pos_n))
}

impl Compressor for OneBit {
    fn name(&self) -> &'static str {
        "onebit"
    }

    fn kind(&self) -> AlgorithmKind {
        AlgorithmKind::Quantization
    }

    fn encode(&self, grad: &[f32], _seed: u64) -> Vec<u8> {
        let (neg_mean, pos_mean) = reconstruction_levels(grad);
        let mut out = Vec::with_capacity(self.compressed_size(grad.len()) as usize);
        Header {
            algo: AlgoId::OneBit,
            elems: grad.len() as u32,
        }
        .write(&mut out);
        out.extend_from_slice(&neg_mean.to_le_bytes());
        out.extend_from_slice(&pos_mean.to_le_bytes());
        pack(&mut out, 1, grad, |&x| (x > 0.0) as u64);
        out
    }

    fn decode(&self, data: &[u8]) -> Result<Vec<f32>> {
        let (h, rest) = Header::read_expecting(data, AlgoId::OneBit)?;
        let neg_mean = read_f32(rest, 0)?;
        let pos_mean = read_f32(rest, 4)?;
        let bits = &rest[8..];
        let levels = [neg_mean, pos_mean];
        unpack(bits, 1, h.elems as usize, |bit| levels[bit as usize])
            .ok_or_else(|| Error::codec("onebit stream truncated"))
    }

    fn compressed_size(&self, elems: usize) -> u64 {
        (HEADER_LEN + 8 + packed_len(elems, 1)) as u64
    }

    fn cost_profile(&self) -> KernelCostProfile {
        // One fused reduction pass + one pack pass on encode; a single
        // scatter pass on decode.
        KernelCostProfile {
            encode_passes: 2.0,
            decode_passes: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(grad: &[f32]) -> Vec<f32> {
        let c = OneBit::new();
        let enc = c.encode(grad, 0);
        assert_eq!(enc.len() as u64, c.compressed_size(grad.len()));
        c.decode(&enc).unwrap()
    }

    #[test]
    fn signs_are_preserved() {
        let grad = [1.0, -2.0, 3.0, -4.0, 0.5, -0.1];
        let dec = roundtrip(&grad);
        for (orig, rec) in grad.iter().zip(&dec) {
            assert_eq!(orig.is_sign_positive() && *orig > 0.0, *rec > 0.0);
        }
    }

    #[test]
    fn reconstruction_levels_are_subset_means() {
        let grad = [2.0, 4.0, -1.0, -3.0];
        let dec = roundtrip(&grad);
        assert_eq!(dec, vec![3.0, 3.0, -2.0, -2.0]);
    }

    #[test]
    fn all_positive_gradient() {
        let grad = [1.0, 2.0, 3.0];
        let dec = roundtrip(&grad);
        assert_eq!(dec, vec![2.0, 2.0, 2.0]);
    }

    #[test]
    fn all_zero_gradient() {
        let grad = [0.0; 17];
        let dec = roundtrip(&grad);
        assert_eq!(dec, vec![0.0; 17]);
    }

    #[test]
    fn empty_gradient() {
        let dec = roundtrip(&[]);
        assert!(dec.is_empty());
    }

    #[test]
    fn ratio_approaches_one_thirty_second() {
        let c = OneBit::new();
        // For a large gradient, 1 bit per 32-bit element plus small
        // constant metadata: ratio -> 1/32 = 3.125% (96.9% reduction,
        // the figure from SS2.4 of the paper).
        let r = c.ratio(1_000_000);
        assert!((r - 1.0 / 32.0).abs() < 0.001, "ratio {r}");
    }

    #[test]
    fn mean_preserved_in_expectation() {
        // onebit preserves the per-subset means exactly, so the total
        // sum of the reconstruction equals the sum of the original.
        let grad: Vec<f32> = (0..1000)
            .map(|i| ((i * 7919) % 100) as f32 - 49.5)
            .collect();
        let dec = roundtrip(&grad);
        let s1: f64 = grad.iter().map(|&x| x as f64).sum();
        let s2: f64 = dec.iter().map(|&x| x as f64).sum();
        assert!((s1 - s2).abs() / s1.abs().max(1.0) < 1e-3);
    }

    /// The branch-free sums equal summing each subset alone, bit for
    /// bit, on inputs spanning 2^±60 where the summation order shows
    /// in the rounding.
    #[test]
    fn subset_sums_match_per_subset_order() {
        use hipress_util::rng::{Rng64, Xoshiro256};
        let mut rng = Xoshiro256::new(0x0B17_0005);
        for len in [0usize, 1, 63, 64, 65, 1000, 4097] {
            let grad: Vec<f32> = (0..len)
                .map(|i| match i % 13 {
                    0 => 0.0,
                    1 => -0.0,
                    _ => {
                        let x = rng.next_f32() * 2.0 - 1.0;
                        x * 2f32.powi(rng.range_u64(0, 121) as i32 - 60)
                    }
                })
                .collect();
            let (mut pos, mut neg) = (0.0f64, 0.0f64);
            for &x in &grad {
                if x > 0.0 {
                    pos += x as f64;
                } else {
                    neg += x as f64;
                }
            }
            let (p, n, pos_n) = subset_sums(&grad);
            assert_eq!((p.to_bits(), n.to_bits()), (pos.to_bits(), neg.to_bits()));
            assert_eq!(pos_n as usize, grad.iter().filter(|&&x| x > 0.0).count());
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let c = OneBit::new();
        let enc = c.encode(&[1.0; 100], 0);
        assert!(c.decode(&enc[..enc.len() - 2]).is_err());
        assert!(c.decode(&enc[..4]).is_err());
    }
}
