//! Golden vectors for the bit-packing quantizers: FNV-1a digests of
//! the encoded bytes and of the decoded `f32::to_bits`, pinned for
//! onebit, TBQ and TernGrad at every bitwidth 1–8.
//!
//! Inputs use fixed seeds, lengths around the byte and `u64` word
//! boundaries plus one large odd length, and special values: ±0.0,
//! exactly ±τ, and (in a second family) NaN. Any change to a codec's
//! kernels must leave every digest unchanged: the wire format and the
//! reconstruction are part of the contract with remote replicas.

use hipress_compress::Algorithm;
use hipress_util::rng::{Rng64, Xoshiro256};

/// TBQ threshold used by the golden inputs (and planted as ±τ).
const TAU: f32 = 0.5;

const LENGTHS: [usize; 8] = [0, 1, 7, 8, 63, 64, 65, (1 << 19) + 13];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// A gradient of `len` elements in ±2, with every seventh element
/// replaced by a special value (cycling through the family's list).
fn input(len: usize, with_nan: bool) -> Vec<f32> {
    let specials: &[f32] = if with_nan {
        &[0.0, -0.0, f32::NAN, TAU, -TAU]
    } else {
        &[0.0, -0.0, TAU, -TAU]
    };
    let mut rng = Xoshiro256::new(0x601D_0000 ^ len as u64 ^ ((with_nan as u64) << 40));
    (0..len)
        .map(|i| {
            let x = (rng.next_f32() * 2.0 - 1.0) * 2.0;
            if i % 7 == 0 {
                specials[(i / 7) % specials.len()]
            } else {
                x
            }
        })
        .collect()
}

/// `(encoded digest, decoded digest)` over every length and family.
fn digests(alg: Algorithm) -> (u64, u64) {
    let c = alg.build().expect("quantizers always build");
    let (mut enc_h, mut dec_h) = (FNV_OFFSET, FNV_OFFSET);
    for with_nan in [false, true] {
        for len in LENGTHS {
            let grad = input(len, with_nan);
            let seed = 0x5EED ^ (len as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let enc = c.encode(&grad, seed);
            assert_eq!(
                enc.len() as u64,
                c.compressed_size(len),
                "{alg:?} len {len}"
            );
            let dec = c.decode(&enc).expect("own stream decodes");
            assert_eq!(dec.len(), len, "{alg:?} len {len}");
            enc_h = fnv(enc_h, &(enc.len() as u64).to_le_bytes());
            enc_h = fnv(enc_h, &enc);
            for x in &dec {
                dec_h = fnv(dec_h, &x.to_bits().to_le_bytes());
            }
        }
    }
    (enc_h, dec_h)
}

fn check(alg: Algorithm, want: (u64, u64)) {
    let got = digests(alg);
    assert_eq!(
        got, want,
        "{alg:?}: golden digest changed (got {:#018x}, {:#018x})",
        got.0, got.1
    );
}

#[test]
fn onebit_golden() {
    check(
        Algorithm::OneBit,
        (0x4b0a_dd5a_471b_a97e, 0x06f2_92b0_c1bb_631e),
    );
}

#[test]
fn tbq_golden() {
    check(
        Algorithm::Tbq { tau: TAU },
        (0x0511_c7b3_d9a3_1cd5, 0x42a9_5947_43fc_3515),
    );
}

#[test]
fn terngrad_golden_every_bitwidth() {
    let want: [(u64, u64); 8] = [
        (0x3a46_afef_8558_144e, 0xad90_1b50_92a6_4941),
        (0x7261_7c97_9356_d2a3, 0x83fe_2a4f_4fc8_fdbc),
        (0x2ecd_edab_6d59_7f5e, 0x370f_c096_0234_8ee7),
        (0x70e9_55b9_fee7_dba3, 0x3599_4bc9_8425_f4e2),
        (0x9341_15d4_94b6_2a5b, 0x9875_e454_3f29_2bcb),
        (0xe36f_81ad_aafb_0891, 0x8864_9d45_6218_9ffc),
        (0xb7dd_942e_b569_0f4b, 0x84dd_40b2_5b21_6dcc),
        (0xd3c5_6a05_7475_d7a4, 0x4754_d124_6e48_6b8d),
    ];
    for (bitwidth, want) in (1u8..=8).zip(want) {
        check(Algorithm::TernGrad { bitwidth }, want);
    }
}
