//! Randomized tests for the bit-level reader/writer duality, driven
//! by the workspace's own deterministic PRNGs.

use hipress_util::bits::{pack, packed_len, unpack, BitReader, BitWriter};
use hipress_util::rng::{Rng64, Xoshiro256};

const CASES: usize = 256;

/// A sequence of (value, width) pairs where each value fits its width.
fn codes(rng: &mut impl Rng64) -> Vec<(u64, u32)> {
    let n = rng.index(200);
    (0..n)
        .map(|_| {
            let w = rng.range_u64(1, 65) as u32;
            let v = if w == 64 {
                rng.next_u64()
            } else {
                rng.next_below(1u64 << w)
            };
            (v, w)
        })
        .collect()
}

/// Every sequence of writes reads back identically.
#[test]
fn roundtrip() {
    let mut rng = Xoshiro256::new(0xB175_0001);
    for _ in 0..CASES {
        let codes = codes(&mut rng);
        let mut w = BitWriter::new();
        let mut total_bits = 0usize;
        for &(v, width) in &codes {
            w.write(v, width);
            total_bits += width as usize;
        }
        assert_eq!(w.bit_len(), total_bits);
        let bytes = w.finish();
        assert_eq!(bytes.len(), total_bits.div_ceil(8));
        let mut r = BitReader::new(&bytes);
        for &(v, width) in &codes {
            assert_eq!(r.read(width), Some(v));
        }
        // Anything left is only zero padding within the final byte.
        assert!(r.remaining_bits() < 8);
        while let Some(bit) = r.read_bit() {
            assert!(!bit, "padding bits must be zero");
        }
    }
}

/// Fixed-width packing density matches `packed_len`.
#[test]
fn fixed_width_density() {
    let mut rng = Xoshiro256::new(0xB175_0002);
    for _ in 0..CASES {
        let count = rng.index(500);
        let width = rng.range_u64(1, 17) as u32;
        let mut w = BitWriter::new();
        for i in 0..count {
            let mask = if width == 64 {
                u64::MAX
            } else {
                (1u64 << width) - 1
            };
            w.write(i as u64 & mask, width);
        }
        assert_eq!(w.finish().len(), packed_len(count, width));
    }
}

/// Skipping n bits is equivalent to reading and discarding them.
#[test]
fn skip_equals_read() {
    let mut rng = Xoshiro256::new(0xB175_0003);
    for _ in 0..CASES {
        let bytes: Vec<u8> = (0..rng.range_u64(1, 64))
            .map(|_| rng.next_u64() as u8)
            .collect();
        let skip = rng.index(256);
        let mut r1 = BitReader::new(&bytes);
        let mut r2 = BitReader::new(&bytes);
        let available = r1.remaining_bits();
        let did_skip = r1.skip(skip).is_some();
        assert_eq!(did_skip, skip <= available);
        if did_skip {
            for _ in 0..skip {
                r2.read_bit();
            }
            assert_eq!(r1.bit_pos(), r2.bit_pos());
            // Remaining streams agree.
            loop {
                let (a, b) = (r1.read_bit(), r2.read_bit());
                assert_eq!(a, b);
                if a.is_none() {
                    break;
                }
            }
        }
    }
}

/// The word-level `pack` writes exactly the bytes `BitWriter::write`
/// writes, for every width 1–8 and every length 0–200; `unpack`
/// reads them back and refuses a stream one byte short.
#[test]
fn pack_matches_bit_writer() {
    let mut rng = Xoshiro256::new(0xB175_0004);
    for width in 1..=8u32 {
        for len in 0..=200usize {
            let codes: Vec<u64> = (0..len).map(|_| rng.next_below(1 << width)).collect();
            let mut w = BitWriter::new();
            for &c in &codes {
                w.write(c, width);
            }
            let want = w.finish();

            // Appends after existing bytes, leaving them untouched.
            let mut out = vec![0xA5];
            pack(&mut out, width, &codes, |&c| c);
            assert_eq!(out[0], 0xA5);
            assert_eq!(out[1..], want[..], "width {width}, len {len}");

            let back = unpack(&want, width, len, |c| c);
            assert_eq!(back.as_ref(), Some(&codes), "width {width}, len {len}");

            // Trailing bytes are ignored; a missing byte is refused.
            let mut longer = want.clone();
            longer.extend_from_slice(&[0xFF; 9]);
            assert_eq!(unpack(&longer, width, len, |c| c), Some(codes));
            if !want.is_empty() {
                assert!(unpack(&want[..want.len() - 1], width, len, |c| c).is_none());
            }
        }
    }
}

/// A code wider than its width is rejected, as `BitWriter` does.
#[test]
#[should_panic(expected = "does not fit")]
fn pack_rejects_oversized_code() {
    pack(&mut Vec::new(), 3, &[1u64, 8, 2], |&c| c);
}
