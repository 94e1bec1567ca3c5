//! LSB-first bit-level I/O over byte buffers.
//!
//! The quantization compressors (onebit, TBQ, TernGrad) emit streams of
//! 1-, 2-, or 4-bit codes, and CompLL's generated kernels store arrays
//! of sub-byte types (`uint1`, `uint2`, `uint4`) compactly. Both use
//! this module.
//!
//! Bits are packed least-significant-bit first within each byte: the
//! first value written occupies the lowest bits of byte 0. The total
//! number of bits is padded with zeros to a byte boundary, mirroring
//! the paper's CompLL code generator ("minimal zero padding to ensure
//! the total number of bits is a multiple of 8", §4.3).
//!
//! [`BitWriter`]/[`BitReader`] handle mixed widths one value at a time;
//! [`pack`]/[`unpack`] are the word-at-a-time fixed-width (1–8 bit)
//! kernels the quantizers use, producing the identical layout.

/// Incremental writer that packs variable-width codes into a `Vec<u8>`.
#[derive(Debug, Default, Clone)]
pub struct BitWriter {
    buf: Vec<u8>,
    /// Number of valid bits in the last byte of `buf` (0 means the last
    /// byte is full or `buf` is empty).
    partial_bits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `width` bits of `value`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64, or if `value` has
    /// bits set above `width`.
    pub fn write(&mut self, value: u64, width: u32) {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        assert!(
            width == 64 || value < (1u64 << width),
            "value {value} does not fit in {width} bits"
        );
        let mut remaining = width;
        let mut v = value;
        while remaining > 0 {
            // A full (or absent) last byte: start a fresh one.
            if self.partial_bits == 0 {
                self.buf.push(0);
            }
            let free = 8 - self.partial_bits;
            let take = free.min(remaining);
            let last = self.buf.last_mut().expect("buffer is non-empty here");
            *last |= ((v & ((1u16 << take) as u64 - 1)) as u8) << self.partial_bits;
            v >>= take;
            self.partial_bits = (self.partial_bits + take) % 8;
            remaining -= take;
        }
    }

    /// Appends a single bit.
    pub fn write_bit(&mut self, bit: bool) {
        self.write(bit as u64, 1);
    }

    /// Appends a full byte (8 bits).
    pub fn write_u8(&mut self, v: u8) {
        self.write(v as u64, 8);
    }

    /// Appends a little-endian `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.write(v as u64, 32);
    }

    /// Appends a little-endian `f32` bit pattern.
    pub fn write_f32(&mut self, v: f32) {
        self.write(v.to_bits() as u64, 32);
    }

    /// Number of bits written so far.
    pub fn bit_len(&self) -> usize {
        if self.partial_bits == 0 {
            self.buf.len() * 8
        } else {
            (self.buf.len() - 1) * 8 + self.partial_bits as usize
        }
    }

    /// Finishes the stream, zero-padding to a byte boundary, and
    /// returns the packed bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Sequential reader over a bit stream produced by [`BitWriter`].
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    buf: &'a [u8],
    /// Absolute bit cursor.
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `buf`, starting at bit 0.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Number of bits remaining.
    pub fn remaining_bits(&self) -> usize {
        self.buf.len() * 8 - self.pos
    }

    /// Current absolute bit position.
    pub fn bit_pos(&self) -> usize {
        self.pos
    }

    /// Reads the next `width` bits as the low bits of a `u64`.
    ///
    /// Returns `None` if fewer than `width` bits remain.
    pub fn read(&mut self, width: u32) -> Option<u64> {
        assert!((1..=64).contains(&width), "width must be in 1..=64");
        if self.remaining_bits() < width as usize {
            return None;
        }
        let mut out = 0u64;
        let mut got = 0u32;
        while got < width {
            let byte = self.buf[self.pos / 8];
            let bit_off = (self.pos % 8) as u32;
            let avail = 8 - bit_off;
            let take = avail.min(width - got);
            let mask = ((1u16 << take) - 1) as u8;
            let chunk = (byte >> bit_off) & mask;
            out |= (chunk as u64) << got;
            got += take;
            self.pos += take as usize;
        }
        Some(out)
    }

    /// Reads one bit.
    pub fn read_bit(&mut self) -> Option<bool> {
        self.read(1).map(|b| b != 0)
    }

    /// Reads a full byte.
    pub fn read_u8(&mut self) -> Option<u8> {
        self.read(8).map(|v| v as u8)
    }

    /// Reads a little-endian `u32`.
    pub fn read_u32(&mut self) -> Option<u32> {
        self.read(32).map(|v| v as u32)
    }

    /// Reads a little-endian `f32` bit pattern.
    pub fn read_f32(&mut self) -> Option<f32> {
        self.read(32).map(|v| f32::from_bits(v as u32))
    }

    /// Skips `bits` bits. Returns `None` (without moving) if fewer
    /// remain.
    pub fn skip(&mut self, bits: usize) -> Option<()> {
        if self.remaining_bits() < bits {
            return None;
        }
        self.pos += bits;
        Some(())
    }
}

/// Number of bytes needed to store `count` values of `width` bits each.
pub fn packed_len(count: usize, width: u32) -> usize {
    (count * width as usize).div_ceil(8)
}

/// Codes per packing group at `width` bits: a whole `u64` word when
/// `width` divides 64, otherwise eight codes (exactly `width` bytes).
/// Either way a group starts and ends on a byte boundary.
fn group_len(width: u32) -> usize {
    assert!((1..=8).contains(&width), "packed width must be in 1..=8");
    if 64 % width == 0 {
        (64 / width) as usize
    } else {
        8
    }
}

/// Appends one code per item, `width` bits each, to `out` in exactly
/// the layout a [`BitWriter`] produces for the same `write(code,
/// width)` calls followed by `finish`: LSB-first, zero padded to a
/// byte boundary.
///
/// The fixed-width hot path of the quantizers: `code` is called on
/// each item in order, and a group of codes is gathered into one `u64`
/// word and stored with a single copy.
///
/// # Panics
///
/// Panics if `width` is not in `1..=8`, or if a code has bits set
/// above `width`.
#[inline]
pub fn pack<T>(out: &mut Vec<u8>, width: u32, items: &[T], mut code: impl FnMut(&T) -> u64) {
    let group = group_len(width);
    out.reserve(packed_len(items.len(), width));
    let mut seen = 0u64;
    for chunk in items.chunks(group) {
        let mut word = 0u64;
        for (i, item) in chunk.iter().enumerate() {
            let c = code(item);
            seen |= c;
            word |= c << (i as u32 * width);
        }
        out.extend_from_slice(&word.to_le_bytes()[..packed_len(chunk.len(), width)]);
    }
    assert!(seen >> width == 0, "a code does not fit in {width} bits");
}

/// Reads `count` codes of `width` bits from a [`pack`]ed (or
/// [`BitWriter`]) stream and maps each through `value`, in order,
/// reading one group word at a time.
///
/// Returns `None` if `bytes` is shorter than [`packed_len`]`(count,
/// width)`. Bytes past that length are ignored.
///
/// # Panics
///
/// Panics if `width` is not in `1..=8`.
#[inline]
pub fn unpack<T>(
    bytes: &[u8],
    width: u32,
    count: usize,
    mut value: impl FnMut(u64) -> T,
) -> Option<Vec<T>> {
    let group = group_len(width);
    let bytes = bytes.get(..packed_len(count, width))?;
    let mask = (1u64 << width) - 1;
    let mut out = Vec::with_capacity(count);
    for (g, chunk) in bytes.chunks(group * width as usize / 8).enumerate() {
        let mut le = [0u8; 8];
        le[..chunk.len()].copy_from_slice(chunk);
        let word = u64::from_le_bytes(le);
        let n = (count - g * group).min(group);
        out.extend((0..n).map(|i| value((word >> (i as u32 * width)) & mask)));
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_bits() {
        let mut w = BitWriter::new();
        let pattern = [true, false, true, true, false, false, true, false, true];
        for &b in &pattern {
            w.write_bit(b);
        }
        assert_eq!(w.bit_len(), 9);
        let bytes = w.finish();
        assert_eq!(bytes.len(), 2);
        let mut r = BitReader::new(&bytes);
        for &b in &pattern {
            assert_eq!(r.read_bit(), Some(b));
        }
    }

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        w.write(0xDEADBEEF, 32);
        w.write(1, 1);
        w.write(0x3F, 6);
        w.write(u64::MAX, 64);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(3), Some(0b101));
        assert_eq!(r.read(32), Some(0xDEADBEEF));
        assert_eq!(r.read(1), Some(1));
        assert_eq!(r.read(6), Some(0x3F));
        assert_eq!(r.read(64), Some(u64::MAX));
    }

    #[test]
    fn f32_roundtrip() {
        let mut w = BitWriter::new();
        w.write_bit(true); // Misalign on purpose.
        w.write_f32(std::f32::consts::PI);
        w.write_f32(-0.0);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read_bit(), Some(true));
        assert_eq!(r.read_f32(), Some(std::f32::consts::PI));
        assert_eq!(r.read_f32().map(f32::to_bits), Some((-0.0f32).to_bits()));
    }

    #[test]
    fn read_past_end_returns_none() {
        let mut w = BitWriter::new();
        w.write(0b11, 2);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(2), Some(0b11));
        // Padding bits are readable (they are real zero bits)...
        assert_eq!(r.read(6), Some(0));
        // ...but past the final byte there is nothing.
        assert_eq!(r.read(1), None);
    }

    #[test]
    fn packed_len_matches_writer() {
        for count in 0..100 {
            for width in [1u32, 2, 3, 4, 7, 8, 13] {
                let mut w = BitWriter::new();
                for i in 0..count {
                    w.write((i as u64) & ((1u64 << width) - 1), width);
                }
                assert_eq!(w.finish().len(), packed_len(count, width));
            }
        }
    }

    #[test]
    fn bit_len_tracks_writes() {
        let mut w = BitWriter::new();
        assert_eq!(w.bit_len(), 0);
        w.write(1, 1);
        assert_eq!(w.bit_len(), 1);
        w.write(0, 7);
        assert_eq!(w.bit_len(), 8);
        w.write(0x1FF, 9);
        assert_eq!(w.bit_len(), 17);
    }

    #[test]
    fn skip_moves_cursor() {
        let mut w = BitWriter::new();
        w.write_u32(0xABCD_1234);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.skip(8), Some(()));
        assert_eq!(r.read(8), Some(0x12));
        assert_eq!(r.skip(100), None);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        BitWriter::new().write(4, 2);
    }
}
