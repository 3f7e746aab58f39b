//! HBM word packing.
//!
//! The accelerator reads operands through 512-bit HBM pseudo-channel
//! ports; stage 2 of the padding pipeline (Section IV-A) exists
//! precisely so rows fill whole ports: "the memory pack size is
//! 512/8 = 64" for 8-bit values. This module performs the actual bit
//! packing — encoding quantized `f32` carriers into dense 512-bit
//! words through the formats' codecs — and is used by tests to verify
//! that the padded layout round-trips losslessly.
//!
//! Every image carries a CRC-32 over its packed words, computed at
//! pack time and verified on [`HbmImage::unpack`]. A transfer that
//! delivers corrupted bits (the `HbmCorruption` fault site) is
//! detected — CRC-32 catches every burst error up to 32 bits, so any
//! single corrupted byte is *guaranteed* to surface as
//! [`HbmError::Corrupted`], never as silently wrong tensor data.

use crate::config::HBM_PORT_BITS;
use mpt_faults::crc::Crc32;
use mpt_formats::{FloatFormat, NumberFormat};
use mpt_tensor::{ShapeError, Tensor};
use std::fmt;

/// Failure decoding an HBM image back into a tensor.
#[derive(Debug, Clone, PartialEq)]
pub enum HbmError {
    /// The packed words no longer match the checksum computed at pack
    /// time: the transfer corrupted the data and it must be re-sent.
    Corrupted {
        /// CRC recorded when the image was packed.
        expected: u32,
        /// CRC of the words as they arrived.
        found: u32,
    },
    /// The image's own geometry is inconsistent (never produced by
    /// [`HbmImage::pack`]).
    Shape(ShapeError),
}

impl fmt::Display for HbmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HbmError::Corrupted { expected, found } => write!(
                f,
                "HBM image corrupted in transfer: CRC-32 {found:#010x}, expected {expected:#010x}"
            ),
            HbmError::Shape(e) => write!(f, "HBM image geometry error: {e}"),
        }
    }
}

impl std::error::Error for HbmError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HbmError::Shape(e) => Some(e),
            HbmError::Corrupted { .. } => None,
        }
    }
}

impl From<ShapeError> for HbmError {
    fn from(e: ShapeError) -> Self {
        HbmError::Shape(e)
    }
}

/// A matrix packed row-major into 512-bit HBM words.
///
/// # Example
///
/// ```
/// use mpt_fpga::hbm::HbmImage;
/// use mpt_formats::{FloatFormat, NumberFormat};
/// use mpt_tensor::Tensor;
///
/// let fmt = NumberFormat::from(FloatFormat::e5m2());
/// let t = Tensor::from_vec(vec![2, 64], vec![0.5; 128])?;
/// let image = HbmImage::pack(&t, fmt)?;
/// assert_eq!(image.words_per_row(), 1); // 64 FP8 values = 512 bits
/// assert_eq!(image.unpack()?, t);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HbmImage {
    rows: usize,
    cols: usize,
    format: NumberFormat,
    /// 512-bit words stored as 8 × u64 limbs each, row-major.
    words: Vec<[u64; 8]>,
    words_per_row: usize,
    /// CRC-32 of `words`, computed at pack time.
    crc: u32,
}

impl HbmImage {
    /// Packs a 2-D tensor of format-representable values into HBM
    /// words. Values are encoded with the format's codec; each row
    /// starts on a fresh word (rows whose length is a multiple of the
    /// memory tile — stage-2 padding — waste nothing).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `t` is not a matrix.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if a value is not representable in
    /// `format` (pack after quantization).
    pub fn pack(t: &Tensor, format: NumberFormat) -> Result<Self, ShapeError> {
        let (rows, cols) = t.as_matrix()?;
        let bits = format.bit_width() as usize;
        let per_word = HBM_PORT_BITS / bits;
        let words_per_row = cols.div_ceil(per_word.max(1));
        let mut words = vec![[0u64; 8]; rows * words_per_row];
        for r in 0..rows {
            for c in 0..cols {
                let code = encode(format, t.data()[r * cols + c]);
                let slot = c / per_word;
                let off_bits = (c % per_word) * bits;
                write_bits(&mut words[r * words_per_row + slot], off_bits, bits, code);
            }
        }
        let crc = words_crc(&words);
        Ok(HbmImage {
            rows,
            cols,
            format,
            words,
            words_per_row,
            crc,
        })
    }

    /// Number of 512-bit words per matrix row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Total packed size in bytes.
    pub fn byte_size(&self) -> usize {
        self.words.len() * HBM_PORT_BITS / 8
    }

    /// The element format.
    pub fn format(&self) -> NumberFormat {
        self.format
    }

    /// The checksum recorded at pack time.
    pub fn crc(&self) -> u32 {
        self.crc
    }

    /// Verifies the packed words against the pack-time checksum.
    ///
    /// # Errors
    ///
    /// Returns [`HbmError::Corrupted`] if any bit of the words
    /// changed since [`pack`](Self::pack).
    pub fn verify(&self) -> Result<(), HbmError> {
        let found = words_crc(&self.words);
        if found != self.crc {
            return Err(HbmError::Corrupted {
                expected: self.crc,
                found,
            });
        }
        Ok(())
    }

    /// XORs `mask` into one byte of the packed words — the hook the
    /// fault injector (and the corruption proptests) use to model a
    /// failed HBM transfer. The pack-time CRC is deliberately left
    /// untouched, so a non-zero mask makes [`unpack`](Self::unpack)
    /// fail. Out-of-range indices wrap; a zero mask is a no-op.
    pub fn corrupt_byte(&mut self, byte_index: usize, mask: u8) {
        if self.words.is_empty() {
            return;
        }
        let total = self.words.len() * 64;
        let i = byte_index % total;
        let limb = &mut self.words[i / 64][(i % 64) / 8];
        *limb ^= (mask as u64) << ((i % 8) * 8);
    }

    /// Decodes the image back into a tensor of `f32` carriers, first
    /// verifying transfer integrity.
    ///
    /// # Errors
    ///
    /// Returns [`HbmError::Corrupted`] when the words fail the CRC
    /// check (corrupted transfer — never panics, never yields wrong
    /// tensors), or [`HbmError::Shape`] on internal geometry
    /// inconsistency (never for images produced by
    /// [`pack`](Self::pack)).
    pub fn unpack(&self) -> Result<Tensor, HbmError> {
        self.verify()?;
        let bits = self.format.bit_width() as usize;
        let per_word = HBM_PORT_BITS / bits;
        let mut data = vec![0.0f32; self.rows * self.cols];
        for r in 0..self.rows {
            for c in 0..self.cols {
                let slot = c / per_word;
                let off_bits = (c % per_word) * bits;
                let code = read_bits(&self.words[r * self.words_per_row + slot], off_bits, bits);
                data[r * self.cols + c] = decode(self.format, code);
            }
        }
        Ok(Tensor::from_vec(vec![self.rows, self.cols], data)?)
    }
}

/// CRC-32 over the words' limbs in storage order (little-endian
/// bytes), one 64-byte word per update.
fn words_crc(words: &[[u64; 8]]) -> u32 {
    let mut h = Crc32::new();
    let mut bytes = [0u8; 64];
    for w in words {
        for (chunk, limb) in bytes.chunks_exact_mut(8).zip(w) {
            chunk.copy_from_slice(&limb.to_le_bytes());
        }
        h.update(&bytes);
    }
    h.finish()
}

fn encode(format: NumberFormat, v: f32) -> u64 {
    match format {
        NumberFormat::Float(f) => encode_float(f, v),
        NumberFormat::Fixed(f) => f.encode(v as f64),
        // BFP shared exponents are stored out of band; pack mantissa
        // codes against the value's own exponent via the float codec
        // of equal width (not exercised by the accelerator path).
        NumberFormat::BlockFp(_) => {
            unimplemented!("block FP uses out-of-band exponent packing")
        }
    }
}

/// [`FloatFormat::encode`] read straight off the `f32` bit fields.
///
/// A normal `f32` whose exponent lies in the format's normal range
/// encodes as `sign | rebiased exponent | top man_bits of the
/// mantissa` (quantization left the dropped low bits zero). Zeros,
/// subnormals of either format, infinities and NaN take the generic
/// codec, which re-quantizes in `f64`.
fn encode_float(f: FloatFormat, v: f32) -> u64 {
    let bits = v.to_bits();
    let exp_field = (bits >> 23) & 0xFF;
    let e = exp_field as i32 - 127;
    let man_bits = f.man_bits();
    let normal = exp_field != 0 && exp_field != 0xFF;
    if normal && man_bits <= 23 && (f.min_exp()..=f.max_exp()).contains(&e) {
        let dropped = 23 - man_bits;
        debug_assert!(
            bits & ((1 << dropped) - 1) == 0,
            "{v} not representable in {f}"
        );
        let sign = u64::from(bits >> 31);
        let biased = (e + f.bias()) as u64;
        let man = u64::from((bits & 0x7F_FFFF) >> dropped);
        return (sign << (f.exp_bits() + man_bits)) | (biased << man_bits) | man;
    }
    f.encode(v as f64)
}

fn decode(format: NumberFormat, code: u64) -> f32 {
    match format {
        NumberFormat::Float(f) => f.decode(code) as f32,
        NumberFormat::Fixed(f) => f.decode(code) as f32,
        NumberFormat::BlockFp(_) => {
            unimplemented!("block FP uses out-of-band exponent packing")
        }
    }
}

fn write_bits(word: &mut [u64; 8], off: usize, len: usize, value: u64) {
    debug_assert!(len <= 64 && off + len <= 512);
    let limb = off / 64;
    let shift = off % 64;
    word[limb] |= value << shift;
    if shift + len > 64 {
        word[limb + 1] |= value >> (64 - shift);
    }
}

fn read_bits(word: &[u64; 8], off: usize, len: usize) -> u64 {
    let limb = off / 64;
    let shift = off % 64;
    let mut v = word[limb] >> shift;
    if shift + len > 64 {
        v |= word[limb + 1] << (64 - shift);
    }
    if len < 64 {
        v &= (1u64 << len) - 1;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_formats::{FixedFormat, Quantizer, Rounding};

    fn quantized(rows: usize, cols: usize, q: Quantizer) -> Tensor {
        let mut t = Tensor::from_fn(vec![rows, cols], |i| ((i * 37 % 101) as f32 - 50.0) * 0.07);
        q.quantize_slice(t.data_mut(), 0);
        t
    }

    #[test]
    fn fp8_packs_64_per_word() {
        let fmt = NumberFormat::from(FloatFormat::e5m2());
        let t = quantized(
            3,
            64,
            Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest),
        );
        let img = HbmImage::pack(&t, fmt).unwrap();
        assert_eq!(img.words_per_row(), 1);
        assert_eq!(img.byte_size(), 3 * 64);
        assert_eq!(img.unpack().unwrap(), t);
    }

    #[test]
    fn fp12_packs_42_per_word() {
        // 512 / 12 = 42 values per word (paper's T_mem for 12-bit).
        let fmt = NumberFormat::from(FloatFormat::e6m5());
        let t = quantized(
            2,
            84,
            Quantizer::float(FloatFormat::e6m5(), Rounding::Nearest),
        );
        let img = HbmImage::pack(&t, fmt).unwrap();
        assert_eq!(img.words_per_row(), 2);
        assert_eq!(img.unpack().unwrap(), t);
    }

    #[test]
    fn fixed_point_roundtrip() {
        let fmt = NumberFormat::from(FixedFormat::fxp8_8());
        let t = quantized(
            4,
            33,
            Quantizer::fixed(FixedFormat::fxp8_8(), Rounding::Nearest),
        );
        let img = HbmImage::pack(&t, fmt).unwrap();
        assert_eq!(img.words_per_row(), 2); // 32 per word -> 33 needs 2
        assert_eq!(img.unpack().unwrap(), t);
    }

    #[test]
    fn ragged_rows_round_trip() {
        // Unaligned row length (what stage-2 padding avoids) still
        // round-trips — padding is a performance choice, not a
        // correctness one.
        let fmt = NumberFormat::from(FloatFormat::e5m2());
        let t = quantized(
            5,
            7,
            Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest),
        );
        let img = HbmImage::pack(&t, fmt).unwrap();
        assert_eq!(img.unpack().unwrap(), t);
    }

    #[test]
    fn straddling_limb_boundaries() {
        // 12-bit values cross u64 limb boundaries inside the word.
        let fmt = NumberFormat::from(FloatFormat::e6m5());
        let q = Quantizer::float(FloatFormat::e6m5(), Rounding::Nearest);
        let t = quantized(1, 42, q);
        let img = HbmImage::pack(&t, fmt).unwrap();
        assert_eq!(img.words_per_row(), 1);
        assert_eq!(img.unpack().unwrap(), t);
    }

    #[test]
    fn corruption_is_detected_not_decoded() {
        let fmt = NumberFormat::from(FloatFormat::e5m2());
        let t = quantized(
            3,
            40,
            Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest),
        );
        let clean = HbmImage::pack(&t, fmt).unwrap();
        assert!(clean.verify().is_ok());
        let mut img = clean.clone();
        img.corrupt_byte(17, 0x40);
        match img.unpack() {
            Err(HbmError::Corrupted { expected, found }) => {
                assert_eq!(expected, clean.crc());
                assert_ne!(expected, found);
            }
            other => panic!("corruption must be a typed error, got {other:?}"),
        }
        // Flipping the same byte back restores integrity.
        img.corrupt_byte(17, 0x40);
        assert_eq!(img.unpack().unwrap(), t);
    }

    #[test]
    fn zero_mask_corruption_is_noop() {
        let fmt = NumberFormat::from(FloatFormat::e5m2());
        let t = quantized(
            1,
            8,
            Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest),
        );
        let mut img = HbmImage::pack(&t, fmt).unwrap();
        img.corrupt_byte(3, 0);
        assert_eq!(img.unpack().unwrap(), t);
    }

    #[test]
    fn negative_values_survive() {
        let fmt = NumberFormat::from(FloatFormat::e5m2());
        let t = Tensor::from_vec(vec![1, 4], vec![-1.5, -0.25, 0.0, -57344.0]).unwrap();
        let img = HbmImage::pack(&t, fmt).unwrap();
        assert_eq!(img.unpack().unwrap(), t);
    }

    #[test]
    fn bit_field_encoder_matches_codec_on_every_code() {
        let bases = [
            FloatFormat::e5m2(),
            FloatFormat::e4m3(),
            FloatFormat::e6m5(),
            FloatFormat::e5m10(),
            FloatFormat::bf16(),
        ];
        for base in bases {
            for f in [base, base.without_subnormals(), base.with_infinities()] {
                let mut checked = 0u32;
                for code in 0..1u64 << f.bit_width() {
                    let x = f.decode(code);
                    if x.is_nan() || !f.is_representable(x) {
                        continue;
                    }
                    let v = x as f32;
                    assert_eq!(v as f64, x, "{f} code {code:#x} is not an f32");
                    assert_eq!(
                        encode_float(f, v),
                        f.encode(x),
                        "{f:?} code {code:#x} value {x}"
                    );
                    checked += 1;
                }
                assert!(checked > 1 << (f.bit_width() - 2), "{f:?}: {checked} codes");
            }
        }
    }
}
