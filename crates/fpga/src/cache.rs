//! Packed-operand cache: quantize + HBM-pack reused operands once.
//!
//! Training reuses the same weight matrices across thousands of
//! launches, yet the eager path re-quantizes and re-packs every
//! operand on every launch. [`OperandCache`] keys each operand by its
//! *content* (an FNV-1a fingerprint over the raw `f32` carrier words),
//! its layout `(rows, cols)` and the quantizer that will consume it —
//! format, rounding mode and stochastic-rounding seed all change the
//! quantized image, so all three participate in the key.
//!
//! Content addressing makes invalidation automatic: an optimizer step
//! that updates a weight produces different carrier bits, which is a
//! different key, so the stale image simply stops being referenced
//! and ages out of the byte-budget LRU. Stale reads are *impossible*,
//! not just improbable: a fingerprint hit is confirmed by comparing
//! every carrier bit of the stored input against the candidate before
//! the cached image is used (a colliding fingerprint repacks instead
//! of returning wrong data — enforced by the cache-invalidation
//! proptests in the conformance crate).
//!
//! Telemetry counters (`fpga.cache.hit` / `.miss` / `.evict` /
//! `.bytes_packed`) mirror the [`CacheStats`] the cache itself keeps,
//! so JSONL traces and the bench harness see the same numbers.

use crate::hbm::HbmImage;
use mpt_arith::quantize_matrix;
use mpt_formats::{NumberFormat, Quantizer, Rounding};
use mpt_tensor::{ShapeError, Tensor};
use std::collections::HashMap;
use std::sync::Arc;

/// Default byte budget: 64 MiB of resident packed operands — a few
/// LeNet-scale models' worth of weights and activations.
pub const DEFAULT_CACHE_BUDGET: usize = 64 << 20;

/// Identity of one packable operand: content fingerprint, layout and
/// the quantizer stream that will consume it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct OperandKey {
    /// FNV-1a over the raw `f32` carrier bits (content identity: any
    /// update to the tensor changes this, which *is* the
    /// invalidation rule).
    fingerprint: u64,
    rows: usize,
    cols: usize,
    /// FNV-1a over the quantizer descriptor (format, rounding, SR
    /// seed) — the same tensor quantized by two different streams
    /// must occupy two entries.
    quant: u64,
}

#[derive(Debug)]
struct Entry {
    /// Exact copy of the input carrier used for hit confirmation:
    /// fingerprints can collide, bit-compare cannot.
    input: Tensor,
    /// The quantized carrier, shared with in-flight compute stages.
    quantized: Arc<Tensor>,
    /// The packed HBM image (`None` for formats the packer does not
    /// serialize: f32-superset passthrough and block floating point,
    /// whose shared exponents live out of band).
    image: Option<HbmImage>,
    /// Modeled HBM footprint of the packed operand, bytes.
    image_bytes: usize,
    /// Host bytes charged against the budget (carriers + image).
    resident_bytes: usize,
    /// LRU tick of the most recent use.
    last_use: u64,
}

/// One cache lookup's outcome: the quantized operand ready for the
/// compute stage, plus what the pack stage had to do to produce it.
#[derive(Debug, Clone)]
pub struct FetchedOperand {
    /// Quantized carrier (shared, never re-quantized on a hit).
    pub quantized: Arc<Tensor>,
    /// Modeled size of the packed HBM image, bytes.
    pub image_bytes: usize,
    /// `true` when the operand was already resident (no pack work).
    pub hit: bool,
}

/// Cache effectiveness counters, cumulative since construction (or
/// the last [`OperandCache::reset_stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups satisfied by a resident entry.
    pub hits: u64,
    /// Lookups that had to quantize + pack.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Pack operations performed (== `misses`).
    pub packs: u64,
    /// Total bytes packed into HBM images by misses.
    pub bytes_packed: u64,
    /// Bytes currently charged against the budget.
    pub resident_bytes: usize,
    /// Entries currently resident.
    pub entries: usize,
}

/// A byte-budget LRU cache of quantized, HBM-packed operands.
///
/// # Example
///
/// ```
/// use mpt_fpga::cache::OperandCache;
/// use mpt_formats::Quantizer;
/// use mpt_tensor::Tensor;
///
/// let mut cache = OperandCache::new(1 << 20);
/// let w = Tensor::ones(vec![8, 8]);
/// let q = Quantizer::identity();
/// let first = cache.get_or_pack(&w, &q)?;
/// let second = cache.get_or_pack(&w, &q)?;
/// assert!(!first.hit && second.hit);
/// assert_eq!(cache.stats().packs, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct OperandCache {
    budget: usize,
    entries: HashMap<OperandKey, Entry>,
    resident_bytes: usize,
    tick: u64,
    stats: CacheStats,
}

impl OperandCache {
    /// Creates a cache bounded by `budget_bytes` of resident operands.
    /// A budget of `0` disables residency: every lookup is a miss
    /// (the eager-equivalent configuration used as the bench
    /// baseline).
    pub fn new(budget_bytes: usize) -> Self {
        OperandCache {
            budget: budget_bytes,
            entries: HashMap::new(),
            resident_bytes: 0,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Creates a cache with the [`DEFAULT_CACHE_BUDGET`].
    pub fn with_default_budget() -> Self {
        Self::new(DEFAULT_CACHE_BUDGET)
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget
    }

    /// Current effectiveness counters.
    pub fn stats(&self) -> CacheStats {
        let mut s = self.stats;
        s.resident_bytes = self.resident_bytes;
        s.entries = self.entries.len();
        s
    }

    /// Zeroes the cumulative counters (resident entries stay).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Drops every resident entry (counters stay).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.resident_bytes = 0;
    }

    /// Returns the quantized, packed form of `t` under `q`, reusing a
    /// resident copy when the exact same bits were packed before.
    ///
    /// On a miss the operand is quantized at global coordinates
    /// (`quantize_matrix(t, q, 0, 0)` — exactly what the eager
    /// simulator host does) and packed into an HBM image, then
    /// inserted under the LRU byte budget.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if `t` is not a matrix.
    pub fn get_or_pack(&mut self, t: &Tensor, q: &Quantizer) -> Result<FetchedOperand, ShapeError> {
        let (rows, cols) = t.as_matrix()?;
        let key = OperandKey {
            fingerprint: carrier_fingerprint(t.data()),
            rows,
            cols,
            quant: quantizer_fingerprint(q),
        };
        self.tick += 1;
        if let Some(entry) = self.entries.get_mut(&key) {
            // Confirm the hit bit-for-bit: a fingerprint collision
            // must repack, never serve another tensor's image.
            if bits_equal(entry.input.data(), t.data()) {
                entry.last_use = self.tick;
                self.stats.hits += 1;
                bump("fpga.cache.hit");
                return Ok(FetchedOperand {
                    quantized: Arc::clone(&entry.quantized),
                    image_bytes: entry.image_bytes,
                    hit: true,
                });
            }
            if let Some(e) = self.entries.remove(&key) {
                self.resident_bytes -= e.resident_bytes;
            }
        }
        self.stats.misses += 1;
        bump("fpga.cache.miss");

        let quantized = Arc::new(quantize_matrix(t, q, 0, 0));
        let (image, image_bytes) = pack_image(&quantized, q);
        self.stats.packs += 1;
        self.stats.bytes_packed += image_bytes as u64;
        if mpt_telemetry::enabled() {
            mpt_telemetry::counter("fpga.cache.bytes_packed").add(image_bytes as u64);
        }

        let resident_bytes = 2 * t.data().len() * std::mem::size_of::<f32>() + image_bytes;
        let fetched = FetchedOperand {
            quantized: Arc::clone(&quantized),
            image_bytes,
            hit: false,
        };
        if resident_bytes <= self.budget {
            self.evict_to_fit(resident_bytes);
            self.resident_bytes += resident_bytes;
            self.entries.insert(
                key,
                Entry {
                    input: t.clone(),
                    quantized,
                    image,
                    image_bytes,
                    resident_bytes,
                    last_use: self.tick,
                },
            );
        }
        Ok(fetched)
    }

    /// The resident HBM image for `t` under `q`, if any — the transfer
    /// stage re-sends this image on a faulted HBM transfer without
    /// re-running the pack stage.
    pub fn image_of(&self, t: &Tensor, q: &Quantizer) -> Option<&HbmImage> {
        let (rows, cols) = t.as_matrix().ok()?;
        let key = OperandKey {
            fingerprint: carrier_fingerprint(t.data()),
            rows,
            cols,
            quant: quantizer_fingerprint(q),
        };
        let entry = self.entries.get(&key)?;
        bits_equal(entry.input.data(), t.data())
            .then_some(entry.image.as_ref())
            .flatten()
    }

    /// Evicts least-recently-used entries until `incoming` more bytes
    /// fit in the budget.
    fn evict_to_fit(&mut self, incoming: usize) {
        while self.resident_bytes + incoming > self.budget && !self.entries.is_empty() {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(k, _)| *k)
                .expect("non-empty cache has an LRU victim");
            if let Some(e) = self.entries.remove(&victim) {
                self.resident_bytes -= e.resident_bytes;
                self.stats.evictions += 1;
                bump("fpga.cache.evict");
            }
        }
    }
}

/// Packs the quantized carrier into an HBM image where the format
/// supports dense serialization. F32-superset formats pass carriers
/// through untouched (nothing narrower to pack), block floating
/// point stores its shared exponents out of band, and a
/// [`Rounding::NoRound`] quantizer deliberately leaves values *off*
/// the format lattice (the fused-multiplier convention), so all three
/// are modeled by footprint only: `numel · bits / 8`, no image.
fn pack_image(quantized: &Tensor, q: &Quantizer) -> (Option<HbmImage>, usize) {
    let format = q.format();
    let packable = !matches!(q.rounding(), Rounding::NoRound)
        && match format {
            NumberFormat::Float(_) | NumberFormat::Fixed(_) => !format.is_f32_superset(),
            NumberFormat::BlockFp(_) => false,
        };
    if packable {
        let image = HbmImage::pack(quantized, format).expect("cache operands are matrices");
        let bytes = image.byte_size();
        (Some(image), bytes)
    } else {
        let bytes = quantized.data().len() * format.bit_width() as usize / 8;
        (None, bytes)
    }
}

/// FNV-1a over the raw bit patterns of the carrier, one `u32` word
/// per step. Bit patterns, not float values: `-0.0` and `0.0` (or two
/// NaN payloads) quantize the same today, but distinguishing them
/// costs nothing and keeps the cache correct under any future format.
/// The key only has to spread operands; hits are confirmed by
/// [`bits_equal`].
fn carrier_fingerprint(data: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in data {
        h ^= u64::from(v.to_bits());
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// FNV-1a over the quantizer's behavioural identity: format, rounding
/// mode (including SR bit count) and the stochastic seed.
fn quantizer_fingerprint(q: &Quantizer) -> u64 {
    let desc = format!("{:?}|{:?}|{}", q.format(), q.rounding(), q.rng().seed());
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in desc.as_bytes() {
        h ^= *byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Exact carrier equality at the bit level (NaN-safe, `-0.0 ≠ 0.0`).
fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Increments a telemetry counter when telemetry is armed.
fn bump(name: &str) {
    if mpt_telemetry::enabled() {
        mpt_telemetry::counter(name).incr();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpt_formats::{FloatFormat, Rounding};

    fn weight(seed: usize) -> Tensor {
        Tensor::from_fn(vec![6, 10], |i| {
            (((i + seed) * 37 % 41) as f32 - 20.0) * 0.05
        })
    }

    fn fp8() -> Quantizer {
        Quantizer::float(FloatFormat::e5m2(), Rounding::Nearest)
    }

    #[test]
    fn second_lookup_hits_and_shares_quantized_carrier() {
        let mut cache = OperandCache::with_default_budget();
        let w = weight(0);
        let q = fp8();
        let miss = cache.get_or_pack(&w, &q).unwrap();
        let hit = cache.get_or_pack(&w, &q).unwrap();
        assert!(!miss.hit);
        assert!(hit.hit);
        assert_eq!(miss.quantized, hit.quantized);
        assert_eq!(*hit.quantized, quantize_matrix(&w, &q, 0, 0));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.packs), (1, 1, 1));
        assert!(s.bytes_packed > 0);
    }

    #[test]
    fn updated_content_invalidates() {
        let mut cache = OperandCache::with_default_budget();
        let q = fp8();
        cache.get_or_pack(&weight(0), &q).unwrap();
        let updated = cache.get_or_pack(&weight(1), &q).unwrap();
        assert!(!updated.hit, "changed bits must repack");
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn quantizer_identity_is_part_of_the_key() {
        let mut cache = OperandCache::with_default_budget();
        let w = weight(0);
        let sr1 = Quantizer::float(FloatFormat::e5m2(), Rounding::stochastic()).with_seed(1);
        let sr2 = Quantizer::float(FloatFormat::e5m2(), Rounding::stochastic()).with_seed(2);
        cache.get_or_pack(&w, &sr1).unwrap();
        assert!(
            !cache.get_or_pack(&w, &sr2).unwrap().hit,
            "seed changes bits"
        );
        assert!(
            !cache.get_or_pack(&w, &fp8()).unwrap().hit,
            "mode changes bits"
        );
        assert!(cache.get_or_pack(&w, &sr1).unwrap().hit);
    }

    #[test]
    fn negative_zero_is_a_different_operand() {
        let mut cache = OperandCache::with_default_budget();
        let q = fp8();
        let pos = Tensor::from_vec(vec![1, 2], vec![0.0, 1.0]).unwrap();
        let neg = Tensor::from_vec(vec![1, 2], vec![-0.0, 1.0]).unwrap();
        cache.get_or_pack(&pos, &q).unwrap();
        assert!(!cache.get_or_pack(&neg, &q).unwrap().hit);
    }

    #[test]
    fn lru_evicts_under_byte_budget() {
        // Budget for roughly one entry: inserting a second evicts the
        // least recently used first.
        let q = fp8();
        let one = cache_entry_bytes(&weight(0), &q);
        let mut cache = OperandCache::new(one + one / 2);
        cache.get_or_pack(&weight(0), &q).unwrap();
        cache.get_or_pack(&weight(1), &q).unwrap();
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 1);
        assert!(s.resident_bytes <= cache.budget_bytes());
        // The survivor is the newer entry.
        assert!(cache.get_or_pack(&weight(1), &q).unwrap().hit);
        assert!(!cache.get_or_pack(&weight(0), &q).unwrap().hit);
    }

    fn cache_entry_bytes(t: &Tensor, q: &Quantizer) -> usize {
        let quantized = quantize_matrix(t, q, 0, 0);
        let (_, image_bytes) = pack_image(&quantized, q);
        2 * t.data().len() * std::mem::size_of::<f32>() + image_bytes
    }

    #[test]
    fn zero_budget_disables_residency() {
        let mut cache = OperandCache::new(0);
        let q = fp8();
        for _ in 0..3 {
            assert!(!cache.get_or_pack(&weight(0), &q).unwrap().hit);
        }
        let s = cache.stats();
        assert_eq!(s.misses, 3);
        assert_eq!(s.entries, 0);
        assert_eq!(s.resident_bytes, 0);
    }

    #[test]
    fn block_fp_and_identity_formats_are_cacheable_without_images() {
        let mut cache = OperandCache::with_default_budget();
        let w = weight(0);
        let idn = Quantizer::identity();
        let bfp = Quantizer::new(
            mpt_formats::BlockFpFormat::new(8, 8).unwrap(),
            Rounding::Nearest,
        );
        for q in [idn, bfp] {
            assert!(!cache.get_or_pack(&w, &q).unwrap().hit);
            assert!(cache.get_or_pack(&w, &q).unwrap().hit);
            assert!(cache.image_of(&w, &q).is_none(), "no dense image");
        }
    }

    #[test]
    fn resident_image_round_trips() {
        let mut cache = OperandCache::with_default_budget();
        let w = weight(0);
        let q = fp8();
        let fetched = cache.get_or_pack(&w, &q).unwrap();
        let image = cache.image_of(&w, &q).expect("fp8 packs densely");
        assert_eq!(image.unpack().unwrap(), *fetched.quantized);
        assert_eq!(image.byte_size(), fetched.image_bytes);
    }
}
