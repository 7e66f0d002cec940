//! Seeded randomness, order statistics and frame fingerprints.

use rt_imaging::{GrayAlpha, Image};

/// SplitMix64: a tiny seeded generator, so a workload seed fixes every
/// input the benchmark hands the program.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

/// Median (mean of the middle two for an even count). Empty input → 0.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    pub samples: usize,
    /// Samples strictly beyond the reported one (10 unless the sample is
    /// too small, in which case the maximum is reported).
    pub beyond: usize,
}

pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
            beyond: 0,
        };
    }
    let idx = n.saturating_sub(11);
    let idx = if n > 10 { idx } else { n - 1 };
    Tail {
        value: v[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        samples: n,
        beyond: n - 1 - idx,
    }
}

/// FNV-1a over the exact bit patterns of a frame (shape included), so any
/// pixel change shows in the workload's frame hash.
pub fn frame_hash(img: &Image<GrayAlpha>) -> u64 {
    let mut h = Fnv::new();
    h.write_u64(img.width() as u64);
    h.write_u64(img.height() as u64);
    for p in img.pixels() {
        h.write_u64(((p.v.to_bits() as u64) << 32) | p.a.to_bits() as u64);
    }
    h.finish()
}

/// Bitwise frame identity (stricter than `==` on floats: `-0.0 != 0.0`).
pub fn same_bits(a: &Image<GrayAlpha>, b: &Image<GrayAlpha>) -> bool {
    a.width() == b.width()
        && a.height() == b.height()
        && a.pixels()
            .iter()
            .zip(b.pixels())
            .all(|(x, y)| x.v.to_bits() == y.v.to_bits() && x.a.to_bits() == y.a.to_bits())
}

/// 64-bit FNV-1a, fed a word at a time.
#[derive(Debug, Clone)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn write_u64(&mut self, x: u64) {
        self.0 ^= x;
        self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.percentile, 90.0);
        let short = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((short.value, short.beyond), (3.0, 0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
