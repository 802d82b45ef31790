//! Small statistics: nearest-rank percentiles, quartiles, FNV-1a.

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` percent of the samples at or below it. 0 for no samples.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort in place and return the nearest-rank percentile.
pub fn percentile_of(samples: &mut [u64], p: f64) -> u64 {
    samples.sort_unstable();
    percentile(samples, p)
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(v, n=4)`
/// (the exclusive method), which is what the acceptance check uses.
/// A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    match m {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// `num / den`, and 0 where there is nothing to divide by (a metric that
/// does not apply to a workload reads 0).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// 64-bit FNV-1a, fed incrementally.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    pub const fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        // The textbook nearest-rank example.
        let w = [15, 20, 35, 40, 50];
        assert_eq!(percentile(&w, 5.0), 15);
        assert_eq!(percentile(&w, 30.0), 20);
        assert_eq!(percentile(&w, 40.0), 20);
        assert_eq!(percentile(&w, 50.0), 35);
        assert_eq!(percentile(&w, 100.0), 50);
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile_of(&mut [9, 1, 5], 50.0), 5);
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn fnv_known_values() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
    }
}
