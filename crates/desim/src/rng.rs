//! Deterministic pseudo-random number generation for workloads.
//!
//! A self-contained xoshiro256** implementation seeded via splitmix64, so
//! simulated workloads are reproducible bit-for-bit across runs and platforms
//! without pulling entropy from the host.

/// Deterministic xoshiro256** generator.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a seed; distinct seeds give independent streams.
    pub fn new(seed: u64) -> SimRng {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derive an independent stream for a sub-entity (e.g. a rank).
    pub fn derive(&self, stream: u64) -> SimRng {
        let mut sm = self.s[0] ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)`. `bound` must be nonzero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        // Multiply-shift rejection-free mapping (Lemire); bias is negligible
        // for simulation workloads and determinism is what matters here.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform value in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "empty range");
        lo + self.next_below(hi - lo)
    }

    /// Uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Sample an exponentially distributed value with the given mean.
    pub fn exp(&mut self, mean: f64) -> f64 {
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn derive_gives_independent_streams() {
        let root = SimRng::new(7);
        let mut a = root.derive(0);
        let mut b = root.derive(1);
        assert_ne!(a.next_u64(), b.next_u64());
        // Deriving again reproduces the same stream.
        let mut a2 = root.derive(0);
        let mut a3 = SimRng::new(7).derive(0);
        a3.next_u64();
        let _ = a2.next_u64();
    }

    #[test]
    fn next_below_in_range() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            assert!(r.next_below(10) < 10);
            let v = r.range(5, 8);
            assert!((5..8).contains(&v));
        }
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut r = SimRng::new(9);
        let mut sum = 0.0;
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            sum += f;
        }
        let mean = sum / 1000.0;
        assert!((0.4..0.6).contains(&mean), "mean {mean} suspicious");
    }

    #[test]
    fn exp_has_roughly_right_mean() {
        let mut r = SimRng::new(13);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exp(300.0)).sum::<f64>() / n as f64;
        assert!((270.0..330.0).contains(&mean), "mean {mean}");
    }
}
