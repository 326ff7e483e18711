//! The workspace-internal deterministic PRNG.
//!
//! The workspace builds fully offline, so instead of the `rand` crate
//! every randomised computation (Monte-Carlo mismatch draws, seeded
//! fault schedules, test-grid shuffles) uses this xorshift128+
//! generator seeded through SplitMix64 — the standard pairing (Vigna,
//! "Further scramblings of Marsaglia's xorshift generators"):
//! SplitMix64 decorrelates arbitrary user seeds (including 0) and
//! xorshift128+ provides a fast, well-mixed stream that passes BigCrush
//! except for the lowest bits, which [`Xorshift128Plus::next_f64`]
//! discards anyway.
//!
//! This module is the single implementation for the whole workspace;
//! its bit stream is pinned by `tests::golden_bit_stream`.

/// SplitMix64 step — used to expand one 64-bit seed into the generator
/// state. Never returns two equal values in a row, so the xorshift state
/// cannot end up all-zero.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xorshift128+ generator: 128 bits of state, period 2^128 − 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xorshift128Plus {
    s0: u64,
    s1: u64,
}

impl Xorshift128Plus {
    /// Seed deterministically from any 64-bit value.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s0 = splitmix64(&mut sm);
        let s1 = splitmix64(&mut sm);
        Self { s0, s1 }
    }

    /// Next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.s0;
        let y = self.s1;
        self.s0 = y;
        x ^= x << 23;
        self.s1 = x ^ y ^ (x >> 17) ^ (y >> 26);
        self.s1.wrapping_add(y)
    }

    /// Uniform sample in `[0, 1)` with 53 bits of precision (the weak low
    /// bits of xorshift128+ are shifted out).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal sample (Box–Muller).
    pub fn next_gauss(&mut self) -> f64 {
        let u1 = 1e-12 + self.next_f64() * (1.0 - 1e-12);
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bit-stream equivalence with the generator's first implementation
    /// (once a module of `losac-sizing`): the first four outputs for a
    /// spread of seeds, captured from that implementation before its
    /// deletion. Any change to the seeding or step functions — however
    /// innocent-looking — breaks every seeded reproducibility gate in the
    /// workspace, so the raw stream itself is pinned here.
    #[test]
    fn golden_bit_stream() {
        let expect: [(u64, [u64; 4]); 4] = [
            (
                0,
                [
                    0xff5e_664a_a226_4ab1,
                    0x5cb3_7068_4435_3952,
                    0x76f6_11e2_5a50_11e3,
                    0xcfec_cb7f_0a0c_7948,
                ],
            ),
            (
                1,
                [
                    0x9890_a08c_c61d_98a5,
                    0x91a1_8212_5b3d_fdc4,
                    0xd3e5_dbe3_cb93_dd47,
                    0x5b51_b331_603c_7565,
                ],
            ),
            (
                42,
                [
                    0xaf1f_56fc_41a4_d2d2,
                    0xbd49_6f01_ee60_5ceb,
                    0x8c8b_2271_e69f_dbf6,
                    0x5438_402a_c692_1e50,
                ],
            ),
            (
                0xdead_beef,
                [
                    0xf18c_3b7a_ddb0_456f,
                    0xe8fe_d9ce_790f_cba5,
                    0x3801_8e1d_db26_debd,
                    0x57c9_cc2a_c50c_6de7,
                ],
            ),
        ];
        for (seed, vals) in expect {
            let mut r = Xorshift128Plus::seed_from_u64(seed);
            for (i, v) in vals.into_iter().enumerate() {
                assert_eq!(r.next_u64(), v, "seed {seed}, output {i}");
            }
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = Xorshift128Plus::seed_from_u64(42);
        let mut b = Xorshift128Plus::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Xorshift128Plus::seed_from_u64(1);
        let mut b = Xorshift128Plus::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = Xorshift128Plus::seed_from_u64(0);
        assert_ne!(r.next_u64(), 0);
        assert_ne!(r.next_u64(), r.next_u64());
    }

    #[test]
    fn uniform_is_in_unit_interval_and_covers_it() {
        let mut r = Xorshift128Plus::seed_from_u64(7);
        let mut lo = 1.0f64;
        let mut hi = 0.0f64;
        let mut sum = 0.0;
        const N: usize = 10_000;
        for _ in 0..N {
            let u = r.next_f64();
            assert!((0.0..1.0).contains(&u));
            lo = lo.min(u);
            hi = hi.max(u);
            sum += u;
        }
        assert!(lo < 0.01 && hi > 0.99, "range [{lo}, {hi}]");
        let mean = sum / N as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn gauss_moments() {
        let mut r = Xorshift128Plus::seed_from_u64(11);
        const N: usize = 20_000;
        let mut sum = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..N {
            let g = r.next_gauss();
            assert!(g.is_finite());
            sum += g;
            sum2 += g * g;
        }
        let mean = sum / N as f64;
        let var = sum2 / N as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }
}
