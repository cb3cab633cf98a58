//! The benchmark's only source of randomness.

/// SplitMix64: small, fast, and fully determined by its seed, so one
/// `--seed` always gives one request stream.
#[derive(Clone, Debug)]
pub struct Rng(u64);

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl Rng {
    /// The generator of one independent stream (a pass, a request) of `seed`.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ stream.wrapping_add(1).wrapping_mul(GOLDEN).rotate_left(17));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `lo..=hi` (the modulo bias is irrelevant at these sizes).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}
