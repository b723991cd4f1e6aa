//! SplitMix64: a self-contained generator, so every generated input
//! depends only on the run's seed and its own index.

pub struct SplitMix(u64);

impl SplitMix {
    /// The stream for item `j` of a run seeded with `seed`.
    pub fn new(seed: u64, j: u64) -> SplitMix {
        SplitMix(seed ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// A value in `0..m`.
    pub fn below(&mut self, m: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE5_E9B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % m
    }

    /// One of `items`.
    pub fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len() as u64) as usize]
    }
}
