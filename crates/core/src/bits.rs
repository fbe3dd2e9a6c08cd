//! Fixed-size bitset over workers, for the event-driven stepper
//! (`crate::stream`).

/// One `u64` word per 64 workers.
///
/// The stepper's idle/victim bookkeeping is all "which workers are busy" /
/// "which deques are non-empty" queries; word-wide popcounts and scans
/// replace per-worker walks, and m = 65, 130, 256 just add words.
#[derive(Debug, Default)]
pub(crate) struct BitWords {
    words: Vec<u64>,
}

impl BitWords {
    /// Clear every bit and resize to `m`, keeping capacity.
    pub(crate) fn reset(&mut self, m: usize) {
        self.words.clear();
        self.words.resize(m.div_ceil(64), 0);
    }

    #[inline]
    pub(crate) fn set(&mut self, i: usize) {
        self.words[i >> 6] |= 1 << (i & 63);
    }

    #[inline]
    pub(crate) fn clear(&mut self, i: usize) {
        self.words[i >> 6] &= !(1 << (i & 63));
    }

    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        self.words[i >> 6] & (1 << (i & 63)) != 0
    }

    #[inline]
    pub(crate) fn any(&self) -> bool {
        self.words.iter().any(|&w| w != 0)
    }

    #[inline]
    pub(crate) fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Make this set equal to `other`, keeping capacity.
    pub(crate) fn copy_from(&mut self, other: &BitWords) {
        self.words.clone_from(&other.words);
    }

    /// Word `wi`, cleared.
    #[inline]
    pub(crate) fn take_word(&mut self, wi: usize) -> u64 {
        std::mem::take(&mut self.words[wi])
    }

    /// The raw words, lowest worker indices first.
    #[inline]
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
    }

    /// Mask of the bit positions `< m` in word `wi`.
    #[inline]
    pub(crate) fn valid_mask(wi: usize, m: usize) -> u64 {
        let base = wi << 6;
        if m - base >= 64 {
            u64::MAX
        } else {
            (1u64 << (m - base)) - 1
        }
    }

    /// Visit set bits in ascending index order.
    #[inline]
    pub(crate) fn for_each_set(&self, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let b = w.trailing_zeros() as usize;
                f((wi << 6) | b);
                w &= w - 1;
            }
        }
    }

    /// Visit clear bits `< m` in ascending index order.
    #[inline]
    pub(crate) fn for_each_clear(&self, m: usize, mut f: impl FnMut(usize)) {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = !word & Self::valid_mask(wi, m);
            while w != 0 {
                let b = w.trailing_zeros() as usize;
                f((wi << 6) | b);
                w &= w - 1;
            }
        }
    }
}
