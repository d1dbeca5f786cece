//! Seeded input generation. Everything a workload feeds the program is a
//! pure function of `--seed`, built here and handed over as plain values.

/// SplitMix64: the benchmark's own generator, so its inputs do not move
/// when the program's RNG or workload crates change.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`; the modulo bias is far below
    /// anything these workloads can see).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

/// `count` distinct non-zero client values. Zero is the replicas' no-op
/// filler and must never be a client request; distinctness is what lets the
/// output check say "none lost, none twice".
pub fn client_stream(seed: u64, count: usize) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ 0xC11E_57A7_5EED_0001);
    let mut seen = std::collections::HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let v = rng.next_u64();
        if v != 0 && seen.insert(v) {
            out.push(v);
        }
    }
    out
}

/// One replica's view of the client stream: the global order with each
/// adjacent pair swapped with probability `swap_permille / 1000` — the
/// "requests raced on the way in" contention that makes slots leave the
/// one-step condition. A swapped pair is not swapped again, so every value
/// moves by at most one position.
pub fn reordered(stream: &[u64], seed: u64, replica: usize, swap_permille: u64) -> Vec<u64> {
    let mut rng = SplitMix64::new(seed ^ ((replica as u64 + 1) << 32) ^ 0x5A4B_0B5E_55ED_0002);
    let mut out = stream.to_vec();
    let mut i = 0;
    while i + 1 < out.len() {
        if rng.below(1000) < swap_permille {
            out.swap(i, i + 1);
            i += 2;
        } else {
            i += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_function_of_the_seed() {
        let a = client_stream(42, 500);
        assert_eq!(a, client_stream(42, 500));
        assert_ne!(a, client_stream(43, 500));
        assert_eq!(&a[..100], &client_stream(42, 100)[..], "prefixes agree");
        let distinct: std::collections::HashSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), a.len());
        assert!(a.iter().all(|v| *v != 0));
    }

    #[test]
    fn reordering_is_deterministic_per_seed_and_replica() {
        let stream = client_stream(7, 2000);
        let r3 = reordered(&stream, 7, 3, 100);
        assert_eq!(r3, reordered(&stream, 7, 3, 100));
        assert_ne!(r3, reordered(&stream, 7, 4, 100), "replicas differ");
        assert_ne!(r3, reordered(&stream, 8, 3, 100), "seeds differ");
        assert_eq!(
            reordered(&stream, 7, 3, 0),
            stream,
            "0 permille is the identity"
        );
    }

    #[test]
    fn reordering_permutes_locally_at_the_stated_rate() {
        let stream = client_stream(9, 10_000);
        let shuffled = reordered(&stream, 9, 0, 100);
        let mut sorted_a = stream.clone();
        let mut sorted_b = shuffled.clone();
        sorted_a.sort_unstable();
        sorted_b.sort_unstable();
        assert_eq!(
            sorted_a, sorted_b,
            "a permutation: nothing lost, nothing twice"
        );
        let mut moved = 0;
        for (i, v) in shuffled.iter().enumerate() {
            let lo = i.saturating_sub(1);
            let hi = (i + 1).min(stream.len() - 1);
            assert!(
                stream[lo..=hi].contains(v),
                "value moved more than one place"
            );
            moved += usize::from(stream[i] != *v);
        }
        // ~10 % of pairs swap, each moving two values: ~18 % of positions.
        assert!((1400..2200).contains(&moved), "{moved}");
    }
}
