//! Deterministic linking-error channel.
//!
//! The synthetic aliases already create *intrinsic* ambiguity (the wrong
//! but more common sense wins). This channel adds *extrinsic* error on
//! top — missed mentions and mislinks — so experiments can sweep linking
//! quality, as the paper's discussion of Figure 6 suggests ("improving
//! the techniques used in our system would improve the results").

/// Miss / mislink probabilities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Probability that a detected mention is dropped entirely.
    pub p_miss: f64,
    /// Probability that a resolved mention is swapped to the next-best
    /// sense (when one exists; otherwise dropped).
    pub p_mislink: f64,
}

impl NoiseModel {
    /// The noiseless channel.
    pub fn none() -> Self {
        NoiseModel {
            p_miss: 0.0,
            p_mislink: 0.0,
        }
    }

    /// True when the channel never alters anything.
    pub fn is_none(&self) -> bool {
        self.p_miss <= 0.0 && self.p_mislink <= 0.0
    }
}

impl Default for NoiseModel {
    fn default() -> Self {
        NoiseModel::none()
    }
}

/// A tiny deterministic PRNG (splitmix64) so noise decisions are a pure
/// function of (seed, draw index) — links never change across runs.
#[derive(Debug, Clone)]
pub struct NoiseRng {
    state: u64,
}

impl NoiseRng {
    /// Seeds the generator; the same seed yields the same decisions.
    pub fn new(seed: u64) -> Self {
        NoiseRng { state: seed }
    }

    /// Seeds from arbitrary text (e.g. the query string) via FNV-1a.
    pub fn from_text(text: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        NoiseRng::new(h)
    }

    /// Next uniform value in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Bernoulli draw.
    pub fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && self.next_f64() < p
    }
}

/// Probabilities of the seeded query-perturbation channel: deterministic
/// paraphrase/typo variants of a replay query set, so load benchmarks
/// stress cache hit-rates instead of replaying a fixed 50-query loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerturbationModel {
    /// Probability that a token is dropped (paraphrase-style shortening;
    /// at least one token always survives).
    pub p_drop: f64,
    /// Probability that a surviving token gets one adjacent-character
    /// transposition (typo).
    pub p_typo: f64,
    /// Probability that one adjacent token pair is swapped after the
    /// per-token pass (paraphrase-style reordering).
    pub p_swap: f64,
}

impl PerturbationModel {
    /// The identity channel: every variant equals the original text.
    pub fn none() -> Self {
        PerturbationModel {
            p_drop: 0.0,
            p_typo: 0.0,
            p_swap: 0.0,
        }
    }

    /// A light mix of drops, typos and swaps — enough to perturb most
    /// variants while keeping queries recognizable.
    pub fn light() -> Self {
        PerturbationModel {
            p_drop: 0.15,
            p_typo: 0.25,
            p_swap: 0.2,
        }
    }

    /// True when the channel never alters anything.
    pub fn is_none(&self) -> bool {
        self.p_drop <= 0.0 && self.p_typo <= 0.0 && self.p_swap <= 0.0
    }
}

impl Default for PerturbationModel {
    fn default() -> Self {
        PerturbationModel::none()
    }
}

/// Deterministic variant `variant` of `text` under `model`.
///
/// Variant 0 is always the identity (the replay keeps its originals);
/// higher variants draw from an RNG seeded by `(text, variant)`, so the
/// whole variant family is a pure function of its inputs — the same
/// text and variant index produce the same perturbed query in every
/// run, on every thread.
pub fn perturb_query(text: &str, variant: u64, model: &PerturbationModel) -> String {
    if variant == 0 || model.is_none() {
        return text.to_owned();
    }
    let mut seed_rng = NoiseRng::from_text(text);
    // Mix the variant index into the text-derived seed so each variant
    // has its own independent stream.
    let _ = seed_rng.next_f64();
    let mut rng = NoiseRng::new(seed_rng.state ^ variant.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let tokens: Vec<&str> = text.split_whitespace().collect();
    let mut kept: Vec<String> = Vec::with_capacity(tokens.len());
    for tok in &tokens {
        if rng.chance(model.p_drop) {
            continue;
        }
        if rng.chance(model.p_typo) {
            kept.push(transpose_once(tok, &mut rng));
        } else {
            kept.push((*tok).to_owned());
        }
    }
    if kept.is_empty() {
        // Paraphrases shorten queries; they never empty them.
        if let Some(first) = tokens.first() {
            kept.push((*first).to_owned());
        }
    }
    if kept.len() >= 2 && rng.chance(model.p_swap) {
        let pos = (rng.next_f64() * (kept.len() - 1) as f64) as usize;
        if pos + 1 < kept.len() {
            kept.swap(pos, pos + 1);
        }
    }
    kept.join(" ")
}

/// Transposes one adjacent character pair at an RNG-chosen position
/// (identity for single-character tokens).
fn transpose_once(token: &str, rng: &mut NoiseRng) -> String {
    let mut chars: Vec<char> = token.chars().collect();
    if chars.len() < 2 {
        return token.to_owned();
    }
    let pos = (rng.next_f64() * (chars.len() - 1) as f64) as usize;
    if pos + 1 < chars.len() {
        chars.swap(pos, pos + 1);
    }
    chars.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_channel_is_none() {
        assert!(NoiseModel::none().is_none());
        assert!(NoiseModel::default().is_none());
        assert!(!NoiseModel {
            p_miss: 0.1,
            p_mislink: 0.0
        }
        .is_none());
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = NoiseRng::new(7);
        let mut b = NoiseRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_f64(), b.next_f64());
        }
    }

    #[test]
    fn rng_from_text_stable() {
        let mut a = NoiseRng::from_text("cable cars");
        let mut b = NoiseRng::from_text("cable cars");
        assert_eq!(a.next_f64(), b.next_f64());
        let mut c = NoiseRng::from_text("other");
        assert_ne!(a.next_f64(), c.next_f64());
    }

    #[test]
    fn values_in_unit_interval_and_spread() {
        let mut r = NoiseRng::new(42);
        let mut low = 0;
        for _ in 0..1000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            if v < 0.5 {
                low += 1;
            }
        }
        assert!((350..=650).contains(&low), "roughly balanced: {low}");
    }

    #[test]
    fn chance_extremes() {
        let mut r = NoiseRng::new(1);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn variant_zero_is_identity() {
        let model = PerturbationModel::light();
        assert_eq!(
            perturb_query("historic cable car photos", 0, &model),
            "historic cable car photos"
        );
        assert_eq!(
            perturb_query("anything at all", 3, &PerturbationModel::none()),
            "anything at all"
        );
    }

    #[test]
    fn variants_are_deterministic_and_distinct() {
        let model = PerturbationModel::light();
        let text = "historic cable car photos from the mountain village";
        for v in 1..8 {
            assert_eq!(
                perturb_query(text, v, &model),
                perturb_query(text, v, &model),
                "variant {v} must be reproducible"
            );
        }
        // With a light model over a long query, some variant differs
        // from the original and from at least one sibling.
        let variants: Vec<String> = (1..8).map(|v| perturb_query(text, v, &model)).collect();
        assert!(variants.iter().any(|p| p != text), "some variant perturbs");
        assert!(
            variants.iter().any(|p| p != &variants[0]),
            "variants draw independent streams"
        );
    }

    #[test]
    fn perturbation_never_empties_the_query() {
        let always_drop = PerturbationModel {
            p_drop: 1.0,
            p_typo: 0.0,
            p_swap: 0.0,
        };
        for v in 1..5 {
            let p = perturb_query("lonely", v, &always_drop);
            assert_eq!(p, "lonely", "a one-token query survives total drop");
            let p = perturb_query("two tokens", v, &always_drop);
            assert_eq!(p, "two", "the first token is restored when all drop");
        }
    }

    #[test]
    fn typos_transpose_adjacent_characters() {
        let always_typo = PerturbationModel {
            p_drop: 0.0,
            p_typo: 1.0,
            p_swap: 0.0,
        };
        for v in 1..6 {
            let p = perturb_query("funicular", v, &always_typo);
            assert_eq!(p.chars().count(), "funicular".chars().count());
            let mut want: Vec<char> = "funicular".chars().collect();
            let mut got: Vec<char> = p.chars().collect();
            want.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, want, "a transposition permutes, never mutates");
        }
        // Single-character tokens are immune.
        assert_eq!(perturb_query("a", 1, &always_typo), "a");
    }

    #[test]
    fn swap_reorders_tokens() {
        let always_swap = PerturbationModel {
            p_drop: 0.0,
            p_typo: 0.0,
            p_swap: 1.0,
        };
        for v in 1..6 {
            let p = perturb_query("alpha beta gamma delta", v, &always_swap);
            let mut want = ["alpha", "beta", "gamma", "delta"];
            let mut got: Vec<&str> = p.split_whitespace().collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "a swap permutes tokens, never drops them");
        }
    }
}
