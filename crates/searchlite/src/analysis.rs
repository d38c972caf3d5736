//! Text analysis: tokenization, stopword removal, Porter stemming.
//!
//! Indri's default English pipeline — lowercasing, alphanumeric
//! tokenization, stopping, Porter stemming — is reproduced here so that
//! documents, queries and expansion features are all normalized
//! identically (critical: expansion features are *titles*, matched as
//! n-grams of analyzed terms).

/// Sorted stopword list (a compact subset of the SMART list; the same set
/// must be applied to documents and queries, which this module guarantees
/// by construction).
static STOPWORDS: &[&str] = &[
    "a",
    "about",
    "above",
    "after",
    "again",
    "against",
    "all",
    "am",
    "an",
    "and",
    "any",
    "are",
    "as",
    "at",
    "be",
    "because",
    "been",
    "before",
    "being",
    "below",
    "between",
    "both",
    "but",
    "by",
    "can",
    "cannot",
    "could",
    "did",
    "do",
    "does",
    "doing",
    "down",
    "during",
    "each",
    "few",
    "for",
    "from",
    "further",
    "had",
    "has",
    "have",
    "having",
    "he",
    "her",
    "here",
    "hers",
    "herself",
    "him",
    "himself",
    "his",
    "how",
    "i",
    "if",
    "in",
    "into",
    "is",
    "it",
    "its",
    "itself",
    "me",
    "more",
    "most",
    "my",
    "myself",
    "no",
    "nor",
    "not",
    "of",
    "off",
    "on",
    "once",
    "only",
    "or",
    "other",
    "ought",
    "our",
    "ours",
    "ourselves",
    "out",
    "over",
    "own",
    "same",
    "she",
    "should",
    "so",
    "some",
    "such",
    "than",
    "that",
    "the",
    "their",
    "theirs",
    "them",
    "themselves",
    "then",
    "there",
    "these",
    "they",
    "this",
    "those",
    "through",
    "to",
    "too",
    "under",
    "until",
    "up",
    "very",
    "was",
    "we",
    "were",
    "what",
    "when",
    "where",
    "which",
    "while",
    "who",
    "whom",
    "why",
    "with",
    "would",
    "you",
    "your",
    "yours",
    "yourself",
    "yourselves",
];

/// Returns true if `word` (already lowercased) is a stopword.
pub fn is_stopword(word: &str) -> bool {
    STOPWORDS.binary_search(&word).is_ok()
}

/// A cheaply-cloneable analysis pipeline configuration.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct Analyzer {
    /// Apply the Porter stemmer to each surviving token.
    pub stemming: bool,
    /// Drop stopwords.
    pub stopwords: bool,
}

impl Analyzer {
    /// The default English pipeline: lowercase → stop → Porter stem.
    pub fn english() -> Self {
        Analyzer {
            stemming: true,
            stopwords: true,
        }
    }

    /// A pipeline that only lowercases and tokenizes (useful in tests and
    /// for entity-title dictionaries where stemming would distort names).
    pub fn plain() -> Self {
        Analyzer {
            stemming: false,
            stopwords: false,
        }
    }

    /// Analyzes raw text into a token stream.
    pub fn analyze(&self, text: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.analyze_into(text, &mut out);
        out
    }

    /// Analyzes into a caller-provided buffer (cleared first); the
    /// workhorse-buffer pattern avoids reallocation in indexing loops.
    pub fn analyze_into(&self, text: &str, out: &mut Vec<String>) {
        out.clear();
        let mut scratch = TokenScratch::default();
        for raw in tokenize(text) {
            if self.analyze_token(raw, &mut scratch).is_some() {
                // The kept token's buffer becomes its `String`: one
                // allocation per kept token, none per dropped one.
                out.push(std::mem::take(&mut scratch.token));
            }
        }
    }

    /// Analyzes one raw token — a maximal alphanumeric run, as
    /// [`tokenize`] yields it — into its indexed form, or `None` when the
    /// pipeline drops it (a stopword, or a stem that comes out empty).
    ///
    /// This is the one analysis routine: [`Analyzer::analyze_into`] runs
    /// it per token for queries, linker surfaces and KB titles, and
    /// [`crate::IndexBuilder`] runs it once per distinct raw token. It
    /// allocates nothing once `scratch` has grown to the longest token:
    /// ASCII is lowercased in place, non-ASCII goes through
    /// [`str::to_lowercase`] (which applies the final-sigma rule, so it
    /// needs the whole token), and the Porter steps run in place on the
    /// scratch's byte buffer.
    pub fn analyze_token<'s>(&self, raw: &str, scratch: &'s mut TokenScratch) -> Option<&'s str> {
        let TokenScratch { token, stem } = scratch;
        token.clear();
        if raw.is_ascii() {
            token.push_str(raw);
            token.make_ascii_lowercase();
        } else {
            token.push_str(&raw.to_lowercase());
        }
        if self.stopwords && is_stopword(token) {
            return None;
        }
        // Porter's convention: words of 2 bytes or fewer and non-ASCII
        // words pass through unchanged.
        if self.stemming && token.len() > 2 && token.is_ascii() {
            stem.clear();
            stem.extend_from_slice(token.as_bytes());
            stem_ascii(stem);
            token.clear();
            token.push_str(
                std::str::from_utf8(stem)
                    .expect("invariant: the Porter steps only touch ascii words"),
            );
        }
        (!token.is_empty()).then_some(token.as_str())
    }
}

/// Reusable buffers of [`Analyzer::analyze_token`]: the analyzed token
/// and the stemmer's working bytes. One scratch serves any number of
/// sequential calls.
#[derive(Debug, Default)]
// lint:allow(persist-types-derive-serde) — transient scratch, never persisted
pub struct TokenScratch {
    token: String,
    stem: Vec<u8>,
}

/// Splits text into maximal alphanumeric runs.
pub fn tokenize(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|s| !s.is_empty())
}

// ---------------------------------------------------------------------
// Porter stemmer (M.F. Porter, "An algorithm for suffix stripping", 1980)
// ---------------------------------------------------------------------

/// Stems a lowercase ASCII word with the classic Porter algorithm.
/// Non-ASCII words and words shorter than 3 characters pass through
/// unchanged (Porter's own convention).
pub fn porter_stem(word: &str) -> String {
    if word.len() <= 2 || !word.is_ascii() {
        return word.to_owned();
    }
    let mut w = word.as_bytes().to_vec();
    stem_ascii(&mut w);
    String::from_utf8(w).expect("invariant: stemmer input is ascii, so output stays valid utf-8")
}

/// Runs the Porter steps in place on a lowercase ASCII word longer than
/// 2 bytes.
fn stem_ascii(w: &mut Vec<u8>) {
    step1a(w);
    step1b(w);
    step1c(w);
    step2(w);
    step3(w);
    step4(w);
    step5a(w);
    step5b(w);
}

/// True if `w[i]` acts as a consonant.
fn is_cons(w: &[u8], i: usize) -> bool {
    match w[i] {
        b'a' | b'e' | b'i' | b'o' | b'u' => false,
        b'y' => i == 0 || !is_cons(w, i - 1),
        _ => true,
    }
}

/// Porter's measure m of `w[..len]`: the number of VC sequences.
fn measure(w: &[u8], len: usize) -> usize {
    let mut m = 0;
    let mut i = 0;
    // Skip initial consonants.
    while i < len && is_cons(w, i) {
        i += 1;
    }
    loop {
        // Skip vowels.
        while i < len && !is_cons(w, i) {
            i += 1;
        }
        if i == len {
            return m;
        }
        // Skip consonants: one full VC found.
        while i < len && is_cons(w, i) {
            i += 1;
        }
        m += 1;
        if i == len {
            return m;
        }
    }
}

/// True if `w[..len]` contains a vowel.
fn has_vowel(w: &[u8], len: usize) -> bool {
    (0..len).any(|i| !is_cons(w, i))
}

/// True if `w[..len]` ends with a double consonant.
fn ends_double_cons(w: &[u8], len: usize) -> bool {
    len >= 2 && w[len - 1] == w[len - 2] && is_cons(w, len - 1)
}

/// True if `w[..len]` ends consonant-vowel-consonant and the final
/// consonant is not w, x or y.
fn ends_cvc(w: &[u8], len: usize) -> bool {
    if len < 3 {
        return false;
    }
    is_cons(w, len - 3)
        && !is_cons(w, len - 2)
        && is_cons(w, len - 1)
        && !matches!(w[len - 1], b'w' | b'x' | b'y')
}

fn ends_with(w: &[u8], suffix: &[u8]) -> bool {
    w.len() >= suffix.len() && &w[w.len() - suffix.len()..] == suffix
}

/// If the word ends in `suffix`, returns the stem length, else None.
fn stem_len(w: &[u8], suffix: &[u8]) -> Option<usize> {
    if ends_with(w, suffix) {
        Some(w.len() - suffix.len())
    } else {
        None
    }
}

fn replace_suffix(w: &mut Vec<u8>, stem: usize, repl: &[u8]) {
    w.truncate(stem);
    w.extend_from_slice(repl);
}

fn step1a(w: &mut Vec<u8>) {
    // "sses"→"ss" and "ies"→"i" both drop two bytes.
    if ends_with(w, b"sses") || ends_with(w, b"ies") {
        w.truncate(w.len() - 2);
    } else if ends_with(w, b"ss") {
        // no-op
    } else if ends_with(w, b"s") {
        w.truncate(w.len() - 1);
    }
}

fn step1b(w: &mut Vec<u8>) {
    if let Some(stem) = stem_len(w, b"eed") {
        if measure(w, stem) > 0 {
            w.truncate(w.len() - 1);
        }
        return;
    }
    let trimmed = if let Some(stem) = stem_len(w, b"ed") {
        if has_vowel(w, stem) {
            w.truncate(stem);
            true
        } else {
            false
        }
    } else if let Some(stem) = stem_len(w, b"ing") {
        if has_vowel(w, stem) {
            w.truncate(stem);
            true
        } else {
            false
        }
    } else {
        false
    };
    if trimmed {
        if ends_with(w, b"at") || ends_with(w, b"bl") || ends_with(w, b"iz") {
            w.push(b'e');
        } else if ends_double_cons(w, w.len()) && !matches!(w[w.len() - 1], b'l' | b's' | b'z') {
            w.truncate(w.len() - 1);
        } else if measure(w, w.len()) == 1 && ends_cvc(w, w.len()) {
            w.push(b'e');
        }
    }
}

fn step1c(w: &mut [u8]) {
    let len = w.len();
    if len >= 2 && w[len - 1] == b'y' && has_vowel(w, len - 1) {
        w[len - 1] = b'i';
    }
}

/// (m>0) suffix → replacement pairs for step 2.
static STEP2: &[(&[u8], &[u8])] = &[
    (b"ational", b"ate"),
    (b"tional", b"tion"),
    (b"enci", b"ence"),
    (b"anci", b"ance"),
    (b"izer", b"ize"),
    (b"abli", b"able"),
    (b"alli", b"al"),
    (b"entli", b"ent"),
    (b"eli", b"e"),
    (b"ousli", b"ous"),
    (b"ization", b"ize"),
    (b"ation", b"ate"),
    (b"ator", b"ate"),
    (b"alism", b"al"),
    (b"iveness", b"ive"),
    (b"fulness", b"ful"),
    (b"ousness", b"ous"),
    (b"aliti", b"al"),
    (b"iviti", b"ive"),
    (b"biliti", b"ble"),
];

fn step2(w: &mut Vec<u8>) {
    for (suf, repl) in STEP2 {
        if let Some(stem) = stem_len(w, suf) {
            if measure(w, stem) > 0 {
                replace_suffix(w, stem, repl);
            }
            return;
        }
    }
}

static STEP3: &[(&[u8], &[u8])] = &[
    (b"icate", b"ic"),
    (b"ative", b""),
    (b"alize", b"al"),
    (b"iciti", b"ic"),
    (b"ical", b"ic"),
    (b"ful", b""),
    (b"ness", b""),
];

fn step3(w: &mut Vec<u8>) {
    for (suf, repl) in STEP3 {
        if let Some(stem) = stem_len(w, suf) {
            if measure(w, stem) > 0 {
                replace_suffix(w, stem, repl);
            }
            return;
        }
    }
}

static STEP4: &[&[u8]] = &[
    b"al", b"ance", b"ence", b"er", b"ic", b"able", b"ible", b"ant", b"ement", b"ment", b"ent",
    b"ion", b"ou", b"ism", b"ate", b"iti", b"ous", b"ive", b"ize",
];

fn step4(w: &mut Vec<u8>) {
    for suf in STEP4 {
        if let Some(stem) = stem_len(w, suf) {
            if measure(w, stem) > 1 {
                // "ion" only strips after s or t.
                if *suf == b"ion" && !(stem > 0 && matches!(w[stem - 1], b's' | b't')) {
                    return;
                }
                w.truncate(stem);
            }
            return;
        }
    }
}

fn step5a(w: &mut Vec<u8>) {
    if ends_with(w, b"e") {
        let stem = w.len() - 1;
        let m = measure(w, stem);
        if m > 1 || (m == 1 && !ends_cvc(w, stem)) {
            w.truncate(stem);
        }
    }
}

fn step5b(w: &mut Vec<u8>) {
    let len = w.len();
    if len >= 2 && w[len - 1] == b'l' && ends_double_cons(w, len) && measure(w, len) > 1 {
        w.truncate(len - 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stem(s: &str) -> String {
        porter_stem(s)
    }

    #[test]
    fn step1a_examples() {
        assert_eq!(stem("caresses"), "caress");
        assert_eq!(stem("ponies"), "poni");
        assert_eq!(stem("caress"), "caress");
        assert_eq!(stem("cats"), "cat");
    }

    #[test]
    fn step1b_examples() {
        assert_eq!(stem("feed"), "feed");
        assert_eq!(stem("agreed"), "agre");
        assert_eq!(stem("plastered"), "plaster");
        assert_eq!(stem("bled"), "bled");
        assert_eq!(stem("motoring"), "motor");
        assert_eq!(stem("sing"), "sing");
        assert_eq!(stem("conflated"), "conflat");
        assert_eq!(stem("troubled"), "troubl");
        assert_eq!(stem("sized"), "size");
        assert_eq!(stem("hopping"), "hop");
        assert_eq!(stem("tanned"), "tan");
        assert_eq!(stem("falling"), "fall");
        assert_eq!(stem("hissing"), "hiss");
        assert_eq!(stem("failing"), "fail");
        assert_eq!(stem("filing"), "file");
    }

    #[test]
    fn step1c_examples() {
        assert_eq!(stem("happy"), "happi");
        assert_eq!(stem("sky"), "sky");
    }

    #[test]
    fn step2_examples() {
        assert_eq!(stem("relational"), "relat");
        assert_eq!(stem("conditional"), "condit");
        assert_eq!(stem("vietnamization"), "vietnam");
        assert_eq!(stem("predication"), "predic");
        assert_eq!(stem("operator"), "oper");
        assert_eq!(stem("feudalism"), "feudal");
        assert_eq!(stem("hopefulness"), "hope");
        assert_eq!(stem("callousness"), "callous");
        assert_eq!(stem("formaliti"), "formal");
        assert_eq!(stem("sensitiviti"), "sensit");
    }

    #[test]
    fn step3_examples() {
        assert_eq!(stem("triplicate"), "triplic");
        assert_eq!(stem("formative"), "form");
        assert_eq!(stem("formalize"), "formal");
        assert_eq!(stem("electricity"), "electr");
        assert_eq!(stem("electrical"), "electr");
        assert_eq!(stem("hopeful"), "hope");
        assert_eq!(stem("goodness"), "good");
    }

    #[test]
    fn step4_examples() {
        assert_eq!(stem("revival"), "reviv");
        assert_eq!(stem("allowance"), "allow");
        assert_eq!(stem("inference"), "infer");
        assert_eq!(stem("airliner"), "airlin");
        assert_eq!(stem("adjustment"), "adjust");
        assert_eq!(stem("adoption"), "adopt");
        assert_eq!(stem("irritant"), "irrit");
        assert_eq!(stem("communism"), "commun");
        assert_eq!(stem("activate"), "activ");
        assert_eq!(stem("effective"), "effect");
    }

    #[test]
    fn step5_examples() {
        assert_eq!(stem("probate"), "probat");
        assert_eq!(stem("rate"), "rate");
        assert_eq!(stem("cease"), "ceas");
        assert_eq!(stem("controll"), "control");
        assert_eq!(stem("roll"), "roll");
    }

    #[test]
    fn short_words_untouched() {
        assert_eq!(stem("is"), "is");
        assert_eq!(stem("be"), "be");
        assert_eq!(stem("a"), "a");
    }

    #[test]
    fn non_ascii_untouched() {
        assert_eq!(stem("füniculár"), "füniculár");
    }

    #[test]
    fn stemming_is_idempotent_on_common_words() {
        for w in ["funicular", "painting", "graffiti", "carriage", "street"] {
            let once = stem(w);
            let twice = stem(&once);
            // Porter is not idempotent in general, but it must be stable on
            // these evaluation-vocabulary words (sanity guard for indexing
            // query titles that were already stemmed).
            assert_eq!(once, twice, "word {w}");
        }
    }

    #[test]
    fn stopword_lookup() {
        assert!(is_stopword("the"));
        assert!(is_stopword("of"));
        assert!(!is_stopword("funicular"));
        // The static list must be sorted for binary search to be sound.
        let mut sorted = STOPWORDS.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, STOPWORDS);
    }

    #[test]
    fn analyzer_pipeline() {
        let a = Analyzer::english();
        let toks = a.analyze("The cable cars of San Francisco are climbing!");
        assert_eq!(toks, vec!["cabl", "car", "san", "francisco", "climb"]);
    }

    #[test]
    fn analyzer_plain_keeps_stopwords() {
        let a = Analyzer::plain();
        let toks = a.analyze("The Cable-Cars");
        assert_eq!(toks, vec!["the", "cable", "cars"]);
    }

    #[test]
    fn tokenizer_splits_on_punctuation_and_keeps_digits() {
        let toks: Vec<&str> = tokenize("CHiC-2012, 50 queries!").collect();
        assert_eq!(toks, vec!["CHiC", "2012", "50", "queries"]);
    }

    #[test]
    fn analyze_into_reuses_buffer() {
        let a = Analyzer::english();
        let mut buf = Vec::new();
        a.analyze_into("cable cars", &mut buf);
        assert_eq!(buf, vec!["cabl", "car"]);
        a.analyze_into("funicular", &mut buf);
        assert_eq!(buf, vec!["funicular"]);
    }
}
