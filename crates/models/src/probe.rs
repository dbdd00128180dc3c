//! The probe trie: every position one forward pass must score.
//!
//! A speculative verification pass scores the target's next-token
//! distribution at every position of a drafted sequence or token tree in
//! one go.  Those positions form a trie over the committed prefix:
//!
//! * node 0 is the empty extension — the position directly after the
//!   prefix (a draft step scores it alone; a verify pass reads the
//!   correction or bonus token there);
//! * every other node is one `(token, parent)` pair whose parent has a
//!   lower index, so a node's path is its parent's path plus its token;
//! * a k-token draft sequence is the chain 0←1←…←k, and a token tree maps
//!   node for node, with identical token paths merged into one node.
//!
//! [`ProbeTrie::score`] answers node `i` with `logits[i]`, building each
//! node's context with one push along a chain instead of re-copying
//! prefix plus extension, and the acceptance walk reads those
//! distributions back by node index.

use specasr_tokenizer::TokenId;

use crate::binding::UtteranceTokens;
use crate::logits::TokenLogits;
use crate::traits::AsrDecoderModel;

/// The positions one forward pass scores, as a trie of token extensions of
/// the pass's committed prefix.
///
/// # Example
///
/// ```
/// use specasr_models::ProbeTrie;
/// use specasr_tokenizer::TokenId;
///
/// let (a, b, c) = (TokenId::new(4), TokenId::new(5), TokenId::new(6));
/// let mut trie = ProbeTrie::chain(&[a, b]); // 0 ← 1 (a) ← 2 (a b)
/// assert_eq!(trie.insert(1, b), 2, "an existing path is found, not duplicated");
/// assert_eq!(trie.insert(1, c), 3); // a c
/// assert_eq!(trie.node_count(), 4);
/// assert_eq!(trie.path(3), vec![a, c]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProbeTrie {
    /// `(token, parent)` of nodes `1..`, in index order (node `i` is entry
    /// `i - 1`); node 0, the root, has no entry.
    nodes: Vec<(TokenId, u32)>,
}

impl ProbeTrie {
    /// The root alone: one probe, the position directly after the prefix.
    /// Allocates nothing.
    pub const fn new() -> Self {
        ProbeTrie { nodes: Vec::new() }
    }

    /// The chain `0 ← 1 ← … ← k` of a k-token draft sequence: node `i`
    /// spells `tokens[..i]`.
    pub fn chain(tokens: &[TokenId]) -> Self {
        ProbeTrie {
            nodes: (0u32..)
                .zip(tokens)
                .map(|(parent, &t)| (t, parent))
                .collect(),
        }
    }

    /// Number of nodes, root included — the probe count a pass scores.
    pub fn node_count(&self) -> usize {
        self.nodes.len() + 1
    }

    /// Appends a node extending `parent` by `token` and returns its index,
    /// without looking for an existing identical path.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a node of the trie.
    pub fn push(&mut self, parent: usize, token: TokenId) -> usize {
        assert!(
            parent < self.node_count(),
            "a probe's parent precedes it in the trie"
        );
        let parent = u32::try_from(parent).expect("probe tries hold fewer than 2^32 nodes");
        self.nodes.push((token, parent));
        self.nodes.len()
    }

    /// The node extending `parent` by `token`, added if absent.  Insertion
    /// is the dedup: identical token paths always share one node.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a node of the trie.
    pub fn insert(&mut self, parent: usize, token: TokenId) -> usize {
        match self.child(parent, token) {
            Some(node) => node,
            None => self.push(parent, token),
        }
    }

    /// The node extending `parent` by `token`, if present.
    pub fn child(&self, parent: usize, token: TokenId) -> Option<usize> {
        // Children follow their parent, so the scan starts right after it
        // (along a chain the child is the very next node).
        self.nodes
            .get(parent..)?
            .iter()
            .position(|&(t, p)| p as usize == parent && t == token)
            .map(|offset| parent + offset + 1)
    }

    /// The `(token, parent)` pair of every node after the root, in index
    /// order.
    pub fn edges(&self) -> impl ExactSizeIterator<Item = (TokenId, usize)> + '_ {
        self.nodes
            .iter()
            .map(|&(token, parent)| (token, parent as usize))
    }

    /// The token extension node `node` spells (empty for the root).
    ///
    /// # Panics
    ///
    /// Panics if `node` is not a node of the trie.
    pub fn path(&self, node: usize) -> Vec<TokenId> {
        let mut path = Vec::new();
        self.extend_with_path(node, &mut path);
        path
    }

    /// Appends the path of `node` to `out`.
    fn extend_with_path(&self, node: usize, out: &mut Vec<TokenId>) {
        let start = out.len();
        let mut at = node;
        while at != 0 {
            let (token, parent) = self.nodes[at - 1];
            out.push(token);
            at = parent as usize;
        }
        out[start..].reverse();
    }

    /// Scores every node after `prefix` against `model`: `logits[i]` is the
    /// next-token distribution after `prefix` plus node `i`'s path.
    ///
    /// This is the one scoring routine: the simulated backends run it for
    /// every request of a batch, and blocking decodes run it to score a
    /// round's trie directly against the target.  Each node's context is
    /// its predecessor's plus one push whenever the node extends the node
    /// scored just before it, which a chain always does.
    pub fn score<M>(
        &self,
        model: &M,
        audio: &UtteranceTokens,
        prefix: &[TokenId],
    ) -> Vec<TokenLogits>
    where
        M: AsrDecoderModel + ?Sized,
    {
        let mut logits = Vec::with_capacity(self.node_count());
        let mut context = Vec::with_capacity(prefix.len() + self.nodes.len());
        context.extend_from_slice(prefix);
        logits.push(model.next_logits(audio, &context));
        // `context` spells `prefix` plus the path of node `tip`.
        let mut tip = 0;
        for (node, (token, parent)) in (1..).zip(self.edges()) {
            if parent != tip {
                context.truncate(prefix.len());
                self.extend_with_path(parent, &mut context);
            }
            context.push(token);
            tip = node;
            logits.push(model.next_logits(audio, &context));
        }
        logits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::TokenizerBinding;
    use crate::profiles::ModelProfile;
    use crate::simulated::SimulatedAsrModel;
    use specasr_audio::{Corpus, Split};

    fn t(raw: u32) -> TokenId {
        TokenId::new(raw)
    }

    #[test]
    fn a_chain_spells_every_prefix_of_its_sequence() {
        let tokens = [t(3), t(1), t(3)];
        let trie = ProbeTrie::chain(&tokens);
        assert_eq!(trie.node_count(), 4);
        for end in 0..=tokens.len() {
            assert_eq!(trie.path(end), tokens[..end]);
        }
        assert_eq!(ProbeTrie::chain(&[]), ProbeTrie::new());
    }

    #[test]
    fn insertion_merges_identical_paths() {
        let mut trie = ProbeTrie::new();
        let a = trie.insert(0, t(7));
        let ab = trie.insert(a, t(8));
        assert_eq!(trie.insert(0, t(7)), a);
        assert_eq!(trie.insert(a, t(8)), ab);
        let b = trie.insert(0, t(8));
        assert_eq!(trie.node_count(), 4);
        assert_eq!(trie.child(a, t(8)), Some(ab));
        assert_eq!(trie.child(b, t(8)), None);
        assert_eq!(trie.child(9, t(8)), None, "unknown parent");
        assert_eq!(
            trie.edges().collect::<Vec<_>>(),
            vec![(t(7), 0), (t(8), 1), (t(8), 0)]
        );
    }

    #[test]
    #[should_panic(expected = "parent precedes it")]
    fn pushing_under_a_missing_parent_panics() {
        ProbeTrie::new().push(1, t(2));
    }

    #[test]
    fn scoring_matches_direct_queries_along_every_path() {
        let corpus = Corpus::librispeech_like(23, 2);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let audio = binding.bind(&corpus.split(Split::TestClean)[0]);
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let transcript = target.greedy_transcript(&audio);
        let prefix = &transcript[..2];
        // A branching trie whose nodes are not in depth-first order, so the
        // scorer must re-root its context.
        let mut trie = ProbeTrie::chain(&transcript[2..5]);
        let side = trie.push(1, t(99));
        trie.push(side, t(98));
        trie.push(0, t(97));
        trie.push(2, t(96));
        let logits = trie.score(&target, &audio, prefix);
        assert_eq!(logits.len(), trie.node_count());
        for (node, scored) in logits.iter().enumerate() {
            let mut context = prefix.to_vec();
            context.extend(trie.path(node));
            assert_eq!(scored, &target.next_logits(&audio, &context), "node {node}");
        }
    }
}
