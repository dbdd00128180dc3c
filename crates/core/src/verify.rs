//! Target-model verification of draft sequences and draft token trees.
//!
//! Verification follows the standard lossless speculative-decoding rule: walk
//! the draft tokens in order and accept each one that equals the target
//! model's own greedy choice at that position; the target's choice at the
//! first mismatch (or the position after a fully accepted draft) is appended
//! as the *correction* token, which comes for free from the same verification
//! pass.  Tree verification applies the same rule to every root-to-leaf branch
//! of a draft token tree — evaluated in a single target pass thanks to the
//! 2-D tree attention mask — and keeps the branch with the longest accepted
//! prefix.
//!
//! One verification pass scores a [`ProbeTrie`]: node 0 is the committed
//! prefix, and every other node extends its parent by one draft token (a
//! sequence is a chain; a tree maps node for node, identical paths
//! merged).  The acceptance walk reads the pass's distributions back by
//! node index — no model is queried while walking, so a backend completion
//! and a direct [`ProbeTrie::score`] against the target commit alike.
//! [`verify_sequence`] and [`verify_tree`] are that score-then-walk pair
//! over a model.
//!
//! Verification is indifferent to where the draft tokens came from: a draft
//! model, a CTC-encoder collapse, or a token-map lookup (see
//! [`crate::Drafter`]) all produce candidate sequences that are checked
//! against the same target greedy choices, which is why draft-free
//! speculation is lossless by construction rather than by tuning.

use specasr_models::{AsrDecoderModel, ProbeTrie, TokenLogits, UtteranceTokens};
use specasr_runtime::{TokenTree, TreeAttentionMask};
use specasr_tokenizer::TokenId;

/// Result of verifying a single draft sequence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequenceVerification {
    /// The accepted prefix of the draft sequence.
    pub accepted: Vec<TokenId>,
    /// The target's token at the first mismatch, or the bonus token following
    /// a fully accepted draft.
    pub correction: TokenId,
    /// `true` if every draft token was accepted.
    pub all_accepted: bool,
}

impl SequenceVerification {
    /// Number of accepted draft tokens.
    pub fn accepted_len(&self) -> usize {
        self.accepted.len()
    }
}

/// Verifies `draft_tokens` as a continuation of `prefix`: scores the
/// draft's probe chain against `target`, then runs the acceptance walk.
///
/// The caller is responsible for charging one target forward pass of
/// `draft_tokens.len()` tokens to its [`specasr_models::DecodeClock`]; this
/// function only computes the acceptance decision.
///
/// # Example
///
/// ```
/// use specasr::verify_sequence;
/// use specasr_audio::{Corpus, Split};
/// use specasr_models::{AsrDecoderModel, ModelProfile, SimulatedAsrModel, TokenizerBinding};
///
/// let corpus = Corpus::librispeech_like(1, 1);
/// let binding = TokenizerBinding::for_corpus(&corpus);
/// let audio = binding.bind(&corpus.split(Split::TestClean)[0]);
/// let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
///
/// // Verifying the target's own transcript accepts everything.
/// let transcript = target.greedy_transcript(&audio);
/// let verification = verify_sequence(&target, &audio, &[], &transcript);
/// assert!(verification.all_accepted);
/// assert_eq!(verification.correction, audio.eos());
/// ```
pub fn verify_sequence<M: AsrDecoderModel + ?Sized>(
    target: &M,
    audio: &UtteranceTokens,
    prefix: &[TokenId],
    draft_tokens: &[TokenId],
) -> SequenceVerification {
    let logits = ProbeTrie::chain(draft_tokens).score(target, audio, prefix);
    let walk = accept_path(&logits, chain_path(draft_tokens), audio.eos());
    SequenceVerification {
        accepted: draft_tokens[..walk.accepted].to_vec(),
        correction: walk.correction,
        all_accepted: walk.all_accepted,
    }
}

/// Result of verifying a draft token tree.
#[derive(Debug, Clone, PartialEq)]
pub struct TreeVerification {
    /// The accepted tokens along the best branch.
    pub accepted: Vec<TokenId>,
    /// The target's correction (or bonus) token after the accepted prefix.
    pub correction: TokenId,
    /// Number of tree nodes processed by the verification pass (the token
    /// count the target pass must be charged with).
    pub nodes_processed: usize,
    /// `true` if the best branch was accepted in full to one of its leaves.
    pub best_branch_fully_accepted: bool,
}

impl TreeVerification {
    /// Number of accepted draft tokens.
    pub fn accepted_len(&self) -> usize {
        self.accepted.len()
    }
}

/// Verifies every branch of `tree` as a continuation of `prefix` and returns
/// the best (longest-accepted) branch outcome: scores the tree's probe trie
/// against `target`, then walks every leaf's node path.
///
/// The whole tree is conceptually processed in one target forward pass using
/// the SpecInfer 2-D attention mask; the caller charges one target pass of
/// [`TreeVerification::nodes_processed`] tokens.
///
/// # Panics
///
/// Panics (in debug builds) if the tree's attention mask is inconsistent with
/// its structure — this would indicate a bug in tree construction.
pub fn verify_tree<M: AsrDecoderModel + ?Sized>(
    target: &M,
    audio: &UtteranceTokens,
    prefix: &[TokenId],
    tree: &TokenTree,
) -> TreeVerification {
    debug_assert!(
        TreeAttentionMask::from_tree(tree).is_consistent_with(tree),
        "tree attention mask must match tree ancestry"
    );
    let probes = TreeProbes::build(tree, &[]);
    let logits = probes.trie.score(target, audio, prefix);
    accept_tree(tree, &probes.nodes, &logits, audio.eos())
}

/// Outcome of the acceptance walk along one drafted path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PathAcceptance {
    /// Number of leading path tokens accepted.
    pub accepted: usize,
    /// The target's greedy token after the accepted prefix: the correction
    /// at the first mismatch, or the bonus after a fully accepted path.
    pub correction: TokenId,
    /// `true` if every path token was accepted.
    pub all_accepted: bool,
}

/// The acceptance walk: the standard lossless rule over one verification
/// pass's scored distributions, indexed by probe-trie node.
///
/// `path` yields each drafted token together with the trie node it leads
/// to, root to tip; `logits[node]` is the target's distribution after that
/// node's path (node 0 is the committed prefix itself).  A token is
/// accepted while it equals the target's top-1 at the current node; the
/// top-1 where the walk stops is the correction.  An empty distribution
/// answers `eos`, as [`AsrDecoderModel::greedy_token`] does.
pub(crate) fn accept_path(
    logits: &[TokenLogits],
    path: impl IntoIterator<Item = (usize, TokenId)>,
    eos: TokenId,
) -> PathAcceptance {
    let greedy = |node: usize| logits[node].top1().map_or(eos, |c| c.token);
    let mut tip = 0;
    let mut accepted = 0;
    for (node, token) in path {
        let target = greedy(tip);
        if target != token {
            return PathAcceptance {
                accepted,
                correction: target,
                all_accepted: false,
            };
        }
        tip = node;
        accepted += 1;
    }
    PathAcceptance {
        accepted,
        correction: greedy(tip),
        all_accepted: true,
    }
}

/// The node path of a draft sequence's probe chain: token `i` leads to
/// node `i + 1`.
pub(crate) fn chain_path(tokens: &[TokenId]) -> impl Iterator<Item = (usize, TokenId)> + '_ {
    (1..).zip(tokens.iter().copied())
}

/// The probe trie of a draft token tree (plus an optional trunk sequence),
/// with the trie node every tree node and every trunk position maps to.
#[derive(Debug, Clone)]
pub(crate) struct TreeProbes {
    /// The trie: tree nodes first, in tree order, then any trunk positions
    /// the tree does not already spell.
    pub trie: ProbeTrie,
    /// Trie node of each tree node, indexed like the tree.
    pub nodes: Vec<usize>,
    /// Trie node of each trunk position.
    pub trunk: Vec<usize>,
}

impl TreeProbes {
    /// Inserts every tree node, then the trunk, into one trie.  Tree
    /// parents precede their children, so each node is one insertion under
    /// its parent's trie node; identical token paths merge.
    pub(crate) fn build(tree: &TokenTree, trunk: &[TokenId]) -> Self {
        let mut trie = ProbeTrie::new();
        let mut nodes: Vec<usize> = Vec::with_capacity(tree.len());
        for (_, node) in tree.iter() {
            let parent = node.parent.map_or(0, |p| nodes[p.index()]);
            nodes.push(trie.insert(parent, node.token));
        }
        let mut tip = 0;
        let trunk = trunk
            .iter()
            .map(|&token| {
                tip = trie.insert(tip, token);
                tip
            })
            .collect();
        TreeProbes { trie, nodes, trunk }
    }
}

/// Walks every leaf's node path of `tree` through `logits` and keeps the
/// first leaf with the longest accepted prefix.  `nodes` maps tree nodes to
/// trie nodes ([`TreeProbes::nodes`]).
pub(crate) fn accept_tree(
    tree: &TokenTree,
    nodes: &[usize],
    logits: &[TokenLogits],
    eos: TokenId,
) -> TreeVerification {
    let mut best: Option<(Vec<TokenId>, PathAcceptance)> = None;
    for leaf in tree.leaves() {
        let branch = tree.path_tokens(leaf);
        let path = tree.path(leaf).into_iter().map(|id| nodes[id.index()]);
        let walk = accept_path(logits, path.zip(branch.iter().copied()), eos);
        if best
            .as_ref()
            .is_none_or(|(_, b)| walk.accepted > b.accepted)
        {
            best = Some((branch, walk));
        }
    }
    match best {
        Some((mut branch, walk)) => {
            branch.truncate(walk.accepted);
            TreeVerification {
                accepted: branch,
                correction: walk.correction,
                nodes_processed: tree.len(),
                best_branch_fully_accepted: walk.all_accepted,
            }
        }
        None => TreeVerification {
            accepted: Vec::new(),
            correction: accept_path(logits, [], eos).correction,
            nodes_processed: 0,
            best_branch_fully_accepted: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specasr_audio::UtteranceId;
    use specasr_models::{ModelProfile, TokenLogits};
    use specasr_runtime::NodeOrigin;

    /// A deterministic toy target that always emits the reference token.
    struct OracleTarget {
        profile: ModelProfile,
    }

    impl AsrDecoderModel for OracleTarget {
        fn profile(&self) -> &ModelProfile {
            &self.profile
        }

        fn next_logits(&self, audio: &UtteranceTokens, prefix: &[TokenId]) -> TokenLogits {
            TokenLogits::certain(audio.reference_at(prefix.len()), 0.9)
        }
    }

    fn oracle() -> OracleTarget {
        OracleTarget {
            profile: ModelProfile::whisper_medium_en(),
        }
    }

    fn toy_audio() -> UtteranceTokens {
        UtteranceTokens::new(
            UtteranceId::new(9),
            vec![
                TokenId::new(10),
                TokenId::new(11),
                TokenId::new(12),
                TokenId::new(13),
            ],
            vec![0.1; 4],
            TokenId::new(1),
            TokenId::new(0),
            64,
            2.0,
        )
    }

    #[test]
    fn fully_matching_draft_is_fully_accepted() {
        let audio = toy_audio();
        let v = verify_sequence(
            &oracle(),
            &audio,
            &[],
            &[TokenId::new(10), TokenId::new(11)],
        );
        assert!(v.all_accepted);
        assert_eq!(v.accepted_len(), 2);
        assert_eq!(v.correction, TokenId::new(12));
    }

    #[test]
    fn first_mismatch_stops_acceptance_and_yields_the_correction() {
        let audio = toy_audio();
        let draft = [TokenId::new(10), TokenId::new(99), TokenId::new(12)];
        let v = verify_sequence(&oracle(), &audio, &[], &draft);
        assert!(!v.all_accepted);
        assert_eq!(v.accepted, vec![TokenId::new(10)]);
        assert_eq!(v.correction, TokenId::new(11));
    }

    #[test]
    fn verification_respects_the_committed_prefix() {
        let audio = toy_audio();
        let prefix = [TokenId::new(10), TokenId::new(11)];
        let v = verify_sequence(&oracle(), &audio, &prefix, &[TokenId::new(12)]);
        assert!(v.all_accepted);
        assert_eq!(v.correction, TokenId::new(13));
    }

    #[test]
    fn empty_draft_returns_only_the_correction() {
        let audio = toy_audio();
        let v = verify_sequence(&oracle(), &audio, &[], &[]);
        assert!(v.all_accepted);
        assert!(v.accepted.is_empty());
        assert_eq!(v.correction, TokenId::new(10));
    }

    #[test]
    fn tree_verification_picks_the_longest_branch() {
        let audio = toy_audio();
        // Branch A: 10 -> 99 (mismatch at depth 2).
        // Branch B: 10 -> 11 -> 12 (fully accepted).
        let mut tree = TokenTree::new();
        let root = tree.push_root(TokenId::new(10), 0.9, NodeOrigin::Trunk);
        tree.push_child(root, TokenId::new(99), 0.2, NodeOrigin::Branch);
        let b1 = tree.push_child(root, TokenId::new(11), 0.8, NodeOrigin::Trunk);
        tree.push_child(b1, TokenId::new(12), 0.7, NodeOrigin::Trunk);

        let v = verify_tree(&oracle(), &audio, &[], &tree);
        assert_eq!(
            v.accepted,
            vec![TokenId::new(10), TokenId::new(11), TokenId::new(12)]
        );
        assert_eq!(v.correction, TokenId::new(13));
        assert_eq!(v.nodes_processed, 4);
        assert!(v.best_branch_fully_accepted);
    }

    #[test]
    fn tree_verification_of_all_wrong_branches_accepts_nothing() {
        let audio = toy_audio();
        let mut tree = TokenTree::new();
        tree.push_root(TokenId::new(50), 0.5, NodeOrigin::Trunk);
        tree.push_root(TokenId::new(51), 0.5, NodeOrigin::Branch);
        let v = verify_tree(&oracle(), &audio, &[], &tree);
        assert!(v.accepted.is_empty());
        assert_eq!(v.correction, TokenId::new(10));
        assert_eq!(v.nodes_processed, 2);
        assert!(!v.best_branch_fully_accepted);
    }

    #[test]
    fn empty_tree_verification_returns_the_next_target_token() {
        let audio = toy_audio();
        let v = verify_tree(&oracle(), &audio, &[TokenId::new(10)], &TokenTree::new());
        assert_eq!(v.correction, TokenId::new(11));
        assert_eq!(v.nodes_processed, 0);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use specasr_audio::{Corpus, Split};
    use specasr_models::{ModelProfile, SimulatedAsrModel, TokenizerBinding};
    use specasr_runtime::NodeOrigin;

    /// The reference: query the target directly along `path`, one context
    /// at a time, returning the accepted length and the correction.
    fn direct(
        target: &SimulatedAsrModel,
        audio: &UtteranceTokens,
        prefix: &[TokenId],
        path: &[TokenId],
    ) -> (usize, TokenId) {
        let mut context = prefix.to_vec();
        for (accepted, &token) in path.iter().enumerate() {
            let greedy = target.greedy_token(audio, &context);
            if greedy != token {
                return (accepted, greedy);
            }
            context.push(token);
        }
        (path.len(), target.greedy_token(audio, &context))
    }

    /// A drafted token after `context`: the target's own choice half the
    /// time (so walks accept), otherwise one of two fixed decoys (so sibling
    /// branches spell identical paths and merge in the trie).
    fn drafted(
        target: &SimulatedAsrModel,
        audio: &UtteranceTokens,
        context: &[TokenId],
        pick: u8,
    ) -> TokenId {
        match pick % 4 {
            0 | 1 => target.greedy_token(audio, context),
            2 => TokenId::new(5),
            _ => TokenId::new(6),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Over random drafts — a chain, a tree whose branches may repeat
        /// paths, and a trunk — the index walk over one scored trie commits
        /// the same accepted prefix and correction as querying the target
        /// directly along each path.
        #[test]
        fn the_index_walk_matches_direct_target_queries(
            corpus_seed in 1u64..300,
            cut in 0usize..8,
            chain_picks in proptest::collection::vec(0u8..4, 0..10),
            tree_picks in proptest::collection::vec((0usize..16, 0u8..4), 0..14),
            trunk_picks in proptest::collection::vec(0u8..4, 0..6),
        ) {
            let corpus = Corpus::librispeech_like(corpus_seed, 1);
            let binding = TokenizerBinding::for_corpus(&corpus);
            let audio = binding.bind(&corpus.split(Split::TestOther)[0]);
            let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
            let transcript = target.greedy_transcript(&audio);
            let prefix = &transcript[..cut.min(transcript.len())];
            let eos = audio.eos();

            // A chain: node i + 1 answers draft token i.
            let mut context = prefix.to_vec();
            let mut chain = Vec::new();
            for &pick in &chain_picks {
                let token = drafted(&target, &audio, &context, pick);
                chain.push(token);
                context.push(token);
            }
            let logits = ProbeTrie::chain(&chain).score(&target, &audio, prefix);
            let walk = accept_path(&logits, chain_path(&chain), eos);
            let (accepted, correction) = direct(&target, &audio, prefix, &chain);
            prop_assert_eq!((walk.accepted, walk.correction), (accepted, correction));
            prop_assert_eq!(walk.all_accepted, accepted == chain.len());

            // A tree: each node hangs off the root or an earlier node.
            let mut tree = TokenTree::new();
            for (i, &(parent, pick)) in tree_picks.iter().enumerate() {
                let parent = (parent % (i + 1)).checked_sub(1).map(|p| tree.node_ids()[p]);
                let mut context = prefix.to_vec();
                if let Some(parent) = parent {
                    context.extend(tree.path_tokens(parent));
                }
                let token = drafted(&target, &audio, &context, pick);
                match parent {
                    None => tree.push_root(token, 0.5, NodeOrigin::Branch),
                    Some(parent) => tree.push_child(parent, token, 0.5, NodeOrigin::Branch),
                };
            }
            let mut context = prefix.to_vec();
            let mut trunk = Vec::new();
            for &pick in &trunk_picks {
                let token = drafted(&target, &audio, &context, pick);
                trunk.push(token);
                context.push(token);
            }
            let probes = TreeProbes::build(&tree, &trunk);
            let logits = probes.trie.score(&target, &audio, prefix);
            prop_assert_eq!(logits.len(), probes.trie.node_count());
            let verification = accept_tree(&tree, &probes.nodes, &logits, eos);
            let mut best: Option<(usize, TokenId, Vec<TokenId>)> = None;
            for leaf in tree.leaves() {
                let branch = tree.path_tokens(leaf);
                let (accepted, correction) = direct(&target, &audio, prefix, &branch);
                if best.as_ref().is_none_or(|b| accepted > b.0) {
                    best = Some((accepted, correction, branch[..accepted].to_vec()));
                }
            }
            let (accepted, correction) = match best {
                Some((_, correction, accepted)) => (accepted, correction),
                None => (Vec::new(), target.greedy_token(&audio, prefix)),
            };
            prop_assert_eq!(&verification.accepted, &accepted);
            prop_assert_eq!(verification.correction, correction);
            prop_assert_eq!(verification.nodes_processed, tree.len());

            // The trunk reads its own nodes of the same trie.
            let path = probes.trunk.iter().copied().zip(trunk.iter().copied());
            let walk = accept_path(&logits, path, eos);
            let (accepted, correction) = direct(&target, &audio, prefix, &trunk);
            prop_assert_eq!((walk.accepted, walk.correction), (accepted, correction));
        }
    }
}
