//! Round-level decoding sessions: the steppable core of every policy.
//!
//! [`DecodeSession`] splits one utterance's decode into explicit *rounds*,
//! so a serving scheduler can interleave work across many utterances:
//!
//! 1. [`DecodeSession::draft_round`] — a [`crate::Drafter`] speculates this
//!    round's material (a token sequence or a sparse token tree, depending
//!    on the policy) and the session records the draft-side latency.  The
//!    drafter is the classic draft *model* wrapped in
//!    [`crate::ModelDrafter`], or a draft-free source (CTC collapse,
//!    token-map walk); [`DecodeSession::draft_round_via`] drafts through an
//!    [`AsrBackend`] instead.
//! 2. [`DecodeSession::verify_round`] — the round's [`ProbeTrie`]
//!    ([`DraftedRound::probes`]) has been scored in one target pass, the
//!    acceptance walk reads those distributions by trie node, the accepted
//!    prefix plus correction token are committed, and the KV tables,
//!    statistics, and the recycle buffer are updated.  A serving scheduler
//!    passes the logits of its backend completion; a blocking decode
//!    ([`DecodeSession::decode_to_end`]) scores the trie against the target
//!    model with [`ProbeTrie::score`], the routine the backends run.
//!
//! Every session allocates its KV blocks from a caller-owned [`KvPool`]:
//! the serving scheduler's shared, bounded pool, or the unbounded pool a
//! blocking [`Policy::decode`] owns for one utterance.  One constructor,
//! [`DecodeSession::new`], covers fresh and resumed sessions and every
//! drafter kind, so a scheduler that interleaves rounds across many
//! sessions produces byte-identical transcripts to sequential decoding (the
//! lossless invariant serving relies on).
//!
//! The drafted material is returned as an opaque [`DraftedRound`]; its
//! [`DraftedRound::verify_tokens`] exposes how many tokens the target pass
//! must process, which is what a continuous-batching scheduler needs to cost
//! a grouped verification step before running it.

use std::sync::Arc;

use specasr_models::{
    AsrBackend, AsrDecoderModel, BackendModelBridge, DecodeClock, ForwardRequest, ModelProfile,
    ProbeTrie, TokenLogits, UtteranceTokens,
};
use specasr_runtime::{BlockTable, KvPool, PoolError, TokenTree};
use specasr_tokenizer::TokenId;

use crate::drafter::{DraftRequest, Drafter, DrafterKind, ModelDrafter};
use crate::outcome::DecodeOutcome;
use crate::policy::Policy;
use crate::recycle::RecycleBuffer;
use crate::round::commit_round;
use crate::stats::{DecodeStats, RoundRecord};
use crate::verify::{accept_path, accept_tree, chain_path, TreeProbes};

/// The material one draft phase produced, waiting to be verified.
///
/// Opaque by design: schedulers only need the verification width and the
/// probe trie to score; the policy-specific payload goes straight back
/// into [`DecodeSession::verify_round`].
#[derive(Debug, Clone, PartialEq)]
pub struct DraftedRound {
    pub(crate) plan: RoundPlan,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) enum RoundPlan {
    /// Autoregressive decoding drafts nothing; verification emits one token.
    Autoregressive,
    /// A single draft sequence (speculative baseline or adaptive prediction).
    Sequence {
        tokens: Vec<TokenId>,
        steps: usize,
        recycled: usize,
        truncated: bool,
    },
    /// A single draft sequence produced *without* the draft model (CTC
    /// collapse, token-map walk): verified exactly like
    /// [`RoundPlan::Sequence`] but appending zero draft-KV positions and
    /// charging zero draft forward passes.
    ExternalSequence { tokens: Vec<TokenId> },
    /// A draft token tree (beam baseline or two-pass sparse tree).  For the
    /// sparse tree the trunk is kept for the recycle-buffer update.
    Tree {
        tree: TokenTree,
        trunk_tokens: Option<Vec<TokenId>>,
        steps: usize,
        recycled: usize,
    },
}

impl DraftedRound {
    /// An autoregressive round: draft nothing, verify one token.  The plan
    /// every [`crate::Drafter`] must return under
    /// [`Policy::Autoregressive`].
    pub fn autoregressive() -> Self {
        DraftedRound::planned(RoundPlan::Autoregressive)
    }

    /// A draft-free sequence round: `tokens` were produced outside the draft
    /// model (e.g. CTC collapse or a token-map walk), so verification prices
    /// a target pass over them but appends zero draft-KV positions and
    /// charges zero draft latency.  An empty draft is valid and degrades the
    /// round to a single correction token — losslessness is unaffected
    /// either way, since verification only commits target-matching tokens.
    ///
    /// This is the constructor external [`crate::Drafter`] implementations
    /// build their rounds with.
    pub fn external(tokens: Vec<TokenId>) -> Self {
        DraftedRound::planned(RoundPlan::ExternalSequence { tokens })
    }

    pub(crate) fn planned(plan: RoundPlan) -> Self {
        DraftedRound { plan }
    }

    /// Number of tokens the target model will process when verifying this
    /// round (the width of the verification forward pass).
    pub fn verify_tokens(&self) -> usize {
        match &self.plan {
            RoundPlan::Autoregressive => 1,
            RoundPlan::Sequence { tokens, .. } | RoundPlan::ExternalSequence { tokens } => {
                tokens.len().max(1)
            }
            RoundPlan::Tree { tree, .. } => tree.len().max(1),
        }
    }

    /// Number of draft tokens submitted for verification (0 for
    /// autoregressive rounds, which draft nothing).
    pub fn predicted_tokens(&self) -> usize {
        match &self.plan {
            RoundPlan::Autoregressive => 0,
            RoundPlan::Sequence { tokens, .. } | RoundPlan::ExternalSequence { tokens } => {
                tokens.len()
            }
            RoundPlan::Tree { tree, .. } => tree.len(),
        }
    }

    /// The probe trie one verification forward pass over this round must
    /// score after the committed prefix: the root (the correction/bonus
    /// position) plus every draft position — the chain of a drafted
    /// sequence, or one node per distinct root-to-node path of a drafted
    /// token tree (including the sparse-tree trunk, whose per-position
    /// target outputs the recycle-buffer update reads off the same pass).
    ///
    /// [`DecodeSession::verify_request`] submits this trie, and
    /// [`DecodeSession::verify_round`] reads its scored distributions back
    /// by node index, so the two always agree.
    pub fn probes(&self) -> ProbeTrie {
        match &self.plan {
            RoundPlan::Autoregressive => ProbeTrie::new(),
            RoundPlan::Sequence { tokens, .. } | RoundPlan::ExternalSequence { tokens } => {
                ProbeTrie::chain(tokens)
            }
            RoundPlan::Tree {
                tree, trunk_tokens, ..
            } => TreeProbes::build(tree, trunk_tokens.as_deref().unwrap_or_default()).trie,
        }
    }

    /// KV positions this round appends to the (draft, target) caches before
    /// the post-commit rollback — the widths the paged pool must have room
    /// for.
    fn kv_widths(&self) -> (usize, usize) {
        match &self.plan {
            RoundPlan::Autoregressive => (0, 1),
            RoundPlan::Sequence { tokens, .. } => (tokens.len(), tokens.len()),
            // Draft-free material never entered a draft model, so no draft
            // KV positions exist to append — only the target cache grows.
            RoundPlan::ExternalSequence { tokens } => (0, tokens.len()),
            RoundPlan::Tree {
                tree,
                trunk_tokens,
                steps,
                ..
            } => {
                // The beam baseline counted its draft appends as
                // max(tree, steps); the sparse tree appends the tree size.
                let draft = if trunk_tokens.is_some() {
                    tree.len()
                } else {
                    tree.len().max(*steps)
                };
                (draft, tree.len())
            }
        }
    }
}

/// Fresh (draft, target) block demand of one drafted round against a pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KvDemand {
    /// Fresh draft sub-pool blocks the round's appends would consume.
    pub draft_blocks: usize,
    /// Fresh target sub-pool blocks the round's appends would consume.
    pub target_blocks: usize,
}

/// One utterance's in-flight decode under a policy, steppable round by round.
///
/// # Example
///
/// ```
/// use specasr::{AdaptiveConfig, DecodeSession, DrafterKind, ModelDrafter, Policy};
/// use specasr_audio::{Corpus, Split};
/// use specasr_models::{AsrDecoderModel, ModelProfile, SimulatedAsrModel, TokenizerBinding};
/// use specasr_runtime::KvPool;
///
/// let corpus = Corpus::librispeech_like(1, 1);
/// let binding = TokenizerBinding::for_corpus(&corpus);
/// let audio = binding.bind(&corpus.split(Split::TestClean)[0]);
/// let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
/// let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
///
/// let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
/// let mut pool = KvPool::bounded(256, 16);
/// let mut session =
///     DecodeSession::new(policy, audio.clone(), DrafterKind::ModelDraft, &[], &mut pool)
///         .expect("the pool holds the prefill");
/// let drafter = ModelDrafter::new(&draft);
/// while !session.is_finished() {
///     let drafted = session.draft_round(&drafter);
///     // One target pass over the round's probe trie ...
///     let scored = drafted.probes().score(&target, session.audio(), session.tokens());
///     // ... and the acceptance walk reads it back by node.
///     session
///         .verify_round(&mut pool, target.profile(), drafted, &scored)
///         .expect("the pool has room");
/// }
/// session.release_kv(&mut pool);
/// let outcome = session.into_outcome();
/// assert_eq!(outcome.tokens, target.greedy_transcript(&audio)); // lossless
/// assert_eq!(pool.used_blocks(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct DecodeSession {
    policy: Policy,
    drafter: DrafterKind,
    /// Shared so backend `ForwardRequest`s reference it without copying.
    audio: Arc<UtteranceTokens>,
    tokens: Vec<TokenId>,
    stats: DecodeStats,
    clock: DecodeClock,
    /// Draft and target KV block tables, backed by the caller's pool.
    draft_kv: BlockTable,
    target_kv: BlockTable,
    recycle: RecycleBuffer,
    finished: bool,
    cap: usize,
}

/// Block size of the unbounded pool a blocking decode owns.  Position
/// bookkeeping is independent of the paging granularity, so any value keeps
/// blocking outcomes byte-identical; 16 matches the serving default.
pub const PRIVATE_BLOCK_SIZE: usize = 16;

impl DecodeSession {
    /// Starts a session for `audio` under `policy`, drafting from `drafter`
    /// and allocating its KV blocks from `pool`.
    ///
    /// `committed` is the transcript already decoded (`&[]` for a fresh
    /// session; the committed prefix for a streaming re-decode): the
    /// context and both KV tables are seeded as if those tokens had just
    /// been committed, and the next round drafts from their end.  Committed
    /// tokens of any lossless decode are the target's greedy choices, and
    /// every policy's continuation is a deterministic function of
    /// `(audio, committed prefix)`, so a resumed session commits exactly the
    /// tokens the original session would have committed after the same
    /// prefix.  (The recycle buffer starts empty, which can change round
    /// boundaries but never the committed transcript.)
    ///
    /// Prefix blocks are shared with resident sessions holding an identical
    /// prompt+audio prefix (see [`UtteranceTokens::prefix_key`]).  Sessions
    /// under the autoregressive policy or a draft-free `drafter` never
    /// prefill or append the draft sub-pool, so their whole KV footprint —
    /// admission, per-round demand, preemption-victim size — is target-side
    /// only.
    ///
    /// Allocation failures surface as typed errors, so an over-committed
    /// request cannot take down a serving worker; on error nothing stays
    /// allocated.  Release a session's blocks with
    /// [`DecodeSession::release_kv`].
    ///
    /// # Panics
    ///
    /// Panics if the policy carries an invalid configuration (policies are
    /// server-side configuration, not request payload).
    pub fn new(
        policy: Policy,
        audio: UtteranceTokens,
        drafter: DrafterKind,
        committed: &[TokenId],
        pool: &mut KvPool,
    ) -> Result<Self, PoolError> {
        match policy {
            Policy::AdaptiveSingleSequence(config) => config.validate(),
            Policy::TwoPassSparseTree(config) => config.validate(),
            Policy::Autoregressive | Policy::Speculative(_) => {}
        }
        let cap = audio.len() * 2 + 16;
        let token_capacity = audio.len() + 1;
        let mut session = DecodeSession {
            policy,
            drafter,
            audio: Arc::new(audio),
            tokens: Vec::with_capacity(token_capacity),
            stats: DecodeStats::new(),
            clock: DecodeClock::new(),
            draft_kv: BlockTable::new(),
            target_kv: BlockTable::new(),
            recycle: RecycleBuffer::new(),
            finished: false,
            cap,
        };
        if let Err(error) = session.prefill(pool, committed) {
            session.release_kv(pool);
            return Err(error);
        }
        Ok(session)
    }

    /// Prefills both KV tables with the prompt+audio prefix, then seeds the
    /// committed transcript (the state a session holds right after
    /// committing it).
    fn prefill(&mut self, pool: &mut KvPool, committed: &[TokenId]) -> Result<(), PoolError> {
        let prefill = self.audio.prefill_tokens();
        let key = Some(self.audio.prefix_key());
        // Autoregressive decoding never queries a draft source, and
        // draft-free sources never hold draft state: in both cases the draft
        // table stays empty.
        let holds_draft_kv =
            !matches!(self.policy, Policy::Autoregressive) && self.drafter.uses_draft_kv();
        if holds_draft_kv {
            pool.draft_mut().prefill(&mut self.draft_kv, prefill, key)?;
        }
        pool.target_mut()
            .prefill(&mut self.target_kv, prefill, key)?;
        if !committed.is_empty() {
            let draft_width = if holds_draft_kv { committed.len() } else { 0 };
            self.kv_append(pool, draft_width, committed.len())?;
            self.tokens.extend_from_slice(committed);
        }
        Ok(())
    }

    /// The policy this session decodes under.
    pub fn policy(&self) -> &Policy {
        &self.policy
    }

    /// The draft source this session was configured for.  Schedulers
    /// dispatch the draft phase on this: model-draft sessions go to the
    /// draft backend, draft-free sessions to the installed [`Drafter`].
    pub fn drafter(&self) -> DrafterKind {
        self.drafter
    }

    /// The bound utterance being decoded.
    pub fn audio(&self) -> &UtteranceTokens {
        &self.audio
    }

    /// The committed transcript so far.
    pub fn tokens(&self) -> &[TokenId] {
        &self.tokens
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &DecodeStats {
        &self.stats
    }

    /// The latency clock accumulated so far.
    pub fn clock(&self) -> &DecodeClock {
        &self.clock
    }

    /// `true` once EOS was reached (or the safety cap hit).
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Runs the draft phase of the next round against any [`Drafter`]; a
    /// draft *model* drafts through [`ModelDrafter::new`].
    ///
    /// The drafter's kind must match the kind the session was constructed
    /// with: the draft-KV prefill, per-round append widths, and scheduler
    /// admission accounting were all sized at construction, so swapping
    /// draft sources mid-session would corrupt the KV bookkeeping.
    ///
    /// # Panics
    ///
    /// Panics if the session is already finished, or if `drafter.kind()`
    /// differs from [`DecodeSession::drafter`].
    pub fn draft_round<D>(&mut self, drafter: &D) -> DraftedRound
    where
        D: Drafter + ?Sized,
    {
        assert!(!self.finished, "draft_round called on a finished session");
        assert_eq!(
            drafter.kind(),
            self.drafter,
            "a session must be drafted by the drafter kind it was built for"
        );
        drafter.propose(DraftRequest {
            audio: &self.audio,
            committed: &self.tokens,
            policy: &self.policy,
            recycle: &self.recycle,
            clock: &mut self.clock,
        })
    }

    /// Runs the draft phase of the next round against an [`AsrBackend`]:
    /// every draft-model query becomes a single-probe
    /// [`specasr_models::ForwardRequest`] submitted (at `now_ms`) and
    /// completed through the backend.  Outcome-identical to
    /// [`DecodeSession::draft_round`] over a [`ModelDrafter`] of the
    /// model the backend fronts — draft steps are inherently sequential
    /// within a session (each depends on the previous token), so the loop
    /// structure stays and only the model boundary changes.  `profile` is
    /// the profile of the draft model the backend fronts (draft latency is
    /// charged against it).
    ///
    /// # Panics
    ///
    /// Panics if the session is already finished or drafts from a draft-free
    /// source.
    pub fn draft_round_via<B>(
        &mut self,
        backend: &mut B,
        profile: &ModelProfile,
        now_ms: f64,
    ) -> DraftedRound
    where
        B: AsrBackend + Send,
    {
        // Seed the bridge with the session's shared audio context so the
        // draft loop's requests reference it without ever copying it.
        let audio = Arc::clone(&self.audio);
        let bridge = BackendModelBridge::with_audio(backend, profile, now_ms, audio);
        self.draft_round(&ModelDrafter::new(&bridge))
    }

    /// Builds the verification [`ForwardRequest`] for `drafted`: one target
    /// forward pass scoring every node of [`DraftedRound::probes`] after the
    /// committed prefix, priced at [`DraftedRound::verify_tokens`] parallel
    /// tokens.
    ///
    /// A scheduler collects these across all in-flight sessions into one
    /// cross-session [`specasr_models::BackendBatch`], submits it, and
    /// commits each session by passing its completion's logits to
    /// [`DecodeSession::verify_round`].
    pub fn verify_request(&self, drafted: &DraftedRound) -> ForwardRequest {
        ForwardRequest::verify(
            Arc::clone(&self.audio),
            self.tokens.clone(),
            drafted.probes(),
            drafted.verify_tokens(),
        )
    }

    /// Drafts, scores and verifies rounds until the session finishes — the
    /// blocking decode loop.  Each round's [`DraftedRound::probes`] is scored
    /// against `target` with [`ProbeTrie::score`] (the routine the simulated
    /// backends run) and committed through [`DecodeSession::verify_round`],
    /// so a blocking decode and a scheduled one share every step.
    pub fn decode_to_end<D, T>(
        &mut self,
        pool: &mut KvPool,
        drafter: &D,
        target: &T,
    ) -> Result<(), PoolError>
    where
        D: Drafter + ?Sized,
        T: AsrDecoderModel + ?Sized,
    {
        while !self.finished {
            let drafted = self.draft_round(drafter);
            let scored = drafted.probes().score(target, &self.audio, &self.tokens);
            self.verify_round(pool, target.profile(), drafted, &scored)?;
        }
        Ok(())
    }

    /// Verifies and commits one drafted round from its scored probe trie,
    /// returning `true` when the session finished.
    ///
    /// `scored` holds one distribution per node of
    /// [`DraftedRound::probes`], in node order, as scored after the
    /// committed prefix (a backend completion's logits, or
    /// [`ProbeTrie::score`] against the target); `target` is the target
    /// model's profile, against which the verification pass is charged.
    /// The acceptance walk reads the distributions by node index: a sequence
    /// compares node `i`'s top-1 with draft token `i`, a tree walks each
    /// leaf's node path, and the sparse-tree trunk's recycle update reads
    /// the trunk's own nodes.
    ///
    /// KV appends allocate from `pool` (the pool the session was built
    /// over), and an exhausted pool surfaces as [`PoolError::OutOfBlocks`]
    /// *before* any state was mutated — the caller can preempt another
    /// session to free blocks and retry, or release this one (schedulers
    /// re-queue and restore by re-prefilling, which is deterministic).
    ///
    /// # Panics
    ///
    /// Panics if `scored` does not hold one distribution per probe of
    /// `drafted`.
    pub fn verify_round(
        &mut self,
        pool: &mut KvPool,
        target: &ModelProfile,
        drafted: DraftedRound,
        scored: &[TokenLogits],
    ) -> Result<bool, PoolError> {
        // KV bookkeeping first: this round's append widths are fixed by the
        // drafted plan, and verification itself never reads the caches, so
        // appending up front leaves every counter (totals, peaks, discards)
        // byte-identical to the historical order while making exhaustion
        // visible before any transcript state changes.
        let (draft_width, target_width) = drafted.kv_widths();
        self.kv_append(pool, draft_width, target_width)?;
        // Draft-free sequences verify exactly like model-drafted ones (the
        // append widths above already excluded the draft cache); normalising
        // here keeps a single sequence-verification arm.  Zero draft steps:
        // no draft forward passes were run.
        let plan = match drafted.plan {
            RoundPlan::ExternalSequence { tokens } => RoundPlan::Sequence {
                tokens,
                steps: 0,
                recycled: 0,
                truncated: false,
            },
            plan => plan,
        };
        let eos = self.audio.eos();
        let scored_per_probe = |probes: usize| {
            assert_eq!(
                scored.len(),
                probes,
                "one scored distribution per verification probe"
            );
        };
        match plan {
            // Normalised away above; kept irrefutable for the compiler.
            RoundPlan::ExternalSequence { .. } => unreachable!("normalised to Sequence above"),
            RoundPlan::Autoregressive => {
                scored_per_probe(1);
                let next = accept_path(scored, [], eos).correction;
                self.clock.charge_target(target.latency(), 1);
                self.stats.record_round(RoundRecord {
                    predicted: 0,
                    accepted: 0,
                    draft_steps: 0,
                    tree_size: 1,
                    recycled: 0,
                    truncated: false,
                });
                self.stats.record_correction();
                if next == eos || self.tokens.len() >= self.cap {
                    self.finished = true;
                } else {
                    self.tokens.push(next);
                }
            }
            RoundPlan::Sequence {
                tokens: draft_tokens,
                steps,
                recycled,
                truncated,
            } => {
                // Verify phase: one target pass over the draft sequence.
                scored_per_probe(draft_tokens.len() + 1);
                let walk = accept_path(scored, chain_path(&draft_tokens), eos);
                self.clock
                    .charge_target(target.latency(), draft_tokens.len().max(1));

                // Retain the rejected suffix for the next round (only the
                // adaptive policy reads it back).
                self.recycle = if walk.all_accepted {
                    RecycleBuffer::new()
                } else {
                    RecycleBuffer::from_rejected(&draft_tokens, walk.accepted)
                };

                // Commit, then roll the caches back to the committed length.
                self.finished = commit_round(
                    &mut self.tokens,
                    &draft_tokens[..walk.accepted],
                    walk.correction,
                    eos,
                    self.cap,
                    &mut self.stats,
                );
                self.kv_rollback_to_committed(pool);
                self.stats.record_round(RoundRecord {
                    predicted: draft_tokens.len(),
                    accepted: walk.accepted,
                    draft_steps: steps,
                    tree_size: draft_tokens.len(),
                    recycled,
                    truncated,
                });
            }
            RoundPlan::Tree {
                tree,
                trunk_tokens,
                steps,
                recycled,
            } => {
                // Verification: one target pass over the whole tree.
                let trunk = trunk_tokens.as_deref().unwrap_or_default();
                let probes = TreeProbes::build(&tree, trunk);
                scored_per_probe(probes.trie.node_count());
                let verification = accept_tree(&tree, &probes.nodes, scored, eos);
                self.clock
                    .charge_target(target.latency(), verification.nodes_processed.max(1));

                // Two-pass sparse trees retain the trunk's rejected suffix
                // for the next round.  The trunk's per-position target
                // outputs are its own nodes of the same verification pass,
                // so no extra latency is charged.
                if trunk_tokens.is_some() {
                    let path = probes.trunk.iter().copied().zip(trunk.iter().copied());
                    let walk = accept_path(scored, path, eos);
                    self.recycle = if walk.all_accepted {
                        RecycleBuffer::new()
                    } else {
                        RecycleBuffer::from_rejected(trunk, walk.accepted)
                    };
                }

                // Commit, then roll the caches back to the committed length
                // (the tree appends were sized by `DraftedRound::kv_widths`).
                self.finished = commit_round(
                    &mut self.tokens,
                    &verification.accepted,
                    verification.correction,
                    eos,
                    self.cap,
                    &mut self.stats,
                );
                self.kv_rollback_to_committed(pool);
                self.stats.record_round(RoundRecord {
                    predicted: tree.len(),
                    accepted: verification.accepted_len(),
                    draft_steps: steps,
                    tree_size: tree.len(),
                    recycled,
                    truncated: false,
                });
            }
        }
        // Safety cap on speculative rounds (autoregressive decoding caps on
        // the committed length above, one round per token).
        if !matches!(self.policy, Policy::Autoregressive) && self.stats.rounds >= self.cap {
            self.finished = true;
        }
        Ok(self.finished)
    }

    /// Consumes the session into a [`DecodeOutcome`].
    ///
    /// Normally called once [`DecodeSession::is_finished`] is `true`; calling
    /// it earlier yields the partial transcript decoded so far.  The
    /// reported KV caches are the position summaries of the block tables,
    /// which survive [`DecodeSession::release_kv`].
    pub fn into_outcome(self) -> DecodeOutcome {
        DecodeOutcome {
            tokens: self.tokens,
            stats: self.stats,
            clock: self.clock,
            draft_cache: *self.draft_kv.positions(),
            target_cache: *self.target_kv.positions(),
        }
    }

    /// Fresh block demand of verifying `drafted` against `pool` right now —
    /// what a memory-aware scheduler checks (and preempts against) before
    /// calling [`DecodeSession::verify_round`].
    pub fn round_kv_demand(&self, pool: &KvPool, drafted: &DraftedRound) -> KvDemand {
        let (draft_width, target_width) = drafted.kv_widths();
        KvDemand {
            draft_blocks: pool
                .draft()
                .blocks_needed_for_append(&self.draft_kv, draft_width),
            target_blocks: pool
                .target()
                .blocks_needed_for_append(&self.target_kv, target_width),
        }
    }

    /// Blocks this session currently holds across both sub-pools (the
    /// preemption-victim size signal).
    pub fn kv_blocks_held(&self) -> usize {
        self.draft_kv.block_count() + self.target_kv.block_count()
    }

    /// Releases every block the session holds back to `pool` (on finish,
    /// preemption, or memory rejection).  Idempotent.
    pub fn release_kv(&mut self, pool: &mut KvPool) {
        pool.draft_mut().release(&mut self.draft_kv);
        pool.target_mut().release(&mut self.target_kv);
    }

    /// Moves the session's KV blocks from `source` to `dest` without
    /// re-prefill — the same-machine block-table hand-off fast path of a
    /// live migration between two workers' pools (see
    /// [`KvPool::hand_off`]).  After a successful move the session must be
    /// stepped against `dest`.
    ///
    /// All-or-nothing: on [`PoolError::OutOfBlocks`] (the destination pool
    /// cannot hold the session) nothing moved and the session still
    /// allocates from `source` — the caller falls back to the
    /// preempt/restore slow path ([`DecodeSession::release_kv`] plus a
    /// deterministic re-prefill + re-decode on the destination).
    ///
    /// # Panics
    ///
    /// Panics when the pools page at different block sizes.
    pub fn migrate_kv(&mut self, source: &mut KvPool, dest: &mut KvPool) -> Result<(), PoolError> {
        source.hand_off(dest, &mut self.draft_kv, &mut self.target_kv)
    }

    /// Appends this round's positions to both block tables.
    ///
    /// The two sub-pool demands are checked up front so the operation is
    /// atomic: on [`PoolError::OutOfBlocks`] neither table changed.
    fn kv_append(
        &mut self,
        pool: &mut KvPool,
        draft_width: usize,
        target_width: usize,
    ) -> Result<(), PoolError> {
        let draft_need = pool
            .draft()
            .blocks_needed_for_append(&self.draft_kv, draft_width);
        let target_need = pool
            .target()
            .blocks_needed_for_append(&self.target_kv, target_width);
        for (need, sub) in [(draft_need, pool.draft()), (target_need, pool.target())] {
            if need > sub.free_blocks() {
                return Err(PoolError::OutOfBlocks {
                    requested: need,
                    available: sub.free_blocks(),
                    capacity: sub.capacity().unwrap_or(usize::MAX),
                });
            }
        }
        pool.draft_mut()
            .append(&mut self.draft_kv, draft_width)
            .expect("draft demand was checked");
        pool.target_mut()
            .append(&mut self.target_kv, target_width)
            .expect("target demand was checked");
        Ok(())
    }

    /// Rolls both KV tables back to the committed transcript length.
    fn kv_rollback_to_committed(&mut self, pool: &mut KvPool) {
        let committed = self.audio.prefill_tokens() + self.tokens.len();
        let draft_len = committed.min(self.draft_kv.len());
        pool.draft_mut().rollback(&mut self.draft_kv, draft_len);
        let target_len = committed.min(self.target_kv.len());
        pool.target_mut().rollback(&mut self.target_kv, target_len);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::{AdaptiveConfig, SparseTreeConfig, SpeculativeConfig};
    use crate::drafter::tests::token_map_for;
    use specasr_audio::{Corpus, Split};
    use specasr_models::{CtcDrafter, ModelProfile, SimulatedAsrModel, TokenizerBinding};

    fn setup(split: Split) -> (SimulatedAsrModel, SimulatedAsrModel, Vec<UtteranceTokens>) {
        let corpus = Corpus::librispeech_like(61, 6);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let audio = binding.bind_all(corpus.split(split));
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        (draft, target, audio)
    }

    pub(crate) fn all_policies() -> Vec<Policy> {
        vec![
            Policy::Autoregressive,
            Policy::Speculative(SpeculativeConfig::short_single()),
            Policy::Speculative(SpeculativeConfig::short_double_beam()),
            Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
            Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
        ]
    }

    /// A fresh model-draft session for `audio` over `pool`.
    fn fresh(policy: Policy, audio: &UtteranceTokens, pool: &mut KvPool) -> DecodeSession {
        DecodeSession::new(policy, audio.clone(), DrafterKind::ModelDraft, &[], pool)
            .expect("pool has room")
    }

    /// Drafts and verifies rounds until `session` finishes.
    pub(crate) fn finish<D, T>(
        session: &mut DecodeSession,
        pool: &mut KvPool,
        drafter: &D,
        target: &T,
    ) where
        D: Drafter + ?Sized,
        T: AsrDecoderModel + ?Sized,
    {
        session
            .decode_to_end(pool, drafter, target)
            .expect("pool has room");
    }

    /// Scores `drafted` against `target` and verifies it.
    fn verify<T: AsrDecoderModel>(
        session: &mut DecodeSession,
        pool: &mut KvPool,
        target: &T,
        drafted: DraftedRound,
    ) -> Result<bool, PoolError> {
        let scored = drafted
            .probes()
            .score(target, session.audio(), session.tokens());
        session.verify_round(pool, target.profile(), drafted, &scored)
    }

    #[test]
    fn stepping_matches_blocking_decode_exactly() {
        let (draft, target, audio) = setup(Split::TestOther);
        let drafter = ModelDrafter::new(&draft);
        for policy in all_policies() {
            for utt in &audio {
                let blocking = policy.decode(&draft, &target, utt);
                let mut pool = KvPool::bounded(4096, 8);
                let mut session = fresh(policy, utt, &mut pool);
                finish(&mut session, &mut pool, &drafter, &target);
                assert_eq!(session.into_outcome(), blocking, "policy {}", policy.name());
            }
        }
    }

    #[test]
    fn interleaving_sessions_does_not_change_outcomes() {
        // Drive several sessions round-robin over one pool — the scheduler's
        // access pattern — and compare with sequential decoding.
        let (draft, target, audio) = setup(Split::TestClean);
        let drafter = ModelDrafter::new(&draft);
        let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        let mut pool = KvPool::unbounded(PRIVATE_BLOCK_SIZE);
        let mut sessions: Vec<DecodeSession> = audio
            .iter()
            .map(|utt| fresh(policy, utt, &mut pool))
            .collect();
        while sessions.iter().any(|s| !s.is_finished()) {
            for session in sessions.iter_mut().filter(|s| !s.is_finished()) {
                let drafted = session.draft_round(&drafter);
                verify(session, &mut pool, &target, drafted).expect("unbounded");
            }
        }
        for (session, utt) in sessions.into_iter().zip(audio.iter()) {
            let sequential = policy.decode(&draft, &target, utt);
            assert_eq!(session.into_outcome(), sequential);
        }
    }

    #[test]
    fn drafted_round_reports_verification_width() {
        let (draft, _target, audio) = setup(Split::DevClean);
        let drafter = ModelDrafter::new(&draft);
        let mut pool = KvPool::unbounded(PRIVATE_BLOCK_SIZE);
        let mut ar = fresh(Policy::Autoregressive, &audio[0], &mut pool);
        assert_eq!(ar.draft_round(&drafter).verify_tokens(), 1);
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let mut spec = fresh(policy, &audio[0], &mut pool);
        let drafted = spec.draft_round(&drafter);
        assert_eq!(drafted.verify_tokens(), drafted.predicted_tokens().max(1));
        assert!(drafted.predicted_tokens() <= 8);
    }

    #[test]
    fn partial_outcome_is_a_prefix_of_the_full_transcript() {
        let (draft, target, audio) = setup(Split::TestClean);
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let reference = target.greedy_transcript(&audio[0]);
        let mut pool = KvPool::unbounded(PRIVATE_BLOCK_SIZE);
        let mut session = fresh(policy, &audio[0], &mut pool);
        let drafted = session.draft_round(&ModelDrafter::new(&draft));
        verify(&mut session, &mut pool, &target, drafted).expect("unbounded");
        let partial = session.into_outcome();
        assert!(partial.tokens.len() <= reference.len());
        assert_eq!(partial.tokens[..], reference[..partial.tokens.len()]);
    }

    #[test]
    fn fresh_and_shared_pool_decodes_are_bitwise_identical() {
        // Every drafter kind, fresh and resumed: decoding over a fresh
        // unbounded pool and over a shared pool whose prefix blocks an
        // identical-audio session already holds yields the same outcome, and
        // releasing leaves both sub-pools empty.
        let (draft, target, audio) = setup(Split::TestClean);
        let ctc = CtcDrafter::paired(&target);
        let map = token_map_for(&audio);
        let model = ModelDrafter::new(&draft);
        let drafters: [&dyn Drafter; 3] = [&model, &ctc, &map];
        let resident_policy = Policy::Speculative(SpeculativeConfig::short_single());
        let mut shared = KvPool::bounded(2048, 16);
        for policy in all_policies() {
            for utt in audio.iter().take(3) {
                let reference = policy.decode(&draft, &target, utt).tokens;
                for cut in [0, reference.len() / 2] {
                    let committed = &reference[..cut];
                    for &drafter in &drafters {
                        let decode_over = |pool: &mut KvPool| {
                            let mut session = DecodeSession::new(
                                policy,
                                utt.clone(),
                                drafter.kind(),
                                committed,
                                pool,
                            )
                            .expect("pool has room");
                            finish(&mut session, pool, drafter, &target);
                            session.release_kv(pool);
                            session.into_outcome()
                        };
                        let mut fresh_pool = KvPool::unbounded(PRIVATE_BLOCK_SIZE);
                        let alone = decode_over(&mut fresh_pool);
                        assert_eq!(fresh_pool.sub_pool_used_blocks(), (0, 0));

                        let mut resident = fresh(resident_policy, utt, &mut shared);
                        let held = shared.sub_pool_used_blocks();
                        let beside = decode_over(&mut shared);
                        assert_eq!(shared.sub_pool_used_blocks(), held);
                        resident.release_kv(&mut shared);
                        assert_eq!(shared.sub_pool_used_blocks(), (0, 0));

                        assert_eq!(alone.tokens, reference, "policy {}", policy.name());
                        assert_eq!(
                            format!("{alone:?}"),
                            format!("{beside:?}"),
                            "policy {} drafter {:?} cut {cut}",
                            policy.name(),
                            drafter.kind()
                        );
                    }
                }
            }
        }
        assert!(
            shared.counters().shared_hits > 0,
            "the resident prefix was shared"
        );
    }

    #[test]
    fn pooled_sessions_share_prefix_blocks_for_identical_audio() {
        let (_draft, _target, audio) = setup(Split::DevClean);
        let mut pool = KvPool::bounded(256, 16);
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let mut first = fresh(policy, &audio[0], &mut pool);
        let used_by_one = pool.used_blocks();
        let mut second = fresh(policy, &audio[0], &mut pool);
        // The second session re-uses the first one's prefill blocks wholesale.
        assert_eq!(pool.used_blocks(), used_by_one);
        assert!(pool.counters().shared_hits > 0);
        let mut third = fresh(policy, &audio[1], &mut pool);
        assert!(
            pool.used_blocks() > used_by_one,
            "different audio: no share"
        );
        for session in [&mut first, &mut second, &mut third] {
            session.release_kv(&mut pool);
        }
        assert_eq!(pool.used_blocks(), 0);
    }

    #[test]
    fn exhausted_pools_reject_admission_without_leaking() {
        let (_draft, _target, audio) = setup(Split::DevOther);
        let mut pool = KvPool::bounded(1, 16);
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let error = DecodeSession::new(
            policy,
            audio[0].clone(),
            DrafterKind::ModelDraft,
            &[],
            &mut pool,
        )
        .expect_err("one block cannot hold a prefill");
        assert!(matches!(error, PoolError::OutOfBlocks { .. }));
        assert_eq!(pool.used_blocks(), 0, "failed admission must not leak");
    }

    #[test]
    fn round_demand_predicts_the_blocks_a_round_consumes() {
        let (draft, target, audio) = setup(Split::TestOther);
        let mut pool = KvPool::bounded(512, 16);
        let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        let mut session = fresh(policy, &audio[0], &mut pool);
        let drafted = session.draft_round(&ModelDrafter::new(&draft));
        let demand = session.round_kv_demand(&pool, &drafted);
        let before = pool.used_blocks();
        verify(&mut session, &mut pool, &target, drafted).expect("room");
        // The round's net growth is bounded by the predicted demand (the
        // post-commit rollback may return some of it).
        assert!(pool.used_blocks() <= before + demand.draft_blocks + demand.target_blocks);
        assert!(session.kv_blocks_held() > 0);
        session.release_kv(&mut pool);
        session.release_kv(&mut pool); // idempotent
        assert_eq!(pool.used_blocks(), 0);
    }

    #[test]
    fn resumed_sessions_complete_the_offline_transcript_for_all_policies() {
        let (draft, target, audio) = setup(Split::TestOther);
        let drafter = ModelDrafter::new(&draft);
        let mut pool = KvPool::unbounded(PRIVATE_BLOCK_SIZE);
        for policy in all_policies() {
            for utt in audio.iter().take(3) {
                let reference = policy.decode(&draft, &target, utt);
                for cut in [0, 1, reference.tokens.len() / 2, reference.tokens.len()] {
                    let committed = &reference.tokens[..cut];
                    let mut session = DecodeSession::new(
                        policy,
                        utt.clone(),
                        DrafterKind::ModelDraft,
                        committed,
                        &mut pool,
                    )
                    .expect("unbounded");
                    assert_eq!(session.tokens(), committed);
                    finish(&mut session, &mut pool, &drafter, &target);
                    session.release_kv(&mut pool);
                    assert_eq!(
                        session.into_outcome().tokens,
                        reference.tokens,
                        "policy {} cut {cut}",
                        policy.name()
                    );
                }
            }
        }
    }

    #[test]
    fn pooled_resume_matches_private_resume_and_releases_cleanly() {
        let (draft, target, audio) = setup(Split::TestClean);
        let mut pool = KvPool::bounded(2048, 16);
        let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        let reference = policy.decode(&draft, &target, &audio[0]);
        let committed = &reference.tokens[..reference.tokens.len() / 2];
        let mut session = DecodeSession::new(
            policy,
            audio[0].clone(),
            DrafterKind::ModelDraft,
            committed,
            &mut pool,
        )
        .expect("pool has room");
        finish(&mut session, &mut pool, &ModelDrafter::new(&draft), &target);
        session.release_kv(&mut pool);
        assert_eq!(session.into_outcome().tokens, reference.tokens);
        assert_eq!(pool.used_blocks(), 0);
    }

    #[test]
    fn pooled_resume_on_an_exhausted_pool_leaks_nothing() {
        let (draft, target, audio) = setup(Split::DevOther);
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let reference = policy.decode(&draft, &target, &audio[0]);
        // Enough blocks for the prefill but not for the committed appends.
        let prefill_blocks = {
            let probe = KvPool::bounded(4096, 16);
            probe.target().blocks_for(audio[0].prefill_tokens())
        };
        let tail_slack = prefill_blocks * 16 - audio[0].prefill_tokens();
        assert!(
            reference.tokens.len() > tail_slack,
            "precondition: the committed prefix must overflow the prefill tail"
        );
        let mut pool = KvPool::bounded(prefill_blocks, 16);
        let error = DecodeSession::new(
            policy,
            audio[0].clone(),
            DrafterKind::ModelDraft,
            &reference.tokens,
            &mut pool,
        )
        .expect_err("the committed appends cannot fit");
        assert!(matches!(error, PoolError::OutOfBlocks { .. }));
        assert_eq!(pool.used_blocks(), 0, "failed resume must not leak");
    }

    #[test]
    fn backend_stepping_matches_blocking_decode_exactly() {
        use specasr_models::{AsrBackend, BackendBatch, SyncBackendAdapter};
        let (draft, target, audio) = setup(Split::TestClean);
        let mut draft_backend = SyncBackendAdapter::new(&draft);
        let mut target_backend = SyncBackendAdapter::new(&target);
        for policy in all_policies() {
            for utt in &audio {
                let blocking = policy.decode(&draft, &target, utt);
                let mut pool = KvPool::unbounded(PRIVATE_BLOCK_SIZE);
                let mut session = fresh(policy, utt, &mut pool);
                let mut now = 0.0;
                while !session.is_finished() {
                    let drafted = session.draft_round_via(&mut draft_backend, draft.profile(), now);
                    let request = session.verify_request(&drafted);
                    let tickets = target_backend.submit(BackendBatch::of(request), now);
                    let result = target_backend
                        .complete(tickets[0])
                        .expect("computed at submit");
                    now = result.completed_ms;
                    session
                        .verify_round(&mut pool, target.profile(), drafted, &result.logits)
                        .expect("unbounded");
                }
                assert_eq!(session.into_outcome(), blocking, "policy {}", policy.name());
            }
        }
        assert!(target_backend.counters().verify_requests > 0);
        assert!(draft_backend.counters().draft_requests > 0);
    }

    #[test]
    fn backend_stepping_over_a_shared_pool_matches_the_private_path() {
        use specasr_models::{AsrBackend, BackendBatch, SyncBackendAdapter};
        let (draft, target, audio) = setup(Split::TestOther);
        let mut draft_backend = SyncBackendAdapter::new(&draft);
        let mut target_backend = SyncBackendAdapter::new(&target);
        let mut pool = KvPool::bounded(2048, 16);
        for policy in all_policies() {
            let utt = &audio[0];
            let blocking = policy.decode(&draft, &target, utt);
            let mut session = fresh(policy, utt, &mut pool);
            while !session.is_finished() {
                let drafted = session.draft_round_via(&mut draft_backend, draft.profile(), 0.0);
                let request = session.verify_request(&drafted);
                let tickets = target_backend.submit(BackendBatch::of(request), 0.0);
                let result = target_backend
                    .complete(tickets[0])
                    .expect("computed at submit");
                session
                    .verify_round(&mut pool, target.profile(), drafted, &result.logits)
                    .expect("pool has room");
            }
            session.release_kv(&mut pool);
            assert_eq!(session.into_outcome(), blocking, "policy {}", policy.name());
        }
        assert_eq!(pool.used_blocks(), 0);
    }

    /// The reference probe list, spelled out path by path: the empty
    /// probe, every prefix of a drafted sequence, and every distinct
    /// tree-node path followed by the sparse-tree trunk prefixes, in
    /// first-seen order.
    fn probe_list(drafted: &DraftedRound) -> Vec<Vec<TokenId>> {
        let mut probes: Vec<Vec<TokenId>> = vec![Vec::new()];
        let mut push_unique = |probe: Vec<TokenId>| {
            if !probes.contains(&probe) {
                probes.push(probe);
            }
        };
        match &drafted.plan {
            RoundPlan::Autoregressive => {}
            RoundPlan::Sequence { tokens, .. } | RoundPlan::ExternalSequence { tokens } => {
                (1..=tokens.len()).for_each(|end| push_unique(tokens[..end].to_vec()));
            }
            RoundPlan::Tree {
                tree, trunk_tokens, ..
            } => {
                tree.node_ids()
                    .into_iter()
                    .for_each(|id| push_unique(tree.path_tokens(id)));
                let trunk = trunk_tokens.as_deref().unwrap_or_default();
                (1..=trunk.len()).for_each(|end| push_unique(trunk[..end].to_vec()));
            }
        }
        probes
    }

    #[test]
    fn probe_extensions_cover_every_verification_query() {
        // For every policy and drafter kind, each drafted round's trie holds
        // exactly the distinct paths of the probe list, one node per path
        // (so `probes_scored` is unchanged), in the list's order.
        let (draft, target, audio) = setup(Split::DevClean);
        let ctc = CtcDrafter::paired(&target);
        let map = token_map_for(&audio);
        let model = ModelDrafter::new(&draft);
        let drafters: [&dyn Drafter; 3] = [&model, &ctc, &map];
        let mut shapes = [0usize; 3]; // autoregressive, sequence, tree rounds
        for policy in all_policies() {
            for &drafter in &drafters {
                for utt in audio.iter().take(2) {
                    let mut pool = KvPool::unbounded(PRIVATE_BLOCK_SIZE);
                    let mut session =
                        DecodeSession::new(policy, utt.clone(), drafter.kind(), &[], &mut pool)
                            .expect("unbounded");
                    while !session.is_finished() {
                        let drafted = session.draft_round(drafter);
                        let trie = drafted.probes();
                        let paths: Vec<Vec<TokenId>> =
                            (0..trie.node_count()).map(|node| trie.path(node)).collect();
                        assert_eq!(paths, probe_list(&drafted), "policy {}", policy.name());
                        shapes[match drafted.plan {
                            RoundPlan::Autoregressive => 0,
                            RoundPlan::Tree { .. } => 2,
                            _ => 1,
                        }] += 1;
                        verify(&mut session, &mut pool, &target, drafted).expect("unbounded");
                    }
                }
            }
        }
        assert!(shapes.iter().all(|&rounds| rounds > 0), "{shapes:?}");
    }

    #[test]
    #[should_panic(expected = "one scored distribution per verification probe")]
    fn mismatched_verify_results_panic() {
        let (draft, target, audio) = setup(Split::DevOther);
        let policy = Policy::Speculative(SpeculativeConfig::short_single());
        let mut pool = KvPool::unbounded(PRIVATE_BLOCK_SIZE);
        let mut session = fresh(policy, &audio[0], &mut pool);
        let drafted = session.draft_round(&ModelDrafter::new(&draft));
        let _ = session.verify_round(&mut pool, target.profile(), drafted, &[]);
    }

    #[test]
    #[should_panic(expected = "finished session")]
    fn drafting_after_finish_panics() {
        let (draft, target, audio) = setup(Split::DevOther);
        let drafter = ModelDrafter::new(&draft);
        let mut pool = KvPool::unbounded(PRIVATE_BLOCK_SIZE);
        let mut session = fresh(Policy::Autoregressive, &audio[0], &mut pool);
        finish(&mut session, &mut pool, &drafter, &target);
        let _ = session.draft_round(&drafter);
    }
}
