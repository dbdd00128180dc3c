//! Draft-free speculation tests: CTC-encoder and token-map drafters must be
//! byte-identical to offline pipeline decoding under the same lossless
//! verification — for every policy, over unbounded and bounded pools alike —
//! while allocating *zero* draft sub-pool blocks and dispatching zero draft-lane
//! backend work.

use std::sync::Arc;

use proptest::prelude::*;
use specasr::{
    AdaptiveConfig, DecodeOutcome, DecodeSession, Drafter, DrafterKind, Policy, SparseTreeConfig,
    SpeculativeConfig, TokenMapDrafter, PRIVATE_BLOCK_SIZE,
};
use specasr_audio::{EncoderProfile, Split};
use specasr_models::{AsrDecoderModel, CtcDrafter, UtteranceTokens};
use specasr_runtime::KvPool;
use specasr_server::{Scheduler, ServerConfig, Submission};
use specasr_suite::StandardSetup;
use specasr_tokenizer::{TokenId, TokenMapIndex};

fn all_policies() -> Vec<Policy> {
    vec![
        Policy::Autoregressive,
        Policy::Speculative(SpeculativeConfig::short_single()),
        Policy::Speculative(SpeculativeConfig::short_double_beam()),
        Policy::AdaptiveSingleSequence(AdaptiveConfig::paper()),
        Policy::TwoPassSparseTree(SparseTreeConfig::paper()),
    ]
}

/// Builds the token-map index the way a deployment would: from the corpus
/// reference transcripts, EOS-terminated.
fn token_map_for(audio: &[UtteranceTokens]) -> TokenMapDrafter {
    let sequences: Vec<Vec<TokenId>> = audio
        .iter()
        .map(|utt| {
            let mut seq = utt.reference_tokens().to_vec();
            seq.push(utt.eos());
            seq
        })
        .collect();
    let index = TokenMapIndex::build_default(sequences.iter().map(Vec::as_slice));
    TokenMapDrafter::new(Arc::new(index))
}

fn drafters_for(setup: &StandardSetup, audio: &[UtteranceTokens]) -> Vec<Box<dyn Drafter>> {
    vec![
        Box::new(CtcDrafter::paired(&setup.target)),
        Box::new(token_map_for(audio)),
    ]
}

/// Decodes one utterance with a draft-free drafter over `pool`, asserting at
/// every round that no draft sub-pool blocks are demanded or held, and that
/// releasing the session leaves the pool empty.
fn decode_with(
    setup: &StandardSetup,
    policy: Policy,
    drafter: &dyn Drafter,
    audio: &UtteranceTokens,
    pool: &mut KvPool,
) -> DecodeOutcome {
    let mut session = DecodeSession::new(policy, audio.clone(), drafter.kind(), &[], pool)
        .expect("the test pool admits a single session");
    assert_eq!(
        pool.sub_pool_used_blocks().0,
        0,
        "a draft-free session must not prefill the draft sub-pool"
    );
    while !session.is_finished() {
        let drafted = session.draft_round(drafter);
        assert_eq!(
            session.round_kv_demand(pool, &drafted).draft_blocks,
            0,
            "a draft-free round must demand no draft sub-pool blocks"
        );
        let scored = drafted
            .probes()
            .score(&setup.target, session.audio(), session.tokens());
        session
            .verify_round(pool, setup.target.profile(), drafted, &scored)
            .expect("the test pool covers the whole decode");
        assert_eq!(pool.sub_pool_used_blocks().0, 0);
    }
    session.release_kv(pool);
    assert_eq!(pool.sub_pool_used_blocks(), (0, 0), "no leaked blocks");
    session.into_outcome()
}

#[test]
fn draft_free_drafters_are_lossless_for_every_policy() {
    let setup = StandardSetup::new(301, 3);
    let audio = setup.binding.bind_all(setup.corpus.split(Split::TestOther));
    for drafter in drafters_for(&setup, &audio) {
        for policy in all_policies() {
            for utt in &audio {
                let reference = policy.decode(&setup.draft, &setup.target, utt).tokens;
                let mut pool = KvPool::unbounded(PRIVATE_BLOCK_SIZE);
                let got = decode_with(&setup, policy, drafter.as_ref(), utt, &mut pool).tokens;
                assert_eq!(
                    got,
                    reference,
                    "{:?} diverged from the model-draft pipeline under {}",
                    drafter.kind(),
                    policy.name()
                );
            }
        }
    }
}

#[test]
fn draft_free_sessions_hold_zero_draft_sub_pool_blocks() {
    let setup = StandardSetup::new(302, 3);
    let audio = setup.binding.bind_all(setup.corpus.split(Split::DevOther));
    for drafter in drafters_for(&setup, &audio) {
        for policy in all_policies() {
            let mut pool = KvPool::bounded(256, 16);
            for utt in &audio {
                let reference = policy.decode(&setup.draft, &setup.target, utt).tokens;
                let got = decode_with(&setup, policy, drafter.as_ref(), utt, &mut pool).tokens;
                assert_eq!(got, reference);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random corpus/model seeds: both draft-free drafters stay
    /// byte-identical to offline pipeline decoding across every policy, with
    /// unbounded and bounded pools alike.
    #[test]
    fn draft_free_losslessness_holds_for_random_seeds(
        seed in 0u64..10_000,
        pooled in any::<bool>(),
        policy_index in 0usize..5,
    ) {
        let setup = StandardSetup::new(seed, 2);
        let audio = setup.binding.bind_all(setup.corpus.split(Split::TestClean));
        let policy = all_policies()[policy_index];
        for drafter in drafters_for(&setup, &audio) {
            for utt in &audio {
                let reference = policy.decode(&setup.draft, &setup.target, utt).tokens;
                let mut pool = if pooled {
                    KvPool::bounded(512, 16)
                } else {
                    KvPool::unbounded(PRIVATE_BLOCK_SIZE)
                };
                let got = decode_with(&setup, policy, drafter.as_ref(), utt, &mut pool).tokens;
                prop_assert_eq!(
                    &got,
                    &reference,
                    "{:?} diverged under {}",
                    drafter.kind(),
                    policy.name()
                );
            }
        }
    }
}

/// With an external drafter the policy's own draft loop is bypassed: the
/// drafter proposes up to the policy's budget and verification treats the
/// draft as a plain sequence.  So adaptive single-sequence and two-pass
/// sparse-tree prediction at the same budget (the paper configurations: 24
/// and 24) are identical by construction — tokens, stats, clock and cache
/// summaries alike.
#[test]
fn external_drafters_make_asp_and_tsp_identical_at_equal_budgets() {
    let setup = StandardSetup::new(305, 4);
    let audio = setup.binding.bind_all(setup.corpus.split(Split::TestOther));
    let asp = AdaptiveConfig::paper();
    let tsp = SparseTreeConfig::paper();
    assert_eq!(asp.max_prediction_length, tsp.max_prediction_length);
    for drafter in drafters_for(&setup, &audio) {
        for utt in &audio {
            let mut pool = KvPool::unbounded(PRIVATE_BLOCK_SIZE);
            let adaptive = decode_with(
                &setup,
                Policy::AdaptiveSingleSequence(asp),
                drafter.as_ref(),
                utt,
                &mut pool,
            );
            let tree = decode_with(
                &setup,
                Policy::TwoPassSparseTree(tsp),
                drafter.as_ref(),
                utt,
                &mut pool,
            );
            assert_eq!(
                format!("{adaptive:?}"),
                format!("{tree:?}"),
                "{:?}",
                drafter.kind()
            );
        }
    }
}

/// A scheduler serving a mixed workload — the same utterances submitted under
/// all three drafter kinds — commits identical transcripts for all three and
/// dispatches draft-lane backend work only for the model-draft requests.
#[test]
fn scheduler_serves_mixed_drafter_workloads_losslessly() {
    let setup = StandardSetup::new(303, 4);
    let split = setup.corpus.split(Split::TestClean);
    let audio = setup.binding.bind_all(split);
    let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());

    let mut scheduler = Scheduler::new(
        setup.draft.clone(),
        setup.target.clone(),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        ServerConfig::default()
            .with_max_batch(6)
            .with_queue_depth(64),
    );
    scheduler.install_drafter(Arc::new(CtcDrafter::paired(&setup.target)));
    scheduler.install_drafter(Arc::new(token_map_for(&audio)));

    let mut expected = Vec::new();
    for utterance in split {
        let reference = setup
            .target
            .greedy_transcript(&setup.binding.bind(utterance));
        for kind in DrafterKind::ALL {
            let id = scheduler
                .submit(Submission::from(policy).with_drafter(kind), utterance)
                .expect("queue has room");
            expected.push((id, reference.clone()));
        }
    }
    let outcomes = scheduler.run_until_idle();
    assert_eq!(outcomes.len(), expected.len());
    for (id, reference) in expected {
        let served = outcomes.iter().find(|o| o.id == id).expect("completed");
        assert_eq!(served.outcome.tokens, reference);
    }
}

/// An all-draft-free workload drives the draft lane of the backend to exactly
/// zero requests — the capacity the scheduler wins back for verification.
#[test]
fn draft_free_workloads_dispatch_no_draft_lane_batches() {
    let setup = StandardSetup::new(304, 4);
    let split = setup.corpus.split(Split::DevClean);
    let audio = setup.binding.bind_all(split);
    let policy = Policy::TwoPassSparseTree(SparseTreeConfig::paper());

    let mut scheduler = Scheduler::new(
        setup.draft.clone(),
        setup.target.clone(),
        setup.binding.clone(),
        EncoderProfile::whisper_medium_encoder(),
        ServerConfig::default()
            .with_max_batch(4)
            .with_queue_depth(64),
    );
    scheduler.install_drafter(Arc::new(token_map_for(&audio)));
    for utterance in split {
        scheduler
            .submit(
                Submission::from(policy).with_drafter(DrafterKind::TokenMap),
                utterance,
            )
            .expect("queue has room");
    }
    let outcomes = scheduler.run_until_idle();
    assert_eq!(outcomes.len(), split.len());
    assert_eq!(
        scheduler.stats().backend().draft_requests(),
        0,
        "draft-free sessions must never touch the draft lane"
    );
    assert!(scheduler.stats().backend().verify_requests() > 0);
}
