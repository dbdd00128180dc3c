//! Adaptive single-sequence prediction (ASP) with draft sequence recycling —
//! the first two SpecASR techniques.
//!
//! The draft model speculates a *long* sequence (up to 24 tokens) but
//! truncates early whenever the normalised top-1 logit of a drafted token
//! falls below the truncation threshold: a low logit is strongly correlated
//! with verification failure, so drafting past it would mostly be wasted.
//! When verification rejects a suffix, the rejected tokens are retained and
//! merged back into the next round's draft ([`crate::RecycleBuffer`]),
//! which removes most of the regeneration cost.
//!
//! The draft phase lives in [`crate::ModelDrafter`] and the verify phase in
//! [`crate::DecodeSession::verify_round`]; this module holds the policy's
//! behaviour tests, run through [`crate::Policy::decode`].

#[cfg(test)]
mod tests {
    use crate::config::{AdaptiveConfig, SpeculativeConfig};
    use crate::policy::Policy;
    use crate::stats::DecodeStats;
    use specasr_audio::{Corpus, Split};
    use specasr_models::{
        AsrDecoderModel, ModelProfile, SimulatedAsrModel, TokenizerBinding, UtteranceTokens,
    };

    fn setup(split: Split) -> (SimulatedAsrModel, SimulatedAsrModel, Vec<UtteranceTokens>) {
        let corpus = Corpus::librispeech_like(31, 8);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let audio = binding.bind_all(corpus.split(split));
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        let draft = SimulatedAsrModel::draft_paired(ModelProfile::whisper_tiny_en(), 8, &target);
        (draft, target, audio)
    }

    #[test]
    fn adaptive_decoding_is_lossless() {
        let (draft, target, audio) = setup(Split::TestOther);
        for config in [AdaptiveConfig::paper(), AdaptiveConfig::without_recycling()] {
            let policy = Policy::AdaptiveSingleSequence(config);
            for utt in &audio {
                assert_eq!(
                    policy.decode(&draft, &target, utt).tokens,
                    target.greedy_transcript(utt)
                );
            }
        }
    }

    #[test]
    fn adaptive_prediction_needs_fewer_rounds_than_the_baseline() {
        let (draft, target, audio) = setup(Split::TestClean);
        let baseline = Policy::Speculative(SpeculativeConfig::short_single());
        let adaptive = Policy::AdaptiveSingleSequence(AdaptiveConfig::without_recycling());
        let mut baseline_rounds = 0usize;
        let mut adaptive_rounds = 0usize;
        for utt in &audio {
            baseline_rounds += baseline.decode(&draft, &target, utt).stats.rounds;
            adaptive_rounds += adaptive.decode(&draft, &target, utt).stats.rounds;
        }
        assert!(
            adaptive_rounds < baseline_rounds,
            "adaptive rounds ({adaptive_rounds}) should undercut baseline rounds ({baseline_rounds})"
        );
    }

    #[test]
    fn adaptive_prediction_improves_the_acceptance_ratio() {
        let (draft, target, audio) = setup(Split::TestClean);
        let baseline = Policy::Speculative(SpeculativeConfig::long_single());
        let adaptive = Policy::AdaptiveSingleSequence(AdaptiveConfig::without_recycling());
        let mut baseline_stats = DecodeStats::new();
        let mut adaptive_stats = DecodeStats::new();
        for utt in &audio {
            baseline_stats.merge(&baseline.decode(&draft, &target, utt).stats);
            adaptive_stats.merge(&adaptive.decode(&draft, &target, utt).stats);
        }
        assert!(
            adaptive_stats.acceptance_ratio() > baseline_stats.acceptance_ratio(),
            "adaptive acceptance ({:.3}) should exceed baseline acceptance ({:.3})",
            adaptive_stats.acceptance_ratio(),
            baseline_stats.acceptance_ratio()
        );
        assert!(
            adaptive_stats.truncations > 0,
            "the threshold should fire on noisy audio"
        );
    }

    #[test]
    fn recycling_reduces_draft_latency() {
        let (draft, target, audio) = setup(Split::TestOther);
        let without = Policy::AdaptiveSingleSequence(AdaptiveConfig::without_recycling());
        let with = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        let mut draft_ms_without = 0.0;
        let mut draft_ms_with = 0.0;
        let mut recycled = 0usize;
        for utt in &audio {
            draft_ms_without += without.decode(&draft, &target, utt).latency().draft_ms;
            let outcome = with.decode(&draft, &target, utt);
            draft_ms_with += outcome.latency().draft_ms;
            recycled += outcome.stats.recycled_tokens;
        }
        assert!(
            recycled > 0,
            "recycling should adopt at least some tokens on noisy audio"
        );
        assert!(
            draft_ms_with < draft_ms_without,
            "recycling draft time ({draft_ms_with:.1} ms) should undercut non-recycling ({draft_ms_without:.1} ms)"
        );
    }

    #[test]
    fn extreme_thresholds_behave_sensibly() {
        let (draft, target, audio) = setup(Split::TestClean);
        let utt = &audio[0];
        // Threshold 0: never truncate → behaves like fixed length-24 drafting.
        let never = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper().with_threshold(0.0))
            .decode(&draft, &target, utt);
        assert_eq!(never.stats.truncations, 0);
        // Threshold 1: truncate after every token → degenerates towards
        // one-token drafts but stays lossless.
        let always = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper().with_threshold(1.0))
            .decode(&draft, &target, utt);
        assert_eq!(always.tokens, target.greedy_transcript(utt));
        assert!(always.stats.rounds >= never.stats.rounds);
    }

    #[test]
    fn draft_steps_match_clock_passes() {
        let (draft, target, audio) = setup(Split::DevOther);
        let outcome = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper())
            .decode(&draft, &target, &audio[0]);
        assert_eq!(
            outcome.stats.draft_steps as u64,
            outcome.clock.draft_passes()
        );
        assert_eq!(outcome.stats.rounds as u64, outcome.clock.target_passes());
    }
}
