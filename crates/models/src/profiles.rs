//! Named model profiles: parameter counts, accuracy, and forward-pass cost.
//!
//! The paper's experiments involve two families of models:
//!
//! * the **Whisper family** (`tiny.en` draft, `medium.en` target) that
//!   actually decodes the audio and whose decoding trajectories are recorded,
//! * the **LLM family** (TinyLlama draft, Llama-7B / Vicuna-13B targets)
//!   whose latency profiles the trajectories are replayed under.
//!
//! A [`ModelProfile`] bundles everything downstream code needs: a name, a
//! role, parameter counts (Fig. 1a), an [`AccuracyProfile`] (Fig. 5a WER
//! scaling and draft/target agreement), and a [`LatencyModel`] (Figs. 1b, 7,
//! 11 and Tab. II).

use serde::{Deserialize, Serialize};

use crate::latency::LatencyModel;

/// Whether a model acts as the small draft model or the large target model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelRole {
    /// Small, fast model that proposes draft tokens.
    Draft,
    /// Large, accurate model that verifies draft tokens.
    Target,
}

/// Coarse model scale used for the WER-vs-size analysis of Fig. 5a.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ModelScale {
    /// Whisper tiny-class (≈ 39 M parameters).
    Tiny,
    /// Whisper base-class (≈ 74 M parameters).
    Base,
    /// Whisper small-class (≈ 244 M parameters).
    Small,
    /// Whisper medium-class (≈ 769 M parameters).
    Medium,
}

impl ModelScale {
    /// All scales in increasing size order.
    pub const ALL: [ModelScale; 4] = [
        ModelScale::Tiny,
        ModelScale::Base,
        ModelScale::Small,
        ModelScale::Medium,
    ];

    /// Canonical lowercase name of the scale.
    pub const fn name(self) -> &'static str {
        match self {
            ModelScale::Tiny => "tiny",
            ModelScale::Base => "base",
            ModelScale::Small => "small",
            ModelScale::Medium => "medium",
        }
    }
}

/// Accuracy parameters of a simulated ASR model.
///
/// * `base_error` is the substitution probability on perfectly easy audio
///   (difficulty 0);
/// * `difficulty_slope` scales how quickly errors grow with per-token
///   acoustic difficulty;
/// * `agreement_base` / `agreement_slope` control how often a *draft* model's
///   top-1 token matches the target model's emission at the same position
///   (only meaningful for draft-role models);
/// * `runner_up_probability` is the probability that, when the draft's top-1
///   token is wrong, the target's token sits at rank 2 of the draft logits
///   (the paper measures ≈ 2/3, Fig. 13b).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccuracyProfile {
    /// Substitution probability at difficulty 0.
    pub base_error: f64,
    /// Additional substitution probability per unit difficulty.
    pub difficulty_slope: f64,
    /// Draft/target top-1 agreement probability at difficulty 0.
    pub agreement_base: f64,
    /// Reduction in agreement probability per unit difficulty.
    pub agreement_slope: f64,
    /// Probability that the target token is the draft's rank-2 candidate when
    /// the draft top-1 is wrong.
    pub runner_up_probability: f64,
}

impl AccuracyProfile {
    /// Substitution probability at the given acoustic difficulty, clamped to
    /// `[0, 0.95]`.
    pub fn error_probability(&self, difficulty: f64) -> f64 {
        (self.base_error + self.difficulty_slope * difficulty.clamp(0.0, 1.0)).clamp(0.0, 0.95)
    }

    /// Draft/target agreement probability at the given difficulty, clamped to
    /// `[0.02, 1.0]`.
    pub fn agreement_probability(&self, difficulty: f64) -> f64 {
        (self.agreement_base - self.agreement_slope * difficulty.clamp(0.0, 1.0)).clamp(0.02, 1.0)
    }
}

/// A fully specified simulated model: identity, size, accuracy, and cost.
///
/// # Example
///
/// ```
/// use specasr_models::ModelProfile;
///
/// let draft = ModelProfile::whisper_tiny_en();
/// let target = ModelProfile::whisper_medium_en();
/// assert!(draft.parameters() < target.parameters());
/// assert!(draft.latency().forward_pass_ms(1) < target.latency().forward_pass_ms(1));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelProfile {
    name: String,
    role: ModelRole,
    parameters: u64,
    accuracy: AccuracyProfile,
    latency: LatencyModel,
}

impl ModelProfile {
    /// Creates a custom profile.
    pub fn new(
        name: impl Into<String>,
        role: ModelRole,
        parameters: u64,
        accuracy: AccuracyProfile,
        latency: LatencyModel,
    ) -> Self {
        ModelProfile {
            name: name.into(),
            role,
            parameters,
            accuracy,
            latency,
        }
    }

    /// Whisper tiny.en used as the draft ASR model (≈ 39 M parameters).
    pub fn whisper_tiny_en() -> Self {
        ModelProfile::new(
            "whisper-tiny.en",
            ModelRole::Draft,
            39_000_000,
            AccuracyProfile {
                base_error: 0.045,
                difficulty_slope: 0.30,
                agreement_base: 0.97,
                agreement_slope: 0.45,
                runner_up_probability: 0.67,
            },
            LatencyModel::new(2.45, 0.055),
        )
    }

    /// Whisper base.en scale, used only in the WER-scaling analysis.
    pub fn whisper_base_en() -> Self {
        ModelProfile::new(
            "whisper-base.en",
            ModelRole::Draft,
            74_000_000,
            AccuracyProfile {
                base_error: 0.038,
                difficulty_slope: 0.24,
                agreement_base: 0.975,
                agreement_slope: 0.33,
                runner_up_probability: 0.67,
            },
            LatencyModel::new(3.4, 0.07),
        )
    }

    /// Whisper small.en scale, used only in the WER-scaling analysis.
    pub fn whisper_small_en() -> Self {
        ModelProfile::new(
            "whisper-small.en",
            ModelRole::Target,
            244_000_000,
            AccuracyProfile {
                base_error: 0.030,
                difficulty_slope: 0.17,
                agreement_base: 0.98,
                agreement_slope: 0.28,
                runner_up_probability: 0.67,
            },
            LatencyModel::new(9.0, 0.16),
        )
    }

    /// Whisper medium.en used as the target ASR model (≈ 769 M parameters).
    pub fn whisper_medium_en() -> Self {
        ModelProfile::new(
            "whisper-medium.en",
            ModelRole::Target,
            769_000_000,
            AccuracyProfile {
                base_error: 0.022,
                difficulty_slope: 0.12,
                agreement_base: 1.0,
                agreement_slope: 0.0,
                runner_up_probability: 0.67,
            },
            LatencyModel::new(21.5, 0.20),
        )
    }

    /// TinyLlama-1.1B used as the draft LLM decoder.
    pub fn tiny_llama_1b() -> Self {
        ModelProfile::new(
            "tinyllama-1.1b",
            ModelRole::Draft,
            1_100_000_000,
            AccuracyProfile {
                base_error: 0.040,
                difficulty_slope: 0.26,
                agreement_base: 0.97,
                agreement_slope: 0.42,
                runner_up_probability: 0.67,
            },
            LatencyModel::new(5.6, 0.11),
        )
    }

    /// Llama-7B used as a target LLM decoder.
    pub fn llama_7b() -> Self {
        ModelProfile::new(
            "llama-7b",
            ModelRole::Target,
            6_700_000_000,
            AccuracyProfile {
                base_error: 0.020,
                difficulty_slope: 0.11,
                agreement_base: 1.0,
                agreement_slope: 0.0,
                runner_up_probability: 0.67,
            },
            LatencyModel::new(27.5, 0.34),
        )
    }

    /// Vicuna-13B used as the largest target LLM decoder.
    pub fn vicuna_13b() -> Self {
        ModelProfile::new(
            "vicuna-13b",
            ModelRole::Target,
            13_000_000_000,
            AccuracyProfile {
                base_error: 0.018,
                difficulty_slope: 0.10,
                agreement_base: 1.0,
                agreement_slope: 0.0,
                runner_up_probability: 0.67,
            },
            LatencyModel::new(49.0, 0.60),
        )
    }

    /// The profile of a given Whisper-family [`ModelScale`] (Fig. 5a).
    pub fn for_scale(scale: ModelScale) -> Self {
        match scale {
            ModelScale::Tiny => ModelProfile::whisper_tiny_en(),
            ModelScale::Base => ModelProfile::whisper_base_en(),
            ModelScale::Small => ModelProfile::whisper_small_en(),
            ModelScale::Medium => ModelProfile::whisper_medium_en(),
        }
    }

    /// Human-readable profile name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether this profile plays the draft or target role by default.
    pub fn role(&self) -> ModelRole {
        self.role
    }

    /// Parameter count (Fig. 1a).
    pub fn parameters(&self) -> u64 {
        self.parameters
    }

    /// Accuracy parameters.
    pub fn accuracy(&self) -> &AccuracyProfile {
        &self.accuracy
    }

    /// Forward-pass latency model.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Returns a copy of this profile with a different latency model,
    /// used when replaying Whisper trajectories under LLM latency profiles
    /// exactly as the paper does.
    pub fn with_latency(&self, latency: LatencyModel) -> Self {
        ModelProfile {
            latency,
            ..self.clone()
        }
    }

    /// Returns a copy of this profile with a different accuracy profile,
    /// used by the text-task variant whose draft/target agreement is lower
    /// than in audio-conditioned ASR decoding.
    pub fn with_accuracy(&self, accuracy: AccuracyProfile) -> Self {
        ModelProfile {
            accuracy,
            ..self.clone()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_counts_are_ordered() {
        let profiles = [
            ModelProfile::whisper_tiny_en(),
            ModelProfile::whisper_base_en(),
            ModelProfile::whisper_small_en(),
            ModelProfile::whisper_medium_en(),
            ModelProfile::tiny_llama_1b(),
            ModelProfile::llama_7b(),
            ModelProfile::vicuna_13b(),
        ];
        for pair in profiles.windows(2) {
            assert!(
                pair[0].parameters() < pair[1].parameters(),
                "{} should be smaller than {}",
                pair[0].name(),
                pair[1].name()
            );
        }
    }

    #[test]
    fn larger_models_are_slower_and_more_accurate() {
        let tiny = ModelProfile::whisper_tiny_en();
        let medium = ModelProfile::whisper_medium_en();
        assert!(tiny.latency().forward_pass_ms(1) < medium.latency().forward_pass_ms(1));
        assert!(tiny.accuracy().error_probability(0.3) > medium.accuracy().error_probability(0.3));
    }

    #[test]
    fn error_probability_grows_with_difficulty_and_is_clamped() {
        let acc = *ModelProfile::whisper_tiny_en().accuracy();
        assert!(acc.error_probability(0.0) < acc.error_probability(0.5));
        assert!(acc.error_probability(0.5) < acc.error_probability(1.0));
        assert!(acc.error_probability(50.0) <= 0.95);
        assert!(acc.error_probability(-3.0) >= 0.0);
    }

    #[test]
    fn agreement_probability_decreases_with_difficulty() {
        let acc = *ModelProfile::whisper_tiny_en().accuracy();
        assert!(acc.agreement_probability(0.0) > acc.agreement_probability(0.8));
        assert!(acc.agreement_probability(10.0) >= 0.02);
        assert!(acc.agreement_probability(0.0) <= 1.0);
    }

    #[test]
    fn scale_profiles_match_the_whisper_family() {
        assert_eq!(
            ModelProfile::for_scale(ModelScale::Tiny).name(),
            "whisper-tiny.en"
        );
        assert_eq!(
            ModelProfile::for_scale(ModelScale::Medium).name(),
            "whisper-medium.en"
        );
        assert_eq!(ModelScale::Small.name(), "small");
        assert_eq!(ModelScale::ALL.len(), 4);
    }

    #[test]
    fn with_latency_replaces_only_latency() {
        let base = ModelProfile::whisper_medium_en();
        let replayed = base.with_latency(ModelProfile::vicuna_13b().latency().clone());
        assert_eq!(replayed.name(), base.name());
        assert_eq!(replayed.parameters(), base.parameters());
        assert!(replayed.latency().forward_pass_ms(1) > base.latency().forward_pass_ms(1));
    }
}
