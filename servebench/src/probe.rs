//! Outside-in timing of the layers below the serving front end.
//!
//! The benchmark measures a layer by wrapping the value the serving layer
//! calls through its public trait (`AsrDecoderModel::next_logits`,
//! `Drafter::propose`) and timing each call with `std::time::Instant`.
//! Nothing inside the program is instrumented; the wrappers are only
//! installed in the traced pass, so the end-to-end pass runs the plain types.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use specasr::{DraftRequest, DraftedRound, Drafter, DrafterKind};
use specasr_models::{AsrDecoderModel, ModelProfile, TokenLogits, UtteranceTokens};
use specasr_tokenizer::TokenId;

/// Call count and busy nanoseconds of one layer.  Shared between the
/// wrapper (possibly on the RPC worker thread) and the benchmark.
#[derive(Debug, Default)]
pub struct Meter {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Meter {
    /// Runs `f`, counting the call and its wall time.
    fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        let nanos = start.elapsed().as_nanos() as u64;
        // Statistics only: no other data is published through these.
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        result
    }

    /// Calls counted so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Busy time so far, in microseconds.
    pub fn micros(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1_000.0
    }
}

/// An [`AsrDecoderModel`] whose `next_logits` calls are timed.
#[derive(Debug, Clone)]
pub struct TimedModel<M> {
    inner: M,
    meter: Arc<Meter>,
}

impl<M> TimedModel<M> {
    /// Wraps `inner`, charging its calls to `meter`.
    pub fn new(inner: M, meter: Arc<Meter>) -> Self {
        TimedModel { inner, meter }
    }
}

impl<M: AsrDecoderModel> AsrDecoderModel for TimedModel<M> {
    fn profile(&self) -> &ModelProfile {
        self.inner.profile()
    }

    fn next_logits(&self, audio: &UtteranceTokens, prefix: &[TokenId]) -> TokenLogits {
        self.meter.time(|| self.inner.next_logits(audio, prefix))
    }
}

/// A [`Drafter`] whose `propose` calls are timed.
#[derive(Debug)]
pub struct TimedDrafter {
    inner: Arc<dyn Drafter + Send + Sync>,
    meter: Arc<Meter>,
}

impl TimedDrafter {
    /// Wraps `inner`, charging its calls to `meter`.
    pub fn new(inner: Arc<dyn Drafter + Send + Sync>, meter: Arc<Meter>) -> Self {
        TimedDrafter { inner, meter }
    }
}

impl Drafter for TimedDrafter {
    fn kind(&self) -> DrafterKind {
        self.inner.kind()
    }

    fn propose(&self, request: DraftRequest<'_>) -> DraftedRound {
        self.meter.time(|| self.inner.propose(request))
    }

    fn uses_draft_kv(&self) -> bool {
        self.inner.uses_draft_kv()
    }
}

/// The meters of one traced run.
#[derive(Debug, Default, Clone)]
pub struct Probes {
    /// Draft-model `next_logits`.
    pub draft: Arc<Meter>,
    /// Target-model `next_logits` (on the RPC worker thread when the target
    /// sits behind the wire).
    pub target: Arc<Meter>,
    /// Installed draft-free drafter `propose`.
    pub drafter: Arc<Meter>,
}
