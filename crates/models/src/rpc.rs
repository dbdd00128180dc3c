//! A process-boundary [`AsrBackend`]: a worker thread owning the device,
//! driven over the binary wire protocol of [`crate::wire`].
//!
//! [`RpcBackend`] proves the ticketed `submit/poll/complete` boundary is
//! real: the client half holds *no* model.  Each submit encodes one
//! [`WireCall::Submit`] frame, sends it down an `mpsc` channel as bytes,
//! and blocks on the worker's [`WireReply::Submitted`].  The worker owns an
//! [`InFlightSimBackend`], which scores a batch at submit, so that one
//! reply carries the tickets, every completed result, the device backlog
//! and the lifetime counters.  The client keeps them in a mirror and serves
//! `poll`, `complete`, `counters` and `device_free_ms` from it without a
//! round trip: one round trip per verification wave.  A scheduler driven
//! through the wire sees the exact timing, tickets, result order and
//! counters an in-process backend would produce, so transcripts and latency
//! stats stay byte-identical and the backend is a drop-in `--rpc` choice in
//! the bench bins.
//!
//! The client checks that every ticket of a submit came back in its reply.
//! A worker that answers asynchronously (a real GPU-RPC deployment behind a
//! socket, say) breaks that assumption loudly instead of losing results;
//! such a worker needs a completion read in `poll`, but nothing in the
//! trait contract changes.

use std::sync::mpsc::{Receiver, Sender};
use std::thread::JoinHandle;

use crate::backend::{
    AsrBackend, BackendBatch, BackendCounters, CompletionQueue, DeviceEvent, ForwardResult, Ticket,
};
use crate::profiles::ModelProfile;
use crate::traits::AsrDecoderModel;
use crate::wire::{
    decode_call, decode_reply, encode_call, encode_reply, Submitted, WireCall, WireReply,
};
use crate::InFlightSimBackend;

/// The client half of the process-boundary backend: implements
/// [`AsrBackend`] over the binary wire to a worker thread that owns an
/// [`InFlightSimBackend`].
///
/// # Example
///
/// ```
/// use std::sync::Arc;
///
/// use specasr_audio::{Corpus, Split};
/// use specasr_models::{
///     AsrBackend, BackendBatch, ForwardRequest, ModelProfile, RpcBackend, SimulatedAsrModel,
///     TokenizerBinding,
/// };
///
/// let corpus = Corpus::librispeech_like(1, 1);
/// let binding = TokenizerBinding::for_corpus(&corpus);
/// let audio = Arc::new(binding.bind(&corpus.split(Split::TestClean)[0]));
/// let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
///
/// let mut backend = RpcBackend::spawn(target);
/// let tickets = backend.submit(
///     BackendBatch::of(ForwardRequest::draft_step(audio, Vec::new())),
///     0.0,
/// );
/// let result = backend.complete(tickets[0]).expect("worker answered");
/// assert_eq!(result.logits.len(), 1);
/// ```
#[derive(Debug)]
pub struct RpcBackend {
    calls: Sender<Vec<u8>>,
    replies: Receiver<Vec<u8>>,
    profile: ModelProfile,
    dispatch_overhead_ms: f64,
    /// The worker's device backlog as of the last submit reply.
    device_free_ms: f64,
    /// The worker's lifetime counters as of the last submit reply.
    counters: BackendCounters,
    /// Results the worker returned and the caller has not drained yet.
    completed: CompletionQueue,
    worker: Option<JoinHandle<()>>,
}

impl RpcBackend {
    /// Spawns a worker thread owning `model` behind an
    /// [`InFlightSimBackend`] with no dispatch overhead.
    pub fn spawn<M: AsrDecoderModel + Send + 'static>(model: M) -> Self {
        RpcBackend::spawn_with_overhead(model, 0.0)
    }

    /// Like [`RpcBackend::spawn`], with a per-batch dispatch overhead on the
    /// worker's device timeline.
    ///
    /// # Panics
    ///
    /// Panics if the overhead is negative or non-finite.
    pub fn spawn_with_overhead<M: AsrDecoderModel + Send + 'static>(
        model: M,
        dispatch_overhead_ms: f64,
    ) -> Self {
        let backend =
            InFlightSimBackend::new(model).with_dispatch_overhead_ms(dispatch_overhead_ms);
        let profile = backend.profile().clone();
        let counters = backend.counters();
        let (calls, worker_calls) = std::sync::mpsc::channel();
        let (worker_replies, replies) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || worker_loop(backend, worker_calls, worker_replies));
        RpcBackend {
            calls,
            replies,
            profile,
            dispatch_overhead_ms,
            device_free_ms: 0.0,
            counters,
            completed: CompletionQueue::default(),
            worker: Some(worker),
        }
    }

    /// The dispatch overhead configured on the worker's device timeline.
    pub fn dispatch_overhead_ms(&self) -> f64 {
        self.dispatch_overhead_ms
    }

    /// The worker's device backlog as of the last submit (the wall time a
    /// batch submitted now could start executing).
    pub fn device_free_ms(&self) -> f64 {
        self.device_free_ms
    }

    /// Propagates the trace context to the worker: enables (or disables)
    /// the device-side batch log behind the wire.
    pub fn set_device_tracing(&mut self, enabled: bool) {
        match self.call(&WireCall::SetTracing(enabled)) {
            WireReply::TracingSet(state) => debug_assert_eq!(state, enabled),
            other => unreachable!("set tracing answered with {other:?}"),
        }
    }

    /// Drains the worker's device batch log across the wire.
    pub fn take_device_events(&mut self) -> Vec<DeviceEvent> {
        match self.call(&WireCall::TakeDeviceEvents) {
            WireReply::DeviceEvents(events) => events,
            other => unreachable!("take device events answered with {other:?}"),
        }
    }

    fn call(&self, call: &WireCall) -> WireReply {
        self.calls
            .send(encode_call(call))
            .expect("rpc worker accepts calls while the client lives");
        let frame = self
            .replies
            .recv()
            .expect("rpc worker answers every call in lock step");
        decode_reply(&frame).expect("rpc worker replies are well-formed frames")
    }
}

impl AsrBackend for RpcBackend {
    fn profile(&self) -> &ModelProfile {
        &self.profile
    }

    fn submit(&mut self, batch: BackendBatch, now_ms: f64) -> Vec<Ticket> {
        let Submitted {
            tickets,
            completed,
            device_free_ms,
            counters,
        } = match self.call(&WireCall::Submit(now_ms, batch)) {
            WireReply::Submitted(submitted) => submitted,
            other => unreachable!("submit answered with {other:?}"),
        };
        assert!(
            tickets
                .iter()
                .all(|ticket| completed.iter().any(|result| result.ticket == *ticket)),
            "the rpc worker must return every result of a submit in its reply"
        );
        self.device_free_ms = device_free_ms;
        self.counters = counters;
        self.completed.extend(completed);
        tickets
    }

    fn poll(&mut self) -> Vec<ForwardResult> {
        self.completed.poll()
    }

    fn complete(&mut self, ticket: Ticket) -> Option<ForwardResult> {
        self.completed.complete(ticket)
    }

    fn counters(&self) -> BackendCounters {
        self.counters
    }
}

impl Drop for RpcBackend {
    fn drop(&mut self) {
        // Best-effort handshake: the worker may already be gone if it
        // panicked, in which case join surfaces the panic payload instead.
        if self.calls.send(encode_call(&WireCall::Shutdown)).is_ok() {
            let _ = self.replies.recv();
        }
        if let Some(worker) = self.worker.take() {
            worker.join().expect("rpc worker exits cleanly");
        }
    }
}

/// The worker loop: decode a call, apply it to the owned backend, answer.
fn worker_loop<M: AsrDecoderModel>(
    mut backend: InFlightSimBackend<M>,
    calls: Receiver<Vec<u8>>,
    replies: Sender<Vec<u8>>,
) {
    while let Ok(frame) = calls.recv() {
        let call = decode_call(&frame).expect("rpc client calls are well-formed frames");
        let reply = match call {
            WireCall::Submit(now_ms, batch) => {
                let tickets = backend.submit(batch, now_ms);
                WireReply::Submitted(Submitted {
                    tickets,
                    completed: backend.poll(),
                    device_free_ms: backend.device_free_ms(),
                    counters: backend.counters(),
                })
            }
            WireCall::SetTracing(enabled) => {
                backend.set_device_tracing(enabled);
                WireReply::TracingSet(enabled)
            }
            WireCall::TakeDeviceEvents => WireReply::DeviceEvents(backend.take_device_events()),
            WireCall::Shutdown => {
                let _ = replies.send(encode_reply(&WireReply::Bye));
                return;
            }
        };
        if replies.send(encode_reply(&reply)).is_err() {
            return; // client hung up without the shutdown handshake
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::backend::{ForwardKind, ForwardRequest};
    use crate::binding::{TokenizerBinding, UtteranceTokens};
    use crate::probe::ProbeTrie;
    use crate::simulated::SimulatedAsrModel;
    use specasr_audio::{Corpus, Split};
    use specasr_tokenizer::TokenId;

    fn setup() -> (SimulatedAsrModel, Vec<Arc<UtteranceTokens>>) {
        let corpus = Corpus::librispeech_like(11, 3);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let audio = binding
            .bind_all(corpus.split(Split::TestClean))
            .into_iter()
            .map(Arc::new)
            .collect();
        let target = SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), 7);
        (target, audio)
    }

    /// Asserts the client mirror agrees with the in-process backend on
    /// everything callers can observe between submits.
    fn assert_mirrors(remote: &RpcBackend, local: &InFlightSimBackend<SimulatedAsrModel>) {
        assert_eq!(remote.counters(), local.counters());
        assert_eq!(
            remote.device_free_ms().to_bits(),
            local.device_free_ms().to_bits()
        );
    }

    #[test]
    fn the_rpc_backend_matches_the_in_process_backend_exactly() {
        let (target, audio) = setup();
        let mut local = InFlightSimBackend::new(target.clone()).with_dispatch_overhead_ms(2.0);
        let mut remote = RpcBackend::spawn_with_overhead(target, 2.0);
        assert_eq!(remote.profile(), local.profile());
        assert!((remote.dispatch_overhead_ms() - 2.0).abs() < 1e-12);
        assert_mirrors(&remote, &local);

        // Multi-wave submits (some at equal times, so completions tie and
        // order by ticket) interleaved with `complete` of current, older,
        // drained and unknown tickets, and with `poll`.
        let mut submitted = Vec::new();
        let mut polled = 0;
        for step in 0..24usize {
            let mut batch = BackendBatch::new();
            for wave in 0..1 + step % 3 {
                let context = audio[(step + wave) % audio.len()].clone();
                batch.push(if (step + wave) % 4 == 0 {
                    ForwardRequest::draft_step(context, Vec::new())
                } else {
                    let probes = ProbeTrie::chain(&[TokenId::new(5); 2][..wave]);
                    ForwardRequest::verify(context, Vec::new(), probes, 2 + step % 5)
                });
            }
            let now_ms = (step / 2) as f64 * 7.5;
            let tickets = remote.submit(batch.clone(), now_ms);
            assert_eq!(tickets, local.submit(batch, now_ms));
            assert_mirrors(&remote, &local);
            submitted.extend(tickets);

            let probe = match step % 4 {
                0 => Some(submitted[submitted.len() - 1]),
                1 => Some(submitted[step / 2]),
                2 => Some(Ticket::new(u64::MAX)),
                _ => None,
            };
            if let Some(ticket) = probe {
                assert_eq!(remote.complete(ticket), local.complete(ticket));
                assert_mirrors(&remote, &local);
            }
            if step % 5 == 4 {
                let results = remote.poll();
                assert_eq!(results, local.poll());
                assert_mirrors(&remote, &local);
                polled += results.len();
            }
        }
        let results = remote.poll();
        assert_eq!(results, local.poll());
        assert_mirrors(&remote, &local);
        polled += results.len();
        assert!(polled > 0);
        assert!(remote.poll().is_empty(), "drained");
        assert!(results.iter().any(|r| r.kind == ForwardKind::Verify));
        assert!(results
            .windows(2)
            .all(|w| (w[0].completed_ms, w[0].ticket) < (w[1].completed_ms, w[1].ticket)));
    }

    #[test]
    fn the_device_log_crosses_the_wire_identically() {
        let (target, audio) = setup();
        let mut local = InFlightSimBackend::new(target.clone()).with_dispatch_overhead_ms(1.5);
        let mut remote = RpcBackend::spawn_with_overhead(target, 1.5);
        local.set_device_tracing(true);
        remote.set_device_tracing(true);
        for (i, context) in audio.iter().enumerate() {
            let request =
                ForwardRequest::verify(context.clone(), Vec::new(), ProbeTrie::new(), 3 + i);
            local.submit(BackendBatch::of(request.clone()), i as f64);
            remote.submit(BackendBatch::of(request), i as f64);
        }
        let local_events = local.take_device_events();
        let remote_events = remote.take_device_events();
        assert!(!local_events.is_empty());
        assert_eq!(local_events, remote_events);
        assert!(local.take_device_events().is_empty(), "drained");
        assert!(remote.take_device_events().is_empty(), "drained");

        // Disabling clears the buffered log on both sides.
        local.set_device_tracing(true);
        remote.set_device_tracing(true);
        let request = ForwardRequest::verify(audio[0].clone(), Vec::new(), ProbeTrie::new(), 2);
        local.submit(BackendBatch::of(request.clone()), 99.0);
        remote.submit(BackendBatch::of(request), 99.0);
        local.set_device_tracing(false);
        remote.set_device_tracing(false);
        assert!(local.take_device_events().is_empty());
        assert!(remote.take_device_events().is_empty());
    }

    #[test]
    fn complete_drains_one_ticket_across_the_wire() {
        let (target, audio) = setup();
        let mut remote = RpcBackend::spawn(target);
        let tickets = remote.submit(
            BackendBatch::of(ForwardRequest::draft_step(audio[0].clone(), Vec::new())),
            5.0,
        );
        assert!(remote.complete(Ticket::new(999)).is_none());
        let result = remote.complete(tickets[0]).expect("completed");
        assert_eq!(result.ticket, tickets[0]);
        assert!(remote.complete(tickets[0]).is_none(), "already drained");
    }
}
