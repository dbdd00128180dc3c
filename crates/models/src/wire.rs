//! The binary wire format of the process-boundary backend protocol.
//!
//! [`crate::RpcBackend`] drives a worker that owns the real (simulated)
//! device.  Every call is one [`WireCall`] frame answered by one
//! [`WireReply`] frame.  There is one call per verification wave: the
//! worker scores a batch at submit, so its [`WireReply::Submitted`] carries
//! the tickets together with every completed result, the device backlog and
//! the lifetime counters.  The client serves `poll`, `complete` and
//! `counters` from that mirror without another round trip.  Beyond submit
//! the protocol only carries the trace context ([`WireCall::SetTracing`],
//! [`WireCall::TakeDeviceEvents`]) and the shutdown handshake.
//!
//! # Frame layout
//!
//! A frame is a tag byte followed by fixed-layout little-endian fields:
//!
//! * lengths and counts of sequences are `u32`, followed by the elements;
//! * tickets, sequence numbers, utterance ids and `usize` values are `u64`;
//! * a [`TokenId`] is its raw `u32`;
//! * every `f64` is its `to_bits` pattern, so `-0.0`, subnormals,
//!   infinities and NaN payloads round-trip bit for bit;
//! * a `bool` or a [`ForwardKind`] is one byte (`0` or `1`);
//! * a [`ProbeTrie`] is its node count after the root, then each node's
//!   token and parent index as `u32`s — O(k) per request, where a list of
//!   prefixes would be O(k²).
//!
//! A [`ForwardRequest`] holds its audio context behind an `Arc` so many
//! requests of one session share it; an `Arc` cannot cross a process
//! boundary, so the frame inlines the context by value and the worker
//! re-wraps it in a fresh `Arc` on decode.
//!
//! Decoding is total: a frame that ends early, carries an unknown tag, names
//! a trie parent that does not precede its node, or has bytes left over
//! decodes to a [`WireError`], never a panic (then or later, when the
//! worker scores the batch).  Because
//! the worker prices batches with the same [`crate::InFlightSimBackend`]
//! timeline, a scheduler driven over the wire produces byte-identical
//! transcripts *and* identical latency stats to one holding the backend
//! in-process.

use std::fmt;
use std::sync::Arc;

use specasr_audio::UtteranceId;
use specasr_tokenizer::TokenId;

use crate::backend::{
    BackendBatch, BackendCounters, DeviceEvent, ForwardKind, ForwardRequest, ForwardResult, Ticket,
};
use crate::binding::UtteranceTokens;
use crate::logits::{Candidate, TokenLogits};
use crate::probe::ProbeTrie;

/// One call from the client half of [`crate::RpcBackend`] to its worker.
#[derive(Debug, Clone, PartialEq)]
pub enum WireCall {
    /// [`crate::AsrBackend::submit`]: a batch stamped at a wall time.
    Submit(f64, BackendBatch),
    /// Propagates the client's trace context: enables (or disables) the
    /// worker-side device batch log so `+rpc` runs stitch the same device
    /// timeline as in-process runs.
    SetTracing(bool),
    /// Drains the worker's device batch log
    /// ([`crate::InFlightSimBackend::take_device_events`]).
    TakeDeviceEvents,
    /// Stop the worker loop (sent once, on drop).
    Shutdown,
}

/// The worker's answer to a [`WireCall::Submit`]: everything the client
/// needs to serve the rest of the [`crate::AsrBackend`] trait until the
/// next submit.
#[derive(Debug, Clone, PartialEq)]
pub struct Submitted {
    /// One ticket per submitted request, in request order.
    pub tickets: Vec<Ticket>,
    /// Every result the worker had completed, drained with its own `poll`
    /// (so in completion order).  Always includes every ticket above.
    pub completed: Vec<ForwardResult>,
    /// The worker's device backlog after the submit, mirrored client-side
    /// so the wave planner sees the same cross-tick carry as an in-process
    /// backend.
    pub device_free_ms: f64,
    /// The worker's cumulative lifetime counters after the submit.
    pub counters: BackendCounters,
}

/// The worker's answer to one [`WireCall`].
#[derive(Debug, Clone, PartialEq)]
pub enum WireReply {
    /// Answers [`WireCall::Submit`].
    Submitted(Submitted),
    /// Acknowledges [`WireCall::SetTracing`], echoing the new state.
    TracingSet(bool),
    /// The worker's device batch log since the last drain, in submit order.
    DeviceEvents(Vec<DeviceEvent>),
    /// Acknowledges [`WireCall::Shutdown`]; the worker exits after sending.
    Bye,
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The frame ended before its last field.
    Truncated,
    /// A tag or flag byte outside the protocol.
    UnknownTag(u8),
    /// The frame decoded completely with this many bytes left over.
    TrailingBytes(usize),
    /// A probe-trie node named a parent that is not an earlier node.
    BadParent {
        /// Index of the offending node.
        node: usize,
        /// The parent index it named.
        parent: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire frame truncated"),
            WireError::UnknownTag(tag) => write!(f, "unknown wire tag {tag:#04x}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after a wire frame"),
            WireError::BadParent { node, parent } => {
                write!(
                    f,
                    "probe-trie node {node} names parent {parent}, not an earlier node"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

const CALL_SUBMIT: u8 = 0;
const CALL_SET_TRACING: u8 = 1;
const CALL_TAKE_DEVICE_EVENTS: u8 = 2;
const CALL_SHUTDOWN: u8 = 3;

const REPLY_SUBMITTED: u8 = 0;
const REPLY_TRACING_SET: u8 = 1;
const REPLY_DEVICE_EVENTS: u8 = 2;
const REPLY_BYE: u8 = 3;

/// Encodes a call for the wire.
pub fn encode_call(call: &WireCall) -> Vec<u8> {
    let mut w = Writer::new();
    match call {
        WireCall::Submit(now_ms, batch) => {
            w.u8(CALL_SUBMIT);
            w.f64(*now_ms);
            w.seq(batch.requests(), Writer::request);
        }
        WireCall::SetTracing(enabled) => {
            w.u8(CALL_SET_TRACING);
            w.bool(*enabled);
        }
        WireCall::TakeDeviceEvents => w.u8(CALL_TAKE_DEVICE_EVENTS),
        WireCall::Shutdown => w.u8(CALL_SHUTDOWN),
    }
    w.0
}

/// Decodes a call off the wire.
pub fn decode_call(frame: &[u8]) -> Result<WireCall, WireError> {
    let mut r = Reader(frame);
    let call = match r.u8()? {
        CALL_SUBMIT => {
            let now_ms = r.f64()?;
            let mut batch = BackendBatch::new();
            for request in r.seq(Reader::request)? {
                batch.push(request);
            }
            WireCall::Submit(now_ms, batch)
        }
        CALL_SET_TRACING => WireCall::SetTracing(r.bool()?),
        CALL_TAKE_DEVICE_EVENTS => WireCall::TakeDeviceEvents,
        CALL_SHUTDOWN => WireCall::Shutdown,
        tag => return Err(WireError::UnknownTag(tag)),
    };
    r.finish(call)
}

/// Encodes a reply for the wire.
pub fn encode_reply(reply: &WireReply) -> Vec<u8> {
    let mut w = Writer::new();
    match reply {
        WireReply::Submitted(submitted) => {
            w.u8(REPLY_SUBMITTED);
            w.seq(&submitted.tickets, |w, ticket| w.u64(ticket.value()));
            w.seq(&submitted.completed, Writer::result);
            w.f64(submitted.device_free_ms);
            w.counters(&submitted.counters);
        }
        WireReply::TracingSet(enabled) => {
            w.u8(REPLY_TRACING_SET);
            w.bool(*enabled);
        }
        WireReply::DeviceEvents(events) => {
            w.u8(REPLY_DEVICE_EVENTS);
            w.seq(events, Writer::device_event);
        }
        WireReply::Bye => w.u8(REPLY_BYE),
    }
    w.0
}

/// Decodes a reply off the wire.
pub fn decode_reply(frame: &[u8]) -> Result<WireReply, WireError> {
    let mut r = Reader(frame);
    let reply = match r.u8()? {
        REPLY_SUBMITTED => WireReply::Submitted(Submitted {
            tickets: r.seq(|r| r.u64().map(Ticket::new))?,
            completed: r.seq(Reader::result)?,
            device_free_ms: r.f64()?,
            counters: r.counters()?,
        }),
        REPLY_TRACING_SET => WireReply::TracingSet(r.bool()?),
        REPLY_DEVICE_EVENTS => WireReply::DeviceEvents(r.seq(Reader::device_event)?),
        REPLY_BYE => WireReply::Bye,
        tag => return Err(WireError::UnknownTag(tag)),
    };
    r.finish(reply)
}

/// Appends little-endian fields to a frame.
struct Writer(Vec<u8>);

impl Writer {
    /// A submit or submitted frame of a typical wave is a few hundred
    /// bytes; starting at 1 KiB spares the encoder its reallocations.
    fn new() -> Self {
        Writer(Vec::with_capacity(1024))
    }

    fn u8(&mut self, v: u8) {
        self.0.push(v);
    }

    fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    fn u32(&mut self, v: u32) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.0.extend_from_slice(&v.to_le_bytes());
    }

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn token(&mut self, token: &TokenId) {
        self.u32(token.value());
    }

    fn seq<T>(&mut self, items: &[T], mut item: impl FnMut(&mut Self, &T)) {
        let len = u32::try_from(items.len()).expect("wire sequences hold fewer than 2^32 items");
        self.u32(len);
        for value in items {
            item(self, value);
        }
    }

    fn kind(&mut self, kind: ForwardKind) {
        self.bool(kind == ForwardKind::Verify);
    }

    fn audio(&mut self, audio: &UtteranceTokens) {
        self.u64(audio.id.value());
        self.seq(&audio.reference_tokens, Writer::token);
        self.seq(&audio.token_difficulties, |w, &d| w.f64(d));
        self.token(&audio.eos);
        self.token(&audio.bos);
        self.u32(audio.vocab_size);
        self.f64(audio.duration_seconds);
        self.usize(audio.prefill_tokens);
    }

    fn request(&mut self, request: &ForwardRequest) {
        self.audio(&request.audio);
        self.seq(&request.prefix, Writer::token);
        self.probes(&request.probes);
        self.usize(request.charge_tokens);
        self.kind(request.kind);
    }

    fn probes(&mut self, trie: &ProbeTrie) {
        let edges = trie.edges();
        self.u32(u32::try_from(edges.len()).expect("probe tries hold fewer than 2^32 nodes"));
        for (token, parent) in edges {
            self.token(&token);
            self.u32(parent as u32);
        }
    }

    fn logits(&mut self, logits: &TokenLogits) {
        self.seq(&logits.candidates, |w, candidate| {
            w.token(&candidate.token);
            w.f64(candidate.probability);
        });
    }

    fn result(&mut self, result: &ForwardResult) {
        self.u64(result.ticket.value());
        self.kind(result.kind);
        self.seq(&result.logits, Writer::logits);
        self.f64(result.submitted_ms);
        self.f64(result.started_ms);
        self.f64(result.completed_ms);
        self.usize(result.batch_requests);
    }

    fn counters(&mut self, c: &BackendCounters) {
        for v in [
            c.batches,
            c.requests,
            c.draft_requests,
            c.verify_requests,
            c.verify_batches,
            c.probes_scored,
            c.peak_in_flight,
        ] {
            self.usize(v);
        }
        self.f64(c.device_busy_ms);
        self.f64(c.device_idle_ms);
    }

    fn device_event(&mut self, event: &DeviceEvent) {
        self.u64(event.seq);
        self.f64(event.submitted_ms);
        self.f64(event.started_ms);
        self.f64(event.completed_ms);
        self.u64(event.requests);
        self.u64(event.charge_tokens);
        self.bool(event.verify);
    }
}

/// A cursor over a frame, reading the fields [`Writer`] appends.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self.0.split_first_chunk().ok_or(WireError::Truncated)?;
        self.0 = rest;
        Ok(*head)
    }

    fn finish<T>(self, value: T) -> Result<T, WireError> {
        match self.0.len() {
            0 => Ok(value),
            n => Err(WireError::TrailingBytes(n)),
        }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        self.take::<1>().map(|[v]| v)
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::UnknownTag(tag)),
        }
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        self.take().map(u32::from_le_bytes)
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        self.take().map(u64::from_le_bytes)
    }

    fn usize(&mut self) -> Result<usize, WireError> {
        // Frames are only exchanged between the two halves of one process,
        // so a value written from a `usize` always fits back in one.
        self.u64().map(|v| v as usize)
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        self.u64().map(f64::from_bits)
    }

    fn token(&mut self) -> Result<TokenId, WireError> {
        self.u32().map(TokenId::new)
    }

    /// Reads a `u32` length, then that many items.  Every item takes at
    /// least one byte, so a length beyond the bytes left is a truncated
    /// frame, caught before anything is allocated.
    fn seq<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let len = self.u32()? as usize;
        if len > self.0.len() {
            return Err(WireError::Truncated);
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(item(self)?);
        }
        Ok(items)
    }

    fn kind(&mut self) -> Result<ForwardKind, WireError> {
        Ok(if self.bool()? {
            ForwardKind::Verify
        } else {
            ForwardKind::DraftStep
        })
    }

    fn audio(&mut self) -> Result<UtteranceTokens, WireError> {
        Ok(UtteranceTokens {
            id: UtteranceId::new(self.u64()?),
            reference_tokens: self.seq(Reader::token)?,
            token_difficulties: self.seq(Reader::f64)?,
            eos: self.token()?,
            bos: self.token()?,
            vocab_size: self.u32()?,
            duration_seconds: self.f64()?,
            prefill_tokens: self.usize()?,
        })
    }

    fn request(&mut self) -> Result<ForwardRequest, WireError> {
        Ok(ForwardRequest {
            audio: Arc::new(self.audio()?),
            prefix: self.seq(Reader::token)?,
            probes: self.probes()?,
            charge_tokens: self.usize()?,
            kind: self.kind()?,
        })
    }

    /// Reads a probe trie, checking that every parent precedes its node
    /// (so scoring the decoded trie cannot index out of bounds).
    fn probes(&mut self) -> Result<ProbeTrie, WireError> {
        let len = self.u32()? as usize;
        if len > self.0.len() {
            return Err(WireError::Truncated);
        }
        let mut trie = ProbeTrie::new();
        for node in 1..=len {
            let token = self.token()?;
            let parent = self.u32()? as usize;
            if parent >= node {
                return Err(WireError::BadParent { node, parent });
            }
            trie.push(parent, token);
        }
        Ok(trie)
    }

    fn logits(&mut self) -> Result<TokenLogits, WireError> {
        let candidates = self.seq(|r| {
            Ok(Candidate {
                token: r.token()?,
                probability: r.f64()?,
            })
        })?;
        Ok(TokenLogits { candidates })
    }

    fn result(&mut self) -> Result<ForwardResult, WireError> {
        Ok(ForwardResult {
            ticket: Ticket::new(self.u64()?),
            kind: self.kind()?,
            logits: self.seq(Reader::logits)?,
            submitted_ms: self.f64()?,
            started_ms: self.f64()?,
            completed_ms: self.f64()?,
            batch_requests: self.usize()?,
        })
    }

    fn counters(&mut self) -> Result<BackendCounters, WireError> {
        Ok(BackendCounters {
            batches: self.usize()?,
            requests: self.usize()?,
            draft_requests: self.usize()?,
            verify_requests: self.usize()?,
            verify_batches: self.usize()?,
            probes_scored: self.usize()?,
            peak_in_flight: self.usize()?,
            device_busy_ms: self.f64()?,
            device_idle_ms: self.f64()?,
        })
    }

    fn device_event(&mut self) -> Result<DeviceEvent, WireError> {
        Ok(DeviceEvent {
            seq: self.u64()?,
            submitted_ms: self.f64()?,
            started_ms: self.f64()?,
            completed_ms: self.f64()?,
            requests: self.u64()?,
            charge_tokens: self.u64()?,
            verify: self.bool()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binding::TokenizerBinding;
    use specasr_audio::{Corpus, Split};

    fn audio() -> Arc<UtteranceTokens> {
        let corpus = Corpus::librispeech_like(5, 2);
        let binding = TokenizerBinding::for_corpus(&corpus);
        Arc::new(binding.bind(&corpus.split(Split::TestClean)[0]))
    }

    fn batch() -> BackendBatch {
        let mut batch = BackendBatch::new();
        batch.push(ForwardRequest::draft_step(audio(), vec![TokenId::new(3)]));
        batch.push(ForwardRequest::verify(
            audio(),
            vec![TokenId::new(1), TokenId::new(4)],
            ProbeTrie::chain(&[TokenId::new(9)]),
            6,
        ));
        batch.push(ForwardRequest::verify(audio(), Vec::new(), tree(), 4));
        batch
    }

    /// A branching trie: two chains under the root plus a side branch.
    fn tree() -> ProbeTrie {
        let mut trie = ProbeTrie::chain(&[TokenId::new(5), TokenId::new(6)]);
        trie.push(0, TokenId::new(7));
        trie.push(1, TokenId::new(8));
        trie
    }

    /// A verify submit over a trie of `nodes` nodes after the root.
    fn submit_of(nodes: usize) -> WireCall {
        let mut trie = ProbeTrie::new();
        for node in 1..=nodes {
            // Alternate chain steps and branches back towards the root.
            let parent = if node % 3 == 0 { node / 3 } else { node - 1 };
            trie.push(parent, TokenId::new(node as u32 * 11));
        }
        assert_eq!(trie.node_count(), nodes + 1);
        WireCall::Submit(
            2.5,
            BackendBatch::of(ForwardRequest::verify(
                audio(),
                vec![TokenId::new(2)],
                trie,
                9,
            )),
        )
    }

    fn result(ticket: u64) -> ForwardResult {
        ForwardResult {
            ticket: Ticket::new(ticket),
            kind: ForwardKind::Verify,
            logits: vec![TokenLogits::from_candidates(vec![
                (TokenId::new(2), 0.625),
                (TokenId::new(5), 0.25),
            ])],
            submitted_ms: 10.0,
            started_ms: 12.5,
            completed_ms: 31.25,
            batch_requests: 3,
        }
    }

    fn counters() -> BackendCounters {
        BackendCounters {
            batches: 4,
            requests: 9,
            draft_requests: 2,
            verify_requests: 7,
            verify_batches: 3,
            probes_scored: 21,
            peak_in_flight: 5,
            device_busy_ms: 123.5,
            device_idle_ms: 4.25,
        }
    }

    fn device_event(seq: u64) -> DeviceEvent {
        DeviceEvent {
            seq,
            submitted_ms: 10.0,
            started_ms: 12.5,
            completed_ms: 31.25,
            requests: 3,
            charge_tokens: 11,
            verify: true,
        }
    }

    fn calls() -> Vec<WireCall> {
        vec![
            WireCall::Submit(1234.5, batch()),
            WireCall::Submit(0.0, BackendBatch::new()),
            submit_of(0),
            submit_of(1),
            submit_of(24),
            WireCall::SetTracing(true),
            WireCall::SetTracing(false),
            WireCall::TakeDeviceEvents,
            WireCall::Shutdown,
        ]
    }

    fn replies() -> Vec<WireReply> {
        vec![
            WireReply::Submitted(Submitted {
                tickets: vec![Ticket::new(0), Ticket::new(1)],
                completed: vec![result(0), result(1)],
                device_free_ms: 99.5,
                counters: counters(),
            }),
            WireReply::Submitted(Submitted {
                tickets: Vec::new(),
                completed: Vec::new(),
                device_free_ms: 0.0,
                counters: BackendCounters::default(),
            }),
            WireReply::TracingSet(true),
            WireReply::TracingSet(false),
            WireReply::DeviceEvents(vec![device_event(2), device_event(3)]),
            WireReply::DeviceEvents(Vec::new()),
            WireReply::Bye,
        ]
    }

    #[test]
    fn every_call_variant_round_trips_identically() {
        for call in calls() {
            assert_eq!(decode_call(&encode_call(&call)), Ok(call));
        }
    }

    #[test]
    fn every_reply_variant_round_trips_identically() {
        for reply in replies() {
            assert_eq!(decode_reply(&encode_reply(&reply)), Ok(reply));
        }
    }

    #[test]
    fn probe_tries_round_trip_bit_exactly() {
        for nodes in [0, 1, 24] {
            let call = submit_of(nodes);
            let frame = encode_call(&call);
            let decoded = decode_call(&frame).expect("a valid submit frame");
            assert_eq!(decoded, call, "{nodes} nodes");
            assert_eq!(encode_call(&decoded), frame, "{nodes} nodes");
        }
        // The root costs four bytes (the node count), every further node
        // eight: O(k) per request.
        let root_only = encode_call(&submit_of(0)).len();
        assert_eq!(encode_call(&submit_of(24)).len(), root_only + 24 * 8);
    }

    #[test]
    fn a_parent_that_does_not_precede_its_node_is_a_typed_error() {
        let frame = encode_call(&submit_of(3));
        // The last node's parent index is the frame's final field before
        // the request's charge (u64) and kind (u8).
        let at = frame.len() - 1 - 8 - 4;
        assert_eq!(
            frame[at..at + 4],
            1u32.to_le_bytes(),
            "node 3 hangs off node 1"
        );
        for (parent, node) in [(3u32, 3usize), (4, 3), (u32::MAX, 3)] {
            let mut bad = frame.clone();
            bad[at..at + 4].copy_from_slice(&parent.to_le_bytes());
            assert_eq!(
                decode_call(&bad),
                Err(WireError::BadParent {
                    node,
                    parent: parent as usize
                })
            );
        }
        assert_eq!(
            WireError::BadParent { node: 3, parent: 3 }.to_string(),
            "probe-trie node 3 names parent 3, not an earlier node"
        );
    }

    #[test]
    fn wire_requests_rebuild_the_exact_in_process_request() {
        let sent = batch();
        let Ok(WireCall::Submit(_, received)) =
            decode_call(&encode_call(&WireCall::Submit(0.0, sent.clone())))
        else {
            panic!("a submit frame decodes to a submit");
        };
        assert_eq!(received, sent);
        for (a, b) in received.requests().iter().zip(sent.requests()) {
            assert_eq!(a.audio.prefill_tokens(), b.audio.prefill_tokens());
            assert!(
                !Arc::ptr_eq(&a.audio, &b.audio),
                "the context crossed by value"
            );
        }
    }

    #[test]
    fn u64_max_tickets_and_sequence_numbers_survive_the_wire() {
        // An f64-backed number representation rounds these above 2^53.
        for raw in [u64::MAX, u64::MAX - 1, (1 << 53) + 1] {
            let reply = WireReply::Submitted(Submitted {
                tickets: vec![Ticket::new(raw)],
                completed: vec![result(raw)],
                device_free_ms: 1.0,
                counters: counters(),
            });
            assert_eq!(decode_reply(&encode_reply(&reply)), Ok(reply));
            let events = WireReply::DeviceEvents(vec![device_event(raw)]);
            assert_eq!(decode_reply(&encode_reply(&events)), Ok(events));
        }
    }

    #[test]
    fn every_f64_field_round_trips_bit_for_bit() {
        let edges = [
            -0.0,
            f64::from_bits(1),                      // smallest subnormal
            f64::MIN_POSITIVE / 3.0,                // another subnormal
            -f64::from_bits(0x000f_ffff_ffff_ffff), // largest negative subnormal
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(0x7ff8_0000_dead_beef), // quiet NaN with a payload
            f64::from_bits(0xfff0_0000_0000_0001), // negative signalling NaN
        ];
        for v in edges {
            let mut batch = BackendBatch::new();
            let mut audio = (*audio()).clone();
            audio.duration_seconds = v;
            audio.token_difficulties.iter_mut().for_each(|d| *d = v);
            batch.push(ForwardRequest::draft_step(Arc::new(audio), Vec::new()));
            let call = encode_call(&WireCall::Submit(v, batch));
            let Ok(WireCall::Submit(now_ms, decoded)) = decode_call(&call) else {
                panic!("a submit frame decodes to a submit");
            };
            let audio = &decoded.requests()[0].audio;
            let mut bits = vec![now_ms.to_bits(), audio.duration_seconds().to_bits()];
            bits.extend(audio.token_difficulties().iter().map(|d| d.to_bits()));
            assert_eq!(
                encode_call(&WireCall::Submit(now_ms, decoded.clone())),
                call
            );

            let mut result = result(7);
            result.logits[0].candidates[1].probability = v;
            (result.submitted_ms, result.started_ms, result.completed_ms) = (v, v, v);
            let mut counters = counters();
            (counters.device_busy_ms, counters.device_idle_ms) = (v, v);
            let reply = encode_reply(&WireReply::Submitted(Submitted {
                tickets: vec![result.ticket],
                completed: vec![result],
                device_free_ms: v,
                counters,
            }));
            let Ok(WireReply::Submitted(decoded)) = decode_reply(&reply) else {
                panic!("a submitted frame decodes to a submitted reply");
            };
            let result = &decoded.completed[0];
            bits.extend([
                result.logits[0].candidates[1].probability.to_bits(),
                result.submitted_ms.to_bits(),
                result.started_ms.to_bits(),
                result.completed_ms.to_bits(),
                decoded.device_free_ms.to_bits(),
                decoded.counters.device_busy_ms.to_bits(),
                decoded.counters.device_idle_ms.to_bits(),
            ]);
            assert_eq!(encode_reply(&WireReply::Submitted(decoded)), reply);

            let event = DeviceEvent {
                submitted_ms: v,
                started_ms: v,
                completed_ms: v,
                ..device_event(0)
            };
            let Ok(WireReply::DeviceEvents(events)) =
                decode_reply(&encode_reply(&WireReply::DeviceEvents(vec![event])))
            else {
                panic!("a device-events frame decodes to device events");
            };
            bits.extend([
                events[0].submitted_ms.to_bits(),
                events[0].started_ms.to_bits(),
                events[0].completed_ms.to_bits(),
            ]);
            assert!(
                bits.iter().all(|&b| b == v.to_bits()),
                "{v:?} ({:#018x}) lost bits on the wire: {bits:x?}",
                v.to_bits()
            );
        }
    }

    #[test]
    fn every_strict_prefix_of_a_valid_frame_is_truncated() {
        let calls = calls()
            .iter()
            .map(|call| (encode_call(call), true))
            .collect::<Vec<_>>();
        let replies = replies()
            .iter()
            .map(|reply| (encode_reply(reply), false))
            .collect();
        let frames = [calls, replies].concat();
        for (frame, is_call) in frames {
            for len in 0..frame.len() {
                let prefix = &frame[..len];
                let err = if is_call {
                    decode_call(prefix).err()
                } else {
                    decode_reply(prefix).err()
                };
                assert_eq!(
                    err,
                    Some(WireError::Truncated),
                    "prefix {len}/{}",
                    frame.len()
                );
            }
        }
    }

    #[test]
    fn unknown_tags_and_trailing_bytes_are_typed_errors() {
        assert_eq!(decode_call(&[0xee]), Err(WireError::UnknownTag(0xee)));
        assert_eq!(decode_reply(&[0xee]), Err(WireError::UnknownTag(0xee)));
        assert_eq!(
            decode_call(&[CALL_SET_TRACING, 2]),
            Err(WireError::UnknownTag(2)),
            "flags are 0 or 1"
        );
        let mut frame = encode_call(&WireCall::Shutdown);
        frame.extend([0, 0, 0]);
        assert_eq!(decode_call(&frame), Err(WireError::TrailingBytes(3)));
        let mut frame = encode_reply(&WireReply::Bye);
        frame.push(0);
        assert_eq!(decode_reply(&frame), Err(WireError::TrailingBytes(1)));
        // A length beyond the bytes left is caught before allocating.
        let mut frame = vec![REPLY_DEVICE_EVENTS];
        frame.extend(u32::MAX.to_le_bytes());
        assert_eq!(decode_reply(&frame), Err(WireError::Truncated));
        assert_eq!(
            WireError::UnknownTag(0xee).to_string(),
            "unknown wire tag 0xee"
        );
    }
}
