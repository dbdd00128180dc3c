//! The four workloads, their seeded inputs, and the open-loop driver.
//!
//! Every workload is an open loop: arrival times come from the seeded
//! `LoadGen`, and the benchmark itself submits each request at its due time
//! through the public front end (`Router`, `Scheduler` or
//! `FleetController`).  The driver records the due time and the instant the
//! submission was stamped, so latencies are measured from when a request was
//! *due*, not from when the server got round to taking it.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use specasr::{AdaptiveConfig, Drafter, DrafterKind, Policy};
use specasr_audio::{Corpus, EncoderProfile, Split, Utterance};
use specasr_fleet::{FleetConfig, FleetController};
use specasr_models::{
    splitmix64, AsrDecoderModel, CtcDrafter, ModelProfile, SimulatedAsrModel, TokenizerBinding,
};
use specasr_server::{
    FlightRecording, LoadGen, MetricsRegistry, RequestId, RequestOutcome, Router, RouterConfig,
    Scheduler, ServerConfig, ServerStats, StreamConfig, SubmitError, TraceConfig, WorkerId,
};
use specasr_tokenizer::TokenId;

use crate::calibrate::Segmented;
use crate::probe::{Probes, TimedDrafter, TimedModel};

/// Seed of the simulated model pair.  The models are the system under test,
/// so they stay fixed; the workload seed only changes the inputs.
const MODEL_SEED: u64 = specasr_bench::EXPERIMENT_SEED;

/// Time-to-first-token budget of `SloClass::Interactive`, the SLO every
/// workload is scored against.
pub const SLO_TTFT_MS: f64 = 500.0;

/// Queue depth of every worker: deep enough that the open loop never sees
/// backpressure at the rates the benchmark offers (a rejection would count
/// as an error).
const QUEUE_DEPTH: usize = 1 << 16;

/// Ring capacity of the traced pass: large enough that no event is dropped,
/// which the exact critical-path reconciliation requires.
const TRACE_CAPACITY: usize = 1 << 26;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// ASP with model drafts on two pipelined in-process workers.
    OpenAsp,
    /// One worker, target behind the RPC wire, CTC-encoder drafts, depth 1.
    RpcCtc,
    /// Chunked streams on one scheduler.
    StreamChunked,
    /// An autoscaled fleet under a burst with a quiet tail.
    BurstElastic,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::OpenAsp,
        Kind::RpcCtc,
        Kind::StreamChunked,
        Kind::BurstElastic,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::OpenAsp => "open-asp",
            Kind::RpcCtc => "rpc-ctc",
            Kind::StreamChunked => "stream-chunked",
            Kind::BurstElastic => "burst-elastic",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|kind| kind.name() == name)
    }

    /// Requests offered per pass (the reported phase).  At least 1000, so
    /// the p99 has at least ten samples beyond it.
    pub fn requests(self) -> usize {
        match self {
            Kind::OpenAsp => 8_000,
            Kind::RpcCtc => 4_000,
            Kind::StreamChunked => 4_000,
            Kind::BurstElastic => 10_000,
        }
    }

    /// The operating rate of the end-to-end pass, in requests per second
    /// (for `burst-elastic`, the burst rate).
    pub fn rate_qps(self) -> f64 {
        match self {
            Kind::OpenAsp => 40.0,
            Kind::RpcCtc => 12.0,
            Kind::StreamChunked => 5.0,
            Kind::BurstElastic => 60.0,
        }
    }

    /// The fixed rate ladder `max_qps_at_slo` searches: `(lowest rate,
    /// geometric step, rungs)`.
    pub fn ladder(self) -> (f64, f64, usize) {
        match self {
            Kind::OpenAsp => (10.0, 1.015, 160),
            Kind::RpcCtc => (5.0, 1.015, 160),
            Kind::StreamChunked => (2.0, 1.015, 128),
            Kind::BurstElastic => (10.0, 1.015, 160),
        }
    }

    /// Share of requests sent that must meet the SLO on a passing ladder
    /// rung.  A burst on a one-worker fleet makes a roughly fixed share of
    /// requests wait out the scale-up at every rate, so for `burst-elastic`
    /// the question is where the scaled-out fleet saturates.
    pub fn slo_target(self) -> f64 {
        match self {
            Kind::BurstElastic => 0.95,
            _ => 0.99,
        }
    }

    /// Whether the workload's target sits behind the RPC wire, so an
    /// in-process twin can serve the same traffic for comparison.
    pub fn has_twin(self) -> bool {
        self == Kind::RpcCtc
    }
}

/// Utterances per corpus split (four splits make the pool).
const UTTERANCES_PER_SPLIT: usize = 800;

/// Base chunk cadence of the streaming workload, and its ±spread.
const CHUNK_SECONDS: f64 = 0.6;
const CADENCE_SPREAD: f64 = 0.25;

/// Requests of `burst-elastic` that arrive in the quiet tail after the
/// burst, and the tail's rate: low enough that the controller drains workers
/// while sessions are still live, so migrations happen.
const TAIL_REQUESTS: usize = 60;
const TAIL_QPS: f64 = 10.0;

/// Idle time the fleet is advanced through after the last completion, so the
/// controller scales back to one worker and reaps the drained ones.
const QUIET_TAIL_MS: f64 = 5_000.0;

/// Per-worker KV budget of `burst-elastic`: tight enough that preemption
/// and restore occur under the burst, large enough that every request fits.
const BURST_KV_BLOCKS: usize = 40;

/// One utterance's greedy-target reference transcript.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Token ids (EOS excluded).
    pub tokens: Vec<TokenId>,
    /// Rendered text.
    pub text: String,
}

/// Everything a workload needs that is built before serving starts.
pub struct Inputs {
    /// The workload.
    pub kind: Kind,
    /// The seed the inputs were generated from.
    pub seed: u64,
    /// The utterance pool requests draw from.
    pub pool: Vec<Utterance>,
    /// Tokenizer binding trained on the corpus.
    pub binding: TokenizerBinding,
    /// Greedy-target reference transcript per pool entry.
    pub references: Vec<Reference>,
    /// Pool index of each request.
    pub picks: Vec<usize>,
    /// Chunk cadence of each request (streams only).
    pub cadences: Vec<f64>,
    /// The draft model.
    pub draft: SimulatedAsrModel,
    /// The target model.
    pub target: SimulatedAsrModel,
    /// The CTC-encoder drafter (`rpc-ctc` only).
    pub ctc: Option<Arc<CtcDrafter>>,
}

impl Inputs {
    /// Generates the corpus and request mix from `seed`, binds the corpus,
    /// and decodes every pool utterance greedily with the target model
    /// (the correctness oracle).
    pub fn generate(kind: Kind, seed: u64) -> Inputs {
        let corpus = Corpus::librispeech_like(seed, UTTERANCES_PER_SPLIT);
        let binding = TokenizerBinding::for_corpus(&corpus);
        let pool: Vec<Utterance> = Split::ALL
            .iter()
            .flat_map(|&split| corpus.split(split).iter().cloned())
            .collect();
        let target =
            SimulatedAsrModel::target(ModelProfile::whisper_medium_en(), MODEL_SEED ^ 0x71);
        let draft = SimulatedAsrModel::draft_paired(
            ModelProfile::whisper_tiny_en(),
            MODEL_SEED ^ 0x72,
            &target,
        );
        let references = pool
            .iter()
            .map(|utterance| {
                let tokens = target.greedy_transcript(&binding.bind(utterance));
                let text = binding
                    .tokenizer()
                    .decode(&tokens)
                    .expect("greedy tokens come from the shared vocabulary");
                Reference { tokens, text }
            })
            .collect();
        let requests = kind.requests();
        let picks = (0..requests as u64)
            .map(|index| {
                let draw = splitmix64(splitmix64(seed ^ 0x9e37_79b9).wrapping_add(index));
                (draw % pool.len() as u64) as usize
            })
            .collect();
        let mut cadence_gen = LoadGen::new(seed ^ 0x00ca_dece, 1.0);
        let cadences = (0..requests)
            .map(|_| cadence_gen.next_chunk_seconds(CHUNK_SECONDS, CADENCE_SPREAD))
            .collect();
        let ctc = (kind == Kind::RpcCtc).then(|| Arc::new(CtcDrafter::paired(&target)));
        Inputs {
            kind,
            seed,
            pool,
            binding,
            references,
            picks,
            cadences,
            draft,
            target,
            ctc,
        }
    }

    /// Due times of every request at offered rate `qps` (for
    /// `burst-elastic`, the burst rate; its quiet tail keeps a fixed rate).
    pub fn due_times(&self, qps: f64) -> Vec<f64> {
        let requests = self.kind.requests();
        if self.kind != Kind::BurstElastic {
            return LoadGen::new(self.seed, qps).arrivals_ms(requests);
        }
        let mut due = LoadGen::new(self.seed, qps).arrivals_ms(requests - TAIL_REQUESTS);
        let start = *due.last().expect("the burst is not empty");
        let mut tail_gen = LoadGen::new(self.seed ^ 0x7a11, TAIL_QPS);
        due.extend((0..TAIL_REQUESTS).map(|_| start + tail_gen.next_arrival_ms()));
        due
    }

    /// Builds the serving front end.  `probes` installs the timing
    /// wrappers; `trace` arms the flight recorder; `twin` keeps the
    /// `rpc-ctc` target in process.
    pub fn front(&self, probes: Option<&Probes>, trace: bool, twin: bool) -> Box<dyn Front + '_> {
        let (draft, target) = (self.draft.clone(), self.target.clone());
        match probes {
            None => self.front_with(move || (draft.clone(), target.clone()), None, trace, twin),
            Some(probes) => {
                let (draft_meter, target_meter) = (probes.draft.clone(), probes.target.clone());
                self.front_with(
                    move || {
                        (
                            TimedModel::new(draft.clone(), draft_meter.clone()),
                            TimedModel::new(target.clone(), target_meter.clone()),
                        )
                    },
                    Some(probes),
                    trace,
                    twin,
                )
            }
        }
    }

    fn front_with<M>(
        &self,
        models: impl Fn() -> (M, M) + 'static,
        probes: Option<&Probes>,
        trace: bool,
        twin: bool,
    ) -> Box<dyn Front + '_>
    where
        M: AsrDecoderModel + Send + 'static,
    {
        let policy = Policy::AdaptiveSingleSequence(AdaptiveConfig::paper());
        let encoder = EncoderProfile::whisper_medium_encoder();
        let base = ServerConfig::default().with_queue_depth(QUEUE_DEPTH);
        let trace_config = if trace {
            TraceConfig::enabled().with_capacity(TRACE_CAPACITY)
        } else {
            TraceConfig::disabled()
        };
        match self.kind {
            Kind::OpenAsp => {
                let config = RouterConfig::default()
                    .with_workers(2)
                    .with_worker_config(base.with_max_in_flight_waves(4));
                let mut router = Router::new(config, self.binding.clone(), encoder, |_| models());
                router.set_trace(trace_config);
                Box::new(RouterFront {
                    router,
                    policy,
                    drafter: DrafterKind::ModelDraft,
                })
            }
            Kind::RpcCtc => {
                let config = RouterConfig::default()
                    .with_workers(1)
                    .with_rpc_backend(!twin)
                    .with_worker_config(base);
                let mut router = Router::new(config, self.binding.clone(), encoder, |_| models());
                let ctc: Arc<dyn Drafter + Send + Sync> =
                    self.ctc.clone().expect("rpc-ctc builds its CTC drafter");
                let drafter: Arc<dyn Drafter + Send + Sync> = match probes {
                    Some(probes) => Arc::new(TimedDrafter::new(ctc, probes.drafter.clone())),
                    None => ctc,
                };
                router.install_drafter(drafter);
                router.set_trace(trace_config);
                Box::new(RouterFront {
                    router,
                    policy,
                    drafter: DrafterKind::CtcEncoder,
                })
            }
            Kind::StreamChunked => {
                let (draft, target) = models();
                let config = base.with_max_batch(8).with_max_in_flight_waves(4);
                let mut scheduler =
                    Scheduler::new(draft, target, self.binding.clone(), encoder, config);
                scheduler.set_trace(trace_config);
                Box::new(StreamFront {
                    scheduler,
                    policy,
                    stream: StreamConfig::default().with_seed(self.seed),
                    cadences: &self.cadences,
                })
            }
            Kind::BurstElastic => {
                let config = RouterConfig::default()
                    .with_workers(1)
                    .with_worker_config(base.with_kv_blocks(BURST_KV_BLOCKS));
                let mut router = Router::new(config, self.binding.clone(), encoder, |_| models());
                router.set_trace(trace_config);
                let control = FleetConfig::default()
                    .with_worker_bounds(1, 4)
                    .with_evaluate_every_ms(100.0)
                    .with_hysteresis(2, 6)
                    .with_queue_target(4.0);
                let factory: Box<dyn FnMut(WorkerId) -> (M, M)> = Box::new(move |_| models());
                Box::new(FleetFront {
                    fleet: FleetController::new(router, control, factory),
                    policy,
                    workers_peak: 1,
                })
            }
        }
    }
}

/// Fleet-shape counters a front end exposes besides `ServerStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Shape {
    /// Requests moved between workers by stealing.
    pub stolen: usize,
    /// Control-loop evaluations.
    pub evaluations: usize,
    /// Scale-up decisions.
    pub scale_ups: usize,
    /// Scale-down decisions.
    pub scale_downs: usize,
    /// Most active workers seen at any call boundary.
    pub workers_peak: usize,
}

/// The public serving entry points one workload drives.
pub trait Front {
    /// The clock a submission made now is stamped with.
    fn clock_ms(&self) -> f64;
    /// Serves up to `ms`, returning what completed.
    fn advance_to(&mut self, ms: f64) -> Vec<RequestOutcome>;
    /// Submits request `index` for `utterance`.
    fn submit(&mut self, utterance: &Utterance, index: usize) -> Result<RequestId, SubmitError>;
    /// Serves until idle (and through the quiet tail, where there is one).
    fn drain(&mut self) -> Vec<RequestOutcome>;
    /// Aggregate statistics.
    fn stats(&self) -> ServerStats;
    /// Renders the metrics exposition.
    fn render_metrics(&self) -> String;
    /// Takes the flight recordings, one per lane.
    fn take_recordings(&mut self) -> Vec<(String, FlightRecording)>;
    /// Fleet-shape counters.
    fn shape(&self) -> Shape;
}

struct RouterFront<M> {
    router: Router<M, M>,
    policy: Policy,
    drafter: DrafterKind,
}

impl<M: AsrDecoderModel + Send + 'static> Front for RouterFront<M> {
    fn clock_ms(&self) -> f64 {
        self.router.now_ms()
    }

    fn advance_to(&mut self, ms: f64) -> Vec<RequestOutcome> {
        self.router.advance_to(ms)
    }

    fn submit(&mut self, utterance: &Utterance, _: usize) -> Result<RequestId, SubmitError> {
        self.router
            .submit_with_drafter(self.policy, self.drafter, utterance)
    }

    fn drain(&mut self) -> Vec<RequestOutcome> {
        self.router.run_until_idle()
    }

    fn stats(&self) -> ServerStats {
        self.router.fleet_stats()
    }

    fn render_metrics(&self) -> String {
        self.router.fleet_metrics().render()
    }

    fn take_recordings(&mut self) -> Vec<(String, FlightRecording)> {
        self.router.take_recordings()
    }

    fn shape(&self) -> Shape {
        Shape {
            stolen: self.router.stolen(),
            workers_peak: self.router.active_workers(),
            ..Shape::default()
        }
    }
}

struct StreamFront<'a, M> {
    scheduler: Scheduler<M, M>,
    policy: Policy,
    stream: StreamConfig,
    cadences: &'a [f64],
}

impl<M: AsrDecoderModel> Front for StreamFront<'_, M> {
    fn clock_ms(&self) -> f64 {
        self.scheduler.wall_ms()
    }

    fn advance_to(&mut self, ms: f64) -> Vec<RequestOutcome> {
        self.scheduler.advance_to(ms)
    }

    fn submit(&mut self, utterance: &Utterance, index: usize) -> Result<RequestId, SubmitError> {
        let stream = self.stream.with_chunk_seconds(self.cadences[index]);
        self.scheduler
            .submit_streaming(self.policy, utterance, stream)
    }

    fn drain(&mut self) -> Vec<RequestOutcome> {
        self.scheduler.run_until_idle()
    }

    fn stats(&self) -> ServerStats {
        self.scheduler.stats().clone()
    }

    fn render_metrics(&self) -> String {
        self.scheduler.stats().metrics_text()
    }

    fn take_recordings(&mut self) -> Vec<(String, FlightRecording)> {
        self.scheduler
            .take_trace_recording()
            .map(|recording| vec![("scheduler".to_string(), recording)])
            .unwrap_or_default()
    }

    fn shape(&self) -> Shape {
        Shape {
            workers_peak: 1,
            ..Shape::default()
        }
    }
}

type Factory<M> = Box<dyn FnMut(WorkerId) -> (M, M)>;

struct FleetFront<M> {
    fleet: FleetController<M, M, Factory<M>>,
    policy: Policy,
    workers_peak: usize,
}

impl<M> FleetFront<M>
where
    M: AsrDecoderModel + Send + 'static,
{
    fn observe(&mut self) {
        self.workers_peak = self.workers_peak.max(self.fleet.router().active_workers());
    }
}

impl<M: AsrDecoderModel + Send + 'static> Front for FleetFront<M> {
    fn clock_ms(&self) -> f64 {
        self.fleet.router().now_ms()
    }

    fn advance_to(&mut self, ms: f64) -> Vec<RequestOutcome> {
        let outcomes = self.fleet.advance_to(ms);
        self.observe();
        outcomes
    }

    fn submit(&mut self, utterance: &Utterance, _: usize) -> Result<RequestId, SubmitError> {
        self.fleet.submit(self.policy, utterance)
    }

    fn drain(&mut self) -> Vec<RequestOutcome> {
        let mut outcomes = self.fleet.run_until_idle();
        self.observe();
        let quiet_until = self.fleet.router().now_ms() + QUIET_TAIL_MS;
        outcomes.extend(self.fleet.advance_to(quiet_until));
        outcomes
    }

    fn stats(&self) -> ServerStats {
        self.fleet.router().fleet_stats()
    }

    fn render_metrics(&self) -> String {
        let mut registry = MetricsRegistry::new();
        self.fleet.publish_metrics(&mut registry);
        registry.render()
    }

    fn take_recordings(&mut self) -> Vec<(String, FlightRecording)> {
        self.fleet.router_mut().take_recordings()
    }

    fn shape(&self) -> Shape {
        let counters = self.fleet.counters();
        Shape {
            stolen: self.fleet.router().stolen(),
            evaluations: counters.evaluations,
            scale_ups: counters.scale_ups,
            scale_downs: counters.scale_downs,
            workers_peak: self.workers_peak,
        }
    }
}

/// One request as the driver sent it.
#[derive(Debug, Clone, Copy)]
pub struct Sent {
    /// Index into the request mix.
    pub index: usize,
    /// When the open loop said it was due.
    pub due_ms: f64,
    /// The clock the submission was stamped with (≥ due).
    pub stamp_ms: f64,
}

/// One completed request, reduced to what the metrics need.
#[derive(Debug, Clone, PartialEq)]
pub struct Done {
    /// The request id.
    pub id: u64,
    /// Index into the request mix.
    pub index: usize,
    /// Due → first committed token (first partial for streams).
    pub ttft_ms: f64,
    /// Due → final transcript.
    pub e2e_ms: f64,
    /// Stamp − due.
    pub late_ms: f64,
    /// Completion instant on the modeled clock.
    pub done_ms: f64,
    /// Modeled encoder component.
    pub encoder_ms: f64,
    /// Whether the SLO was met (streams: first partial within the budget of
    /// its audio arriving).
    pub slo_met: bool,
    /// Whether text and tokens equal the greedy-target reference.
    pub correct: bool,
    /// Chunk-arrival → emission span of every partial (streams only).
    pub partial_spans: Vec<f64>,
}

/// What one open-loop pass produced.
pub struct Pass {
    /// Every request sent, by request id.
    pub sent: HashMap<u64, Sent>,
    /// Due time of every request in the mix.
    pub due: Vec<f64>,
    /// Submissions the front end refused.
    pub rejected: usize,
    /// Completions, in completion order.
    pub done: Vec<Done>,
    /// Host time inside `submit`.
    pub submit_us: f64,
    /// Host time inside `advance_to` and the final drain.
    pub advance_us: f64,
    /// Aggregate statistics after the drain.
    pub stats: ServerStats,
    /// Fleet-shape counters after the drain.
    pub shape: Shape,
}

impl Pass {
    /// Requests sent (accepted or refused).
    pub fn attempted(&self) -> usize {
        self.due.len()
    }

    /// Requests lost: sent, accepted, and never completed.
    pub fn lost(&self) -> usize {
        self.sent.len() - self.done.len()
    }

    /// Completions whose transcript differs from the reference.
    pub fn wrong(&self) -> usize {
        self.done.iter().filter(|done| !done.correct).count()
    }

    /// Rejected + lost + wrong.
    pub fn errors(&self) -> usize {
        self.rejected + self.lost() + self.wrong()
    }

    /// Host time per completed request.
    pub fn host_us_per_req(&self) -> f64 {
        (self.submit_us + self.advance_us) / self.done.len().max(1) as f64
    }

    /// Share of requests sent that completed correctly within the SLO.
    pub fn slo_attainment(&self) -> f64 {
        let met = self
            .done
            .iter()
            .filter(|done| done.slo_met && done.correct)
            .count();
        met as f64 / self.attempted() as f64
    }

    /// Completed utterances per modeled second, from the first due time to
    /// the last completion.
    pub fn throughput_utps(&self) -> f64 {
        let first = self.due.first().copied().unwrap_or(0.0);
        let last = self.done.iter().map(|d| d.done_ms).fold(first, f64::max);
        if last <= first {
            return 0.0;
        }
        self.done.len() as f64 * 1_000.0 / (last - first)
    }

    /// Whether completions kept pace with arrivals: the mean e2e of the
    /// last third of requests (in arrival order) is at most `growth` times
    /// that of the first third.  A growing backlog makes later requests
    /// wait ever longer; a stable queue does not.
    pub fn kept_pace(&self, growth: f64) -> bool {
        let mut by_arrival: Vec<(usize, f64)> =
            self.done.iter().map(|d| (d.index, d.e2e_ms)).collect();
        by_arrival.sort_by_key(|&(index, _)| index);
        let third = by_arrival.len() / 3;
        if third == 0 {
            return false;
        }
        let mean = |part: &[(usize, f64)]| {
            part.iter().map(|(_, e2e)| e2e).sum::<f64>() / part.len() as f64
        };
        mean(&by_arrival[by_arrival.len() - third..]) <= growth * mean(&by_arrival[..third])
    }

    /// A digest of every modeled per-request result, for exact
    /// run-to-run comparison.
    pub fn fingerprint(&self) -> Vec<(u64, u64, u64, bool)> {
        let mut prints: Vec<(u64, u64, u64, bool)> = self
            .done
            .iter()
            .map(|d| (d.id, d.ttft_ms.to_bits(), d.e2e_ms.to_bits(), d.correct))
            .collect();
        prints.sort_unstable();
        prints
    }
}

/// Plays the request mix at `qps` against `front`, timing every call into
/// it (and counting that time into `clock`, when given), and checks each
/// completion against the reference.
pub fn drive(
    front: &mut dyn Front,
    inputs: &Inputs,
    qps: f64,
    mut clock: Option<&mut Segmented>,
) -> Pass {
    let due = inputs.due_times(qps);
    let mut sent = HashMap::with_capacity(due.len());
    let mut done = Vec::with_capacity(due.len());
    let mut rejected = 0;
    let mut submit_ns = 0u128;
    let mut advance_ns = 0u128;
    for (index, &due_ms) in due.iter().enumerate() {
        let start = Instant::now();
        let outcomes = front.advance_to(due_ms);
        let ns = start.elapsed().as_nanos();
        advance_ns += ns;
        if let Some(clock) = clock.as_deref_mut() {
            clock.add(ns);
        }
        collect(inputs, &sent, outcomes, &mut done);
        let stamp_ms = front.clock_ms();
        let utterance = &inputs.pool[inputs.picks[index]];
        let start = Instant::now();
        let submitted = front.submit(utterance, index);
        let ns = start.elapsed().as_nanos();
        submit_ns += ns;
        if let Some(clock) = clock.as_deref_mut() {
            clock.add(ns);
        }
        match submitted {
            Ok(id) => {
                sent.insert(
                    id.value(),
                    Sent {
                        index,
                        due_ms,
                        stamp_ms,
                    },
                );
            }
            Err(_) => rejected += 1,
        }
    }
    let start = Instant::now();
    let outcomes = front.drain();
    let ns = start.elapsed().as_nanos();
    advance_ns += ns;
    if let Some(clock) = clock {
        clock.add(ns);
    }
    collect(inputs, &sent, outcomes, &mut done);
    Pass {
        sent,
        due,
        rejected,
        done,
        submit_us: submit_ns as f64 / 1_000.0,
        advance_us: advance_ns as f64 / 1_000.0,
        stats: front.stats(),
        shape: front.shape(),
    }
}

fn collect(
    inputs: &Inputs,
    sent: &HashMap<u64, Sent>,
    outcomes: Vec<RequestOutcome>,
    done: &mut Vec<Done>,
) {
    for outcome in outcomes {
        let id = outcome.id.value();
        let request = sent[&id];
        let reference = &inputs.references[inputs.picks[request.index]];
        let late_ms = request.stamp_ms - request.due_ms;
        let ttft_ms = late_ms + outcome.latency.time_to_first_token_ms;
        let slo_met = match outcome.partials.first() {
            // A stream cannot answer before its audio arrives: it is held
            // to the budget from the arrival of the audio its first partial
            // heard (counting the generator's lateness).
            Some(first) => late_ms + first.span_ms() <= SLO_TTFT_MS,
            None => ttft_ms <= SLO_TTFT_MS,
        };
        done.push(Done {
            id,
            index: request.index,
            ttft_ms,
            e2e_ms: late_ms + outcome.e2e_ms(),
            late_ms,
            done_ms: request.stamp_ms + outcome.e2e_ms(),
            encoder_ms: outcome.latency.encoder_ms,
            slo_met,
            correct: outcome.text == reference.text && outcome.outcome.tokens == reference.tokens,
            partial_spans: outcome.partials.iter().map(|p| p.span_ms()).collect(),
        });
    }
}
