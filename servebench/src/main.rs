//! `servebench` — the two-clock serving benchmark.
//!
//! ```text
//! servebench --workload <open-asp|rpc-ctc|stream-chunked|burst-elastic>
//!            [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! ```
//!
//! One run sets the workload up (several times, to time set-up), plays its
//! seeded open-loop request mix against the public serving API, checks every
//! transcript against greedy target decoding, and repeats the pass until
//! `--seconds` have elapsed.
//!
//! * `--trace 0` reports the end-to-end metrics, measured with tracing off.
//! * `--trace 1` reports the per-layer metrics: the models and drafters are
//!   wrapped in timers, the flight recorder is on, and the critical-path
//!   analysis of `specasr_trace::analysis` attributes the modeled latency.
//!
//! Every metric is printed with its unit, clock and sample count; the last
//! line of standard output is the JSON result.  The process exits non-zero
//! when any check fails.  `METRICS.md` beside this crate documents every
//! metric.

mod calibrate;
mod probe;
mod report;
mod workload;

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use specasr_trace::analysis::analyze_lanes;

use crate::calibrate::{calibrated, pin_to_one_cpu, Segmented, SEGMENT_US};
use crate::probe::Probes;
use crate::report::{mean, median, percentile, Clock, Report};
use crate::workload::{drive, Front, Inputs, Kind, Pass};

/// End-to-end metrics (`--trace 0`), as declared in `BENCHMARK.json`.
const END_TO_END: [(&str, &str); 9] = [
    ("ttft_p50_ms", "ms"),
    ("ttft_p99_ms", "ms"),
    ("e2e_p50_ms", "ms"),
    ("e2e_p99_ms", "ms"),
    ("throughput_utps", "utt/s"),
    ("max_qps_at_slo", "req/s"),
    ("host_us_per_req", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), as declared in `BENCHMARK.json`.
const PER_LAYER: [(&str, &str); 54] = [
    ("audio.encoder_ms", "ms"),
    ("tokenizer.bind_us_per_req", "us"),
    ("models.draft.calls", "calls/req"),
    ("models.draft.us_per_req", "us"),
    ("models.target.calls", "calls/req"),
    ("models.target.us_per_req", "us"),
    ("models.rpc.overhead_us_per_req", "us"),
    ("models.device_busy_ms", "ms"),
    ("models.device_idle_ms", "ms"),
    ("core.drafter.calls", "calls/req"),
    ("core.drafter.us_per_req", "us"),
    ("core.drafted_tokens", "count"),
    ("core.accepted_tokens", "count"),
    ("core.acceptance", "ratio"),
    ("core.rejected_draft_ms", "ms"),
    ("core.probe_overhead_ms", "ms"),
    ("runtime.kv.peak_blocks", "blocks"),
    ("runtime.kv.avg_blocks", "blocks"),
    ("runtime.kv.prefix_lookups", "count"),
    ("runtime.kv.prefix_hit_rate", "ratio"),
    ("runtime.kv.preemptions", "count"),
    ("runtime.kv.cow_copies", "count"),
    ("server.submit_us_per_req", "us"),
    ("server.advance_us_per_req", "us"),
    ("server.self_us_per_req", "us"),
    ("server.ticks", "count"),
    ("server.batch_occupancy", "ratio"),
    ("server.in_flight_depth", "waves"),
    ("server.stolen", "count"),
    ("server.cp.queue_wait_ms", "ms"),
    ("server.cp.preemption_penalty_ms", "ms"),
    ("server.cp.encoder_ms", "ms"),
    ("server.cp.draft_ms", "ms"),
    ("server.cp.draft_lane_wait_ms", "ms"),
    ("server.cp.device_backlog_ms", "ms"),
    ("server.cp.device_service_ms", "ms"),
    ("server.cp.pipeline_bubble_ms", "ms"),
    ("loadgen.late_ms_p99", "ms"),
    ("stream.partials_per_utt", "count"),
    ("stream.retraction_rate", "ratio"),
    ("stream.partial_span_p99_ms", "ms"),
    ("fleet.advance_us_per_req", "us"),
    ("fleet.evaluations", "count"),
    ("fleet.scale_ups", "count"),
    ("fleet.scale_downs", "count"),
    ("fleet.workers_peak", "workers"),
    ("fleet.migrations_handoff", "count"),
    ("fleet.migrations_restore", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.events", "count"),
    ("trace.dropped", "count"),
    ("trace.unreconciled", "count"),
    ("metrics.snapshot_us", "us"),
    ("slo_attainment", "ratio"),
];

/// Set-up repeats per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// Fewest timed repeats behind a host-clock median, whatever `--seconds`.
const MIN_REPEATS: usize = 3;

/// `max_qps_at_slo`: a rung passes when at least `Kind::slo_target` of the
/// requests sent meet the SLO and no backlog grows: the last third of
/// requests waits at most this many times as long as the first third.
const PACE_GROWTH: f64 = 1.5;

/// Relative tolerance of the critical-path fold against the e2e mean: the
/// per-request fold is exact, the mean of sums and sum of means differ only
/// by float rounding.
const FOLD_TOLERANCE: f64 = 1e-9;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = specasr_bench::EXPERIMENT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                    format!("unknown workload {value}; expected one of {names:?}")
                })?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed {value}: {e}"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3_600.0) {
                    return Err(format!("--seconds {value} must lie in (0, 3600]"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value} must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Request-level and whole-run checks of one benchmark run.
#[derive(Debug, Default)]
struct Checks {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
}

impl Checks {
    /// Counts a pass's requests and its errors (rejected, lost, or a
    /// transcript that differs from greedy target decoding).
    fn pass(&mut self, label: &str, pass: &Pass) {
        self.attempted += pass.attempted();
        self.failed += pass.errors();
        if pass.errors() > 0 {
            self.problems.push(format!(
                "{label}: {} rejected, {} lost, {} wrong transcripts of {} sent",
                pass.rejected,
                pass.lost(),
                pass.wrong(),
                pass.attempted()
            ));
        }
    }

    fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Whether `deadline` has passed and at least `MIN_REPEATS` samples exist.
fn done(samples: usize, deadline: Instant) -> bool {
    samples >= MIN_REPEATS && Instant::now() >= deadline
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(error) => {
            eprintln!("servebench: {error}");
            std::process::exit(2);
        }
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    let pinned = pin_to_one_cpu();
    println!(
        "servebench: workload {} seed {} seconds {} trace {} (available parallelism {}, {})",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        parallelism,
        match pinned {
            Some(cpu) => format!("pinned to CPU {cpu}"),
            None => "not pinned: the CPU affinity could not be set".to_string(),
        }
    );

    // Set-up: corpus, binding, greedy-target references, drafter and fleet
    // construction (RPC thread spawn included), repeated; the last copy
    // serves.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut generated = None;
    for _ in 0..SETUP_REPEATS {
        // Free the previous copy first, so the peak RSS holds one set-up.
        drop(generated.take());
        let ((inputs, seconds), scale) = calibrated(|| {
            let begin = Instant::now();
            let inputs = Inputs::generate(args.kind, args.seed);
            let front = inputs.front(None, false, false);
            let seconds = begin.elapsed().as_secs_f64();
            drop(front);
            (inputs, seconds)
        });
        setup_s.push(seconds * scale);
        generated = Some(inputs);
    }
    let inputs = generated.expect("set-up ran");

    let mut checks = Checks::default();
    let mut report = Report::default();
    let rate = args.kind.rate_qps();
    let first = drive(&mut *inputs.front(None, false, false), &inputs, rate, None);
    checks.pass("end-to-end pass", &first);
    // The footprint of set-up plus one pass at the operating rate (later
    // passes only re-use freed memory, and the ladder's overload rungs are
    // not the workload).
    let peak_rss = peak_rss_mb();
    println!(
        "pass: {} requests sent at {rate} req/s, {} completed",
        first.attempted(),
        first.done.len()
    );

    if args.trace {
        per_layer(&args, &inputs, &first, deadline, &mut checks, &mut report);
    } else {
        end_to_end(&args, &inputs, &first, deadline, &mut checks, &mut report);
        report.add("setup_s", "s", median(&setup_s), setup_s.len(), Clock::Host);
        report.add("peak_rss_mb", "MiB", peak_rss, 1, Clock::Host);
    }

    report.print_table();
    for problem in &checks.problems {
        println!("CHECK FAILED: {problem}");
    }
    let declared: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let correct = checks.problems.is_empty();
    println!(
        "{}",
        report.json_line(declared, correct, checks.attempted, checks.failed)
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The modeled end-to-end metrics of one pass, plus the error rate and the
/// generator's lateness.
fn modeled_end_to_end(report: &mut Report, pass: &Pass) {
    let (completed, sent) = (pass.done.len(), pass.attempted());
    let ttft: Vec<f64> = pass.done.iter().map(|d| d.ttft_ms).collect();
    let e2e: Vec<f64> = pass.done.iter().map(|d| d.e2e_ms).collect();
    let late: Vec<f64> = pass.done.iter().map(|d| d.late_ms).collect();
    let error_rate = pass.errors() as f64 / sent as f64;
    let rows = [
        ("ttft_p50_ms", "ms", percentile(&ttft, 0.50), completed),
        ("ttft_p99_ms", "ms", percentile(&ttft, 0.99), completed),
        ("e2e_p50_ms", "ms", percentile(&e2e, 0.50), completed),
        ("e2e_p99_ms", "ms", percentile(&e2e, 0.99), completed),
        (
            "throughput_utps",
            "utt/s",
            pass.throughput_utps(),
            completed,
        ),
        ("slo_attainment", "ratio", pass.slo_attainment(), sent),
        (
            "loadgen.late_ms_p99",
            "ms",
            percentile(&late, 0.99),
            completed,
        ),
    ];
    for (name, unit, value, samples) in rows {
        report.add(name, unit, value, samples, Clock::Modeled);
    }
    report.add("error_rate", "ratio", error_rate, sent, Clock::Count);
}

fn end_to_end(
    args: &Args,
    inputs: &Inputs,
    first: &Pass,
    deadline: Instant,
    checks: &mut Checks,
    report: &mut Report,
) {
    modeled_end_to_end(report, first);
    let max_qps = max_qps_at_slo(inputs, checks);
    report.add(
        "max_qps_at_slo",
        "req/s",
        max_qps,
        first.attempted(),
        Clock::Modeled,
    );

    // Host clock: repeat the identical pass, calibrated segment by segment;
    // every repeat must reproduce the modeled results exactly.
    let reference = first.fingerprint();
    let mut host = Vec::new();
    let mut raw = Vec::new();
    while !done(host.len(), deadline) {
        let mut front = inputs.front(None, false, false);
        let mut clock = Segmented::start();
        let pass = drive(&mut *front, inputs, args.kind.rate_qps(), Some(&mut clock));
        // Stop the RPC worker before the last kernel timing.
        drop(front);
        checks.pass("repeat", &pass);
        checks.require(pass.fingerprint() == reference, || {
            "a repeat pass did not reproduce the modeled results".to_string()
        });
        let (calibrated_us, measured_us) = clock.finish();
        let completed = pass.done.len().max(1) as f64;
        host.push(calibrated_us / completed);
        raw.push(measured_us / completed);
    }
    println!(
        "host_us_per_req over {} repeats in segments of {} us: calibrated median {:.2} us \
         (min {:.2}, max {:.2}); uncalibrated wall median {:.2} us (min {:.2}, max {:.2})",
        host.len(),
        SEGMENT_US,
        median(&host),
        percentile(&host, 0.0),
        percentile(&host, 1.0),
        median(&raw),
        percentile(&raw, 0.0),
        percentile(&raw, 1.0)
    );
    report.add(
        "host_us_per_req",
        "us",
        median(&host),
        host.len(),
        Clock::Host,
    );
}

/// The highest rung of the workload's fixed rate ladder at which at least
/// `Kind::slo_target` of requests sent meet the SLO and no backlog grows.
/// Binary search over the rungs, assuming attainment falls as the rate
/// rises.  `rpc-ctc` climbs the ladder with its in-process twin, whose
/// modeled results the traced pass proves identical.
fn max_qps_at_slo(inputs: &Inputs, checks: &mut Checks) -> f64 {
    let (lowest, step, rungs) = inputs.kind.ladder();
    let rate = |rung: usize| lowest * step.powi(rung as i32);
    let mut passes = |rung: usize| {
        let pass = drive(
            &mut *inputs.front(None, false, true),
            inputs,
            rate(rung),
            None,
        );
        checks.pass("ladder", &pass);
        let ok = pass.slo_attainment() >= inputs.kind.slo_target() && pass.kept_pace(PACE_GROWTH);
        println!(
            "ladder: {:.3} req/s -> slo {:.4}, {}",
            rate(rung),
            pass.slo_attainment(),
            if ok { "pass" } else { "fail" }
        );
        ok
    };
    if !passes(0) {
        checks.problems.push(format!(
            "the lowest ladder rung ({lowest} req/s) misses the SLO; the ladder is misconfigured"
        ));
        return 0.0;
    }
    let (mut good, mut bad) = (0, rungs);
    while bad - good > 1 {
        let mid = (good + bad) / 2;
        if passes(mid) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    rate(good)
}

/// Host time of one traced pass, split by layer, per completed request.
#[derive(Debug, Clone, Copy, Default)]
struct LayerSample {
    host: f64,
    submit: f64,
    advance: f64,
    bind: f64,
    draft_calls: f64,
    draft: f64,
    target_calls: f64,
    target: f64,
    drafter_calls: f64,
    drafter: f64,
}

impl LayerSample {
    /// The sample with every host time multiplied by `scale`.
    fn scaled(self, scale: f64) -> LayerSample {
        LayerSample {
            host: self.host * scale,
            submit: self.submit * scale,
            advance: self.advance * scale,
            bind: self.bind * scale,
            draft: self.draft * scale,
            target: self.target * scale,
            drafter: self.drafter * scale,
            ..self
        }
    }

    /// Control-plane residual: serving-layer time not spent in a model,
    /// drafter, or tokenizer bind.
    fn server_self(&self) -> f64 {
        self.submit + self.advance - self.draft - self.target - self.drafter - self.bind
    }
}

fn per_layer(
    args: &Args,
    inputs: &Inputs,
    first: &Pass,
    deadline: Instant,
    checks: &mut Checks,
    report: &mut Report,
) {
    let rate = args.kind.rate_qps();
    let reference = first.fingerprint();
    let start = Instant::now();
    let untraced_until = start + (deadline.saturating_duration_since(start)) / 2;

    // Untraced baseline (and, for rpc-ctc, the in-process twin serving the
    // same traffic), interleaved so drift hits both alike.
    let mut host = Vec::new();
    let mut twin_host = Vec::new();
    let mut snapshot_us = Vec::new();
    while !done(host.len(), untraced_until) {
        let mut front = inputs.front(None, false, false);
        let (pass, scale) = calibrated(|| drive(&mut *front, inputs, rate, None));
        checks.pass("untraced repeat", &pass);
        checks.require(pass.fingerprint() == reference, || {
            "an untraced repeat did not reproduce the modeled results".to_string()
        });
        host.push(pass.host_us_per_req() * scale);
        let (snapshot, scale) = calibrated(|| time_snapshot(&*front));
        snapshot_us.push(snapshot * scale);
        if args.kind.has_twin() {
            let (twin, scale) =
                calibrated(|| drive(&mut *inputs.front(None, false, true), inputs, rate, None));
            checks.pass("in-process twin", &twin);
            checks.require(
                twin.fingerprint() == reference
                    && format!("{:?}", twin.stats) == format!("{:?}", first.stats),
                || "the in-process twin's modeled results differ from the RPC run".to_string(),
            );
            twin_host.push(twin.host_us_per_req() * scale);
        }
    }
    let host_untraced = median(&host);

    // Traced passes: timers on the models and drafter, recorder on.
    let mut samples: Vec<LayerSample> = Vec::new();
    let mut events = 0usize;
    let mut dropped = 0u64;
    while !done(samples.len(), deadline) {
        let probes = Probes::default();
        let mut front = inputs.front(Some(&probes), true, false);
        let ((pass, bind), scale) = calibrated(|| {
            let pass = drive(&mut *front, inputs, rate, None);
            (pass, time_bind(inputs))
        });
        checks.pass("traced repeat", &pass);
        checks.require(pass.fingerprint() == reference, || {
            "tracing changed the modeled results".to_string()
        });
        let recordings = front.take_recordings();
        if samples.is_empty() {
            let lanes: Vec<(&str, &specasr_server::FlightRecording)> = recordings
                .iter()
                .map(|(name, recording)| (name.as_str(), recording))
                .collect();
            events = recordings.iter().map(|(_, r)| r.len()).sum();
            dropped = recordings.iter().map(|(_, r)| r.dropped_events()).sum();
            modeled_layers(args.kind, &pass, &lanes, checks, report);
        }
        drop(recordings);
        samples.push(layer_sample(&pass, bind, &probes).scaled(scale));
    }

    // The traced pass whose host time is the median stands for the split,
    // so its layers fold exactly to its total.
    samples.sort_by(|a, b| a.host.total_cmp(&b.host));
    let split = samples[samples.len() / 2];
    let n = samples.len();
    let completed = first.done.len();
    let rpc_overhead = if args.kind.has_twin() {
        host_untraced - median(&twin_host)
    } else {
        0.0
    };
    let fleet_advance = if args.kind == Kind::BurstElastic {
        split.advance
    } else {
        0.0
    };
    let host_rows = [
        ("tokenizer.bind_us_per_req", split.bind, n),
        ("models.draft.us_per_req", split.draft, n),
        ("models.target.us_per_req", split.target, n),
        (
            "models.rpc.overhead_us_per_req",
            rpc_overhead,
            twin_host.len(),
        ),
        ("core.drafter.us_per_req", split.drafter, n),
        ("server.submit_us_per_req", split.submit, n),
        ("server.advance_us_per_req", split.advance, n),
        ("server.self_us_per_req", split.server_self(), n),
        ("fleet.advance_us_per_req", fleet_advance, n),
        (
            "metrics.snapshot_us",
            median(&snapshot_us),
            snapshot_us.len(),
        ),
        ("host_us_per_req", host_untraced, host.len()),
    ];
    for (name, value, samples) in host_rows {
        report.add(name, "us", value, samples, Clock::Host);
    }
    let call_rows = [
        ("models.draft.calls", split.draft_calls),
        ("models.target.calls", split.target_calls),
        ("core.drafter.calls", split.drafter_calls),
    ];
    for (name, value) in call_rows {
        report.add(name, "calls/req", value, completed, Clock::Count);
    }
    let overhead = 100.0 * (split.host - host_untraced) / host_untraced;
    report.add("trace.overhead_pct", "%", overhead, n, Clock::Host);
    report.add("trace.events", "count", events as f64, 1, Clock::Count);
    report.add("trace.dropped", "count", dropped as f64, 1, Clock::Count);
    checks.require(dropped == 0, || {
        format!("the flight recorder dropped {dropped} events")
    });
    // The layers fold exactly to the traced host time (the control-plane
    // residual closes it); what separates that from the untraced
    // `host_us_per_req` is the timers' and recorder's cost,
    // `trace.overhead_pct`.
    let layers = split.bind + split.draft + split.target + split.drafter + split.server_self();
    println!(
        "host split (traced, us/req): bind {:.2} + draft {:.2} + target {:.2} + drafter {:.2} \
         + server self {:.2} = {:.2} (traced total {:.2}; untraced host_us_per_req {:.2})",
        split.bind,
        split.draft,
        split.target,
        split.drafter,
        split.server_self(),
        layers,
        split.host,
        host_untraced
    );
}

/// Times `ServerStats` aggregation plus metrics rendering, in µs (median of
/// a few snapshots).
fn time_snapshot(front: &dyn Front) -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let begin = Instant::now();
            black_box(front.stats());
            black_box(front.render_metrics());
            begin.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&times)
}

/// `TokenizerBinding::bind` per request, in µs, timed by re-binding every
/// request's utterance (the serving layer binds inside `submit`, where it
/// cannot be timed from outside).
fn time_bind(inputs: &Inputs) -> f64 {
    let begin = Instant::now();
    for &pick in &inputs.picks {
        black_box(inputs.binding.bind(&inputs.pool[pick]));
    }
    begin.elapsed().as_secs_f64() * 1e6 / inputs.picks.len() as f64
}

/// Per-request host split of one traced pass.
fn layer_sample(pass: &Pass, bind: f64, probes: &Probes) -> LayerSample {
    let completed = pass.done.len().max(1) as f64;
    LayerSample {
        host: pass.host_us_per_req(),
        submit: pass.submit_us / completed,
        advance: pass.advance_us / completed,
        bind,
        draft_calls: probes.draft.calls() as f64 / completed,
        draft: probes.draft.micros() / completed,
        target_calls: probes.target.calls() as f64 / completed,
        target: probes.target.micros() / completed,
        drafter_calls: probes.drafter.calls() as f64 / completed,
        drafter: probes.drafter.micros() / completed,
    }
}

/// Modeled per-layer metrics of the first traced pass: the critical-path
/// attribution, the device ledger, and the serving statistics.
fn modeled_layers(
    kind: Kind,
    pass: &Pass,
    lanes: &[(&str, &specasr_server::FlightRecording)],
    checks: &mut Checks,
    report: &mut Report,
) {
    let completed = pass.done.len();
    let analysis = analyze_lanes(lanes);
    // Known defects of the analysis are reported, not fatal: a request the
    // analysis could not attribute (a live hand-off splits its span across
    // two lanes) or whose component fold misses its e2e by rounding.
    if let Err(error) = analysis.reconcile() {
        println!("TRACE RECONCILE FAILED (reported as trace.unreconciled): {error}");
    }
    let fold_misses = analysis
        .requests
        .iter()
        .filter(|request| request.attributed_ms().to_bits() != request.e2e_ms.to_bits())
        .count();
    let unattributed = completed.saturating_sub(analysis.requests.len());
    report.add(
        "trace.unreconciled",
        "count",
        (fold_misses + unattributed) as f64,
        completed,
        Clock::Count,
    );
    // The eight component means fold to the mean e2e of the attributed
    // requests (measured from the stamped arrival, as the scheduler records
    // it).
    let attributed = analysis.requests.len();
    let mut folded = 0.0;
    for (index, name) in specasr_trace::analysis::ATTRIBUTION_COMPONENTS
        .iter()
        .enumerate()
    {
        let component = mean(
            analysis
                .requests
                .iter()
                .map(|request| request.components()[index].1),
        );
        folded += component;
        let metric = format!("server.cp.{name}");
        report.add(&metric, "ms", component, attributed, Clock::Modeled);
    }
    let recorded: HashMap<u64, f64> = pass
        .done
        .iter()
        .map(|d| (d.id, d.e2e_ms - d.late_ms))
        .collect();
    let e2e_mean = mean(
        analysis
            .requests
            .iter()
            .map(|request| recorded.get(&request.request).copied().unwrap_or(f64::NAN)),
    );
    checks.require(
        (folded - e2e_mean).abs() <= FOLD_TOLERANCE * e2e_mean.abs().max(1.0),
        || {
            format!(
                "critical-path components fold to {folded} ms but the e2e mean is {e2e_mean} ms"
            )
        },
    );
    println!(
        "critical path: {attributed} of {completed} requests attributed, {fold_misses} folds \
         not bitwise exact; component means fold to {folded:.6} ms, e2e mean from arrival \
         {e2e_mean:.6} ms (+ late mean {:.6} ms = e2e mean from due)",
        mean(pass.done.iter().map(|d| d.late_ms))
    );

    let stats = &pass.stats;
    let memory = stats.memory();
    let backend = stats.backend();
    let ledger = &analysis.ledger;
    let shape = pass.shape;
    let acceptance = if ledger.drafted_tokens == 0 {
        0.0
    } else {
        ledger.accepted_tokens as f64 / ledger.drafted_tokens as f64
    };
    let spans: Vec<f64> = pass
        .done
        .iter()
        .flat_map(|d| d.partial_spans.iter().copied())
        .collect();
    let encoder_ms = mean(pass.done.iter().map(|d| d.encoder_ms));
    let modeled_rows = [
        ("audio.encoder_ms", encoder_ms, completed),
        ("models.device_busy_ms", backend.device_busy_ms(), 1),
        ("models.device_idle_ms", backend.device_idle_ms(), 1),
        ("core.rejected_draft_ms", ledger.rejected_draft_ms, 1),
        ("core.probe_overhead_ms", ledger.probe_overhead_ms, 1),
        (
            "stream.partial_span_p99_ms",
            percentile(&spans, 0.99),
            spans.len(),
        ),
    ];
    for (name, value, samples) in modeled_rows {
        report.add(name, "ms", value, samples, Clock::Modeled);
    }
    let count_rows = [
        (
            "core.drafted_tokens",
            "count",
            ledger.drafted_tokens as f64,
            1,
        ),
        (
            "core.accepted_tokens",
            "count",
            ledger.accepted_tokens as f64,
            1,
        ),
        (
            "core.acceptance",
            "ratio",
            acceptance,
            ledger.drafted_tokens as usize,
        ),
        (
            "runtime.kv.peak_blocks",
            "blocks",
            memory.peak_kv_blocks() as f64,
            1,
        ),
        ("runtime.kv.avg_blocks", "blocks", memory.avg_kv_blocks(), 1),
        (
            "runtime.kv.prefix_lookups",
            "count",
            memory.prefix_lookups() as f64,
            1,
        ),
        (
            "runtime.kv.prefix_hit_rate",
            "ratio",
            memory.shared_prefix_hit_rate(),
            memory.prefix_lookups(),
        ),
        (
            "runtime.kv.preemptions",
            "count",
            memory.preemptions() as f64,
            1,
        ),
        (
            "runtime.kv.cow_copies",
            "count",
            memory.cow_copies() as f64,
            1,
        ),
        ("server.ticks", "count", stats.ticks() as f64, 1),
        (
            "server.batch_occupancy",
            "ratio",
            backend.verify_batch_occupancy(),
            backend.verify_batches(),
        ),
        (
            "server.in_flight_depth",
            "waves",
            backend.peak_in_flight() as f64,
            1,
        ),
        ("server.stolen", "count", shape.stolen as f64, 1),
        (
            "stream.partials_per_utt",
            "count",
            spans.len() as f64 / completed.max(1) as f64,
            completed,
        ),
        (
            "stream.retraction_rate",
            "ratio",
            stats.retraction_rate(),
            1,
        ),
        ("fleet.evaluations", "count", shape.evaluations as f64, 1),
        ("fleet.scale_ups", "count", shape.scale_ups as f64, 1),
        ("fleet.scale_downs", "count", shape.scale_downs as f64, 1),
        (
            "fleet.workers_peak",
            "workers",
            shape.workers_peak as f64,
            1,
        ),
        (
            "fleet.migrations_handoff",
            "count",
            stats.migrated_in_handoff() as f64,
            1,
        ),
        (
            "fleet.migrations_restore",
            "count",
            stats.migrated_in_restore() as f64,
            1,
        ),
    ];
    for (name, unit, value, samples) in count_rows {
        report.add(name, unit, value, samples, Clock::Count);
    }
    if kind == Kind::BurstElastic {
        checks.require(shape.scale_ups > 0 && shape.scale_downs > 0, || {
            "burst-elastic must scale up under the burst and back down after it".to_string()
        });
    }
    modeled_end_to_end(report, pass);
}

/// Peak resident set of this process (`VmHWM`), in MiB; `0` where
/// `/proc/self/status` is unavailable.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    /// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<(String, String)> {
        let doc: Value = serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let Ok(Value::Array(metrics)) = doc.field(section) else {
            panic!("BENCHMARK.json has no {section} list");
        };
        metrics
            .iter()
            .map(
                |metric| match (metric.field("name"), metric.field("unit")) {
                    (Ok(Value::String(name)), Ok(Value::String(unit))) => {
                        (name.clone(), unit.clone())
                    }
                    _ => panic!("malformed {section} entry: {metric:?}"),
                },
            )
            .collect()
    }

    fn owned(list: &[(&str, &str)]) -> Vec<(String, String)> {
        list.iter()
            .map(|(name, unit)| (name.to_string(), unit.to_string()))
            .collect()
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        assert_eq!(declared("end_to_end"), owned(&END_TO_END));
        assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    }
}
