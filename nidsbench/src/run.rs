//! One benchmark run: set-up, the measured phases, and the report.

use crate::drive::{
    closed_round, jobs, open_round, quantile, scheduled_latency_ns, Ledger, Oracle, RoundResult,
};
use crate::layers::replay;
use crate::setup::{compile, setup, spawn, untraced, SetupTimes};
use crate::spans::{self, EngineCounts, Layer, TracedEngine};
use crate::workload::{Inputs, Kind, Ruleset};
use mpm_patterns::{GroupedRuleSet, LatencyHistogram};
use mpm_stream::SharedMatcher;
use mpm_verify::RuleConfirmer;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups per run; the median is reported.
const SETUP_REPS: usize = 7;
/// Fewest rounds a measured phase runs, however long they take.
const MIN_ROUNDS: usize = 3;
/// A packet dispatched later than this after its due time counts as late.
const LATE_NS: u64 = 20_000;

/// One named measurement.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Clone, Debug)]
pub struct Report {
    /// Every checked alert matched the oracle and nothing failed.
    pub correct: bool,
    /// Packets dispatched.
    pub attempted: u64,
    /// Packets that failed (see `Ledger`).
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Flows the oracle checked in each round.
    pub oracle_flows: usize,
}

/// How a run is sized.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// The workload.
    pub kind: Kind,
    /// Seed of every generated input.
    pub seed: u64,
    /// Seconds the measured phases take together.
    pub seconds: f64,
    /// Divides the round size and oracle budget (1 for measured runs).
    pub scale: usize,
}

/// Runs the untraced end-to-end measurement.
///
/// Closed-loop (capacity) and open-loop (latency) rounds alternate, with a
/// set-up between them, until `seconds` have passed, so that all three
/// sample the same stretches of a shared host's load. The run reports the
/// median over its rounds of each: throughput, each round's median
/// latency, and set-up time.
pub fn run_end_to_end(config: RunConfig) -> Report {
    let inputs = Inputs::generate(config.kind, config.seed, config.scale);
    let oracle = Oracle::sample(&inputs, config.seed, config.scale);
    let mut ledger = Ledger::default();
    reset_peak_rss();

    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let (compiled, pipeline, times) = setup(&inputs, &untraced);
        setup_s.push(times.total_s);
        built = Some((compiled, pipeline));
    }
    let (compiled, mut pipeline) = built.expect("SETUP_REPS >= 1");

    let budget = Duration::from_secs_f64(config.seconds);
    let mut round = 0u32;
    let (mut gbps, mut p50s) = (Vec::new(), Vec::new());
    let started = Instant::now();
    while gbps.len() < MIN_ROUNDS || started.elapsed() < budget {
        let result = closed_round(&mut pipeline, jobs(&inputs, round));
        ledger.check(&inputs, &oracle, round, &result);
        gbps.push(result.gbps(inputs.round_bytes()));
        round += 1;

        let keep = |flow| oracle.samples(flow);
        let result = open_round(
            &mut pipeline,
            jobs(&inputs, round),
            inputs.shape.offered_gbps,
            &keep,
        );
        ledger.check(&inputs, &oracle, round, &result);
        p50s.push(scheduled_latency_ns(
            &result.stats.histogram,
            &result.late_ns,
            0.5,
        ));
        round += 1;

        let (_, extra, times) = setup(&inputs, &untraced);
        drop(extra);
        setup_s.push(times.total_s);
    }
    drop(pipeline);

    let error_rate = ledger.failed as f64 / ledger.attempted.max(1) as f64;
    Report {
        correct: ledger.correct(),
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics: vec![
            metric("throughput_gbps", quantile(&mut gbps, 0.5), "Gbit/s"),
            metric("latency_p50_us", quantile(&mut p50s, 0.5) / 1e3, "us"),
            metric("setup_s", quantile(&mut setup_s, 0.5), "s"),
            metric("compiled_bytes", compiled.bytes() as f64, "B"),
            metric("peak_rss_mib", peak_rss_mib(), "MiB"),
            metric("error_free_share", 1.0 - error_rate, "ratio"),
        ],
        oracle_flows: oracle.flows(),
    }
}

/// What an open-loop phase measured.
struct OpenPhase {
    service: LatencyHistogram,
    late_ns: Vec<u64>,
    rounds: Vec<RoundResult>,
}

/// Open-loop rounds at the workload's offered rate for `phase`.
fn open_phase(
    inputs: &Inputs,
    oracle: &Oracle,
    ledger: &mut Ledger,
    pipeline: &mut mpm_stream::PipelineScanner,
    round: &mut u32,
    phase: Duration,
) -> OpenPhase {
    let mut out = OpenPhase {
        service: LatencyHistogram::new(),
        late_ns: Vec::new(),
        rounds: Vec::new(),
    };
    let started = Instant::now();
    while out.rounds.len() < MIN_ROUNDS || started.elapsed() < phase {
        let batch = jobs(inputs, *round);
        let keep = |flow| oracle.samples(flow);
        let mut result = open_round(pipeline, batch, inputs.shape.offered_gbps, &keep);
        ledger.check(inputs, oracle, *round, &result);
        out.service.merge(&result.stats.histogram);
        out.late_ns.append(&mut result.late_ns);
        // Keep the telemetry, not the alerts.
        result.stats.matches = Vec::new();
        result.stats.rule_matches = Vec::new();
        out.rounds.push(result);
        *round += 1;
    }
    out
}

/// Runs the traced measurement: set-up split by part, the single-thread
/// layer replay, traced against untraced pipeline rounds, and the
/// pipeline's own counters under the open loop.
pub fn run_traced(config: RunConfig) -> Report {
    let inputs = Inputs::generate(config.kind, config.seed, config.scale);
    let oracle = Oracle::sample(&inputs, config.seed, config.scale);
    let mut ledger = Ledger::default();

    let mut parts: Vec<SetupTimes> = Vec::with_capacity(SETUP_REPS);
    let mut confirmer_s = Vec::with_capacity(SETUP_REPS);
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let (compiled, pipeline, times) = setup(&inputs, &untraced);
        parts.push(times);
        built = Some((compiled, pipeline));
        if let Ruleset::Grouped(rules) = &inputs.ruleset {
            let grouped = GroupedRuleSet::new(rules.clone());
            let start = Instant::now();
            let confirmer = RuleConfirmer::build(grouped.monolithic());
            confirmer_s.push(start.elapsed().as_secs_f64());
            drop(confirmer);
        }
    }
    let (_, mut pipeline) = built.expect("SETUP_REPS >= 1");
    let median_of = |f: fn(&SetupTimes) -> f64| {
        let mut v: Vec<f64> = parts.iter().map(f).collect();
        quantile(&mut v, 0.5)
    };

    let layers = replay(&inputs);

    // Traced and untraced pipeline rounds, alternating. Each traced round
    // gets a fresh pipeline so its worker's spans arrive when it exits.
    let phase = Duration::from_secs_f64(config.seconds * 0.4);
    let counts = Arc::new(EngineCounts::default());
    let wrap = |engine: SharedMatcher| TracedEngine::wrap(engine, counts.clone());
    let traced = compile(&inputs.ruleset, &wrap, &mut SetupTimes::default());
    let mut round = 0u32;
    let (mut traced_gbps, mut untraced_gbps) = (Vec::new(), Vec::new());
    let (mut busy_ns, mut packets, mut blocked) = (0u64, 0u64, Vec::new());
    let (mut engine_ns, mut traced_busy_ns) = (0u64, 0u64);
    let started = Instant::now();
    while traced_gbps.len() < MIN_ROUNDS || started.elapsed() < phase {
        let result = closed_round(&mut pipeline, jobs(&inputs, round));
        ledger.check(&inputs, &oracle, round, &result);
        untraced_gbps.push(result.gbps(inputs.round_bytes()));
        busy_ns += result.busy_ns();
        packets += result.stats.workers.iter().map(|w| w.packets).sum::<u64>();
        blocked.push(result.dispatch_time.as_secs_f64() / result.elapsed.as_secs_f64());
        round += 1;

        spans::take_all();
        let mut traced_pipeline = spawn(&traced, &inputs, &mut SetupTimes::default());
        let result = closed_round(&mut traced_pipeline, jobs(&inputs, round));
        drop(traced_pipeline);
        ledger.check(&inputs, &oracle, round, &result);
        traced_gbps.push(result.gbps(inputs.round_bytes()));
        traced_busy_ns += result.busy_ns();
        engine_ns += spans::totals(&spans::take_all(), Layer::Engine).total_ns;
        round += 1;
    }
    let buffered = buffered_high_water(&inputs, &mut pipeline, round);
    round += 1;

    let open = open_phase(
        &inputs,
        &oracle,
        &mut ledger,
        &mut pipeline,
        &mut round,
        phase,
    );
    drop(pipeline);
    let p99 = scheduled_latency_ns(&open.service, &open.late_ns, 0.99);
    let workers = open.rounds.iter().flat_map(|r| &r.stats.workers);
    let (open_busy, open_wall, open_packets) = workers.fold((0u64, 0u64, 0u64), |acc, w| {
        (
            acc.0 + w.busy_nanos,
            acc.1 + w.wall_nanos,
            acc.2 + w.packets,
        )
    });
    let max_ring = open
        .rounds
        .iter()
        .flat_map(|r| &r.stats.workers)
        .map(|w| w.max_ring_occupancy)
        .max()
        .unwrap_or(0);
    let waits: u64 = open.rounds.iter().map(|r| r.stats.backpressure_waits).sum();
    let service_mean_ns = open.service.mean();
    let open_busy_per_packet = open_busy as f64 / open_packets.max(1) as f64;
    let mut late: Vec<f64> = open.late_ns.iter().map(|&n| n as f64).collect();
    let late_share =
        open.late_ns.iter().filter(|&&n| n > LATE_NS).count() as f64 / late.len().max(1) as f64;

    let traced_median = quantile(&mut traced_gbps, 0.5);
    let untraced_median = quantile(&mut untraced_gbps, 0.5);
    Report {
        correct: ledger.correct(),
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics: vec![
            metric("core.filter_gbps", layers.filter_gbps, "Gbit/s"),
            metric(
                "core.useful_lane_fraction",
                layers.useful_lane_fraction,
                "ratio",
            ),
            metric("core.scan_gbps", layers.scan_gbps, "Gbit/s"),
            metric(
                "core.candidates_per_kib",
                layers.candidates_per_kib,
                "1/KiB",
            ),
            metric("verify.share", layers.verify_share, "ratio"),
            metric(
                "verify.matches_per_candidate",
                layers.matches_per_candidate,
                "ratio",
            ),
            metric("verify.confirm_gbps", layers.confirm_gbps, "Gbit/s"),
            metric(
                "verify.rules_per_anchor_hit",
                layers.rules_per_anchor_hit,
                "ratio",
            ),
            metric(
                "stream.push_self_ns_per_packet",
                layers.push_self_ns_per_packet,
                "ns",
            ),
            metric(
                "stream.rule_push_self_ns_per_byte",
                layers.rule_push_self_ns_per_byte,
                "ns/B",
            ),
            metric("stream.engine_share", layers.stream_engine_share, "ratio"),
            metric(
                "stream.engine_calls_per_packet",
                layers.engine_calls_per_packet,
                "calls",
            ),
            metric(
                "stream.engine_bytes_per_byte",
                layers.engine_bytes_per_byte,
                "B/B",
            ),
            metric("stream.buffered_bytes", buffered as f64, "B"),
            metric(
                "pipeline.busy_ns_per_packet",
                busy_ns as f64 / packets.max(1) as f64,
                "ns",
            ),
            metric(
                "pipeline.dispatch_blocked_share",
                quantile(&mut blocked, 0.5),
                "ratio",
            ),
            metric(
                "pipeline.engine_share",
                engine_ns as f64 / traced_busy_ns.max(1) as f64,
                "ratio",
            ),
            metric(
                "pipeline.packet_scan_share",
                untraced_median / layers.scan_gbps,
                "ratio",
            ),
            metric(
                "pipeline.utilization",
                open_busy as f64 / open_wall.max(1) as f64,
                "ratio",
            ),
            metric(
                "pipeline.queue_wait_us",
                (service_mean_ns - open_busy_per_packet).max(0.0) / 1e3,
                "us",
            ),
            metric("pipeline.max_ring_occupancy", max_ring as f64, "count"),
            metric("pipeline.backpressure_waits", waits as f64, "count"),
            metric("pipeline.latency_p99_us", p99 / 1e3, "us"),
            metric(
                "pipeline.latency_samples",
                open.service.count() as f64,
                "count",
            ),
            metric("patterns.group_s", median_of(|t| t.group_s), "s"),
            metric("core.build_s", median_of(|t| t.build_s), "s"),
            metric(
                "verify.confirmer_build_s",
                quantile(&mut confirmer_s, 0.5),
                "s",
            ),
            metric("pipeline.spawn_s", median_of(|t| t.spawn_s), "s"),
            metric(
                "bench.gen_late_p99_us",
                quantile(&mut late, 0.99) / 1e3,
                "us",
            ),
            metric("bench.gen_late_share", late_share, "ratio"),
            metric("bench.gen_late_samples", open.late_ns.len() as f64, "count"),
            metric(
                "bench.tracing_overhead",
                1.0 - traced_median / untraced_median,
                "ratio",
            ),
        ],
        oracle_flows: oracle.flows(),
    }
}

/// One closed-loop round drained every 256 packets; returns the highest
/// `PipelineStats::buffered_bytes` seen. Not checked against the oracle:
/// the intermediate drains split its alerts.
fn buffered_high_water(
    inputs: &Inputs,
    pipeline: &mut mpm_stream::PipelineScanner,
    round: u32,
) -> u64 {
    let mut high = 0u64;
    for (i, job) in jobs(inputs, round).into_iter().enumerate() {
        match job {
            crate::drive::Job::Packet(p) => {
                pipeline.dispatch(p);
            }
            crate::drive::Job::Close(flow) => pipeline.close_flow(flow),
        }
        if i % 256 == 255 {
            if let Ok(stats) = pipeline.drain() {
                high = high.max(stats.buffered_bytes);
            }
        }
    }
    if let Ok(stats) = pipeline.drain() {
        high = high.max(stats.buffered_bytes);
    }
    high
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Restarts the resident-set high-water mark from the current RSS, so
/// that generating the inputs and the oracle's expectations is not
/// counted. Where the kernel refuses, the mark covers the whole process.
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's resident-set high-water mark (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
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
        .map_or(0.0, |kib| kib / 1024.0)
}
