//! The traced replay: the workload's packets pushed on one thread through
//! each layer in turn, below the pipeline.

use crate::drive::gbps;
use crate::setup::{compile, Compiled, SetupTimes};
use crate::spans::{self, EngineCounts, Layer, TracedEngine};
use crate::workload::{Inputs, Ruleset, Step};
use mpm_patterns::{GroupedRuleSet, MatchEvent, MatcherStats, PatternSet, RuleMatch};
use mpm_simd::{Avx2Backend, Avx512Backend, BackendKind, ScalarBackend, VectorBackend};
use mpm_stream::{GroupedFlowScanner, SharedMatcher, StreamScanner};
use mpm_verify::RuleScanner;
use mpm_vpatch::{FilterOnlyMode, Scratch, VPatch};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Per-layer figures of one replay.
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerFigures {
    /// `VPatch::filter_only` (with candidate stores) per packet, Gbit/s.
    pub filter_gbps: f64,
    /// Useful lanes over evaluated lanes of the third filter.
    pub useful_lane_fraction: f64,
    /// Per-packet `find_into`, Gbit/s.
    pub scan_gbps: f64,
    /// Filter candidates per KiB of payload.
    pub candidates_per_kib: f64,
    /// Verify time over filter plus verify time.
    pub verify_share: f64,
    /// Matches per filter candidate.
    pub matches_per_candidate: f64,
    /// `RuleScanner::scan_rules` per flow, Gbit/s (rule mode only).
    pub confirm_gbps: f64,
    /// Confirmed rules per anchor hit (rule mode only).
    pub rules_per_anchor_hit: f64,
    /// Stream push time minus its nested engine time, per packet.
    pub push_self_ns_per_packet: f64,
    /// The same per payload byte, for the grouped rule push.
    pub rule_push_self_ns_per_byte: f64,
    /// Engine time over stream push time.
    pub stream_engine_share: f64,
    /// Engine calls per packet through the stream layer (exact).
    pub engine_calls_per_packet: f64,
    /// Bytes handed to an engine per payload byte (exact).
    pub engine_bytes_per_byte: f64,
}

/// The pattern set the engine layer is measured on: the workload's
/// patterns, or in rule mode the anchors of the whole (ungrouped) ruleset.
fn engine_patterns(ruleset: &Ruleset) -> (PatternSet, Option<GroupedRuleSet>) {
    match ruleset {
        Ruleset::Patterns(set) => (set.clone(), None),
        Ruleset::Grouped(rules) => {
            let grouped = GroupedRuleSet::new(rules.clone());
            (grouped.monolithic().anchors().clone(), Some(grouped))
        }
    }
}

/// Replays one round of `inputs` through the engine, verify and stream
/// layers.
pub fn replay(inputs: &Inputs) -> LayerFigures {
    let mut fig = LayerFigures::default();
    let packets: Vec<&[u8]> = inputs
        .steps
        .iter()
        .filter_map(|s| match *s {
            Step::Packet { flow, start, end } => {
                Some(&inputs.flows[flow as usize].payload[start as usize..end as usize])
            }
            Step::Close(_) => None,
        })
        .collect();
    let bytes: u64 = packets.iter().map(|p| p.len() as u64).sum();
    let (set, grouped) = engine_patterns(&inputs.ruleset);
    let backend = mpm_simd::detect_best();

    fig.filter_gbps = match backend {
        BackendKind::Avx512 => filter_gbps::<Avx512Backend, 16>(&set, &packets),
        BackendKind::Avx2 => filter_gbps::<Avx2Backend, 8>(&set, &packets),
        BackendKind::Scalar => filter_gbps::<ScalarBackend, 8>(&set, &packets),
    };

    let engine: SharedMatcher = Arc::from(mpm_vpatch::build_auto(&set));
    let mut stats = MatcherStats::default();
    for p in &packets {
        stats.merge(&engine.scan_with_stats(p));
    }
    let mut out: Vec<MatchEvent> = Vec::new();
    let start = Instant::now();
    for p in &packets {
        out.clear();
        engine.find_into(p, &mut out);
        black_box(&out);
    }
    fig.scan_gbps = gbps(bytes, start.elapsed());
    fig.useful_lane_fraction = stats.useful_lane_fraction(backend.lanes()).unwrap_or(0.0);
    fig.candidates_per_kib = stats.candidates as f64 / (bytes as f64 / 1024.0);
    fig.verify_share = stats
        .filtering_time_fraction()
        .map_or(0.0, |filter| 1.0 - filter);
    fig.matches_per_candidate = stats.matches as f64 / stats.candidates.max(1) as f64;

    if let Some(grouped) = &grouped {
        let scanner = RuleScanner::new(engine.clone(), grouped.monolithic());
        let mut confirmed = 0u64;
        let start = Instant::now();
        for flow in &inputs.flows {
            confirmed += black_box(scanner.scan_rules(&flow.payload)).len() as u64;
        }
        fig.confirm_gbps = gbps(inputs.round_bytes(), start.elapsed());
        let anchor_hits: u64 = inputs
            .flows
            .iter()
            .map(|f| scanner.scan(&f.payload).len() as u64)
            .sum();
        fig.rules_per_anchor_hit = confirmed as f64 / anchor_hits.max(1) as f64;
    }

    let counts = Arc::new(EngineCounts::default());
    let wrap = |engine: SharedMatcher| TracedEngine::wrap(engine, counts.clone());
    let compiled = compile(&inputs.ruleset, &wrap, &mut SetupTimes::default());
    spans::take_all();
    replay_stream(inputs, &compiled);
    let all = spans::take_all();
    let push = spans::totals(&all, Layer::Push);
    let engine_time = spans::totals(&all, Layer::Engine);
    let packet_count = packets.len() as f64;
    let (calls, engine_bytes) = counts.get();
    fig.push_self_ns_per_packet = push.self_ns as f64 / packet_count;
    if grouped.is_some() {
        fig.rule_push_self_ns_per_byte = push.self_ns as f64 / bytes as f64;
    }
    fig.stream_engine_share = engine_time.total_ns as f64 / push.total_ns.max(1) as f64;
    fig.engine_calls_per_packet = calls as f64 / packet_count;
    fig.engine_bytes_per_byte = engine_bytes as f64 / bytes as f64;
    fig
}

enum FlowState {
    Plain(StreamScanner),
    Grouped(GroupedFlowScanner),
}

/// Pushes every packet, in round order, through a per-flow stream scanner
/// and records a [`Layer::Push`] span around each push.
fn replay_stream(inputs: &Inputs, compiled: &Compiled) {
    let mut flows: HashMap<u32, FlowState> = HashMap::new();
    let mut events: Vec<MatchEvent> = Vec::new();
    let mut rules: Vec<RuleMatch> = Vec::new();
    for step in &inputs.steps {
        match *step {
            Step::Packet { flow, start, end } => {
                let f = &inputs.flows[flow as usize];
                let state = flows.entry(flow).or_insert_with(|| match compiled {
                    Compiled::Patterns { set, engine } => {
                        FlowState::Plain(StreamScanner::new(engine.clone(), set))
                    }
                    Compiled::Grouped(engines) => {
                        FlowState::Grouped(GroupedFlowScanner::new(engines.clone(), f.tuple))
                    }
                });
                let chunk = &f.payload[start as usize..end as usize];
                events.clear();
                rules.clear();
                let t = Instant::now();
                match state {
                    FlowState::Plain(s) => s.push(chunk, &mut events),
                    FlowState::Grouped(s) => s.push(chunk, &mut rules),
                }
                spans::record(Layer::Push, t);
            }
            Step::Close(flow) => {
                flows.remove(&flow);
            }
        }
    }
}

fn filter_gbps<B: VectorBackend<W>, const W: usize>(set: &PatternSet, packets: &[&[u8]]) -> f64 {
    if !B::is_available() {
        return 0.0;
    }
    let engine = VPatch::<B, W>::build(set);
    let mut scratch = Scratch::new();
    let bytes: u64 = packets.iter().map(|p| p.len() as u64).sum();
    let start = Instant::now();
    let mut checksum = 0u64;
    for p in packets {
        checksum =
            checksum.wrapping_add(engine.filter_only(p, FilterOnlyMode::WithStores, &mut scratch));
    }
    black_box(checksum);
    gbps(bytes, start.elapsed())
}
