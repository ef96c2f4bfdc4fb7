//! Driving the pipeline: closed-loop capacity rounds, open-loop latency
//! rounds, and the oracle check of their alerts.

use crate::workload::{shuffle, Inputs, Ruleset, SplitMix, Step};
use mpm_patterns::naive::naive_find_all;
use mpm_patterns::rule::naive_rule_find_all;
use mpm_patterns::{GroupedRuleSet, LatencyHistogram, PatternSet};
use mpm_stream::{FlowMatch, FlowRuleMatch, Packet, PipelineScanner, PipelineStats};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// One job for the pipeline.
pub enum Job {
    /// `dispatch` this packet.
    Packet(Packet),
    /// `close_flow` this flow.
    Close(u64),
}

/// Pipeline flow id of flow `index` in round `round`: every round uses
/// fresh ids, so no state carries over between rounds.
fn flow_id(round: u32, index: u32) -> u64 {
    (u64::from(round) << 32) | u64::from(index)
}

/// The jobs of one round, payloads copied out of the flows up front so
/// the timed loop only dispatches.
pub fn jobs(inputs: &Inputs, round: u32) -> Vec<Job> {
    inputs
        .steps
        .iter()
        .map(|step| match *step {
            Step::Packet { flow, start, end } => {
                let f = &inputs.flows[flow as usize];
                let payload = f.payload[start as usize..end as usize].to_vec();
                let id = flow_id(round, flow);
                Job::Packet(match f.tuple {
                    Some(tuple) => Packet::new_with_tuple(id, payload, tuple),
                    None => Packet::new(id, payload),
                })
            }
            Step::Close(flow) => Job::Close(flow_id(round, flow)),
        })
        .collect()
}

/// Everything one round produced.
pub struct RoundResult {
    /// Telemetry and the matches `drain` returned.
    pub stats: PipelineStats,
    /// Matches handed out earlier by `poll`, of the flows kept.
    pub polled: Vec<FlowMatch>,
    /// Rules handed out earlier by `poll`, of the flows kept.
    pub polled_rules: Vec<FlowRuleMatch>,
    /// Every alert handed out by `poll`, kept or not.
    pub polled_alerts: u64,
    /// First dispatch until `drain` returned.
    pub elapsed: Duration,
    /// Time spent inside `dispatch` and `close_flow`.
    pub dispatch_time: Duration,
    /// How late each packet was dispatched, nanoseconds (open loop only).
    pub late_ns: Vec<u64>,
    /// Set when `drain` reported a worker lost without accounting.
    pub worker_lost: bool,
}

/// Gbit/s of `bytes` moved in `elapsed`.
pub fn gbps(bytes: u64, elapsed: Duration) -> f64 {
    bytes as f64 * 8.0 / elapsed.as_nanos().max(1) as f64
}

impl RoundResult {
    /// Payload Gbit/s of a round of `bytes`, first dispatch to drained.
    pub fn gbps(&self, bytes: u64) -> f64 {
        gbps(bytes, self.elapsed)
    }

    /// The worker's busy time in the round, nanoseconds.
    pub fn busy_ns(&self) -> u64 {
        self.stats.workers.iter().map(|w| w.busy_nanos).sum()
    }
}

/// Dispatches the round as fast as `Block` backpressure allows, then
/// drains: the pipeline's capacity.
pub fn closed_round(pipeline: &mut PipelineScanner, jobs: Vec<Job>) -> RoundResult {
    let start = Instant::now();
    let mut dispatch_time = Duration::ZERO;
    for job in jobs {
        let t = Instant::now();
        match job {
            Job::Packet(p) => {
                pipeline.dispatch(p);
            }
            Job::Close(flow) => pipeline.close_flow(flow),
        }
        dispatch_time += t.elapsed();
    }
    finish(
        pipeline,
        start,
        dispatch_time,
        Vec::new(),
        Vec::new(),
        Vec::new(),
    )
}

/// Sends each packet at its scheduled time for `offered_gbps` of payload,
/// polling the pipeline's results while it waits, as a live capture loop
/// does. A packet sent late is still sent; its lateness is recorded.
/// Polled alerts are counted, and kept only for flows `keep` names, so the
/// loop never stalls copying a growing result vector.
pub fn open_round(
    pipeline: &mut PipelineScanner,
    jobs: Vec<Job>,
    offered_gbps: f64,
    keep: &dyn Fn(u64) -> bool,
) -> RoundResult {
    let mut polled = Vec::new();
    let mut polled_rules = Vec::new();
    let mut polled_alerts = 0u64;
    let mut late_ns = Vec::with_capacity(jobs.len());
    let mut worker_lost = false;
    let mut sent_bits = 0u64;
    let start = Instant::now();
    let mut dispatch_time = Duration::ZERO;
    for job in jobs {
        match job {
            Job::Packet(p) => {
                // Gbit/s is bits per nanosecond.
                let due = Duration::from_nanos((sent_bits as f64 / offered_gbps) as u64);
                sent_bits += 8 * p.payload.len() as u64;
                loop {
                    let now = start.elapsed();
                    if now >= due {
                        late_ns.push((now - due).as_nanos() as u64);
                        break;
                    }
                    match pipeline.poll() {
                        Ok((m, r)) => {
                            polled_alerts += (m.len() + r.len()) as u64;
                            polled.extend(m.into_iter().filter(|m| keep(m.flow)));
                            polled_rules.extend(r.into_iter().filter(|r| keep(r.flow)));
                        }
                        Err(_) => worker_lost = true,
                    }
                    std::hint::spin_loop();
                }
                let t = Instant::now();
                pipeline.dispatch(p);
                dispatch_time += t.elapsed();
            }
            Job::Close(flow) => {
                let t = Instant::now();
                pipeline.close_flow(flow);
                dispatch_time += t.elapsed();
            }
        }
    }
    let mut round = finish(
        pipeline,
        start,
        dispatch_time,
        polled,
        polled_rules,
        late_ns,
    );
    round.worker_lost |= worker_lost;
    round.polled_alerts = polled_alerts;
    round
}

fn finish(
    pipeline: &mut PipelineScanner,
    start: Instant,
    dispatch_time: Duration,
    polled: Vec<FlowMatch>,
    polled_rules: Vec<FlowRuleMatch>,
    late_ns: Vec<u64>,
) -> RoundResult {
    let mut worker_lost = false;
    let stats = loop {
        match pipeline.drain() {
            Ok(stats) => break stats,
            // The worker was respawned; the next drain succeeds.
            Err(_) => worker_lost = true,
        }
    };
    RoundResult {
        stats,
        polled,
        polled_rules,
        polled_alerts: 0,
        elapsed: start.elapsed(),
        dispatch_time,
        late_ns,
        worker_lost,
    }
}

/// One flow's alerts in a comparable form: `(pattern, start)` in pattern
/// mode, `(rule, end)` in rule mode, sorted, duplicates kept.
pub type Alerts = Vec<(u32, usize)>;

/// The independent oracle's expected alerts for a seeded sample of flows.
pub struct Oracle {
    expected: BTreeMap<u32, Alerts>,
}

/// Bytes × patterns the oracle may spend on its sample: the naive
/// matchers cost one window comparison per pattern per byte.
const ORACLE_BUDGET: u64 = 400_000_000;

impl Oracle {
    /// Picks flows by `seed` until the naive matchers' budget is spent
    /// (at least one flow) and computes their alerts with `NaiveMatcher`
    /// or `naive_rule_find_all` (filtered by `GroupedRuleSet::applies_to`).
    pub fn sample(inputs: &Inputs, seed: u64, scale: usize) -> Oracle {
        enum Naive<'a> {
            Patterns(&'a PatternSet),
            Rules(GroupedRuleSet),
        }
        let naive = match &inputs.ruleset {
            Ruleset::Patterns(set) => Naive::Patterns(set),
            Ruleset::Grouped(rules) => Naive::Rules(GroupedRuleSet::new(rules.clone())),
        };
        // Window comparisons per payload byte; every rule has two contents.
        let per_byte = match &naive {
            Naive::Patterns(set) => set.len() as u64,
            Naive::Rules(grouped) => 2 * grouped.len() as u64,
        };
        let mut rng = SplitMix(seed ^ 0x6f72_6163_6c65); // "oracle"
        let mut order: Vec<u32> = (0..inputs.flows.len() as u32).collect();
        shuffle(&mut rng, &mut order);
        let budget = ORACLE_BUDGET / scale.max(1) as u64;
        let mut spent = 0u64;
        let mut expected = BTreeMap::new();
        for index in order {
            let flow = &inputs.flows[index as usize];
            let cost = flow.payload.len() as u64 * per_byte;
            if !expected.is_empty() && spent + cost > budget {
                continue;
            }
            spent += cost;
            let mut alerts: Alerts = match &naive {
                Naive::Patterns(set) => naive_find_all(set, &flow.payload)
                    .into_iter()
                    .map(|m| (m.pattern.0, m.start))
                    .collect(),
                Naive::Rules(grouped) => naive_rule_find_all(grouped.monolithic(), &flow.payload)
                    .into_iter()
                    .filter(|m| flow.tuple.is_none_or(|t| grouped.applies_to(m.rule, t)))
                    .map(|m| (m.rule.0, m.end))
                    .collect(),
            };
            alerts.sort_unstable();
            expected.insert(index, alerts);
        }
        Oracle { expected }
    }

    /// True when flow id `flow` (of any round) is in the sample.
    pub fn samples(&self, flow: u64) -> bool {
        self.expected.contains_key(&(flow as u32))
    }

    /// Flows in the sample.
    pub fn flows(&self) -> usize {
        self.expected.len()
    }
}

/// Running totals of attempted and failed packets and of alert counts.
#[derive(Default)]
pub struct Ledger {
    /// Packets dispatched.
    pub attempted: u64,
    /// Packets shed, quarantined, lost, or on a flow whose alerts differ
    /// from the oracle.
    pub failed: u64,
    /// Sampled flows whose alerts differed from the oracle.
    pub mismatched_flows: u64,
    /// Total alerts of each round; every round carries the same packets.
    pub alerts_per_round: BTreeSet<u64>,
}

impl Ledger {
    /// Accounts one round of `inputs` sent as round number `round`.
    pub fn check(&mut self, inputs: &Inputs, oracle: &Oracle, round: u32, result: &RoundResult) {
        let packets_of = |index: u32| {
            inputs
                .steps
                .iter()
                .filter(|s| matches!(s, Step::Packet { flow, .. } if *flow == index))
                .count() as u64
        };
        let round_packets = inputs.round_packets();
        self.attempted += round_packets;
        let stats = &result.stats;
        let alerts = (stats.matches.len() + stats.rule_matches.len()) as u64 + result.polled_alerts;
        self.alerts_per_round.insert(alerts);
        if result.worker_lost {
            self.failed += round_packets;
            return;
        }
        let mut failed_flows: BTreeSet<u32> = BTreeSet::new();
        for error in &stats.flow_errors {
            if (error.flow >> 32) as u32 == round {
                failed_flows.insert(error.flow as u32);
            }
        }
        let mut got: BTreeMap<u32, Alerts> = BTreeMap::new();
        let pattern_hits = stats.matches.iter().chain(&result.polled);
        for m in pattern_hits {
            let index = m.flow as u32;
            if (m.flow >> 32) as u32 == round && oracle.expected.contains_key(&index) {
                got.entry(index)
                    .or_default()
                    .push((m.event.pattern.0, m.event.start));
            }
        }
        for m in stats.rule_matches.iter().chain(&result.polled_rules) {
            let index = m.flow as u32;
            if (m.flow >> 32) as u32 == round && oracle.expected.contains_key(&index) {
                got.entry(index).or_default().push((m.rule.0, m.end));
            }
        }
        for (index, expected) in &oracle.expected {
            let mut alerts = got.remove(index).unwrap_or_default();
            alerts.sort_unstable();
            if &alerts != expected {
                self.mismatched_flows += 1;
                failed_flows.insert(*index);
            }
        }
        self.failed += stats.shed_packets;
        self.failed += failed_flows.into_iter().map(packets_of).sum::<u64>();
    }

    /// True when no sampled flow mismatched, nothing failed, and every
    /// round produced the same number of alerts.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatched_flows == 0 && self.alerts_per_round.len() <= 1
    }
}

/// The `q` quantile of the latency from each packet's scheduled send time
/// to its scan completion, nanoseconds.
///
/// The pipeline reports dispatch-to-completion time only as a histogram,
/// and the benchmark knows each packet's dispatch lateness. Their sum is
/// taken as independent: every quantile of one is paired with every
/// quantile of the other. Lateness is near zero while the generator keeps
/// up; `bench.gen_late_p99_us` shows when it did not.
pub fn scheduled_latency_ns(service: &LatencyHistogram, late_ns: &[u64], q: f64) -> f64 {
    const GRID: usize = 400;
    if service.count() == 0 || late_ns.is_empty() {
        return 0.0;
    }
    let mut late = late_ns.to_vec();
    late.sort_unstable();
    let grid = |k: usize| (k as f64 + 0.5) / GRID as f64;
    let service_q: Vec<f64> = (0..GRID)
        .map(|k| service.percentile(grid(k)) as f64)
        .collect();
    let late_q: Vec<f64> = (0..GRID)
        .map(|k| late[((grid(k) * late.len() as f64) as usize).min(late.len() - 1)] as f64)
        .collect();
    let mut sums: Vec<f64> = Vec::with_capacity(GRID * GRID);
    for s in &service_q {
        for l in &late_q {
            sums.push(s + l);
        }
    }
    sums.sort_unstable_by(f64::total_cmp);
    sums[((q * sums.len() as f64) as usize).min(sums.len() - 1)]
}

/// The `q` quantile of `values` (sorted in place).
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}
