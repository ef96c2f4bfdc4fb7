//! [`ShardedScanner`]: fan a batch of packets out over worker threads with
//! flow-affine sharding.
//!
//! The paper's engines are single-core by design ("different hardware
//! threads can operate independently on different parts of the stream");
//! this module supplies the multi-core harness a production NIDS needs:
//!
//! * **N worker threads** (plain `std::thread` + `std::sync::mpsc`, in line
//!   with the workspace's no-external-deps policy), each draining its own
//!   queue;
//! * **flow-affine sharding** — packets of the same flow id always land on
//!   the same worker, so each flow's [`StreamScanner`](crate::StreamScanner) state (the
//!   chunk-boundary carry) lives on exactly one thread and matches that
//!   straddle packet boundaries within a flow are still found;
//! * **one shared engine** — workers clone an [`std::sync::Arc`] of the compiled
//!   matcher; the paper's cache-resident filter tables are read-only and
//!   shared, per-worker mutable state is confined to the per-flow scanners
//!   (and the engines' thread-cached `Scratch`, which is thread-local by
//!   construction);
//! * **merged, deterministic results** — [`ShardedScanner::scan_batch`]
//!   returns the union of every worker's matches sorted by
//!   `(flow, start, pattern)` plus summed [`MatcherStats`], so the same
//!   batch produces byte-identical output whether 1 or N workers ran it
//!   (property: `tests/shard_determinism.rs`);
//! * **bounded per-flow state** — [`crate::ScannerBuilder::max_flows`] caps
//!   the resident flow count with least-recently-pushed eviction (eviction
//!   retires carry state like [`ShardedScanner::close_flow`]), so a
//!   million-flow churn cannot grow memory without bound when callers do
//!   not close flows themselves.

use crate::worker::{mix64, FlowScanner, WorkerMode};
use mpm_patterns::ports::FlowTuple;
use mpm_patterns::rule::{RuleId, RuleMatch};
use mpm_patterns::{MatchEvent, MatcherStats};
use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;

/// One unit of work: a payload chunk belonging to a flow.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Flow identifier (e.g. a 5-tuple hash). Packets with equal ids are
    /// scanned in submission order on one worker, as one logical stream.
    pub flow: u64,
    /// The payload bytes of this packet.
    pub payload: Vec<u8>,
    /// Protocol + ports of the flow, used by grouped scanning
    /// ([`crate::ScannerBuilder::groups`]) to select which port groups scan
    /// the flow. Group selection happens once per flow, from the **first**
    /// packet's tuple; tuples on later packets of the same flow are ignored
    /// (a flow's 5-tuple does not change mid-flow). `None` scans the flow
    /// against every group, exactly like a monolithic scan. Plain and rule
    /// mode ignore this field.
    pub tuple: Option<FlowTuple>,
}

impl Packet {
    /// Creates a packet with no flow tuple (grouped scanners fall back to
    /// scanning all groups for it).
    pub fn new(flow: u64, payload: impl Into<Vec<u8>>) -> Self {
        Packet {
            flow,
            payload: payload.into(),
            tuple: None,
        }
    }

    /// Creates a packet carrying the flow's protocol/port tuple (see
    /// [`Packet::tuple`]). Grouped scanning needs the tuple on the flow's
    /// **first** packet — taking it as a constructor argument (rather than
    /// a post-hoc builder) keeps a grouped scan from silently dropping it
    /// and degrading to scan-every-group.
    pub fn new_with_tuple(flow: u64, payload: impl Into<Vec<u8>>, tuple: FlowTuple) -> Self {
        Packet {
            flow,
            payload: payload.into(),
            tuple: Some(tuple),
        }
    }
}

/// A match, tagged with the flow it occurred in. `event.start` is the
/// absolute byte offset within that flow's stream.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct FlowMatch {
    /// The flow the pattern occurred in.
    pub flow: u64,
    /// The occurrence, with `start` in flow-stream coordinates.
    pub event: MatchEvent,
}

/// A confirmed rule, tagged with the flow it was confirmed in. `end` is the
/// minimal prefix length of that flow's stream at which the rule's
/// constraints became satisfiable (flow-stream coordinates, like
/// [`FlowMatch`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct FlowRuleMatch {
    /// The flow the rule was confirmed in.
    pub flow: u64,
    /// The confirmed rule.
    pub rule: RuleId,
    /// Minimal satisfiable prefix length of the flow's stream.
    pub end: usize,
}

/// Result of one [`ShardedScanner::scan_batch`] call.
#[derive(Clone, Debug, Default)]
pub struct BatchResult {
    /// All matches of the batch, sorted by `(flow, start, pattern)`. In
    /// rule mode ([`crate::ScannerBuilder::rules`]) these are the anchor hits.
    pub matches: Vec<FlowMatch>,
    /// Rules confirmed during the batch, sorted by `(flow, rule, end)`;
    /// each rule at most once per flow-stream. Empty unless the scanner was
    /// built in rule mode.
    pub rule_matches: Vec<FlowRuleMatch>,
    /// Per-batch statistics summed over all workers (`bytes_scanned`,
    /// `matches`, `engine_calls` and `engine_bytes` are exact and
    /// deterministic; the timing fields are zero —
    /// wall-clock belongs to the caller, who knows what overlapped).
    pub stats: MatcherStats,
    /// Flows whose stream state is resident across all workers at flush
    /// time. With a [`crate::ScannerBuilder::max_flows`] cap this never
    /// exceeds the cap (rounded up to a whole number of flows per worker).
    pub resident_flows: usize,
    /// Stream bytes covered by rule confirmation across all resident
    /// flows at flush time, once per flow: the gauge the
    /// [`crate::ScannerBuilder::max_flow_buffer`] cap bounds. Zero in
    /// pattern-only mode.
    pub buffered_bytes: u64,
}

enum Job {
    Packet(Packet),
    /// Drop a finished flow's stream state (see
    /// [`ShardedScanner::close_flow`]).
    CloseFlow(u64),
    /// Barrier: report everything accumulated since the last flush.
    Flush(Sender<WorkerReport>),
}

struct WorkerReport {
    matches: Vec<FlowMatch>,
    rule_matches: Vec<FlowRuleMatch>,
    stats: MatcherStats,
    resident_flows: usize,
    buffered_bytes: u64,
}

struct Worker {
    sender: Sender<Job>,
    handle: Option<JoinHandle<()>>,
}

/// Multi-core **batch** scanner with per-flow stream state: every
/// [`ShardedScanner::scan_batch`] is a dispatch followed by a full barrier.
/// This is the right harness for differential testing and batch benchmarks
/// (results arrive as one deterministic unit); a continuously-running
/// deployment wants [`crate::PipelineScanner`]
/// (`ScannerBuilder::build`), which replaces the per-batch barrier with
/// bounded rings, backpressure and latency telemetry.
///
/// ```
/// use mpm_patterns::{NaiveMatcher, PatternSet};
/// use mpm_stream::{Packet, ScannerBuilder, ShardedScanner};
/// use std::sync::Arc;
///
/// let rules = PatternSet::from_literals(&["attack"]);
/// let engine: mpm_stream::SharedMatcher = Arc::from(NaiveMatcher::new(&rules));
/// let mut scanner: ShardedScanner = ScannerBuilder::new()
///     .engine(engine, &rules)
///     .workers(4)
///     .build_barrier()
///     .expect("valid configuration");
///
/// let batch = vec![
///     Packet::new(7, b"...att".to_vec()),  // flow 7, cut inside the pattern
///     Packet::new(9, b"clean".to_vec()),
///     Packet::new(7, b"ack...".to_vec()),  // same flow => same worker
/// ];
/// let result = scanner.scan_batch(batch);
/// assert_eq!(result.matches.len(), 1);
/// assert_eq!(result.matches[0].flow, 7);
/// assert_eq!(result.matches[0].event.start, 3);
/// ```
pub struct ShardedScanner {
    workers: Vec<Worker>,
}

impl ShardedScanner {
    pub(crate) fn spawn(
        mode: WorkerMode,
        workers: usize,
        max_flows: Option<usize>,
        max_flow_buffer: Option<usize>,
    ) -> Self {
        // Invariant: `ScannerBuilder` validated the count (BuildError::ZeroWorkers).
        assert!(workers > 0, "need at least one worker");
        // The cap is split evenly; div_ceil so the total never rounds below
        // the requested bound for small caps.
        let per_worker_cap = max_flows.map(|m| m.div_ceil(workers).max(1));
        let workers = (0..workers)
            .map(|_| {
                let (sender, receiver) = mpsc::channel();
                let mode = mode.clone();
                let handle = std::thread::spawn(move || {
                    worker_loop(receiver, mode, per_worker_cap, max_flow_buffer)
                });
                Worker {
                    sender,
                    handle: Some(handle),
                }
            })
            .collect();
        ShardedScanner { workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The worker a flow is pinned to. Deterministic for a given worker
    /// count: a flow's packets always share a worker (and therefore its
    /// per-flow stream state), and batches are reproducible run-to-run.
    pub fn worker_of(&self, flow: u64) -> usize {
        (mix64(flow) % self.workers.len() as u64) as usize
    }

    /// Scans a batch of packets across the workers and returns the merged,
    /// deterministically-ordered result.
    ///
    /// Flow stream state **persists across batches**: a pattern cut between
    /// the last packet of one batch and the first packet of the next (in the
    /// same flow) is still reported, by the later batch.
    pub fn scan_batch(&mut self, packets: impl IntoIterator<Item = Packet>) -> BatchResult {
        for packet in packets {
            let worker = self.worker_of(packet.flow);
            // Invariant: barrier workers only exit when their sender is
            // dropped in `Drop`, so a send can only fail after `self` is
            // gone. (Supervision/recovery is a pipeline-only feature; the
            // barrier stays the simple differential oracle.)
            self.workers[worker]
                .sender
                .send(Job::Packet(packet))
                .expect("worker thread alive");
        }
        self.flush()
    }

    /// Barrier: waits for every worker to drain its queue and merges what
    /// they accumulated since the last flush. [`ShardedScanner::scan_batch`]
    /// calls this; it is public for callers that dispatch packets
    /// incrementally via [`ShardedScanner::dispatch`].
    pub fn flush(&mut self) -> BatchResult {
        let (report_sender, report_receiver) = mpsc::channel();
        for worker in &self.workers {
            // Invariant: workers outlive every send (see `scan_batch`).
            worker
                .sender
                .send(Job::Flush(report_sender.clone()))
                .expect("worker thread alive");
        }
        drop(report_sender);
        let mut result = BatchResult::default();
        for report in report_receiver {
            result.matches.extend(report.matches);
            result.rule_matches.extend(report.rule_matches);
            result.stats.merge(&report.stats);
            result.resident_flows += report.resident_flows;
            result.buffered_bytes += report.buffered_bytes;
        }
        result.matches.sort_unstable();
        result.rule_matches.sort_unstable();
        result
    }

    /// Sends one packet to its flow's worker without waiting. Pair with
    /// [`ShardedScanner::flush`] to collect results.
    pub fn dispatch(&mut self, packet: Packet) {
        let worker = self.worker_of(packet.flow);
        // Invariant: workers outlive every send (see `scan_batch`).
        self.workers[worker]
            .sender
            .send(Job::Packet(packet))
            .expect("worker thread alive");
    }

    /// Retires a finished flow, freeing its per-flow stream state (carry
    /// bytes and buffers) on the owning worker.
    ///
    /// Per-flow state otherwise lives for the scanner's lifetime, which is
    /// unbounded growth under millions of short-lived flows — a long-running
    /// pipeline must close flows as connections end (on FIN/RST or an idle
    /// timeout), exactly as a NIDS retires its reassembly state. Closing is
    /// ordered with respect to packets sent earlier for the same flow;
    /// packets sent *after* start a fresh stream (offset 0, empty carry).
    /// Closing an unknown flow is a no-op.
    pub fn close_flow(&mut self, flow: u64) {
        let worker = self.worker_of(flow);
        // Invariant: workers outlive every send (see `scan_batch`).
        self.workers[worker]
            .sender
            .send(Job::CloseFlow(flow))
            .expect("worker thread alive");
    }
}

impl Drop for ShardedScanner {
    fn drop(&mut self) {
        for worker in &mut self.workers {
            // Dropping the sender ends the worker's receive loop.
            let (hangup, _) = mpsc::channel();
            let _ = std::mem::replace(&mut worker.sender, hangup);
            if let Some(handle) = worker.handle.take() {
                let _ = handle.join();
            }
        }
    }
}

/// One flow's stream state plus its recency stamp (the sequence number of
/// the flow's latest packet on this worker).
struct FlowSlot {
    scanner: FlowScanner,
    seq: u64,
}

fn worker_loop(
    receiver: Receiver<Job>,
    mode: WorkerMode,
    max_flows: Option<usize>,
    max_flow_buffer: Option<usize>,
) {
    // Per-flow stream state; the engines' thread-cached Scratch is implicit
    // (find_into uses this worker thread's cached scratch). With a cap,
    // `recency` keys flows by their last-push sequence number so the
    // least-recently-pushed flow is found in O(log flows) at eviction time;
    // without one the map stays empty and the uncapped hot path pays
    // nothing for the eviction machinery.
    let mut flows: HashMap<u64, FlowSlot> = HashMap::new();
    let mut recency: std::collections::BTreeMap<u64, u64> = std::collections::BTreeMap::new();
    let mut next_seq = 0u64;
    let mut matches: Vec<FlowMatch> = Vec::new();
    let mut rule_matches: Vec<FlowRuleMatch> = Vec::new();
    let mut stats = MatcherStats::default();
    let mut events: Vec<MatchEvent> = Vec::new();
    let mut rule_events: Vec<RuleMatch> = Vec::new();
    while let Ok(job) = receiver.recv() {
        match job {
            Job::Packet(packet) => {
                let seq = next_seq;
                next_seq += 1;
                let flow = packet.flow;
                let slot = if let Some(cap) = max_flows {
                    if let Some(slot) = flows.get_mut(&flow) {
                        recency.remove(&slot.seq);
                        slot.seq = seq;
                    } else {
                        // An unseen flow would push this worker past its
                        // share of the cap: retire the least-recently-pushed
                        // flow first (same semantics as close_flow — its
                        // carry state is dropped and a later packet for it
                        // starts a fresh stream).
                        if flows.len() >= cap {
                            let (_, evicted) =
                                recency.pop_first().expect("cap >= 1, so map is non-empty");
                            flows.remove(&evicted);
                        }
                        flows.insert(
                            flow,
                            FlowSlot {
                                scanner: FlowScanner::mint(&mode, packet.tuple, max_flow_buffer),
                                seq,
                            },
                        );
                    }
                    recency.insert(seq, flow);
                    flows.get_mut(&flow).expect("present or just inserted")
                } else {
                    // Uncapped: no recency bookkeeping, one hash lookup.
                    flows.entry(flow).or_insert_with(|| FlowSlot {
                        scanner: FlowScanner::mint(&mode, packet.tuple, max_flow_buffer),
                        seq,
                    })
                };
                events.clear();
                rule_events.clear();
                slot.scanner
                    .push(&packet.payload, &mut events, &mut rule_events, &mut stats);
                matches.extend(events.drain(..).map(|event| FlowMatch { flow, event }));
                rule_matches.extend(rule_events.drain(..).map(|m| FlowRuleMatch {
                    flow,
                    rule: m.rule,
                    end: m.end,
                }));
            }
            Job::CloseFlow(flow) => {
                if let Some(slot) = flows.remove(&flow) {
                    recency.remove(&slot.seq);
                }
            }
            Job::Flush(report) => {
                let _ = report.send(WorkerReport {
                    matches: std::mem::take(&mut matches),
                    rule_matches: std::mem::take(&mut rule_matches),
                    stats: std::mem::take(&mut stats),
                    resident_flows: flows.len(),
                    buffered_bytes: flows.values().map(|s| s.scanner.buffered_bytes()).sum(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ScannerBuilder;
    use crate::group::GroupedEngineSet;
    use crate::stream::SharedMatcher;
    use mpm_patterns::rule::RuleSet;
    use mpm_patterns::{NaiveMatcher, PatternSet};
    use std::sync::Arc;

    fn engine(set: &PatternSet) -> SharedMatcher {
        Arc::from(NaiveMatcher::new(set))
    }

    fn barrier(set: &PatternSet, workers: usize) -> ShardedScanner {
        ScannerBuilder::new()
            .engine(engine(set), set)
            .workers(workers)
            .build_barrier()
            .expect("valid build")
    }

    fn rules_barrier(set: &RuleSet, workers: usize) -> ScannerBuilder {
        ScannerBuilder::new()
            .rules(Arc::new(NaiveMatcher::new(set.content_set())), set)
            .workers(workers)
    }

    #[test]
    fn cross_packet_match_within_a_flow() {
        let set = PatternSet::from_literals(&["needle"]);
        let mut scanner = barrier(&set, 3);
        let result = scanner.scan_batch(vec![
            Packet::new(1, b"xxnee".to_vec()),
            Packet::new(2, b"dle".to_vec()), // different flow: no match
            Packet::new(1, b"dleyy".to_vec()),
        ]);
        assert_eq!(result.matches.len(), 1);
        assert_eq!(result.matches[0].flow, 1);
        assert_eq!(result.matches[0].event.start, 2);
        assert_eq!(result.stats.bytes_scanned, 13);
        assert_eq!(result.stats.matches, 1);
    }

    #[test]
    fn state_persists_across_batches() {
        let set = PatternSet::from_literals(&["split"]);
        let mut scanner = barrier(&set, 2);
        let first = scanner.scan_batch(vec![Packet::new(5, b"..spl".to_vec())]);
        assert!(first.matches.is_empty());
        let second = scanner.scan_batch(vec![Packet::new(5, b"it..".to_vec())]);
        assert_eq!(second.matches.len(), 1);
        assert_eq!(second.matches[0].event.start, 2);
    }

    #[test]
    fn flow_affinity_is_stable() {
        let set = PatternSet::from_literals(&["x"]);
        let scanner = barrier(&set, 4);
        for flow in 0..100 {
            assert_eq!(scanner.worker_of(flow), scanner.worker_of(flow));
        }
        // The mixer should not send every flow to one worker.
        let hit: std::collections::HashSet<usize> =
            (0..100).map(|f| scanner.worker_of(f)).collect();
        assert!(hit.len() > 1);
    }

    #[test]
    fn dispatch_then_flush_equals_scan_batch() {
        let set = PatternSet::from_literals(&["ab", "b"]);
        let packets = vec![
            Packet::new(1, b"zab".to_vec()),
            Packet::new(2, b"ba".to_vec()),
        ];
        let mut a = barrier(&set, 2);
        let batch = a.scan_batch(packets.clone());
        let mut b = barrier(&set, 2);
        for packet in packets {
            b.dispatch(packet);
        }
        let incremental = b.flush();
        assert_eq!(batch.matches, incremental.matches);
        assert_eq!(batch.stats.bytes_scanned, incremental.stats.bytes_scanned);
    }

    #[test]
    fn close_flow_drops_stream_state() {
        let set = PatternSet::from_literals(&["split"]);
        let mut scanner = barrier(&set, 2);
        assert!(scanner
            .scan_batch(vec![Packet::new(9, b"..spl".to_vec())])
            .matches
            .is_empty());
        scanner.close_flow(9);
        // The carried "spl" was retired with the flow: no straddle match,
        // and the flow restarts at offset 0.
        let after = scanner.scan_batch(vec![Packet::new(9, b"it.split".to_vec())]);
        assert_eq!(after.matches.len(), 1);
        assert_eq!(after.matches[0].event.start, 3);
        // Closing an unknown flow is a no-op.
        scanner.close_flow(12345);
        assert!(scanner.flush().matches.is_empty());
    }

    #[test]
    fn million_flow_churn_stays_bounded_and_scans_correctly() {
        let set = PatternSet::from_literals(&["needle"]);
        let cap = 64;
        let workers = 3;
        let mut scanner = ScannerBuilder::new()
            .engine(engine(&set), &set)
            .workers(workers)
            .max_flows(cap)
            .build_barrier()
            .expect("valid build");
        // A million distinct flows, each carrying one complete occurrence:
        // every match must be found (the pattern never straddles packets of
        // different flows) and the resident state must stay at the cap, not
        // at one million scanners.
        let total_flows = 1_000_000u64;
        let batch_size = 50_000u64;
        let mut found = 0u64;
        let mut flow = 0u64;
        while flow < total_flows {
            let packets: Vec<Packet> = (flow..flow + batch_size)
                .map(|f| Packet::new(f, b"..needle..".to_vec()))
                .collect();
            flow += batch_size;
            let result = scanner.scan_batch(packets);
            found += result.matches.len() as u64;
            assert!(
                result.resident_flows <= workers * cap.div_ceil(workers),
                "resident flows {} exceeded the cap",
                result.resident_flows
            );
        }
        assert_eq!(found, total_flows);
    }

    #[test]
    fn eviction_is_least_recently_pushed_and_acts_like_close_flow() {
        let set = PatternSet::from_literals(&["split"]);
        // One worker, two resident flows.
        let mut scanner = ScannerBuilder::new()
            .engine(engine(&set), &set)
            .workers(1)
            .max_flows(2)
            .build_barrier()
            .expect("valid build");
        // Flow 1 and 2 each buffer a half-pattern; pushing flow 1 again
        // makes flow 2 the least-recently-pushed.
        scanner.scan_batch(vec![
            Packet::new(1, b"..sp".to_vec()),
            Packet::new(2, b"..sp".to_vec()),
            Packet::new(1, b"spl".to_vec()),
        ]);
        // Flow 3 arrives at the cap: flow 2 (LRP) is evicted, flow 1 stays.
        let result = scanner.scan_batch(vec![
            Packet::new(3, b"zzz".to_vec()),
            Packet::new(1, b"it!".to_vec()), // completes flow 1's "split"
            Packet::new(2, b"lit".to_vec()), // would complete flow 2's — evicted
        ]);
        let flows_matched: Vec<u64> = result.matches.iter().map(|m| m.flow).collect();
        assert_eq!(flows_matched, vec![1], "only the retained flow straddles");
        assert_eq!(result.matches[0].event.start, 4);
        // Evicted flow restarted at offset 0: a full occurrence still hits.
        let after = scanner.scan_batch(vec![Packet::new(2, b"split".to_vec())]);
        assert_eq!(after.matches.len(), 1);
        assert_eq!(after.matches[0].event.start, 3);
    }

    fn rules_for_shard() -> RuleSet {
        use mpm_patterns::rule::{Rule, RuleContent};
        RuleSet::new(vec![Rule::new(
            mpm_patterns::ProtocolGroup::Any,
            vec![
                RuleContent::new(*b"attack"),
                RuleContent::new(*b"body").with_distance(0),
            ],
        )])
    }

    #[test]
    fn rule_mode_confirms_across_packets_within_a_flow() {
        let set = rules_for_shard();
        let mut scanner = rules_barrier(&set, 3).build_barrier().expect("valid build");
        let result = scanner.scan_batch(vec![
            Packet::new(1, b"..atta".to_vec()),
            Packet::new(2, b"ck body".to_vec()), // other flow: no anchor
            Packet::new(1, b"ck..".to_vec()),
            Packet::new(1, b"body".to_vec()),
        ]);
        assert_eq!(
            result.rule_matches,
            vec![FlowRuleMatch {
                flow: 1,
                rule: RuleId(0),
                end: 14
            }]
        );
        // Anchor hits still reported, in flow-stream coordinates.
        assert_eq!(result.matches.len(), 1);
        assert_eq!(result.matches[0].event.start, 2);
    }

    #[test]
    fn rule_mode_confirms_across_batches_and_reports_once() {
        let set = rules_for_shard();
        let mut scanner = rules_barrier(&set, 2).build_barrier().expect("valid build");
        let first = scanner.scan_batch(vec![Packet::new(7, b"attack..".to_vec())]);
        assert!(
            first.rule_matches.is_empty(),
            "second content still missing"
        );
        let second = scanner.scan_batch(vec![Packet::new(7, b"body".to_vec())]);
        assert_eq!(
            second.rule_matches,
            vec![FlowRuleMatch {
                flow: 7,
                rule: RuleId(0),
                end: 12
            }]
        );
        let third = scanner.scan_batch(vec![Packet::new(7, b"body".to_vec())]);
        assert!(
            third.rule_matches.is_empty(),
            "a rule confirms once per flow"
        );
    }

    #[test]
    fn rule_mode_determinism_across_worker_counts() {
        let set = rules_for_shard();
        let packets: Vec<Packet> = (0..20u64)
            .map(|f| Packet::new(f, format!("attack {f} body").into_bytes()))
            .collect();
        let run = |workers: usize| {
            let mut scanner = rules_barrier(&set, workers)
                .build_barrier()
                .expect("valid build");
            scanner.scan_batch(packets.clone())
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.rule_matches, four.rule_matches);
        assert_eq!(one.matches, four.matches);
        assert_eq!(one.rule_matches.len(), 20);
    }

    #[test]
    fn rule_mode_eviction_retires_buffered_payload() {
        let set = rules_for_shard();
        // One worker, one resident flow: flow 2's arrival evicts flow 1.
        let mut scanner = rules_barrier(&set, 1)
            .max_flows(1)
            .build_barrier()
            .expect("valid build");
        scanner.scan_batch(vec![Packet::new(1, b"attack..".to_vec())]);
        let result = scanner.scan_batch(vec![
            Packet::new(2, b"zz".to_vec()),
            Packet::new(1, b"body".to_vec()), // flow 1 restarted: no anchor
        ]);
        assert!(result.rule_matches.is_empty());
    }

    fn grouped_engines() -> Arc<GroupedEngineSet> {
        use mpm_patterns::group::GroupedRuleSet;
        use mpm_patterns::snort::{parse_grouped, ParseOptions};
        let text = r#"
alert tcp any any -> any 80 (msg:"web"; content:"GET /admin"; sid:1;)
alert udp any any -> any 53 (msg:"dns"; content:"querydata"; sid:2;)
alert ip any any -> any any (msg:"any"; content:"evil-bytes"; sid:3;)
"#;
        let grouped = GroupedRuleSet::new(parse_grouped(text, ParseOptions::default()).unwrap());
        Arc::new(GroupedEngineSet::build_with(grouped, |set, _| {
            Arc::from(NaiveMatcher::new(set))
        }))
    }

    #[test]
    fn grouped_mode_selects_groups_per_flow_and_confirms_across_packets() {
        use mpm_patterns::ports::{FlowTuple, Proto};
        let mut scanner = ScannerBuilder::new()
            .groups(grouped_engines())
            .workers(3)
            .build_barrier()
            .expect("valid build");
        let web = FlowTuple::new(Proto::Tcp, 40000, 80);
        let dns = FlowTuple::new(Proto::Udp, 1000, 53);
        let result = scanner.scan_batch(vec![
            // Flow 1 (HTTP): web rule cut across packets + the ip-any rule.
            Packet::new_with_tuple(1, b"..GET /ad".to_vec(), web),
            Packet::new_with_tuple(2, b"querydata evil-bytes".to_vec(), dns),
            Packet::new(1, b"min evil-bytes".to_vec()),
            // Flow 3 (HTTP): dns content must NOT fire on an HTTP flow.
            Packet::new_with_tuple(3, b"querydata".to_vec(), web),
        ]);
        assert!(result.matches.is_empty(), "grouped mode reports rules only");
        assert_eq!(
            result.rule_matches,
            vec![
                FlowRuleMatch {
                    flow: 1,
                    rule: RuleId(0),
                    end: 12
                },
                FlowRuleMatch {
                    flow: 1,
                    rule: RuleId(2),
                    end: 23
                },
                FlowRuleMatch {
                    flow: 2,
                    rule: RuleId(1),
                    end: 9
                },
                FlowRuleMatch {
                    flow: 2,
                    rule: RuleId(2),
                    end: 20
                },
            ]
        );
        assert_eq!(result.stats.matches, 4);
    }

    #[test]
    fn grouped_mode_determinism_across_worker_counts() {
        use mpm_patterns::ports::{FlowTuple, Proto};
        let packets: Vec<Packet> = (0..24u64)
            .map(|f| {
                let tuple = if f % 2 == 0 {
                    FlowTuple::new(Proto::Tcp, 40000 + f as u16, 80)
                } else {
                    FlowTuple::new(Proto::Udp, 1000 + f as u16, 53)
                };
                Packet::new_with_tuple(f, b"GET /admin querydata evil-bytes".to_vec(), tuple)
            })
            .collect();
        let run = |workers: usize| {
            let mut scanner = ScannerBuilder::new()
                .groups(grouped_engines())
                .workers(workers)
                .build_barrier()
                .expect("valid build");
            scanner.scan_batch(packets.clone())
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.rule_matches, four.rule_matches);
        // Every flow fires its protocol's rule plus the ip-any rule.
        assert_eq!(one.rule_matches.len(), 48);
    }

    #[test]
    fn grouped_mode_eviction_retires_flow_state() {
        use mpm_patterns::ports::{FlowTuple, Proto};
        let web = FlowTuple::new(Proto::Tcp, 9, 80);
        let mut scanner = ScannerBuilder::new()
            .groups(grouped_engines())
            .workers(1)
            .max_flows(1)
            .build_barrier()
            .expect("valid build");
        scanner.scan_batch(vec![Packet::new_with_tuple(1, b"GET /ad".to_vec(), web)]);
        let result = scanner.scan_batch(vec![
            Packet::new_with_tuple(2, b"zz".to_vec(), web), // evicts flow 1
            Packet::new_with_tuple(1, b"min".to_vec(), web), // fresh stream
        ]);
        assert!(result.rule_matches.is_empty());
    }

    #[test]
    fn resident_flows_reported_without_a_cap_too() {
        let set = PatternSet::from_literals(&["x"]);
        let mut scanner = barrier(&set, 2);
        let result = scanner.scan_batch((0..10u64).map(|f| Packet::new(f, b"x".to_vec())));
        assert_eq!(result.resident_flows, 10);
        scanner.close_flow(3);
        assert_eq!(scanner.flush().resident_flows, 9);
    }
}
