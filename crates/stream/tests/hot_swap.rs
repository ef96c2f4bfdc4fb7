//! Hot-swap differential suite: scan a spliced traffic trace while swapping
//! rulesets mid-stream and assert every flow is confirmed against **exactly
//! one** epoch's ruleset — flows minted before the swap keep scanning under
//! the old ruleset until they close (graceful drain, no torn reads), flows
//! minted after see only the new one, and the outcome is deterministic
//! across 1/2/4 workers.
//!
//! The two epochs use disjoint rules ("alpha" vs "bravo") and every flow
//! receives the identical byte stream containing both, so the reported
//! [`mpm_stream::FlowRuleMatch::end`] offset alone identifies which epoch
//! confirmed the flow: `end == 7` ⇒ epoch A, `end == 16` ⇒ epoch B. A torn
//! read (a flow scanned partly under each ruleset) would surface as a flow
//! with both ends, or with the wrong one for its mint time.

use mpm_patterns::rule::{Rule, RuleContent, RuleSet};
use mpm_patterns::{NaiveMatcher, ProtocolGroup};
use mpm_stream::{FlowRuleMatch, Packet, PipelineScanner, ScannerBuilder, SharedMatcher};
use std::sync::Arc;

fn worker_counts(default: &[usize]) -> Vec<usize> {
    match std::env::var("MPM_WORKERS") {
        Ok(v) => vec![v.parse().expect("MPM_WORKERS must be a positive integer")],
        Err(_) => default.to_vec(),
    }
}

fn single_rule_set(needle: [u8; 5]) -> RuleSet {
    RuleSet::new(vec![Rule::new(
        ProtocolGroup::Any,
        vec![RuleContent::new(needle)],
    )])
}

/// Every flow gets the same spliced stream: "--alpha--" then "--bravo--".
/// Epoch A's ruleset can only confirm at prefix 7; epoch B's only at 16.
const PACKET_A: &[u8] = b"--alpha--";
const PACKET_B: &[u8] = b"--bravo--";
const END_ALPHA: usize = 7;
const END_BRAVO: usize = 16;

fn build(workers: usize) -> (PipelineScanner, SharedMatcher, RuleSet) {
    let set_a = single_rule_set(*b"alpha");
    let set_b = single_rule_set(*b"bravo");
    let engine_a: SharedMatcher = Arc::new(NaiveMatcher::new(set_a.content_set()));
    let engine_b: SharedMatcher = Arc::new(NaiveMatcher::new(set_b.content_set()));
    let pipeline = ScannerBuilder::new()
        .rules(engine_a, &set_a)
        .workers(workers)
        .build()
        .expect("valid build");
    (pipeline, engine_b, set_b)
}

/// Runs the spliced scenario and returns the confirmed rule matches plus
/// the post-swap old-epoch flow count.
fn run_spliced(workers: usize, old_flows: u64, new_flows: u64) -> (Vec<FlowRuleMatch>, usize) {
    let (mut pipeline, engine_b, set_b) = build(workers);
    assert_eq!(pipeline.epoch(), 0);

    // Mint `old_flows` flows under epoch A with the first splice.
    for f in 0..old_flows {
        pipeline.dispatch(Packet::new(f, PACKET_A.to_vec()));
    }
    // Swap rulesets mid-stream. The marker rides the same FIFO job rings
    // as the packets, so "before"/"after" is exact per flow.
    assert_eq!(pipeline.swap_rules(engine_b, &set_b), 1);
    // Old flows continue their stream past the swap; new flows are minted
    // after it and must see only epoch B.
    for f in 0..old_flows {
        pipeline.dispatch(Packet::new(f, PACKET_B.to_vec()));
    }
    for f in old_flows..old_flows + new_flows {
        pipeline.dispatch(Packet::new(f, PACKET_A.to_vec()));
        pipeline.dispatch(Packet::new(f, PACKET_B.to_vec()));
    }
    let stats = pipeline.drain().expect("workers alive");
    assert_eq!(stats.epoch, 1);
    let old_epoch_flows = stats.old_epoch_flows;

    // Graceful drain: closing the pre-swap flows retires the last
    // old-epoch scanners.
    for f in 0..old_flows {
        pipeline.close_flow(f);
    }
    let after_close = pipeline.drain().expect("workers alive");
    assert_eq!(after_close.old_epoch_flows, 0, "old epoch fully drained");
    assert_eq!(after_close.resident_flows, new_flows as usize);

    (stats.rule_matches, old_epoch_flows)
}

#[test]
fn each_flow_confirms_against_exactly_one_epoch() {
    for workers in worker_counts(&[1, 2, 4]) {
        let (matches, old_epoch_flows) = run_spliced(workers, 12, 12);
        assert_eq!(
            old_epoch_flows, 12,
            "{workers} workers: every pre-swap flow still on epoch A"
        );
        assert_eq!(matches.len(), 24, "{workers} workers: one rule per flow");
        for m in &matches {
            let minted_pre_swap = m.flow < 12;
            let expected_end = if minted_pre_swap {
                END_ALPHA
            } else {
                END_BRAVO
            };
            assert_eq!(
                m.end, expected_end,
                "{workers} workers: flow {} confirmed by the wrong epoch",
                m.flow
            );
        }
        // Exactly one confirmation per flow — a torn read would double up.
        let mut flows: Vec<u64> = matches.iter().map(|m| m.flow).collect();
        flows.sort_unstable();
        flows.dedup();
        assert_eq!(flows.len(), 24);
    }
}

#[test]
fn swap_outcome_is_identical_across_worker_counts() {
    let (reference, _) = run_spliced(1, 9, 7);
    for workers in worker_counts(&[2, 4]) {
        let (matches, _) = run_spliced(workers, 9, 7);
        assert_eq!(
            matches, reference,
            "{workers} workers diverge from the single-worker reference"
        );
    }
}

#[test]
fn swapped_in_ruleset_governs_flows_that_outlive_several_epochs() {
    // Three epochs: alpha → bravo → alpha again. A flow minted in each
    // epoch keeps its mint-time ruleset for its whole life, so the epoch-0
    // and epoch-2 flows confirm "alpha" and the epoch-1 flow "bravo" —
    // even though all three receive both needles.
    let set_a = single_rule_set(*b"alpha");
    let set_b = single_rule_set(*b"bravo");
    let engine_a: SharedMatcher = Arc::new(NaiveMatcher::new(set_a.content_set()));
    let engine_b: SharedMatcher = Arc::new(NaiveMatcher::new(set_b.content_set()));
    let mut pipeline = ScannerBuilder::new()
        .rules(engine_a.clone(), &set_a)
        .workers(2)
        .build()
        .expect("valid build");
    let feed = |p: &mut PipelineScanner, flow: u64| {
        p.dispatch(Packet::new(flow, PACKET_A.to_vec()));
        p.dispatch(Packet::new(flow, PACKET_B.to_vec()));
    };
    feed(&mut pipeline, 0);
    assert_eq!(pipeline.swap_rules(engine_b, &set_b), 1);
    feed(&mut pipeline, 1);
    assert_eq!(pipeline.swap_rules(engine_a, &set_a), 2);
    feed(&mut pipeline, 2);
    let mut matches = pipeline.drain().expect("workers alive").rule_matches;
    matches.sort_by_key(|m| m.flow);
    let ends: Vec<(u64, usize)> = matches.iter().map(|m| (m.flow, m.end)).collect();
    assert_eq!(ends, vec![(0, END_ALPHA), (1, END_BRAVO), (2, END_ALPHA)]);
}
