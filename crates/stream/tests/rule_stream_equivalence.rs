//! The rule-confirmation streaming invariant: for any chunking of any flow,
//! [`RuleStreamScanner`] confirms exactly the rules (at exactly the
//! offsets) that `naive_rule_find_all` reports for the concatenated
//! payload — in particular when a **secondary** content, or the positional
//! window tying it to the anchor, straddles a chunk seam. Deterministic
//! every-cut-point sweeps complement the random-chunking property tests in
//! the workspace's `tests/rule_confirmation_differential.rs`.

use mpm_patterns::rule::{naive_rule_find_all, Rule, RuleContent, RuleId, RuleSet};
use mpm_patterns::{NaiveMatcher, ProtocolGroup};
use mpm_simd::{Avx2Backend, Avx512Backend, BackendKind, ScalarBackend};
use mpm_stream::{Packet, RuleStreamScanner, ScannerBuilder, SharedMatcher};
use mpm_vpatch::{SPatch, VPatch};
use std::sync::Arc;

fn ruleset(rules: Vec<Vec<RuleContent>>) -> RuleSet {
    RuleSet::new(
        rules
            .into_iter()
            .map(|contents| Rule::new(ProtocolGroup::Any, contents))
            .collect(),
    )
}

/// Content-set engines spanning the engine families, plus every backend
/// this run can dispatch to (`MPM_FORCE_BACKEND` narrows the list).
fn engines(set: &RuleSet) -> Vec<SharedMatcher> {
    let contents = set.content_set();
    let mut engines: Vec<SharedMatcher> = vec![
        Arc::new(NaiveMatcher::new(contents)),
        Arc::from(SPatch::build(contents)),
        Arc::from(VPatch::<ScalarBackend, 8>::build(contents)),
    ];
    for kind in mpm_simd::available_backends() {
        match kind {
            BackendKind::Scalar => {}
            BackendKind::Avx2 => {
                engines.push(Arc::from(VPatch::<Avx2Backend, 8>::build(contents)));
            }
            BackendKind::Avx512 => {
                engines.push(Arc::from(VPatch::<Avx512Backend, 16>::build(contents)));
            }
        }
    }
    engines
}

/// Rules whose secondary contents and windows exercise every constraint
/// kind, paired with a payload on which they all confirm.
fn seam_fixture() -> (RuleSet, Vec<u8>) {
    let set = ruleset(vec![
        // Chained relative windows: anchor .. distance .. within.
        vec![
            RuleContent::new(*b"GET "),
            RuleContent::new(*b"/etc/").with_distance(0),
            RuleContent::new(*b"passwd")
                .with_distance(0)
                .with_within(10),
        ],
        // Negative distance: secondary overlaps the anchor's tail.
        vec![
            RuleContent::new(*b"abcd"),
            RuleContent::new(*b"cdef").with_distance(-2),
        ],
        // Absolute window on the secondary content.
        vec![
            RuleContent::new(*b"HTTP"),
            RuleContent::new(*b"Host").with_offset(20).with_depth(24),
        ],
        // nocase secondary.
        vec![
            RuleContent::new(*b"user"),
            RuleContent::new(*b"PASS")
                .with_nocase(true)
                .with_distance(1),
        ],
    ]);
    let payload = b"GET /etc/passwd abcdef HTTP/1.1 ..Host user: pass".to_vec();
    (set, payload)
}

/// Every two-chunk split of the payload — every possible seam, including
/// ones inside each secondary content and inside each constraint window —
/// must confirm the same rules at the same offsets as one-shot.
#[test]
fn every_cut_point_confirms_the_same_rules() {
    let (set, payload) = seam_fixture();
    let expected = naive_rule_find_all(&set, &payload);
    assert_eq!(expected.len(), set.len(), "fixture: every rule confirms");
    for engine in engines(&set) {
        let name = engine.name();
        for cut in 0..=payload.len() {
            let mut scanner = RuleStreamScanner::new(engine.clone(), &set);
            let (mut anchors, mut rules) = (Vec::new(), Vec::new());
            scanner.push(&payload[..cut], &mut anchors, &mut rules);
            scanner.push(&payload[cut..], &mut anchors, &mut rules);
            rules.sort_unstable();
            assert_eq!(rules, expected, "{name}: cut at {cut} diverged");
        }
    }
}

/// The content engine as a deployment builds it, through
/// `mpm_vpatch::build_for` on every backend this run can dispatch to: the
/// one V-PATCH pass per push must index every content occurrence exactly,
/// wherever the seam falls.
#[test]
fn build_for_every_backend_confirms_every_cut() {
    let (set, payload) = seam_fixture();
    let expected = naive_rule_find_all(&set, &payload);
    for kind in mpm_simd::available_backends() {
        let engine: SharedMatcher = Arc::from(
            mpm_vpatch::build_for(set.content_set(), kind).expect("available backend builds"),
        );
        for cut in 0..=payload.len() {
            let mut scanner = RuleStreamScanner::new(engine.clone(), &set);
            let (mut anchors, mut rules) = (Vec::new(), Vec::new());
            scanner.push(&payload[..cut], &mut anchors, &mut rules);
            scanner.push(&payload[cut..], &mut anchors, &mut rules);
            rules.sort_unstable();
            assert_eq!(rules, expected, "{kind:?}: cut at {cut} diverged");
        }
    }
}

/// 1-byte chunks: the most seams a stream can have.
#[test]
fn one_byte_chunks_confirm_the_same_rules() {
    let (set, payload) = seam_fixture();
    let expected = naive_rule_find_all(&set, &payload);
    for engine in engines(&set) {
        let name = engine.name();
        let mut scanner = RuleStreamScanner::new(engine, &set);
        let (mut anchors, mut rules) = (Vec::new(), Vec::new());
        for &b in &payload {
            scanner.push(&[b], &mut anchors, &mut rules);
        }
        rules.sort_unstable();
        assert_eq!(rules, expected, "{name}: 1-byte chunks diverged");
    }
}

/// A rule must confirm on exactly the push whose bytes complete its minimal
/// satisfiable prefix — never earlier (the window is still open) and never
/// twice.
#[test]
fn confirmation_lands_on_the_completing_push() {
    let set = ruleset(vec![vec![
        RuleContent::new(*b"head"),
        RuleContent::new(*b"tail").with_distance(2).with_within(10),
    ]]);
    let payload = b"..head..xx..tail..";
    let expected = naive_rule_find_all(&set, payload);
    assert_eq!(expected.len(), 1);
    let minimal_end = expected[0].end;
    for engine in engines(&set) {
        let name = engine.name();
        let mut scanner = RuleStreamScanner::new(engine, &set);
        let (mut anchors, mut rules) = (Vec::new(), Vec::new());
        for (i, &b) in payload.iter().enumerate() {
            let before = rules.len();
            scanner.push(&[b], &mut anchors, &mut rules);
            if i + 1 == minimal_end {
                assert_eq!(rules.len(), before + 1, "{name}: late at byte {i}");
            } else {
                assert_eq!(rules.len(), before, "{name}: early/duplicate at byte {i}");
            }
        }
        assert_eq!(rules, expected, "{name}");
    }
}

/// Sharded rule mode: packets of one flow cut at every seam across *two
/// batches* still confirm, and worker count never changes the result.
#[test]
fn sharded_rule_confirmation_survives_every_packet_seam() {
    let (set, payload) = seam_fixture();
    let expected: Vec<(u64, RuleId, usize)> = naive_rule_find_all(&set, &payload)
        .into_iter()
        .map(|m| (5u64, m.rule, m.end))
        .collect();
    let engine: SharedMatcher = Arc::new(NaiveMatcher::new(set.content_set()));
    for cut in 0..=payload.len() {
        for workers in [1usize, 4] {
            let mut scanner = ScannerBuilder::new()
                .rules(engine.clone(), &set)
                .workers(workers)
                .build_barrier()
                .expect("valid build");
            let mut confirmed = Vec::new();
            let first = scanner.scan_batch(vec![Packet::new(5, payload[..cut].to_vec())]);
            confirmed.extend(first.rule_matches);
            let second = scanner.scan_batch(vec![Packet::new(5, payload[cut..].to_vec())]);
            confirmed.extend(second.rule_matches);
            let got: Vec<(u64, RuleId, usize)> =
                confirmed.iter().map(|m| (m.flow, m.rule, m.end)).collect();
            assert_eq!(
                got, expected,
                "cut at {cut} with {workers} workers diverged"
            );
        }
    }
}
