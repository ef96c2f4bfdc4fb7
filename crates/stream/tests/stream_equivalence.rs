//! The streaming invariant, property-tested: for random patterns, random
//! haystacks and random chunkings — including 1-byte chunks and chunk cuts
//! inside every pattern — [`StreamScanner`] over the chunks reports a
//! byte-identical match set to a one-shot scan, for S-PATCH, V-PATCH and
//! DFC on every available backend. The PATCH engines resume each push from
//! the candidates they carried out of the previous one; the deterministic
//! tests below pin that carry (long `nocase` patterns, `reset`, its size
//! bound, an empty overlap) and the work counters it saves.

use mpm_aho_corasick::{DfaMatcher, NfaMatcher};
use mpm_dfc::{Dfc, VectorDfc};
use mpm_patterns::matcher::normalize_matches;
use mpm_patterns::naive::naive_find_all;
use mpm_patterns::synthetic::SyntheticRuleset;
use mpm_patterns::{MatchEvent, NaiveMatcher, Pattern, PatternSet};
use mpm_simd::{Avx2Backend, Avx512Backend, BackendKind, ScalarBackend};
use mpm_stream::{SharedMatcher, StreamScanner};
use mpm_traffic::{TraceGenerator, TraceKind, TraceSpec};
use mpm_vpatch::{SPatch, VPatch};
use mpm_wu_manber::WuManber;
use proptest::prelude::*;
use std::sync::Arc;

fn bytes_strategy(max_len: usize) -> impl Strategy<Value = Vec<u8>> {
    // Small alphabet plus arbitrary bytes: collisions (and therefore real
    // matches and boundary straddles) happen often.
    proptest::collection::vec(
        prop_oneof![
            Just(b'a'),
            Just(b'b'),
            Just(b'c'),
            Just(b'G'),
            Just(b'E'),
            Just(b'T'),
            any::<u8>()
        ],
        1..max_len,
    )
}

fn pattern_set_strategy() -> impl Strategy<Value = PatternSet> {
    proptest::collection::vec(bytes_strategy(10), 1..12)
        .prop_map(|ps| PatternSet::new(ps.into_iter().map(Pattern::literal).collect()))
}

/// A chunking plan: chunk sizes are taken from this list round-robin, so a
/// plan of `[1]` is pure 1-byte streaming and mixed plans cut at arbitrary
/// offsets (including inside patterns).
fn chunk_plan_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(1usize..24, 1..16)
}

/// The engines that resume from carried candidates: S-PATCH and V-PATCH at
/// both scalar widths and on every backend this run can dispatch to
/// (`MPM_FORCE_BACKEND` narrows the list, pinning the suite).
fn patch_engines(set: &PatternSet) -> Vec<SharedMatcher> {
    let mut engines: Vec<SharedMatcher> = vec![
        Arc::from(SPatch::build(set)),
        Arc::from(VPatch::<ScalarBackend, 8>::build(set)),
        Arc::from(VPatch::<ScalarBackend, 16>::build(set)),
    ];
    for kind in mpm_simd::available_backends() {
        match kind {
            BackendKind::Scalar => {}
            BackendKind::Avx2 => engines.push(Arc::from(VPatch::<Avx2Backend, 8>::build(set))),
            BackendKind::Avx512 => engines.push(Arc::from(VPatch::<Avx512Backend, 16>::build(set))),
        }
    }
    engines
}

/// Every engine the streaming invariant covers: the PATCH engines plus
/// (Vector-)DFC, which takes the default single-call path.
fn engines(set: &PatternSet) -> Vec<SharedMatcher> {
    let mut engines = patch_engines(set);
    engines.push(Arc::from(Dfc::build(set)));
    engines.push(Arc::from(VectorDfc::<ScalarBackend, 8>::build(set)));
    for kind in mpm_simd::available_backends() {
        match kind {
            BackendKind::Scalar => {}
            BackendKind::Avx2 => engines.push(Arc::from(VectorDfc::<Avx2Backend, 8>::build(set))),
            BackendKind::Avx512 => {
                engines.push(Arc::from(VectorDfc::<Avx512Backend, 16>::build(set)))
            }
        }
    }
    engines
}

/// Streams `hay` through `scanner` following the chunking plan and returns
/// the normalized match set.
fn streamed_matches(
    engine: SharedMatcher,
    set: &PatternSet,
    hay: &[u8],
    plan: &[usize],
) -> Vec<MatchEvent> {
    let mut scanner = StreamScanner::new(engine, set);
    let mut got = Vec::new();
    let mut pos = 0;
    let mut step = 0;
    while pos < hay.len() {
        let take = plan[step % plan.len()].min(hay.len() - pos);
        scanner.push(&hay[pos..pos + take], &mut got);
        assert!(
            scanner.carried_len() <= scanner.overlap(),
            "carried state outgrew the overlap"
        );
        pos += take;
        step += 1;
    }
    assert_eq!(scanner.position(), hay.len());
    normalize_matches(&mut got);
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn streamed_equals_one_shot_for_random_chunkings(
        set in pattern_set_strategy(),
        hay in bytes_strategy(400),
        plan in chunk_plan_strategy(),
    ) {
        let expected = naive_find_all(&set, &hay);
        for engine in engines(&set) {
            let name = engine.name();
            let got = streamed_matches(engine, &set, &hay, &plan);
            prop_assert_eq!(
                &got, &expected,
                "{} diverged from one-shot scan under plan {:?}",
                name, &plan
            );
        }
    }

    #[test]
    fn one_byte_chunks_equal_one_shot(
        set in pattern_set_strategy(),
        hay in bytes_strategy(200),
    ) {
        let expected = naive_find_all(&set, &hay);
        for engine in engines(&set) {
            let name = engine.name();
            let got = streamed_matches(engine, &set, &hay, &[1]);
            prop_assert_eq!(
                &got, &expected,
                "{} diverged from one-shot scan on 1-byte chunks",
                name
            );
        }
    }
}

/// Exhaustive boundary cuts: for every pattern and every cut position inside
/// it, split the stream exactly there and require the match to be found —
/// the deterministic core of the carry-over invariant.
#[test]
fn every_cut_inside_every_pattern_is_found() {
    let set = PatternSet::from_literals(&["GET /", "passwd", "ab", "aaaa", "x"]);
    for (id, pattern) in set.iter() {
        let needle = pattern.bytes();
        let mut hay = Vec::new();
        hay.extend_from_slice(b"..");
        hay.extend_from_slice(needle);
        hay.extend_from_slice(b"..");
        let expected = naive_find_all(&set, &hay);
        for cut in 1..needle.len() {
            let boundary = 2 + cut; // stream offset of the cut
            for engine in engines(&set) {
                let name = engine.name();
                let mut scanner = StreamScanner::new(engine, &set);
                let mut got = Vec::new();
                scanner.push(&hay[..boundary], &mut got);
                scanner.push(&hay[boundary..], &mut got);
                normalize_matches(&mut got);
                assert_eq!(
                    got, expected,
                    "{name}: pattern {id} cut at {cut} lost a match"
                );
            }
        }
    }
}

/// Two `nocase` patterns of 150 bytes — longer than twice a 64-byte chunk
/// — sharing a 140-byte periodic prefix, so every push carries many long
/// candidates, plus short and mid-length patterns of both case modes.
fn long_nocase_set() -> PatternSet {
    let long_a: Vec<u8> = b"AbCdEfGhIj".iter().copied().cycle().take(150).collect();
    let mut long_b = long_a[..140].to_vec();
    long_b.extend_from_slice(b"-Tail-Of-B");
    PatternSet::new(vec![
        Pattern::literal_nocase(long_a),
        Pattern::literal_nocase(long_b),
        Pattern::literal(*b"GET"),
        Pattern::literal_nocase(*b"hOST:"),
        Pattern::literal_nocase(*b"j"),
        Pattern::literal(*b"ab"),
    ])
}

fn long_nocase_haystack() -> Vec<u8> {
    let mut hay = b"GET / HTTP/1.1\r\nHost: x\r\n".to_vec();
    // Overlapping occurrences of the periodic pattern in mixed case...
    hay.extend(b"aBcDeFgHiJ".iter().copied().cycle().take(420));
    hay.extend_from_slice(b"ab GET host: ");
    // ...a near miss and a hit of the tail-differing one...
    hay.extend(b"abcdefghij".iter().copied().cycle().take(140));
    hay.extend_from_slice(b"-tail-of-C ");
    hay.extend(b"ABCDEFGHIJ".iter().copied().cycle().take(140));
    hay.extend_from_slice(b"-TAIL-OF-B");
    // ...and a cut-off occurrence at the very end of the stream.
    hay.extend(b"abcdefghij".iter().copied().cycle().take(149));
    hay
}

#[test]
fn long_nocase_patterns_stream_exactly_in_small_chunks() {
    let set = long_nocase_set();
    let hay = long_nocase_haystack();
    let expected = naive_find_all(&set, &hay);
    assert!(expected.len() > 30, "fixture must produce many matches");
    for engine in patch_engines(&set) {
        let name = engine.name();
        for chunk in [1, 3, 64] {
            let got = streamed_matches(engine.clone(), &set, &hay, &[chunk]);
            assert_eq!(got, expected, "{name}: {chunk}-byte chunks");
        }
    }
}

#[test]
fn reset_drops_carried_candidates() {
    // The long patterns of the fixture, without the short ones the suffix
    // contains.
    let fixture = long_nocase_set();
    let set = PatternSet::new(fixture.patterns()[..3].to_vec());
    let long = set.get(mpm_patterns::PatternId(1)).bytes().to_vec();
    let cut = 100;
    for engine in patch_engines(&set) {
        let name = engine.name();
        let mut scanner = StreamScanner::new(engine, &set);
        let mut stream_a = Vec::new();
        scanner.push(b"zz", &mut stream_a);
        scanner.push(&long[..cut], &mut stream_a);
        assert!(
            scanner.carried_len() > 0,
            "{name}: stream A must end with the cut pattern's candidate carried"
        );
        scanner.reset();
        assert_eq!(scanner.carried_len(), 0, "{name}");
        let mut stream_b = Vec::new();
        scanner.push(&long[cut..], &mut stream_b);
        assert_eq!(
            stream_b,
            Vec::new(),
            "{name}: the suffix alone holds no match"
        );
    }
}

#[test]
fn one_byte_patterns_carry_nothing() {
    let set = PatternSet::new(vec![
        Pattern::literal(*b"x"),
        Pattern::literal_nocase(*b"Y"),
        Pattern::literal(*b"\0"),
    ]);
    let hay: Vec<u8> = b"xyYzx\0Xy".iter().copied().cycle().take(300).collect();
    let expected = naive_find_all(&set, &hay);
    for engine in patch_engines(&set) {
        let name = engine.name();
        for plan in [&[1usize][..], &[3], &[7, 64]] {
            let mut scanner = StreamScanner::new(engine.clone(), &set);
            assert_eq!(scanner.overlap(), 0);
            let mut got = Vec::new();
            let mut pos = 0;
            for &take in plan.iter().cycle() {
                if pos == hay.len() {
                    break;
                }
                let end = (pos + take).min(hay.len());
                scanner.push(&hay[pos..end], &mut got);
                assert_eq!(scanner.carried_len(), 0, "{name}");
                pos = end;
            }
            normalize_matches(&mut got);
            assert_eq!(got, expected, "{name}: plan {plan:?}");
        }
    }
}

#[test]
fn resume_with_empty_state_equals_find_into_for_every_engine() {
    let set = long_nocase_set();
    let hay = long_nocase_haystack();
    let mut all = engines(&set);
    all.push(Arc::new(NaiveMatcher::new(&set)));
    all.push(Arc::new(NfaMatcher::build(&set)));
    all.push(Arc::new(DfaMatcher::build(&set)));
    all.push(Arc::new(WuManber::build(&set)));
    for engine in all {
        let name = engine.name();
        let mut direct = Vec::new();
        engine.find_into(&hay, &mut direct);
        let (mut carried, mut resumed) = (Vec::new(), Vec::new());
        let filtered = engine.find_resume_into(&hay, 0, &mut carried, hay.len(), &mut resumed);
        assert_eq!(resumed, direct, "{name}");
        assert_eq!(filtered, hay.len(), "{name}");
        assert!(carried.is_empty(), "{name}: nothing is kept past the end");
    }
}

/// The saving the candidate carry exists for, as an exact count: on 64-byte
/// pushes of the s1 trace, a PATCH engine filters each payload byte once
/// plus the three truncated-window positions per push, and makes one call
/// per push — while still reporting exactly the one-shot match set.
#[test]
fn patch_filters_each_stream_byte_once_on_s1_pushes() {
    let s1 = SyntheticRuleset::snort_like_s1().http();
    let hay = TraceGenerator::generate(&TraceSpec::new(TraceKind::IscxDay2, 8 << 10), Some(&s1));
    let expected = naive_find_all(&s1, &hay);
    assert!(
        !expected.is_empty(),
        "the trace carries injected s1 patterns"
    );
    let pushes = hay.len().div_ceil(64) as u64;
    for engine in patch_engines(&s1) {
        let name = engine.name();
        let mut scanner = StreamScanner::new(engine, &s1);
        let mut got = Vec::new();
        for chunk in hay.chunks(64) {
            scanner.push(chunk, &mut got);
        }
        normalize_matches(&mut got);
        assert_eq!(got, expected, "{name}");
        let stats = scanner.stats();
        assert_eq!(stats.engine_calls, pushes, "{name}");
        assert!(
            stats.engine_bytes <= hay.len() as u64 + 3 * pushes,
            "{name}: {} positions filtered for {} payload bytes in {pushes} pushes",
            stats.engine_bytes,
            hay.len()
        );
    }
}
