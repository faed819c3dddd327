//! Property tests for the wisdom store (ISSUE 2 satellite c):
//!
//! 1. serialize → parse is the identity for arbitrary valid records;
//! 2. corrupted or truncated files yield a typed [`TunerError`] or a
//!    clean parse — never a panic. (A panic anywhere in `parse` would
//!    fail these tests; the harness does not catch unwinds.)

use bwfft_core::{Dims, ExecutorKind};
use bwfft_kernels::Direction;
use bwfft_tuner::{TunerError, TuningRecord, Wisdom, HostFingerprint, WISDOM_VERSION};
use proptest::prelude::*;
use proptest::strategy::Strategy;

/// An arbitrary record — not necessarily a *buildable* plan (the
/// format layer is agnostic to plan validity; `build_plan` re-validates
/// on replay).
fn arb_record() -> impl Strategy<Value = TuningRecord> {
    (
        (
            prop_oneof![
                (1usize..9, 1usize..9).prop_map(|(a, b)| Dims::d2(1 << a, 1 << b)),
                (1usize..7, 1usize..7, 1usize..7)
                    .prop_map(|(a, b, c)| Dims::d3(1 << a, 1 << b, 1 << c)),
            ],
            any::<bool>(),
            prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
            1usize..22,
        ),
        (1usize..64, 1usize..64, any::<bool>(), any::<bool>()),
        (any::<bool>(), 0.0f64..1e12),
    )
        .prop_map(
            |(
                (dims, fwd, mu, b_log2),
                (p_d, p_c, non_temporal, fused),
                (measured, score_ns),
            )| {
                TuningRecord {
                    dims,
                    dir: if fwd { Direction::Forward } else { Direction::Inverse },
                    mu,
                    buffer_elems: 1 << b_log2,
                    p_d,
                    p_c,
                    non_temporal,
                    executor: if fused { ExecutorKind::Fused } else { ExecutorKind::Pipelined },
                    score_ns,
                    measured,
                }
            },
        )
}

fn arb_fingerprint() -> impl Strategy<Value = HostFingerprint> {
    (1usize..256, any::<bool>(), 0usize..(1 << 28)).prop_map(|(cpus, pin_works, llc_bytes)| {
        HostFingerprint {
            cpus,
            pin_works,
            llc_bytes,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn serialize_parse_is_identity(
        fp in arb_fingerprint(),
        records in prop::collection::vec(arb_record(), 0..8),
    ) {
        let wisdom = Wisdom { fingerprint: fp, records };
        let text = wisdom.serialize();
        let (version, parsed) = Wisdom::parse(&text)
            .unwrap_or_else(|e| panic!("own output must parse: {e}\n{text}"));
        prop_assert_eq!(version, WISDOM_VERSION);
        // Field-exact, including score_ns: f64 Display is
        // shortest-roundtrip, so no tolerance is needed.
        prop_assert_eq!(parsed, wisdom);
    }

    #[test]
    fn truncated_files_never_panic(
        fp in arb_fingerprint(),
        records in prop::collection::vec(arb_record(), 1..5),
        cut_frac in 0.0f64..1.0,
    ) {
        let wisdom = Wisdom { fingerprint: fp, records };
        let text = wisdom.serialize();
        // All-ASCII format, so any byte offset is a char boundary.
        let cut = (text.len() as f64 * cut_frac) as usize;
        match Wisdom::parse(&text[..cut.min(text.len())]) {
            Ok(_) => {} // cut fell on a line boundary: fewer records, still valid
            Err(TunerError::WisdomParse { line, .. }) => prop_assert!(line >= 1),
            Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
        }
    }

    #[test]
    fn corrupted_bytes_never_panic(
        fp in arb_fingerprint(),
        records in prop::collection::vec(arb_record(), 1..4),
        edits in prop::collection::vec((0.0f64..1.0, 0u8..96), 1..16),
    ) {
        let wisdom = Wisdom { fingerprint: fp, records };
        let mut bytes = wisdom.serialize().into_bytes();
        for (pos_frac, printable) in edits {
            let pos = (bytes.len() as f64 * pos_frac) as usize % bytes.len();
            bytes[pos] = b' ' + printable; // printable ASCII keeps it valid UTF-8
        }
        let text = String::from_utf8(bytes).unwrap();
        match Wisdom::parse(&text) {
            Ok(_) => {} // the edits may have hit digits only — still well-formed
            Err(TunerError::WisdomParse { line, .. }) => prop_assert!(line >= 1),
            Err(other) => prop_assert!(false, "unexpected error kind: {other:?}"),
        }
    }

    #[test]
    fn garbage_lines_never_panic(
        noise in prop::collection::vec((0u8..96, 0usize..40), 0..12),
    ) {
        // Whole-cloth garbage: lines of repeated printable characters.
        let text = noise
            .iter()
            .map(|&(c, n)| String::from_utf8(vec![b' ' + c; n]).unwrap())
            .collect::<Vec<_>>()
            .join("\n");
        prop_assert!(matches!(
            Wisdom::parse(&text),
            Ok(_) | Err(TunerError::WisdomParse { .. })
        ));
    }
}
