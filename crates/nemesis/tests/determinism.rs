//! The replay contract: a campaign is a pure function of its seed.
//!
//! Two runs of the same seed must produce byte-identical serialized
//! histories — that is what makes a failing seed a complete bug report
//! (no artifact to ship, no flaky reproduction: the seed *is* the
//! repro). The serialized form must also round-trip through the parser,
//! since triage tooling reads histories back from disk.

use spinnaker_common::crc32c::crc32c;
use spinnaker_common::History;
use spinnaker_nemesis::run_seed;

/// `(seed, serialized history length, its CRC-32C)`. Pinned so a history
/// change shows across versions, not only between two runs of one
/// binary. Re-pin only in a change that means to alter histories (the
/// client mix, pacing, fault schedule or protocol), and say so in its
/// CHANGES.md entry.
const PINNED: [(u64, usize, u32); 3] =
    [(3, 19235, 0x9d7d_4678), (11, 22792, 0xaf31_a4eb), (29, 18344, 0xf786_f81a)];

#[test]
fn same_seed_byte_identical_history() {
    for (seed, len, crc) in PINNED {
        let a = run_seed(seed);
        let b = run_seed(seed);
        assert!(a.violations.is_empty(), "seed {seed} inconsistent: {:?}", a.violations);
        assert!(!a.stalled, "seed {seed} stalled");
        assert_eq!(
            a.history.serialize(),
            b.history.serialize(),
            "seed {seed}: two runs diverged — campaign is not deterministic"
        );
        let text = a.history.serialize();
        assert_eq!(
            (text.len(), crc32c(text.as_bytes())),
            (len, crc),
            "seed {seed}: history differs from the pinned digest"
        );
    }
}

#[test]
fn history_round_trips_through_parser() {
    let r = run_seed(5);
    let text = r.history.serialize();
    let parsed = History::parse(&text).expect("serialized history must parse");
    assert_eq!(parsed, r.history);
    assert_eq!(parsed.serialize(), text);
}
