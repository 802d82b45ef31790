//! Hostile-input fuzzing for [`CoAllocScheduler::restore`]: the snapshot
//! is the crash-recovery base image of the WAL (DESIGN.md §13), so restore
//! must treat its input as attacker-controlled. Whatever bytes arrive —
//! truncated, reordered, bit-flipped, or pure noise — restore must return
//! `SnapshotError` or a scheduler that passes `check_consistency()`
//! (i.e. no overlapping commitments), and must never panic.

use coalloc_core::prelude::*;
use proptest::prelude::*;

fn fixture(seed: u64, servers: u32, n_jobs: usize) -> CoAllocScheduler {
    let cfg = SchedulerConfig::builder()
        .tau(Dur(10))
        .horizon(Dur(300))
        .delta_t(Dur(10))
        .policy(SelectionPolicy::ByServerId)
        .seed(seed)
        .build();
    let mut s = CoAllocScheduler::new(servers, cfg);
    for i in 0..n_jobs {
        let dur = Dur(10 + 10 * ((seed as i64 + i as i64) % 4));
        let k = 1 + ((i as u32 + servers) % servers.min(3));
        let _ = s.submit(&Request::on_demand(Time::ZERO, dur, k));
    }
    s
}

/// Either an error or a consistent scheduler; `check_consistency` panics on
/// any overlap or index drift, which is exactly the property under test.
fn must_not_corrupt(input: &str) {
    if let Ok(s) = CoAllocScheduler::restore(input) {
        s.check_consistency();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pure noise never panics (and, lacking the magic line, never parses).
    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(0u8..=255, 0..400)) {
        let input = String::from_utf8_lossy(&bytes);
        prop_assert!(CoAllocScheduler::restore(&input).is_err());
    }

    /// Noise *behind* a genuine magic line still never panics.
    #[test]
    fn magic_plus_noise_never_panics(bytes in prop::collection::vec(0u8..=255, 0..400)) {
        for version in ["v3", "v2", "v1"] {
            let noise = String::from_utf8_lossy(&bytes);
            must_not_corrupt(&format!("coalloc-snapshot {version}\n{noise}"));
        }
    }

    /// A footer-less (v1) file reaches the validator whatever it says:
    /// rewriting any one field of a genuine image — idle periods and
    /// reservations included — to a boundary value is an error or a
    /// consistent scheduler, never a panic and never an overlap.
    #[test]
    fn v1_field_rewrites_never_corrupt(
        seed in 0u64..1000,
        servers in 1u32..6,
        jobs in 0usize..8,
        line_frac in 0.0f64..1.0,
        field_frac in 0.0f64..1.0,
        value in 0usize..12,
    ) {
        const VALUES: [&str; 12] = [
            "-1", "0", "1", "5", "15", "40", "300", "310", "inf",
            "4398046511105", "9223372036854775807", "-9223372036854775808",
        ];
        let snap = fixture(seed, servers, jobs).snapshot();
        let mut lines: Vec<String> = snap
            .lines()
            .filter(|l| !l.starts_with("end "))
            .map(|l| l.replace("coalloc-snapshot v3", "coalloc-snapshot v1"))
            .collect();
        let victim = 1 + ((lines.len() - 2) as f64 * line_frac) as usize;
        let mut fields: Vec<&str> = lines[victim].split(' ').collect();
        let at = 1 + ((fields.len() - 2) as f64 * field_frac) as usize;
        fields[at] = VALUES[value];
        lines[victim] = fields.join(" ");
        must_not_corrupt(&lines.iter().map(|l| format!("{l}\n")).collect::<String>());
    }

    /// Truncating a genuine snapshot at ANY char boundary is detected.
    #[test]
    fn truncation_always_detected(
        seed in 0u64..1000,
        servers in 1u32..6,
        jobs in 0usize..8,
        cut_fraction in 0.0f64..1.0,
    ) {
        let snap = fixture(seed, servers, jobs).snapshot();
        // Any cut that loses real bytes must be detected; dropping only the
        // trailing '\n' is the one semantically-neutral truncation, so the
        // victim range stops one byte short of it.
        let mut cut = ((snap.len() - 1) as f64 * cut_fraction) as usize;
        while !snap.is_char_boundary(cut) {
            cut -= 1;
        }
        prop_assert!(cut < snap.len() - 1);
        prop_assert!(CoAllocScheduler::restore(&snap[..cut]).is_err());
    }

    /// Swapping any two distinct lines of a genuine snapshot is detected.
    #[test]
    fn reorder_always_detected(
        seed in 0u64..1000,
        servers in 2u32..6,
        jobs in 1usize..8,
        a_frac in 0.0f64..1.0,
        b_frac in 0.0f64..1.0,
    ) {
        let snap = fixture(seed, servers, jobs).snapshot();
        let mut lines: Vec<&str> = snap.lines().collect();
        let a = ((lines.len() - 1) as f64 * a_frac) as usize;
        let b = ((lines.len() - 1) as f64 * b_frac) as usize;
        if lines[a] != lines[b] {
            lines.swap(a, b);
            let mutated: String = lines.iter().map(|l| format!("{l}\n")).collect();
            prop_assert!(CoAllocScheduler::restore(&mutated).is_err());
        }
    }

    /// Flipping any byte of a genuine snapshot is detected (or, if it lands
    /// outside UTF-8, the lossy decode changes bytes and is still detected).
    #[test]
    fn byte_flip_always_detected(
        seed in 0u64..1000,
        servers in 1u32..6,
        jobs in 0usize..8,
        victim_frac in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let snap = fixture(seed, servers, jobs).snapshot();
        // Restrict victims to the hashed region (everything before the
        // footer line): footer bytes themselves admit semantically-neutral
        // rewrites (hex case, equivalent whitespace) that the parser rightly
        // accepts, so they are not "damage" in the sense of this property.
        let footer_len = snap.lines().last().unwrap().len() + 1;
        let hashed_len = snap.len() - footer_len;
        let mut bytes = snap.into_bytes();
        let victim = ((hashed_len - 1) as f64 * victim_frac) as usize;
        bytes[victim] ^= flip;
        let mutated = String::from_utf8_lossy(&bytes);
        prop_assert!(CoAllocScheduler::restore(&mutated).is_err());
    }

    /// Sanity: the unmodified snapshot restores and round-trips exactly.
    #[test]
    fn genuine_snapshots_roundtrip(
        seed in 0u64..1000,
        servers in 1u32..6,
        jobs in 0usize..8,
    ) {
        let snap = fixture(seed, servers, jobs).snapshot();
        let restored = CoAllocScheduler::restore(&snap).unwrap();
        restored.check_consistency();
        prop_assert_eq!(restored.snapshot(), snap);
    }
}
