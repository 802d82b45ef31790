//! Property tests for the WAL's recovery guarantees: whatever a crash does
//! to the tail of the log, recovery yields a *prefix* of the synced records
//! — never an invented record, never a reordering, never a panic.

use coalloc_wal::{Wal, WalConfig};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn tmp(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "coalloc-wal-props-{}-{tag}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Bytes the frames of `records` take: the logical length of the segment
/// holding them, which the file outgrows by its zeroed tail.
fn framed_len(records: &[Vec<u8>]) -> usize {
    records.iter().map(|r| 8 + r.len()).sum()
}

/// Write `records` with one sync at the end, and return the single segment
/// file backing them (large segment bound: nothing rolls).
fn write_all(dir: &PathBuf, records: &[Vec<u8>]) -> PathBuf {
    let (mut wal, _) = Wal::open(WalConfig::new(dir)).expect("open fresh");
    for r in records {
        wal.append(r).expect("append");
    }
    wal.sync().expect("sync");
    let seg = wal.active_segment();
    drop(wal);
    dir.join(format!("seg-{seg:020}.log"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Truncating the last segment at ANY byte boundary of its records
    /// recovers a prefix of them, with the rest counted as torn.
    #[test]
    fn truncation_recovers_a_prefix(
        recs in prop::collection::vec(prop::collection::vec(0u8..=255, 1..40), 1..20),
        cut_fraction in 0.0f64..1.0,
    ) {
        let dir = tmp("truncate");
        let seg = write_all(&dir, &recs);
        let cut = (framed_len(&recs) as f64 * cut_fraction) as u64;
        let f = std::fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(cut).unwrap();
        drop(f);

        let (_w, rec) = Wal::open(WalConfig::new(&dir)).expect("recovery must not fail");
        prop_assert!(rec.records.len() <= recs.len());
        for (got, want) in rec.records.iter().zip(recs.iter()) {
            prop_assert_eq!(got, want, "recovered records must be an in-order prefix");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Flipping ANY byte of the last segment still recovers an in-order
    /// prefix (everything from the damaged frame on is dropped as torn).
    #[test]
    fn byte_flip_in_last_segment_recovers_a_prefix(
        recs in prop::collection::vec(prop::collection::vec(0u8..=255, 1..40), 1..20),
        victim_fraction in 0.0f64..1.0,
        flip in 1u8..=255,
    ) {
        let dir = tmp("flip");
        let seg = write_all(&dir, &recs);
        let mut bytes = std::fs::read(&seg).unwrap();
        let logical = framed_len(&recs);
        prop_assert!(bytes.len() > logical, "a zeroed tail follows the records");
        // Three flips in four land in a frame, the rest in the zeroed tail.
        let victim = ((bytes.len().min(logical * 4 / 3) - 1) as f64 * victim_fraction) as usize;
        bytes[victim] ^= flip;
        std::fs::write(&seg, &bytes).unwrap();

        let (_w, rec) = Wal::open(WalConfig::new(&dir)).expect("recovery must not fail");
        // A flip always invalidates the frame it lands in (the CRC is over
        // the payload, the length gates the CRC's position): at least that
        // record and everything after it must be dropped as torn. A flip
        // behind the records loses none of them and is still torn away.
        if victim < logical {
            prop_assert!(rec.records.len() < recs.len());
        } else {
            prop_assert_eq!(rec.records.len(), recs.len());
        }
        prop_assert!(rec.torn_bytes > 0);
        for (got, want) in rec.records.iter().zip(recs.iter()) {
            prop_assert_eq!(got, want, "recovered records must be an in-order prefix");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Arbitrary garbage right after the last record (a torn write into the
    /// zeroed tail) is truncated away and appends resume cleanly afterwards.
    #[test]
    fn garbage_tail_roundtrips_after_repair(
        recs in prop::collection::vec(prop::collection::vec(0u8..=255, 1..40), 1..12),
        garbage in prop::collection::vec(0u8..=255, 1..64),
    ) {
        let dir = tmp("garbage");
        let seg = write_all(&dir, &recs);
        let mut bytes = std::fs::read(&seg).unwrap();
        let logical = framed_len(&recs);
        bytes[logical..logical + garbage.len()].copy_from_slice(&garbage);
        std::fs::write(&seg, &bytes).unwrap();

        let (mut wal, _rec) = Wal::open(WalConfig::new(&dir)).expect("recovery must not fail");
        // Whether the garbage parsed as checksum-valid frames (astronomically
        // unlikely) or was torn away, a follow-up append must survive a
        // clean reopen with no residual tear.
        wal.append(b"after repair").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_w, rec2) = Wal::open(WalConfig::new(&dir)).expect("reopen");
        prop_assert_eq!(rec2.torn_bytes, 0);
        prop_assert_eq!(rec2.records.last().unwrap().as_slice(), b"after repair");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
