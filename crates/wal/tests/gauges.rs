//! The WAL gauges behind the admin plane's `/status` — `wal_segments_live`,
//! `wal_bytes_since_snapshot`, `wal_last_fsync_batch` — must move through a
//! roll/sync/snapshot/truncation cycle and agree with the `Wal` accessors;
//! and `wal_extend_total` must count exactly the syncs that grew the file.
//!
//! Kept in its own integration-test binary: the gauges are process-global,
//! so this test owns the whole process to read them deterministically.

use coalloc_wal::{Wal, WalConfig};

fn gauge(name: &'static str) -> i64 {
    obs::metrics::gauge(name).get()
}

#[test]
fn gauges_move_through_a_snapshot_truncation_cycle() {
    let dir = std::env::temp_dir().join(format!("wal-gauges-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = WalConfig::new(&dir);
    cfg.segment_bytes = 128; // tiny: force rolls

    let (mut wal, _rec) = Wal::open(cfg.clone()).unwrap();
    assert_eq!(gauge("wal_segments_live"), 1);
    assert_eq!(gauge("wal_bytes_since_snapshot"), 0);
    assert_eq!(gauge("wal_last_fsync_batch"), 0);

    // Appends grow the byte gauge record by record, before any sync.
    wal.append(b"submit 0 0 3600 4").unwrap();
    wal.append(b"release 0").unwrap();
    let after_two = gauge("wal_bytes_since_snapshot");
    assert!(after_two > 0, "bytes gauge moves on append");
    assert_eq!(after_two as u64, wal.bytes_since_snapshot());

    // One sync covering both records: last-batch gauge records the group.
    wal.sync().unwrap();
    assert_eq!(gauge("wal_last_fsync_batch"), 2);
    wal.append(b"submit 1 0 60 1").unwrap();
    wal.sync().unwrap();
    assert_eq!(gauge("wal_last_fsync_batch"), 1, "latest batch, not a max");

    // Fill past segment_bytes so the log rolls: live segments grow.
    for i in 0..40u32 {
        wal.append(format!("submit {i} 0 3600 2").as_bytes())
            .unwrap();
        wal.sync().unwrap();
    }
    assert!(wal.segments_live() > 1, "fixture must roll segments");
    assert_eq!(gauge("wal_segments_live") as u64, wal.segments_live());
    let before_snap = gauge("wal_bytes_since_snapshot");
    assert!(before_snap > after_two);

    // Snapshot install truncates: both gauges collapse.
    wal.install_snapshot(b"STATE").unwrap();
    assert_eq!(gauge("wal_segments_live"), 1);
    assert_eq!(wal.segments_live(), 1);
    assert_eq!(gauge("wal_bytes_since_snapshot"), 0);

    // And they resume moving afterwards.
    wal.append(b"submit 99 0 60 1").unwrap();
    assert!(gauge("wal_bytes_since_snapshot") > 0);
    drop(wal);

    // Reopen: the replayed tail counts as bytes-since-snapshot again.
    let (wal, rec) = Wal::open(cfg).unwrap();
    assert_eq!(
        rec.records.len(),
        0,
        "unsynced tail record was lost, as designed"
    );
    assert_eq!(
        gauge("wal_bytes_since_snapshot") as u64,
        wal.bytes_since_snapshot()
    );
    assert_eq!(gauge("wal_segments_live") as u64, wal.segments_live());
    drop(wal);
    std::fs::remove_dir_all(&dir).unwrap();

    // With default segments the first sync zero-fills a chunk and the ones
    // after it fit inside: `wal_fsync_total - wal_extend_total` is the
    // number of syncs that changed no file size.
    let counter = |name: &'static str| obs::metrics::counter(name).get();
    let (fsyncs, extends) = (counter("wal_fsync_total"), counter("wal_extend_total"));
    let (mut wal, _rec) = Wal::open(WalConfig::new(&dir)).unwrap();
    for _ in 0..20 {
        wal.append(b"submit 7 0 3600 2").unwrap();
        wal.sync().unwrap();
    }
    assert_eq!(counter("wal_fsync_total") - fsyncs, 20);
    assert_eq!(counter("wal_extend_total") - extends, 1);
    // Framed bytes only: the zero fill is not log content.
    assert_eq!(wal.bytes_since_snapshot(), 20 * (8 + 17));
    std::fs::remove_dir_all(&dir).unwrap();
}
