//! # coalloc-wal
//!
//! A dependency-free (std-only) write-ahead log for the scheduler's
//! commitments: segment files written front to back with per-record
//! length+CRC32 framing into a pre-zeroed tail, group-commit fsync batching
//! driven by the caller, periodic snapshot installation with segment
//! truncation, and torn-tail detection on open.
//!
//! The paper defines the scheduler's state as "the set of commitments that
//! the system has made" (Section 2); this crate makes those commitments
//! durable. The serving path (`crates/net`) appends every state-changing
//! command *before* releasing its reply, so an acknowledged grant can never
//! be lost to a crash, and replays the log on startup to recover the exact
//! pre-crash state (DESIGN.md §13).
//!
//! ## On-disk layout
//!
//! A WAL directory holds numbered segment files and snapshot files:
//!
//! ```text
//! wal/
//!   snap-00000000000000000007.snap   state covering segments < 7
//!   seg-00000000000000000007.log     records appended after that state
//!   seg-00000000000000000008.log     (rolled when a segment fills up)
//! ```
//!
//! Every record (and the snapshot payload) is framed as
//! `[len: u32 LE][crc32(payload): u32 LE][payload]`. Recovery replays the
//! newest snapshot whose frame verifies, then every record of the segments
//! numbered at or above it, in order. A partial or corrupt frame at the end
//! of the *last* segment is a torn tail from the crash: it is counted,
//! truncated away, and appends resume at the cut. A bad frame anywhere else
//! is real corruption and surfaces as [`WalError::Corrupt`].
//!
//! ## The zeroed tail
//!
//! An fsync that also has to commit a new file size costs a file-system
//! journal commit on top of the data write, so the log does not grow by
//! the record. The active segment is extended with zeros a chunk
//! (`CHUNK`, 64 KiB) at a time — in the same write, covered by the same
//! fsync, as the records that first need the room — and the syncs that
//! follow overwrite zeros in place. A segment file is therefore up to one
//! chunk longer than its records, and **a zero length field is the end of
//! the log**: clean if every byte after it in the segment is zero, a bad
//! frame (see above) otherwise. Records are never empty ([`Wal::append`]
//! refuses an empty payload), so no record is mistaken for the end. A
//! segment with no zero tail at all — every log written before this layout
//! — ends at its last byte, as it always did.
//!
//! ## Group commit
//!
//! [`Wal::append`] buffers; [`Wal::sync`] makes everything appended so far
//! durable with one fsync and records the batch size in the
//! `wal_fsync_batch_size` histogram. The caller decides the batching
//! policy (the net scheduler thread fsyncs once per burst of queued
//! commands, or on a configurable flush interval), which is what amortizes
//! the durability tax under concurrent load.
//!
//! ```
//! use coalloc_wal::{Wal, WalConfig};
//!
//! let dir = std::env::temp_dir().join(format!("wal-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! let (mut wal, recovery) = Wal::open(WalConfig::new(&dir)).unwrap();
//! assert!(recovery.records.is_empty());
//! wal.append(b"submit 0 0 50 2").unwrap();
//! wal.append(b"release 0").unwrap();
//! wal.sync().unwrap(); // both records durable with one fsync
//! drop(wal);
//!
//! let (_wal, recovery) = Wal::open(WalConfig::new(&dir)).unwrap();
//! assert_eq!(recovery.records.len(), 2);
//! assert_eq!(recovery.records[0], b"submit 0 0 50 2");
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod crc;

use obs::{LazyCounter, LazyGauge, LazyHistogram};
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

static APPENDS: LazyCounter = LazyCounter::new("wal_append_total");
static APPEND_BYTES: LazyCounter = LazyCounter::new("wal_append_bytes_total");
static FSYNCS: LazyCounter = LazyCounter::new("wal_fsync_total");
/// Syncs that also grew the segment file; the rest changed no metadata.
static EXTENDS: LazyCounter = LazyCounter::new("wal_extend_total");
static BATCH: LazyHistogram = LazyHistogram::new("wal_fsync_batch_size");
static SNAPSHOTS: LazyCounter = LazyCounter::new("wal_snapshot_total");
static SEGMENTS_REMOVED: LazyCounter = LazyCounter::new("wal_segments_removed_total");
static TORN_BYTES: LazyCounter = LazyCounter::new("wal_torn_bytes_total");
// Live gauges for the admin plane's `/status` (DESIGN.md §8). They mirror
// the most recently updated `Wal` in this process — in production exactly
// one log is open per server.
static SEGMENTS_LIVE: LazyGauge = LazyGauge::new("wal_segments_live");
static BYTES_SINCE_SNAPSHOT: LazyGauge = LazyGauge::new("wal_bytes_since_snapshot");
static LAST_FSYNC_BATCH: LazyGauge = LazyGauge::new("wal_last_fsync_batch");

/// Frame header size: 4 bytes length + 4 bytes CRC32.
const HEADER: usize = 8;

/// The active segment grows by whole multiples of this many zero bytes (cut
/// short at `segment_bytes`). Measured (EXPERIMENTS.md, "A durable grant
/// without its two taxes"): large enough that fewer than one sync in a
/// hundred extends the file (below that the p99 sees them), small enough to
/// ride on a fresh log's first write without showing in set-up time.
const CHUNK: u64 = 64 * 1024;

/// Upper bound on a single record's payload. Anything larger in a frame
/// header is treated as corruption (or a torn tail), never allocated.
pub const MAX_RECORD: u32 = 16 * 1024 * 1024;

/// Configuration of a [`Wal`].
#[derive(Clone, Debug)]
pub struct WalConfig {
    /// Directory holding the segment and snapshot files (created if absent).
    pub dir: PathBuf,
    /// Roll to a new segment once the active one reaches this many bytes.
    pub segment_bytes: u64,
}

impl WalConfig {
    /// A configuration with the defaults: 8 MiB segments.
    pub fn new(dir: impl Into<PathBuf>) -> WalConfig {
        WalConfig {
            dir: dir.into(),
            segment_bytes: 8 * 1024 * 1024,
        }
    }
}

/// Errors from the log.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(std::io::Error),
    /// A frame failed to verify somewhere other than the tail of the last
    /// segment — the log is damaged beyond a crash's reach and must not be
    /// silently repaired.
    Corrupt {
        /// Sequence number of the damaged segment.
        segment: u64,
        /// Byte offset of the bad frame within it.
        offset: u64,
        /// What failed to verify.
        reason: &'static str,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal io error: {e}"),
            WalError::Corrupt {
                segment,
                offset,
                reason,
            } => write!(
                f,
                "wal segment {segment} corrupt at byte {offset}: {reason}"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> WalError {
        WalError::Io(e)
    }
}

/// Everything [`Wal::open`] recovered from the directory.
#[derive(Debug)]
pub struct Recovery {
    /// Payload of the newest snapshot whose frame verified, if any.
    pub snapshot: Option<Vec<u8>>,
    /// Every record appended after that snapshot, in append order.
    pub records: Vec<Vec<u8>>,
    /// Bytes dropped from the torn tail of the last segment (0 after a
    /// clean shutdown).
    pub torn_bytes: u64,
    /// Snapshot files that failed verification and were skipped in favor of
    /// an older one.
    pub snapshots_skipped: u64,
}

/// An open write-ahead log. See the [crate docs](crate) for the layout and
/// recovery rules.
pub struct Wal {
    cfg: WalConfig,
    active: File,
    active_seq: u64,
    /// Logical end of the active segment: where the next record goes.
    active_len: u64,
    /// End of the active segment's file; `[active_len, alloc_len)` is zeros.
    alloc_len: u64,
    buffered: Vec<u8>,
    unsynced_records: u64,
    since_snapshot: u64,
    first_seq: u64,
    since_snapshot_bytes: u64,
}

fn seg_name(seq: u64) -> String {
    format!("seg-{seq:020}.log")
}

fn snap_name(seq: u64) -> String {
    format!("snap-{seq:020}.snap")
}

/// Best-effort directory fsync, so renames and creates are durable. Opening
/// a directory read-only for fsync works on the Unixes we target; elsewhere
/// the open may fail and the rename is only as durable as the OS makes it.
fn sync_dir(dir: &Path) {
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
}

fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc::crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Outcome of parsing one frame out of `bytes[offset..]`.
enum Parsed<'a> {
    Record(&'a [u8], usize),
    /// Nothing, or nothing but zeros, after `offset` (a clean end).
    End,
    /// The remaining bytes do not form a valid frame.
    Bad(&'static str),
}

fn parse_frame(bytes: &[u8], offset: usize) -> Parsed<'_> {
    let rest = &bytes[offset..];
    if rest.is_empty() {
        return Parsed::End;
    }
    if rest.len() < HEADER {
        return Parsed::Bad("truncated header");
    }
    let len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_RECORD as usize {
        return Parsed::Bad("oversized record length");
    }
    if rest.len() < HEADER + len {
        return Parsed::Bad("truncated payload");
    }
    let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
    let payload = &rest[HEADER..HEADER + len];
    if crc::crc32(payload) != crc {
        return Parsed::Bad("checksum mismatch");
    }
    Parsed::Record(payload, HEADER + len)
}

/// The next record of a segment: [`parse_frame`] under the rule that a zero
/// length field ends the log (crate docs, "The zeroed tail").
fn parse_record(bytes: &[u8], offset: usize) -> Parsed<'_> {
    if bytes[offset..].iter().all(|&b| b == 0) {
        return Parsed::End;
    }
    match parse_frame(bytes, offset) {
        Parsed::Record([], _) => Parsed::Bad("data after the end-of-log marker"),
        parsed => parsed,
    }
}

/// The numbered WAL files found in a directory.
struct DirListing {
    segs: Vec<u64>,
    snaps: Vec<u64>,
}

fn list_dir(dir: &Path) -> Result<DirListing, WalError> {
    let mut segs = Vec::new();
    let mut snaps = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("seg-")
            .and_then(|s| s.strip_suffix(".log"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            segs.push(seq);
        } else if let Some(seq) = name
            .strip_prefix("snap-")
            .and_then(|s| s.strip_suffix(".snap"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            snaps.push(seq);
        } else if name.ends_with(".tmp") {
            // A snapshot that never finished installing: dead weight.
            let _ = fs::remove_file(entry.path());
        }
    }
    segs.sort_unstable();
    snaps.sort_unstable();
    Ok(DirListing { segs, snaps })
}

impl Wal {
    /// Open (or create) the log in `cfg.dir`, recovering whatever it holds:
    /// the newest verifiable snapshot, every record after it, and a
    /// truncated torn tail if the process died mid-append. Returns the log
    /// positioned to append after the last valid record.
    pub fn open(cfg: WalConfig) -> Result<(Wal, Recovery), WalError> {
        fs::create_dir_all(&cfg.dir)?;
        let listing = list_dir(&cfg.dir)?;

        // Newest snapshot whose single frame verifies; damaged ones are
        // skipped so one bad write cannot brick recovery.
        let mut snapshot: Option<Vec<u8>> = None;
        let mut snap_seq = 0u64;
        let mut snapshots_skipped = 0u64;
        for &seq in listing.snaps.iter().rev() {
            let bytes = fs::read(cfg.dir.join(snap_name(seq)))?;
            match parse_frame(&bytes, 0) {
                Parsed::Record(payload, consumed) if consumed == bytes.len() => {
                    snapshot = Some(payload.to_vec());
                    snap_seq = seq;
                    break;
                }
                _ => snapshots_skipped += 1,
            }
        }

        // Segments covered by the snapshot (and snapshots older than the
        // chosen one) are garbage from an interrupted truncation.
        for &seq in &listing.segs {
            if seq < snap_seq {
                let _ = fs::remove_file(cfg.dir.join(seg_name(seq)));
            }
        }
        for &seq in &listing.snaps {
            if seq < snap_seq {
                let _ = fs::remove_file(cfg.dir.join(snap_name(seq)));
            }
        }
        let segs: Vec<u64> = listing
            .segs
            .into_iter()
            .filter(|&s| s >= snap_seq)
            .collect();
        if snapshot.is_some() && !segs.is_empty() && segs[0] != snap_seq {
            return Err(WalError::Corrupt {
                segment: segs[0],
                offset: 0,
                reason: "records between the snapshot and the first segment are missing",
            });
        }
        for w in segs.windows(2) {
            if w[1] != w[0] + 1 {
                return Err(WalError::Corrupt {
                    segment: w[0] + 1,
                    offset: 0,
                    reason: "segment sequence has a gap",
                });
            }
        }

        // Replay every record; a bad frame is a torn tail only in the last
        // segment, where it is truncated away.
        let mut records = Vec::new();
        let mut torn_bytes = 0u64;
        let mut replayed_bytes = 0u64;
        // Logical end of the last segment read: where appends resume.
        let mut tail = 0u64;
        for (i, &seq) in segs.iter().enumerate() {
            let path = cfg.dir.join(seg_name(seq));
            let bytes = fs::read(&path)?;
            let mut offset = 0usize;
            loop {
                match parse_record(&bytes, offset) {
                    Parsed::Record(payload, consumed) => {
                        records.push(payload.to_vec());
                        offset += consumed;
                    }
                    Parsed::End => break,
                    Parsed::Bad(reason) => {
                        if i + 1 != segs.len() {
                            return Err(WalError::Corrupt {
                                segment: seq,
                                offset: offset as u64,
                                reason,
                            });
                        }
                        // Zeros behind the damage were never records.
                        let dirty = bytes
                            .iter()
                            .rposition(|&b| b != 0)
                            .map_or(offset, |i| i + 1);
                        torn_bytes = (dirty - offset) as u64;
                        let f = OpenOptions::new().write(true).open(&path)?;
                        f.set_len(offset as u64)?;
                        f.sync_all()?;
                        break;
                    }
                }
            }
            replayed_bytes += offset as u64;
            tail = offset as u64;
        }
        TORN_BYTES.add(torn_bytes);

        // The active segment: the last one on disk, or a fresh genesis.
        let active_seq = match segs.last() {
            Some(&seq) => seq,
            None => snap_seq.max(1),
        };
        // Never in append mode: every write names its offset.
        let path = cfg.dir.join(seg_name(active_seq));
        let active = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let alloc_len = active.metadata()?.len();
        sync_dir(&cfg.dir);

        let wal = Wal {
            cfg,
            active,
            active_seq,
            active_len: tail,
            alloc_len,
            buffered: Vec::with_capacity(4096),
            unsynced_records: 0,
            since_snapshot: records.len() as u64,
            first_seq: segs.first().copied().unwrap_or(active_seq),
            since_snapshot_bytes: replayed_bytes,
        };
        SEGMENTS_LIVE.set(wal.segments_live() as i64);
        BYTES_SINCE_SNAPSHOT.set(wal.since_snapshot_bytes as i64);
        LAST_FSYNC_BATCH.set(0);
        Ok((
            wal,
            Recovery {
                snapshot,
                records,
                torn_bytes,
                snapshots_skipped,
            },
        ))
    }

    /// Append one record. The record is *buffered*, not yet durable: call
    /// [`Wal::sync`] before acting on it (releasing a reply, acknowledging
    /// a commit). Rolls to a new segment when the active one is full. An
    /// empty payload is refused: its frame would read as the end of the log.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), WalError> {
        assert!(
            payload.len() <= MAX_RECORD as usize,
            "record exceeds MAX_RECORD"
        );
        if payload.is_empty() {
            return Err(WalError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "empty wal record",
            )));
        }
        if self.active_len + self.buffered.len() as u64 >= self.cfg.segment_bytes {
            self.roll()?;
        }
        frame_into(&mut self.buffered, payload);
        self.unsynced_records += 1;
        self.since_snapshot += 1;
        self.since_snapshot_bytes += (payload.len() + HEADER) as u64;
        APPENDS.inc();
        APPEND_BYTES.add((payload.len() + HEADER) as u64);
        BYTES_SINCE_SNAPSHOT.set(self.since_snapshot_bytes as i64);
        Ok(())
    }

    /// Make every appended record durable: one write, one fsync. A no-op
    /// when nothing is pending. The number of records the fsync covered is
    /// recorded in the `wal_fsync_batch_size` histogram — under concurrent
    /// load this is the group-commit batch.
    ///
    /// The records go to the logical end of the segment. When they would
    /// pass the end of the file, the same write carries zeros up to the
    /// next chunk boundary, so this fsync commits the new size and the
    /// following ones, overwriting those zeros, commit none.
    pub fn sync(&mut self) -> Result<(), WalError> {
        if self.unsynced_records == 0 {
            return Ok(());
        }
        let framed = self.buffered.len();
        let end = self.active_len + framed as u64;
        let extend = end > self.alloc_len;
        if extend {
            // A chunk never passes `segment_bytes`; the record that fills
            // the segment may.
            let alloc = end
                .next_multiple_of(CHUNK)
                .min(self.cfg.segment_bytes)
                .max(end);
            self.buffered.resize((alloc - self.active_len) as usize, 0);
        }
        if let Err(e) = self.active.write_all_at(&self.buffered, self.active_len) {
            // A failed write may be retried: keep the records, drop the zeros.
            self.buffered.truncate(framed);
            return Err(e.into());
        }
        self.alloc_len = self
            .alloc_len
            .max(self.active_len + self.buffered.len() as u64);
        self.active_len = end;
        self.buffered.clear();
        self.active.sync_data()?;
        FSYNCS.inc();
        if extend {
            EXTENDS.inc();
        }
        BATCH.observe(self.unsynced_records);
        LAST_FSYNC_BATCH.set(self.unsynced_records as i64);
        self.unsynced_records = 0;
        Ok(())
    }

    /// Finish the active segment and start the next one.
    fn roll(&mut self) -> Result<(), WalError> {
        self.sync()?;
        let seq = self.active_seq + 1;
        self.start_segment(seq)?;
        SEGMENTS_LIVE.set(self.segments_live() as i64);
        Ok(())
    }

    /// Create segment `seq`, empty, and make it the active one.
    fn start_segment(&mut self, seq: u64) -> Result<(), WalError> {
        let path = self.cfg.dir.join(seg_name(seq));
        self.active = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)?;
        self.active_seq = seq;
        self.active_len = 0;
        self.alloc_len = 0;
        sync_dir(&self.cfg.dir);
        Ok(())
    }

    /// Install `state` as the new recovery base and truncate the log: after
    /// this returns, recovery loads `state` and replays only records
    /// appended from now on. Pending records are synced first, the snapshot
    /// is written to a temporary file and atomically renamed, and only then
    /// are the superseded segments deleted — a crash at any point recovers
    /// either the old base plus the full log, or the new base.
    pub fn install_snapshot(&mut self, state: &[u8]) -> Result<(), WalError> {
        self.sync()?;
        // New segment first: the snapshot's sequence number must point at a
        // segment that exists, and records appended after the snapshot must
        // not land in a segment the truncation below deletes.
        let old_seq = self.active_seq;
        let seq = old_seq + 1;
        self.start_segment(seq)?;

        let mut framed = Vec::with_capacity(state.len() + HEADER);
        frame_into(&mut framed, state);
        let tmp = self.cfg.dir.join(format!("snap-{seq:020}.tmp"));
        let final_path = self.cfg.dir.join(snap_name(seq));
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&framed)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &final_path)?;
        sync_dir(&self.cfg.dir);
        SNAPSHOTS.inc();

        // The new base is durable: everything before it is garbage.
        let listing = list_dir(&self.cfg.dir)?;
        for s in listing.segs.into_iter().filter(|&s| s <= old_seq) {
            if fs::remove_file(self.cfg.dir.join(seg_name(s))).is_ok() {
                SEGMENTS_REMOVED.inc();
            }
        }
        for s in listing.snaps.into_iter().filter(|&s| s < seq) {
            let _ = fs::remove_file(self.cfg.dir.join(snap_name(s)));
        }
        sync_dir(&self.cfg.dir);
        self.since_snapshot = 0;
        self.since_snapshot_bytes = 0;
        self.first_seq = seq;
        SEGMENTS_LIVE.set(self.segments_live() as i64);
        BYTES_SINCE_SNAPSHOT.set(0);
        Ok(())
    }

    /// Records appended since the last [`Wal::install_snapshot`] (or since
    /// recovery counted the replayed tail). The caller's snapshot cadence.
    pub fn records_since_snapshot(&self) -> u64 {
        self.since_snapshot
    }

    /// Records appended but not yet made durable by [`Wal::sync`].
    pub fn unsynced_records(&self) -> u64 {
        self.unsynced_records
    }

    /// Sequence number of the segment currently receiving appends.
    pub fn active_segment(&self) -> u64 {
        self.active_seq
    }

    /// Number of segment files currently live on disk (oldest kept through
    /// the active one). Exported as the `wal_segments_live` gauge.
    pub fn segments_live(&self) -> u64 {
        self.active_seq - self.first_seq + 1
    }

    /// Bytes appended (framed) since the last snapshot install, including
    /// the tail replayed at recovery. Exported as the
    /// `wal_bytes_since_snapshot` gauge; the admin plane's `/status` shows
    /// it so an operator can see how much replay a crash would cost.
    pub fn bytes_since_snapshot(&self) -> u64 {
        self.since_snapshot_bytes
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.cfg.dir
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("coalloc-wal-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn reopen(dir: &Path) -> (Wal, Recovery) {
        Wal::open(WalConfig::new(dir)).expect("open")
    }

    #[test]
    fn append_sync_reopen_roundtrip() {
        let dir = tmp("roundtrip");
        let (mut wal, rec) = reopen(&dir);
        assert!(rec.snapshot.is_none() && rec.records.is_empty());
        for i in 0..100u32 {
            wal.append(format!("record {i}").as_bytes()).unwrap();
        }
        assert_eq!(wal.unsynced_records(), 100);
        wal.sync().unwrap();
        assert_eq!(wal.unsynced_records(), 0);
        drop(wal);
        let (_w, rec) = reopen(&dir);
        assert_eq!(rec.records.len(), 100);
        assert_eq!(rec.records[7], b"record 7");
        assert_eq!(rec.torn_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsynced_records_are_not_recovered() {
        let dir = tmp("unsynced");
        let (mut wal, _) = reopen(&dir);
        wal.append(b"durable").unwrap();
        wal.sync().unwrap();
        wal.append(b"lost").unwrap(); // never synced
        drop(wal);
        let (_w, rec) = reopen(&dir);
        assert_eq!(rec.records, vec![b"durable".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let dir = tmp("torn");
        let (mut wal, _) = reopen(&dir);
        wal.append(b"good one").unwrap();
        wal.append(b"good two").unwrap();
        wal.sync().unwrap();
        let seg = dir.join(seg_name(wal.active_segment()));
        drop(wal);
        // Simulate a crash mid-write: a partial frame at the logical tail
        // (two frames of 8 + 8 bytes in), zeros behind it.
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.write_all_at(&[42u8, 0, 0, 0, 99, 99], 32).unwrap(); // header cut short
        drop(f);
        let (mut wal, rec) = reopen(&dir);
        assert_eq!(rec.records.len(), 2);
        assert_eq!(rec.torn_bytes, 6);
        assert_eq!(
            fs::metadata(&seg).unwrap().len(),
            32,
            "cut at the last good frame"
        );
        wal.append(b"good three").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_w, rec) = reopen(&dir);
        assert_eq!(rec.records.len(), 3);
        assert_eq!(rec.records[2], b"good three");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_middle_segment_is_an_error_not_a_repair() {
        let dir = tmp("corrupt-mid");
        let mut cfg = WalConfig::new(&dir);
        cfg.segment_bytes = 64; // tiny: force several segments
        let (mut wal, _) = Wal::open(cfg.clone()).unwrap();
        for i in 0..20u32 {
            wal.append(format!("record number {i}").as_bytes()).unwrap();
            wal.sync().unwrap();
        }
        assert!(wal.active_segment() > 1, "fixture must roll segments");
        drop(wal);
        // Flip a payload byte in the FIRST segment.
        let seg = dir.join(seg_name(1));
        let mut bytes = fs::read(&seg).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&seg, &bytes).unwrap();
        match Wal::open(cfg) {
            Err(WalError::Corrupt { segment: 1, .. }) => {}
            Err(other) => panic!("want Corrupt in segment 1, got {other:?}"),
            Ok(_) => panic!("want Corrupt in segment 1, got a successful open"),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_truncates_and_recovers() {
        let dir = tmp("snapshot");
        let (mut wal, _) = reopen(&dir);
        for i in 0..10u32 {
            wal.append(format!("pre {i}").as_bytes()).unwrap();
        }
        wal.install_snapshot(b"STATE AFTER 10").unwrap();
        assert_eq!(wal.records_since_snapshot(), 0);
        wal.append(b"post 0").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_w, rec) = reopen(&dir);
        assert_eq!(rec.snapshot.as_deref(), Some(&b"STATE AFTER 10"[..]));
        assert_eq!(rec.records, vec![b"post 0".to_vec()]);
        // The pre-snapshot segment is gone.
        assert!(!dir.join(seg_name(1)).exists());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_newest_snapshot_falls_back_to_older() {
        let dir = tmp("snap-fallback");
        let (mut wal, _) = reopen(&dir);
        wal.append(b"a").unwrap();
        wal.install_snapshot(b"OLD BASE").unwrap();
        let base_seq = wal.active_segment();
        wal.append(b"b").unwrap();
        wal.sync().unwrap();
        drop(wal);
        // Simulate a crash halfway through the NEXT snapshot install: the
        // rolled segment exists, but the snapshot file was cut short before
        // its frame was complete (then the truncation never ran).
        fs::write(dir.join(seg_name(base_seq + 1)), b"").unwrap();
        fs::write(dir.join(snap_name(base_seq + 1)), [9u8, 0, 0]).unwrap();
        let (_w, rec) = reopen(&dir);
        assert_eq!(rec.snapshots_skipped, 1);
        assert_eq!(rec.snapshot.as_deref(), Some(&b"OLD BASE"[..]));
        assert_eq!(rec.records, vec![b"b".to_vec()]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_gap_is_corruption() {
        let dir = tmp("gap");
        let mut cfg = WalConfig::new(&dir);
        cfg.segment_bytes = 32;
        let (mut wal, _) = Wal::open(cfg.clone()).unwrap();
        for i in 0..12u32 {
            wal.append(format!("record number {i}").as_bytes()).unwrap();
            wal.sync().unwrap();
        }
        assert!(wal.active_segment() >= 3);
        drop(wal);
        fs::remove_file(dir.join(seg_name(2))).unwrap();
        assert!(matches!(Wal::open(cfg), Err(WalError::Corrupt { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn binary_payloads_roundtrip_and_empty_ones_are_refused() {
        let dir = tmp("binary");
        let (mut wal, _) = reopen(&dir);
        assert!(matches!(wal.append(b""), Err(WalError::Io(_))));
        assert_eq!(wal.unsynced_records(), 0);
        let blob: Vec<u8> = (0..=255u8).collect();
        wal.append(&blob).unwrap();
        wal.append(&[0u8; 5]).unwrap(); // zeros inside a frame are data
        wal.sync().unwrap();
        drop(wal);
        let (_w, rec) = reopen(&dir);
        assert_eq!(rec.records, vec![blob, vec![0u8; 5]]);
        fs::remove_dir_all(&dir).unwrap();
    }

    fn framed(records: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for r in records {
            frame_into(&mut out, r);
        }
        out
    }

    /// Recover `dir`, expect `want`, append one more record, and expect a
    /// second recovery to see old + new with nothing torn.
    fn recover_append_recover(dir: &Path, want: &[&[u8]]) {
        let (mut wal, rec) = reopen(dir);
        assert_eq!(rec.records, want);
        wal.append(b"after the crash").unwrap();
        wal.sync().unwrap();
        drop(wal);
        let (_w, rec) = reopen(dir);
        assert_eq!(rec.torn_bytes, 0);
        assert_eq!(rec.records[..want.len()], *want);
        assert_eq!(rec.records[want.len()..], [b"after the crash".to_vec()]);
    }

    /// Every way the last write can be cut short: the file ends at byte
    /// `c` (the size change was part of that write), or the bytes from `c`
    /// on still read as the zeros the write was replacing.
    #[test]
    fn crash_point_sweep_over_the_last_write() {
        let dir = tmp("sweep");
        let old: [&[u8]; 3] = [b"submit 0 0 50 2", b"\0\0leading zeros", b"release 0"];
        let new: [&[u8]; 2] = [b"submit 0 60 50 1\ngranted 1", b"x"];
        // `n_old = 0`: the last write is the one that creates the zero tail.
        for n_old in [0, old.len()] {
            let (mut wal, _) = reopen(&dir);
            for r in &old[..n_old] {
                wal.append(r).unwrap();
                wal.sync().unwrap();
            }
            for r in new {
                wal.append(r).unwrap();
            }
            wal.sync().unwrap();
            let seg = dir.join(seg_name(wal.active_segment()));
            drop(wal);
            let full = fs::read(&seg).unwrap();
            let all: Vec<&[u8]> = old[..n_old].iter().chain(&new).copied().collect();
            // Frame ends, to tell which records lie wholly before a cut.
            let ends: Vec<usize> = (1..=all.len()).map(|k| framed(&all[..k]).len()).collect();
            let (first, last) = (framed(&old[..n_old]).len(), *ends.last().unwrap());
            assert_eq!(full[..last], framed(&all)[..]);
            for c in (first..=last).chain([last + 1, last + 100, full.len()]) {
                let want = &all[..ends.iter().filter(|&&e| e <= c).count()];
                let mut zeroed = full.clone();
                zeroed[c..].fill(0);
                for image in [&full[..c], &zeroed[..]] {
                    fs::write(&seg, image).unwrap();
                    recover_append_recover(&dir, want);
                }
            }
            fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn segment_grows_by_whole_chunks_not_by_the_record() {
        let dir = tmp("chunks");
        let (mut wal, _) = reopen(&dir);
        let seg = dir.join(seg_name(wal.active_segment()));
        let len = || fs::metadata(&seg).unwrap().len();
        for i in 0..50u32 {
            wal.append(format!("record {i}").as_bytes()).unwrap();
            wal.sync().unwrap();
            assert_eq!(len(), CHUNK, "sync {i} inside the first chunk");
        }
        // One record longer than what is left of the chunk.
        wal.append(&vec![7u8; CHUNK as usize]).unwrap();
        wal.sync().unwrap();
        assert_eq!(len(), 2 * CHUNK);
        wal.append(b"and on").unwrap();
        wal.sync().unwrap();
        assert_eq!(len(), 2 * CHUNK, "room left in the second chunk");
        drop(wal);
        let (_w, rec) = reopen(&dir);
        assert_eq!(rec.records.len(), 52);
        assert_eq!(rec.torn_bytes, 0);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn chunks_stop_at_the_segment_bound() {
        let dir = tmp("chunk-bound");
        let mut cfg = WalConfig::new(&dir);
        cfg.segment_bytes = 100;
        let (mut wal, _) = Wal::open(cfg.clone()).unwrap();
        for i in 0..12u32 {
            wal.append(format!("record number {i:02}").as_bytes())
                .unwrap();
            wal.sync().unwrap();
        }
        assert!(wal.active_segment() > 1, "fixture must roll segments");
        drop(wal);
        // Four 24-byte frames stay under 100, the fifth fills the segment.
        assert_eq!(fs::metadata(dir.join(seg_name(1))).unwrap().len(), 120);
        let (_w, rec) = Wal::open(cfg).unwrap();
        assert_eq!(rec.records.len(), 12);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_without_a_zero_tail_still_opens() {
        // The layout every log had before the zeroed tail: frames, then EOF.
        let dir = tmp("raw-appends");
        fs::create_dir_all(&dir).unwrap();
        let records: [&[u8]; 2] = [b"submit 0 0 50 2", b"release 0"];
        fs::write(dir.join(seg_name(1)), framed(&records)).unwrap();
        recover_append_recover(&dir, &records);
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Earlier binaries accepted `append(b"")`; its frame is eight zero
    /// bytes, which now read as the end of the log. The server never wrote
    /// one, so this is a stated loss, not a migration path: such a log is
    /// cut at its first empty record (docs/OPERATIONS.md).
    #[test]
    fn empty_record_from_an_older_log_cuts_the_log_there() {
        let dir = tmp("old-empty");
        fs::create_dir_all(&dir).unwrap();
        assert_eq!(framed(&[b""]), [0u8; HEADER]);
        let old = framed(&[b"first", b"", b"third"]);
        let kept = framed(&[b"first"]).len() as u64;
        // Last segment: everything from the empty record on is a torn tail.
        fs::write(dir.join(seg_name(1)), &old).unwrap();
        let (wal, rec) = reopen(&dir);
        assert_eq!(rec.records, [b"first".to_vec()]);
        assert_eq!(rec.torn_bytes, old.len() as u64 - kept);
        assert_eq!(fs::metadata(dir.join(seg_name(1))).unwrap().len(), kept);
        drop(wal);
        // Earlier segment: the open is refused.
        fs::write(dir.join(seg_name(1)), &old).unwrap();
        fs::write(dir.join(seg_name(2)), framed(&[b"fourth"])).unwrap();
        assert!(matches!(
            Wal::open(WalConfig::new(&dir)),
            Err(WalError::Corrupt { segment: 1, offset, .. }) if offset == kept
        ));
        // Trailing empty records are indistinguishable from a zero tail.
        fs::remove_file(dir.join(seg_name(2))).unwrap();
        fs::write(dir.join(seg_name(1)), framed(&[b"first", b"", b""])).unwrap();
        let (_w, rec) = reopen(&dir);
        assert_eq!((rec.records.len(), rec.torn_bytes), (1, 0));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn data_after_the_end_marker_is_torn_in_the_last_segment_corrupt_before() {
        let dir = tmp("after-end");
        fs::create_dir_all(&dir).unwrap();
        let mut dirty = framed(&[b"first", b"second"]);
        let good = dirty.len() as u64;
        dirty.extend_from_slice(&[0u8; 40]);
        dirty.extend_from_slice(b"stray");
        dirty.extend_from_slice(&[0u8; 40]);
        // As the only segment: a torn tail, cut at the end marker.
        fs::write(dir.join(seg_name(1)), &dirty).unwrap();
        let (wal, rec) = reopen(&dir);
        assert_eq!(rec.records, [b"first".to_vec(), b"second".to_vec()]);
        assert_eq!(rec.torn_bytes, 45, "up to the last non-zero byte");
        assert_eq!(fs::metadata(dir.join(seg_name(1))).unwrap().len(), good);
        drop(wal);
        // With a segment after it: damage a crash cannot explain.
        fs::write(dir.join(seg_name(1)), &dirty).unwrap();
        fs::write(dir.join(seg_name(2)), framed(&[b"third"])).unwrap();
        match Wal::open(WalConfig::new(&dir)) {
            Err(WalError::Corrupt {
                segment: 1, offset, ..
            }) => assert_eq!(offset, good),
            Err(other) => panic!("want Corrupt in segment 1, got {other:?}"),
            Ok(_) => panic!("want Corrupt in segment 1, got a successful open"),
        }
        // A clean zero tail in an earlier segment is just its end.
        fs::write(dir.join(seg_name(1)), &dirty[..good as usize + 40]).unwrap();
        let (_w, rec) = reopen(&dir);
        assert_eq!(rec.records.len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }
}
