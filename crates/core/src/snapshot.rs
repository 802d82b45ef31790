//! Schedule persistence: a scheduler's state as a plain-text image.
//!
//! A resource manager embedding the scheduler (VCL front-end, PCE, site
//! daemon) must survive restarts without losing "the set of commitments
//! that the system has made" (Section 2). [`StateImage`] is that state as
//! plain data — configuration, clock, prune boundary, server attributes,
//! every idle period and every live reservation — with *one* renderer
//! ([`StateImage::render`]) and *one* parser-validator
//! ([`StateImage::parse`]). Each server range of a scheduler only exports
//! its periods in server order and installs its share of a validated image
//! ([`crate::index::ServerIndex::export`] / [`install`]); how the servers
//! are partitioned is nowhere in the text, so an image written at one
//! range count loads at any other and re-renders byte-identically.
//!
//! The image holds the idle periods *and* the reservations because the
//! commitments do not determine the idle geometry: a reservation released
//! after it completed (retired) or was pruned leaves its neighbouring idle
//! periods un-merged, and `PaperOrder` ranks candidates by idle-period
//! *start*. So the geometry is decision-relevant state — restore installs
//! it verbatim and every future decision is bit-identical to the writer's,
//! under every selection policy. Period *ids* are not state: no selection
//! key reaches them (a window has at most one feasible period per server);
//! they only break ties inside the trees, whose shapes a restore
//! regenerates anyway. The image therefore has none, and an install mints
//! fresh ones in file order. Legacy v1 snapshots lack the idle lines; their
//! idle periods are the gaps between the reservations, merged, and their
//! restores make equivalent (same feasibility) but not necessarily
//! identical choices — the test `retired_history_shapes_future_grants` is
//! the minimal case. Pruned history is not included; utilization
//! accounting restarts from the live reservations.
//!
//! [`install`]: crate::index::ServerIndex::install

use crate::attrs::AttrSet;
use crate::ids::{JobId, ServerId};
use crate::policy::SelectionPolicy;
use crate::scheduler::{CoAllocScheduler, SchedulerConfig, MAX_ABS_TIME};
use crate::time::{Dur, Time};
use crate::timeline::Reservation;
use std::fmt::Write;

/// Snapshot format version tag. v3 is v2 without the period ids (the id
/// column of the `idle` lines and the `next_period` line). Both end in an
/// `end <lines> <checksum>` integrity footer so truncation, reordering and
/// bit-rot are detected — this format is the crash-recovery base of the
/// write-ahead log (DESIGN.md §13), so it must reject anything it did not
/// write.
const MAGIC: &str = "coalloc-snapshot v3";

/// The id-carrying format: still restorable, its ids parsed and dropped.
const MAGIC_V2: &str = "coalloc-snapshot v2";

/// The first, footer-less format: still restorable (leniently) so
/// snapshots written before the WAL existed keep loading.
const MAGIC_V1: &str = "coalloc-snapshot v1";

/// Errors from [`StateImage::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Missing or wrong magic/version line.
    BadMagic,
    /// A line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
    },
    /// A reservation or idle period overlaps another one on its server
    /// (corrupt snapshot).
    InconsistentReservation {
        /// 1-based line number.
        line: usize,
    },
    /// The integrity footer is missing, malformed, or does not match the
    /// content — the snapshot was truncated, reordered or otherwise
    /// altered after it was written.
    Integrity,
    /// A field parsed but its value is outside the bounds a genuine
    /// snapshot can contain (server out of range, absurd horizon, clock
    /// running backwards, colliding job-id sequence, ...).
    Invalid {
        /// 1-based line number (0 when the violation spans lines).
        line: usize,
        /// Which bound was violated.
        what: &'static str,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a coalloc snapshot (bad header)"),
            SnapshotError::BadLine { line } => write!(f, "snapshot line {line} is malformed"),
            SnapshotError::InconsistentReservation { line } => {
                write!(
                    f,
                    "snapshot line {line}: overlapping or misplaced reservation"
                )
            }
            SnapshotError::Integrity => {
                write!(
                    f,
                    "snapshot integrity footer missing or mismatched (truncated or altered)"
                )
            }
            SnapshotError::Invalid { line, what } => {
                write!(f, "snapshot line {line}: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit hash, the integrity checksum of the footer. Not
/// cryptographic — it detects accidental damage (truncation, reordering,
/// bit-rot), which is the failure model of a state file on local disk.
fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(0xcbf2_9ce4_8422_2325, bytes)
}

fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn policy_code(p: SelectionPolicy) -> u8 {
    match p {
        SelectionPolicy::PaperOrder => 0,
        SelectionPolicy::BestFit => 1,
        SelectionPolicy::WorstFit => 2,
        SelectionPolicy::ByServerId => 3,
    }
}

fn policy_from(code: u8) -> Option<SelectionPolicy> {
    Some(match code {
        0 => SelectionPolicy::PaperOrder,
        1 => SelectionPolicy::BestFit,
        2 => SelectionPolicy::WorstFit,
        3 => SelectionPolicy::ByServerId,
        _ => return None,
    })
}

/// A scheduler's persistent state as plain data (module docs). Images
/// come from two places — a scheduler's `export`, valid by construction, and
/// [`StateImage::parse`], which checks it — and `from_image` / `install`
/// trust what both guarantee: geometry within
/// [`SchedulerConfig::check_limits`], `idle` and `busy` sorted by
/// `(server, start)`, no two intervals of a server overlapping, exactly
/// one open-ended idle period per server, every job id below `next_job`.
#[derive(Clone, Debug)]
pub struct StateImage {
    /// The configuration in force, every field of it.
    pub cfg: SchedulerConfig,
    /// The clock value the scheduler started at.
    pub origin: Time,
    /// The clock.
    pub now: Time,
    /// History boundary of the last amortized prune. Prune timing is
    /// observable (a fully-pruned job's `release` turns into `UnknownJob`),
    /// so a restored scheduler must resume the writer's cadence.
    pub last_prune: Time,
    /// One tag set per server; the length is the server count.
    pub attrs: Vec<AttrSet>,
    /// Every idle period as `(server, start, end)`, `end == Time::INF` for
    /// a server's open-ended tail.
    pub idle: Vec<(ServerId, Time, Time)>,
    /// Every reservation still in the timeline.
    pub busy: Vec<Reservation>,
    /// The id the next committed job will receive.
    pub next_job: u64,
}

fn field<T: std::str::FromStr>(s: &str, line: usize) -> Result<T, SnapshotError> {
    s.parse().map_err(|_| SnapshotError::BadLine { line })
}

impl StateImage {
    /// Serialize the image to snapshot text.
    pub fn render(&self) -> String {
        let cfg = &self.cfg;
        let mut out = String::with_capacity(64 + 24 * (self.idle.len() + self.busy.len()));
        // One line of the image (writing to a `String` cannot fail).
        macro_rules! put {
            ($($arg:tt)*) => {
                let _ = writeln!(out, $($arg)*);
            };
        }
        put!("{MAGIC}");
        put!(
            "config {} {} {} {} {} {}",
            cfg.tau.secs(),
            cfg.horizon.secs(),
            cfg.delta_t.secs(),
            cfg.r_max.map(|r| r as i64).unwrap_or(-1),
            policy_code(cfg.policy),
            cfg.seed,
        );
        put!("clock {} {}", self.origin.secs(), self.now.secs());
        put!("pruned {}", self.last_prune.secs());
        put!("servers {}", self.attrs.len());
        for (s, a) in self.attrs.iter().enumerate() {
            if !a.is_empty() {
                put!("attrs {s} {}", a.0);
            }
        }
        // Idle periods verbatim: released history leaves them un-merged
        // (module docs), so a restore that re-derived them from the `res`
        // lines would make *different* (if equivalent) grants.
        for &(server, start, end) in &self.idle {
            if end.is_inf() {
                put!("idle {} {} inf", server.0, start.secs());
            } else {
                put!("idle {} {} {}", server.0, start.secs(), end.secs());
            }
        }
        for r in &self.busy {
            put!(
                "res {} {} {} {}",
                r.job.0,
                r.server.0,
                r.start.secs(),
                r.end.secs()
            );
        }
        put!("next_job {}", self.next_job);
        // Integrity footer: line count and FNV-1a over every preceding byte.
        // `parse` refuses text whose footer does not match, so truncation,
        // reordering and bit-flips are all detected up front.
        let (lines, sum) = (out.lines().count(), fnv1a(out.as_bytes()));
        put!("end {lines} {sum:016x}");
        out
    }

    /// Parse and validate snapshot text (v3, v2 or v1).
    ///
    /// This is the crash-recovery base image of the WAL, so the input is
    /// treated as hostile: a v2/v3 snapshot must carry a matching integrity
    /// footer, every field is bounds-checked, and no two intervals of a
    /// server may overlap — all before any scheduler constructor (which
    /// `assert!` on their invariants) sees a value. Any deviation returns
    /// a [`SnapshotError`]; no input panics, and an engine built from the
    /// result holds no overlapping grants.
    pub fn parse(text: &str) -> Result<StateImage, SnapshotError> {
        let all: Vec<&str> = text.lines().collect();
        let magic = all.first().copied().ok_or(SnapshotError::BadMagic)?;
        let body: &[&str] = match magic.trim() {
            MAGIC | MAGIC_V2 => {
                // The last line must be a footer matching the rest.
                if all.len() < 2 {
                    return Err(SnapshotError::Integrity);
                }
                let f: Vec<&str> = all[all.len() - 1].split_whitespace().collect();
                if f.len() != 3 || f[0] != "end" {
                    return Err(SnapshotError::Integrity);
                }
                let count: usize = f[1].parse().map_err(|_| SnapshotError::Integrity)?;
                let sum = u64::from_str_radix(f[2], 16).map_err(|_| SnapshotError::Integrity)?;
                let content = &all[..all.len() - 1];
                if count != content.len() {
                    return Err(SnapshotError::Integrity);
                }
                // Hash exactly the bytes `render` hashed: each content
                // line terminated by '\n'. Re-joining also rejects exotic
                // line endings the writer never produces.
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for l in content {
                    h = fnv1a_update(h, l.as_bytes());
                    h = fnv1a_update(h, b"\n");
                }
                if h != sum {
                    return Err(SnapshotError::Integrity);
                }
                &all[1..all.len() - 1]
            }
            // v1 (pre-WAL) has no footer; parse leniently but validate the
            // same bounds so a damaged v1 file still cannot panic us.
            MAGIC_V1 => &all[1..],
            _ => return Err(SnapshotError::BadMagic),
        };

        // Phase 1: parse every line into raw integers. Nothing is built yet,
        // so malformed values cannot reach an asserting constructor.
        struct RawConfig {
            line: usize,
            tau: i64,
            horizon: i64,
            delta_t: i64,
            r_max: i64,
            policy: SelectionPolicy,
            seed: u64,
        }
        let mut raw_cfg: Option<RawConfig> = None;
        let mut clock: Option<(usize, i64, i64)> = None;
        let mut pruned: Option<(usize, i64)> = None;
        let mut servers: Option<u64> = None;
        let mut attrs: Vec<(usize, u64, u64)> = Vec::new();
        // (line, server, start, end) — end None = open-ended.
        let mut idle: Vec<(usize, u64, i64, Option<i64>)> = Vec::new();
        // (line, job, server, start, end)
        let mut reservations: Vec<(usize, u64, u64, i64, i64)> = Vec::new();
        let mut next_job: u64 = 0;
        for (idx, raw) in body.iter().enumerate() {
            let line = idx + 2; // 1-based, after the magic line
            let fields: Vec<&str> = raw.split_whitespace().collect();
            match fields.as_slice() {
                [] => {}
                ["config", tau, horizon, delta_t, r_max, policy, seed] => {
                    raw_cfg = Some(RawConfig {
                        line,
                        tau: field(tau, line)?,
                        horizon: field(horizon, line)?,
                        delta_t: field(delta_t, line)?,
                        r_max: field(r_max, line)?,
                        policy: policy_from(field(policy, line)?)
                            .ok_or(SnapshotError::BadLine { line })?,
                        seed: field(seed, line)?,
                    });
                }
                ["clock", origin, now] => {
                    clock = Some((line, field(origin, line)?, field(now, line)?));
                }
                ["pruned", t] => pruned = Some((line, field(t, line)?)),
                ["servers", n] => servers = Some(field(n, line)?),
                ["attrs", server, mask] => {
                    attrs.push((line, field(server, line)?, field(mask, line)?));
                }
                // v2 wrote a period id before the server and a `next_period`
                // counter after the reservations: parsed, not kept.
                ["idle", id, server, start, end] => {
                    field::<u64>(id, line)?;
                    idle.push(Self::idle_line(line, server, start, end)?);
                }
                ["idle", server, start, end] => {
                    idle.push(Self::idle_line(line, server, start, end)?);
                }
                ["next_period", n] => {
                    field::<u64>(n, line)?;
                }
                ["res", job, server, start, end] => {
                    reservations.push((
                        line,
                        field(job, line)?,
                        field(server, line)?,
                        field(start, line)?,
                        field(end, line)?,
                    ));
                }
                ["next_job", n] => next_job = field(n, line)?,
                _ => return Err(SnapshotError::BadLine { line }),
            }
        }

        // Phase 2: bounds-check everything against what a genuine snapshot
        // can contain: first the geometry and clock bounds every outside
        // input shares (`check_limits`; they span the config, clock and
        // servers lines, hence line 0), then what only a snapshot carries.
        let invalid = |line: usize, what: &'static str| SnapshotError::Invalid { line, what };
        let rc = raw_cfg.ok_or(invalid(0, "missing config line"))?;
        let (clock_line, origin, now) = clock.unwrap_or((0, 0, 0));
        let n_servers = servers.ok_or(invalid(0, "missing servers line"))?;
        if rc.r_max < -1 || rc.r_max > u32::MAX as i64 {
            return Err(invalid(rc.line, "r_max out of range"));
        }
        let cfg = SchedulerConfig {
            tau: Dur(rc.tau),
            horizon: Dur(rc.horizon),
            delta_t: Dur(rc.delta_t),
            r_max: (rc.r_max >= 0).then_some(rc.r_max as u32),
            policy: rc.policy,
            seed: rc.seed,
        };
        if now < origin {
            return Err(invalid(clock_line, "clock runs backwards (now < origin)"));
        }
        // `origin → now` is no clock move: a restore builds the scheduler
        // at `now` and replays nothing, so only the magnitudes of both
        // clocks are bounded here (`now → origin` runs backwards, and a
        // move backwards spans no slot advances).
        cfg.check_limits(n_servers, Time(now), Time(origin))
            .map_err(|what| invalid(0, what))?;
        let num_slots = cfg.slot_config().num_slots as i64;
        // Absent in v1 (and harmlessly conservative there): prune from the
        // origin, exactly what a freshly built scheduler would do.
        let (pruned_line, last_prune) = pruned.unwrap_or((0, origin));
        if last_prune < origin || last_prune > now {
            return Err(invalid(pruned_line, "prune boundary outside [origin, now]"));
        }
        let mut tags = vec![AttrSet::NONE; n_servers as usize];
        for &(line, s, mask) in &attrs {
            *tags
                .get_mut(s as usize)
                .ok_or(invalid(line, "attrs server out of range"))? = AttrSet(mask);
        }
        // The committed window never extends past `now + Q*tau` (the slot
        // ring rounds the horizon up to whole slots).
        let window_end = now + num_slots * rc.tau;
        // (server, start, end-or-sentinel, line) of every interval; idle and
        // busy share the list so any overlap falls out of one sorted scan —
        // never O(servers × lines).
        let mut spans: Vec<(u64, i64, i64, usize)> =
            Vec::with_capacity(idle.len() + reservations.len());
        for &(line, job, server, start, end) in &reservations {
            if server >= n_servers {
                return Err(invalid(line, "reservation server out of range"));
            }
            if start < origin || end > window_end || start >= end {
                return Err(invalid(line, "reservation interval out of range"));
            }
            if job >= next_job {
                return Err(invalid(line, "reservation job id collides with next_job"));
            }
            spans.push((server, start, end, line));
        }
        let mut trailing = vec![0u32; n_servers as usize];
        for &(line, server, start, end) in &idle {
            if server >= n_servers {
                return Err(invalid(line, "idle server out of range"));
            }
            if start < origin || start > MAX_ABS_TIME {
                return Err(invalid(line, "idle period start out of range"));
            }
            match end {
                Some(e) if e <= start || e > window_end => {
                    return Err(invalid(line, "idle period interval out of range"));
                }
                Some(e) => spans.push((server, start, e, line)),
                None => {
                    trailing[server as usize] += 1;
                    spans.push((server, start, i64::MAX, line));
                }
            }
        }
        if !idle.is_empty() && trailing.iter().any(|&c| c != 1) {
            return Err(invalid(
                0,
                "each server needs exactly one open-ended idle period",
            ));
        }
        spans.sort_unstable();
        for w in spans.windows(2) {
            if w[0].0 == w[1].0 && w[1].1 < w[0].2 {
                return Err(SnapshotError::InconsistentReservation { line: w[1].3 });
            }
        }

        // Phase 3: the image, both lists in `(server, start)` order.
        reservations.sort_unstable_by_key(|&(_, _, server, start, _)| (server, start));
        let busy: Vec<Reservation> = reservations
            .iter()
            .map(|&(_, job, server, start, end)| Reservation {
                job: JobId(job),
                server: ServerId(server as u32),
                start: Time(start),
                end: Time(end),
            })
            .collect();
        let mut periods: Vec<(ServerId, Time, Time)> = idle
            .iter()
            .map(|&(_, server, start, end)| {
                (
                    ServerId(server as u32),
                    Time(start),
                    end.map_or(Time::INF, Time),
                )
            })
            .collect();
        periods.sort_unstable_by_key(|&(server, start, _)| (server, start));
        if periods.is_empty() {
            // Commitments only (v1): the idle periods are the gaps the
            // reservations leave from the origin on, merged — what
            // committing them one by one onto an idle system carves.
            let mut rest = busy.as_slice();
            for s in (0..n_servers as u32).map(ServerId) {
                let mut from = Time(origin);
                while let Some((r, tail)) = rest.split_first().filter(|(r, _)| r.server == s) {
                    if from < r.start {
                        periods.push((s, from, r.start));
                    }
                    (from, rest) = (r.end, tail);
                }
                periods.push((s, from, Time::INF));
            }
        }
        Ok(StateImage {
            cfg,
            origin: Time(origin),
            now: Time(now),
            last_prune: Time(last_prune),
            attrs: tags,
            idle: periods,
            busy,
            next_job,
        })
    }

    fn idle_line(
        line: usize,
        server: &str,
        start: &str,
        end: &str,
    ) -> Result<(usize, u64, i64, Option<i64>), SnapshotError> {
        let end = if end == "inf" {
            None
        } else {
            Some(field(end, line)?)
        };
        Ok((line, field(server, line)?, field(start, line)?, end))
    }
}

impl CoAllocScheduler {
    /// Serialize the scheduler's state to a text snapshot.
    pub fn snapshot(&self) -> String {
        self.export().render()
    }

    /// Rebuild a one-range scheduler from snapshot text
    /// ([`StateImage::parse`] holds the input to account;
    /// [`Self::from_image`], which builds any number of ranges, cannot
    /// fail).
    pub fn restore(snapshot: &str) -> Result<CoAllocScheduler, SnapshotError> {
        StateImage::parse(snapshot).map(|image| CoAllocScheduler::from_image(image, 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::builder()
            .tau(Dur(10))
            .horizon(Dur(300))
            .delta_t(Dur(10))
            .policy(SelectionPolicy::ByServerId)
            .build()
    }

    fn busy_scheduler() -> CoAllocScheduler {
        let mut s = CoAllocScheduler::new(4, cfg());
        s.set_server_attrs(ServerId(1), AttrSet(0b101));
        s.submit(&Request::on_demand(Time::ZERO, Dur(50), 2))
            .unwrap();
        s.submit(&Request::advance(Time::ZERO, Time(100), Dur(30), 3))
            .unwrap();
        s.submit(&Request::advance(Time::ZERO, Time(40), Dur(20), 1))
            .unwrap();
        s
    }

    #[test]
    fn snapshot_restore_roundtrip_is_stable() {
        let s = busy_scheduler();
        let snap1 = s.snapshot();
        let restored = CoAllocScheduler::restore(&snap1).unwrap();
        restored.check_consistency();
        // Every configuration field survives the text.
        assert_eq!(
            format!("{:?}", restored.config()),
            format!("{:?}", s.config())
        );
        let snap2 = restored.snapshot();
        assert_eq!(snap1, snap2, "snapshot of a restore must be identical");
    }

    #[test]
    fn restored_scheduler_behaves_identically() {
        let mut original = busy_scheduler();
        let mut restored = CoAllocScheduler::restore(&original.snapshot()).unwrap();
        // Same commitments...
        for srv in 0..4 {
            assert_eq!(
                original.timeline().reservations(ServerId(srv)),
                restored.timeline().reservations(ServerId(srv)),
            );
        }
        assert_eq!(restored.server_attrs(ServerId(1)), AttrSet(0b101));
        // ...and identical future decisions (ByServerId policy).
        let probes = [
            Request::on_demand(Time::ZERO, Dur(60), 2),
            Request::advance(Time::ZERO, Time(90), Dur(40), 4),
            Request::on_demand(Time::ZERO, Dur(10), 1),
        ];
        for p in probes {
            let a = original.submit(&p);
            let b = restored.submit(&p);
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.start, y.start);
                    assert_eq!(x.servers, y.servers);
                }
                (Err(x), Err(y)) => assert_eq!(x, y),
                other => panic!("divergence: {other:?}"),
            }
        }
        restored.check_consistency();
    }

    #[test]
    fn job_ids_continue_without_collision() {
        let mut s = busy_scheduler();
        let restored_next = {
            let r = CoAllocScheduler::restore(&s.snapshot()).unwrap();
            r.export().next_job
        };
        let g = s
            .submit(&Request::on_demand(Time::ZERO, Dur(10), 1))
            .unwrap();
        assert_eq!(g.job.0, restored_next, "id sequences must align");
    }

    #[test]
    fn clock_and_pruning_survive() {
        let mut s = busy_scheduler();
        s.advance_to(Time(60));
        let restored = CoAllocScheduler::restore(&s.snapshot()).unwrap();
        assert_eq!(restored.now(), Time(60));
        restored.check_consistency();
    }

    /// Recompute a valid footer for (possibly hand-altered) content, so
    /// tests can reach the semantic checks *behind* the integrity check.
    fn refooter(content: &str) -> String {
        let body: String = content
            .lines()
            .filter(|l| !l.starts_with("end "))
            .map(|l| format!("{l}\n"))
            .collect();
        format!(
            "{body}end {} {:016x}\n",
            body.lines().count(),
            fnv1a(body.as_bytes())
        )
    }

    #[test]
    fn corrupt_snapshots_rejected() {
        assert_eq!(
            CoAllocScheduler::restore("nonsense").unwrap_err(),
            SnapshotError::BadMagic
        );
        let s = busy_scheduler();
        let snap = s.snapshot();
        // Any in-place edit trips the integrity footer before parsing...
        assert_eq!(
            CoAllocScheduler::restore(&snap.replace("servers 4", "servers x")).unwrap_err(),
            SnapshotError::Integrity
        );
        // ...as does appending after the footer.
        assert_eq!(
            CoAllocScheduler::restore(&format!("{snap}res 99 0 0 40\n")).unwrap_err(),
            SnapshotError::Integrity
        );
        // With the footer recomputed, the edits reach the parser/validator.
        assert!(matches!(
            CoAllocScheduler::restore(&refooter(&snap.replace("servers 4", "servers x"))),
            Err(SnapshotError::BadLine { .. })
        ));
        // A duplicated reservation line overlaps itself: rejected, not
        // double-committed (job id stays below next_job, so it passes the
        // collision check and must be caught by the timeline itself).
        let res_line = snap
            .lines()
            .find(|l| l.starts_with("res "))
            .expect("fixture has reservations");
        assert!(matches!(
            CoAllocScheduler::restore(&refooter(&format!("{snap}{res_line}\n"))),
            Err(SnapshotError::InconsistentReservation { .. })
        ));
        // A reservation whose job id is not below next_job is a forgery.
        assert!(matches!(
            CoAllocScheduler::restore(&refooter(&format!("{snap}res 99 3 200 210\n"))),
            Err(SnapshotError::Invalid { .. })
        ));
    }

    #[test]
    fn truncated_and_reordered_snapshots_rejected() {
        let snap = busy_scheduler().snapshot();
        // Dropping any line (including the footer) is detected.
        let n = snap.lines().count();
        for skip in 0..n {
            let mutated: String = snap
                .lines()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, l)| format!("{l}\n"))
                .collect();
            let err = CoAllocScheduler::restore(&mutated).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Integrity | SnapshotError::BadMagic),
                "dropping line {skip} gave {err:?}"
            );
        }
        // Swapping two interior lines is detected (order is hashed).
        let mut lines: Vec<&str> = snap.lines().collect();
        lines.swap(1, 2);
        let swapped: String = lines.iter().map(|l| format!("{l}\n")).collect();
        assert_eq!(
            CoAllocScheduler::restore(&swapped).unwrap_err(),
            SnapshotError::Integrity
        );
    }

    #[test]
    fn v1_snapshots_still_restore() {
        let s = busy_scheduler();
        let v1: String = s
            .snapshot()
            .lines()
            .filter(|l| !l.starts_with("end "))
            .map(|l| format!("{l}\n"))
            .collect::<String>()
            .replace(MAGIC, MAGIC_V1);
        let restored = CoAllocScheduler::restore(&v1).unwrap();
        restored.check_consistency();
        assert_eq!(restored.snapshot(), s.snapshot(), "v1 upgrade is lossless");
    }

    #[test]
    fn hostile_bounds_rejected_not_panicked() {
        let snap = busy_scheduler().snapshot();
        let cases: &[(&str, &str)] = &[
            // (search, replace) — each would assert or overflow if trusted.
            ("config 10 300", "config 0 300"),       // tau = 0
            ("config 10 300", "config -5 300"),      // tau < 0
            ("config 10 300", "config 10 5"),        // horizon < tau
            ("config 10 300 10", "config 10 300 0"), // delta_t = 0
            ("config 10 300 10", "config 1 4400000000000 10"), // too many slots
            ("servers 4", "servers 0"),
            ("servers 4", "servers 99999999"),
            ("clock 0 0", "clock 0 -10"),            // now < origin
            ("clock 0 0", "clock 0 4400000000000"),  // |now| too large
            ("clock 0 0", "clock -4400000000000 0"), // |origin| too large
            ("pruned 0", "pruned -5"),               // prune boundary < origin
            ("pruned 0", "pruned 5"),                // prune boundary > now
        ];
        for (from, to) in cases {
            let mutated = snap.replace(from, to);
            assert_ne!(&mutated, &snap, "pattern {from:?} must match the fixture");
            let err = CoAllocScheduler::restore(&refooter(&mutated)).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Invalid { .. }),
                "{from:?} -> {to:?} gave {err:?}"
            );
        }
        // Out-of-range attrs / reservation targets.
        for extra in ["attrs 4 1", "res 0 4 200 210", "res 0 0 200 199"] {
            let err =
                CoAllocScheduler::restore(&refooter(&format!("{snap}{extra}\n"))).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Invalid { .. }),
                "{extra:?} gave {err:?}"
            );
        }
    }

    /// A clock more than `MAX_ADVANCE_SLOTS` = 2^21 slots past `init`,
    /// reached in two legal moves, is no hostile input: the image restores,
    /// re-snapshots byte for byte and decides the next request like the
    /// writer.
    #[test]
    fn clock_far_past_origin_restores() {
        let mut s = busy_scheduler();
        s.advance_to(Time(20_000_000));
        s.advance_to(Time(25_000_000)); // 2.5M slots of tau = 10 past 0
        let snap = s.snapshot();
        let mut restored = CoAllocScheduler::restore(&snap).unwrap();
        restored.check_consistency();
        assert_eq!(restored.snapshot(), snap);
        let probe = Request::on_demand(Time(25_000_000), Dur(50), 3);
        let grant = s.submit(&probe).unwrap();
        assert_eq!(restored.submit(&probe), Ok(grant));
        assert_eq!(restored.snapshot(), s.snapshot());
    }

    #[test]
    fn restore_rebuilds_segment_coverage() {
        let mut s = busy_scheduler();
        // Rotate the ring first so restore must re-derive canonical slot
        // ranges against a moved base, not just the origin.
        s.advance_to(Time(35));
        let restored = CoAllocScheduler::restore(&s.snapshot()).unwrap();
        // check_consistency runs SlotRing::check_mirror, which recomputes the
        // canonical decomposition of every covered period from scratch and
        // demands the trees store exactly that (DESIGN.md §12).
        restored.check_consistency();
        assert!(
            s.ring().resident_periods() > 0,
            "fixture must leave finite idle fragments in the ring"
        );
        assert_eq!(
            restored.ring().resident_periods(),
            s.ring().resident_periods(),
            "restore must re-index every finite fragment"
        );
        assert_eq!(
            restored.ring().resident_entries(),
            s.ring().resident_entries(),
            "identical slot ranges must decompose into identical canonical copies"
        );
        assert_eq!(restored.ring().segment_nodes(), s.ring().segment_nodes());
    }

    /// Regression (found by the kill -9 chaos harness): releasing a job
    /// that already ran to completion must remove it from the timeline —
    /// otherwise the snapshot still carries its reservations and a restored
    /// scheduler resurrects the job, answering a second `release` with `ok`
    /// where the original says `UnknownJob`.
    #[test]
    fn released_finished_jobs_stay_released_across_restore() {
        let mut s = CoAllocScheduler::new(2, cfg());
        let g = s
            .submit(&Request::on_demand(Time::ZERO, Dur(20), 1))
            .unwrap();
        s.advance_to(Time(50)); // the job is finished, history not yet pruned
        s.release(g.job).unwrap();
        let mut restored = CoAllocScheduler::restore(&s.snapshot()).unwrap();
        assert!(
            matches!(restored.release(g.job), Err(ScheduleError::UnknownJob(_))),
            "restored scheduler resurrected a released job"
        );
        assert_eq!(restored.snapshot(), s.snapshot());
        restored.check_consistency();
    }

    /// Why a snapshot carries `idle` lines: the idle geometry is not a
    /// function of the live commitments. Releasing a reservation that
    /// already completed retires it without merging its neighbouring idle
    /// periods, and `PaperOrder` ranks candidates by idle-period *start* —
    /// so an image rebuilt from the `res` lines alone (the v1 path) grants
    /// the same window on different servers.
    #[test]
    fn retired_history_shapes_future_grants() {
        let cfg = SchedulerConfig::builder()
            .tau(Dur(10))
            .horizon(Dur(300))
            .delta_t(Dur(10))
            .build();
        let mut live = CoAllocScheduler::new(3, cfg);
        let wide = live
            .submit(&Request::on_demand(Time::ZERO, Dur(40), 2))
            .unwrap();
        assert_eq!(wide.servers, [ServerId(0), ServerId(1)]);
        let done = live
            .submit(&Request::advance(Time::ZERO, Time(30), Dur(20), 1))
            .unwrap();
        assert_eq!(done.servers, [ServerId(2)]);
        live.advance_to(Time(60));
        live.release(done.job).unwrap();
        // Server 2 is now idle over [0, 30) and [50, inf), un-merged.

        let snap = live.snapshot();
        let mut twin = CoAllocScheduler::restore(&snap).unwrap();
        let commitments_only: String = snap
            .lines()
            .filter(|l| !["idle ", "end "].iter().any(|p| l.starts_with(p)))
            .map(|l| format!("{l}\n"))
            .collect::<String>()
            .replace(MAGIC, MAGIC_V1);
        let mut v1 = CoAllocScheduler::restore(&commitments_only).unwrap();
        v1.check_consistency();

        let probe = Request::advance(Time(60), Time(70), Dur(10), 1);
        let on_live = live.submit(&probe).unwrap();
        assert_eq!(on_live.servers, [ServerId(2)], "[50, inf) starts latest");
        assert_eq!(twin.submit(&probe).unwrap(), on_live, "v3: identical");
        let on_v1 = v1.submit(&probe).unwrap();
        assert_eq!(
            (on_v1.start, on_v1.attempts),
            (on_live.start, on_live.attempts)
        );
        assert_eq!(
            on_v1.servers,
            [ServerId(0)],
            "v1: equivalent, not identical"
        );
    }

    /// Prune timing is observable through `release`, so the snapshot pins
    /// it: after history pruning, a finished job is unknown to the original
    /// and to any restored twin alike.
    #[test]
    fn prune_cadence_survives_restore() {
        let mut s = CoAllocScheduler::new(2, cfg());
        let g = s
            .submit(&Request::on_demand(Time::ZERO, Dur(20), 1))
            .unwrap();
        s.advance_to(Time(330)); // past PRUNE_EVERY_SLOTS * tau: prune fires
        let mut restored = CoAllocScheduler::restore(&s.snapshot()).unwrap();
        assert!(matches!(
            s.release(g.job),
            Err(ScheduleError::UnknownJob(_))
        ));
        assert!(matches!(
            restored.release(g.job),
            Err(ScheduleError::UnknownJob(_))
        ));
        assert_eq!(restored.snapshot(), s.snapshot());
        restored.check_consistency();
    }

    #[test]
    fn release_works_on_restored_jobs() {
        let s = busy_scheduler();
        let job = s
            .timeline()
            .reservations(ServerId(0))
            .first()
            .map(|r| r.job)
            .unwrap();
        let mut restored = CoAllocScheduler::restore(&s.snapshot()).unwrap();
        restored.release(job).unwrap();
        restored.check_consistency();
    }

    /// A snapshot written by the last release that still wrote period ids
    /// (kept verbatim): server 2 holds un-merged idle history from a job
    /// released after it finished.
    const V2_FIXTURE: &str = "\
coalloc-snapshot v2
config 10 300 10 -1 0 24301
clock 0 60
pruned 0
servers 3
attrs 1 5
idle 9 0 40 100
idle 10 0 130 inf
idle 11 1 40 100
idle 12 1 130 inf
idle 5 2 0 30
idle 13 2 50 70
idle 14 2 80 100
idle 8 2 130 inf
res 0 0 0 40
res 2 0 100 130
res 0 1 0 40
res 2 1 100 130
res 3 2 70 80
res 2 2 100 130
next_period 15
next_job 4
end 22 a68a5201aba5195e
";

    /// v2 files load — the id column and the `next_period` line parsed and
    /// dropped — and re-snapshot as v3: the same lines without them.
    #[test]
    fn v2_snapshots_load_and_resnapshot_as_v3() {
        let mut restored = CoAllocScheduler::restore(V2_FIXTURE).unwrap();
        restored.check_consistency();
        let v3 = restored.snapshot();
        let expect: Vec<String> = V2_FIXTURE
            .lines()
            .filter(|l| !l.starts_with("next_period ") && !l.starts_with("end "))
            .map(
                |l| match l.split_whitespace().collect::<Vec<_>>().as_slice() {
                    ["idle", _id, rest @ ..] => format!("idle {}", rest.join(" ")),
                    _ => l.replace(MAGIC_V2, MAGIC),
                },
            )
            .collect();
        let got: Vec<&str> = v3.lines().filter(|l| !l.starts_with("end ")).collect();
        assert_eq!(got, expect);
        assert_eq!(CoAllocScheduler::restore(&v3).unwrap().snapshot(), v3);
        // The state is the writer's: job 2 is live, the retired job 1 is not.
        assert_eq!(restored.server_attrs(ServerId(1)), AttrSet(5));
        assert!(matches!(
            restored.release(JobId(1)),
            Err(ScheduleError::UnknownJob(_))
        ));
        restored.release(JobId(2)).unwrap();
        // A v2 id that does not parse is still a malformed line.
        assert!(matches!(
            CoAllocScheduler::restore(&refooter(&V2_FIXTURE.replace("idle 9 0", "idle x 0"))),
            Err(SnapshotError::BadLine { line: 7 })
        ));
    }

    /// The idle geometry is validated like the reservations: whatever a
    /// hostile file says, the installer is never handed an overlap, a
    /// server without its open-ended tail, or an interval outside the
    /// window.
    #[test]
    fn hostile_idle_geometry_rejected_not_panicked() {
        let snap = busy_scheduler().snapshot();
        let tail = snap
            .lines()
            .find(|l| l.starts_with("idle 3 ") && l.ends_with(" inf"))
            .expect("server 3 has a tail");
        let cases: &[(String, &str)] = &[
            (format!("{snap}idle 4 0 inf\n"), "server out of range"),
            (format!("{snap}idle 0 -5 0\n"), "start out of range"),
            (format!("{snap}idle 0 20 20\n"), "interval out of range"),
            (format!("{snap}idle 0 20 99999\n"), "interval out of range"),
            (format!("{snap}{tail}\n"), "exactly one open-ended"),
            (
                snap.replace(&format!("{tail}\n"), ""),
                "exactly one open-ended",
            ),
        ];
        for (mutated, expect) in cases {
            match CoAllocScheduler::restore(&refooter(mutated)).unwrap_err() {
                SnapshotError::Invalid { what, .. } => assert!(what.contains(expect), "{what}"),
                other => panic!("{expect}: got {other:?}"),
            }
        }
        // An idle period on top of a reservation (or of another idle period).
        let res_line = snap.lines().find(|l| l.starts_with("res ")).unwrap();
        let f: Vec<&str> = res_line.split_whitespace().collect();
        let overlap = format!("{snap}idle {} {} {}\n", f[2], f[3], f[4]);
        assert!(matches!(
            CoAllocScheduler::restore(&refooter(&overlap)),
            Err(SnapshotError::InconsistentReservation { .. })
        ));
    }

    /// Period ids are not in the image: nothing identifies an idle period
    /// but its server and interval.
    #[test]
    fn image_text_has_no_period_ids() {
        let snap = busy_scheduler().snapshot();
        assert!(snap.starts_with(MAGIC));
        assert!(!snap.contains("next_period"));
        for l in snap.lines().filter(|l| l.starts_with("idle ")) {
            assert_eq!(l.split_whitespace().count(), 4, "{l}");
        }
    }
}
