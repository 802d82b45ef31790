//! Schedule persistence: checkpoint a running scheduler to a plain-text
//! snapshot and restore it later.
//!
//! A resource manager embedding the scheduler (VCL front-end, PCE, site
//! daemon) must survive restarts without losing "the set of commitments
//! that the system has made" (Section 2). The snapshot records exactly
//! those commitments — configuration, clock, server attributes, and every
//! live reservation — and restore rebuilds the full index state (slot
//! trees, trailing index) from them.
//!
//! A v2 snapshot captures the schedule *and* the idle periods, because the
//! commitments do not determine them: a reservation released after it
//! completed (retired) or was pruned leaves its neighbouring idle periods
//! un-merged, and `PaperOrder` ranks candidates by idle-period *start*. So
//! the idle geometry is decision-relevant state — restore installs it
//! verbatim (tree *shapes* are still regenerated; they affect only
//! performance) and every future decision is bit-identical to the writer's,
//! under every selection policy. The period ids ride along: no selection key
//! reaches them (a window has at most one feasible period per server), but
//! they break ties in the trees' keys, so they keep a restored twin's
//! snapshot text and `query` tie order equal to the live index's. Legacy
//! v1 snapshots lack the idle lines; their restores re-derive merged
//! periods from the reservations and make equivalent (same feasibility) but
//! not necessarily identical choices — the test
//! `retired_history_shapes_future_grants` is the minimal case.
//! Pruned history is not included; utilization accounting restarts from
//! the live reservations.

use crate::attrs::AttrSet;
use crate::idle::IdlePeriod;
use crate::ids::{JobId, PeriodId, ServerId};
use crate::policy::SelectionPolicy;
use crate::scheduler::{CoAllocScheduler, SchedulerConfig, MAX_ABS_TIME};
use crate::time::{Dur, Time};
use crate::timeline::Reservation;

/// Snapshot format version tag. v2 appends an `end <lines> <checksum>`
/// integrity footer so truncation, reordering and bit-rot are detected —
/// this format is the crash-recovery base of the write-ahead log
/// (DESIGN.md §13), so it must reject anything it did not write.
const MAGIC: &str = "coalloc-snapshot v2";

/// The previous, footer-less format: still restorable (leniently) so
/// snapshots written before the WAL existed keep loading.
const MAGIC_V1: &str = "coalloc-snapshot v1";

/// Errors from [`CoAllocScheduler::restore`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// Missing or wrong magic/version line.
    BadMagic,
    /// A line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
    },
    /// A reservation does not fit the rebuilt timeline (corrupt snapshot).
    InconsistentReservation {
        /// 1-based line number.
        line: usize,
    },
    /// The v2 integrity footer is missing, malformed, or does not match
    /// the content — the snapshot was truncated, reordered or otherwise
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
                write!(f, "snapshot line {line}: overlapping or misplaced reservation")
            }
            SnapshotError::Integrity => {
                write!(f, "snapshot integrity footer missing or mismatched (truncated or altered)")
            }
            SnapshotError::Invalid { line, what } => {
                write!(f, "snapshot line {line}: {what}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit hash, the integrity checksum of the v2 footer. Not
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

impl CoAllocScheduler {
    /// Serialize the scheduler's commitments to a text snapshot.
    pub fn snapshot(&self) -> String {
        let cfg = self.config();
        let mut out = String::new();
        out.push_str(MAGIC);
        out.push('\n');
        out.push_str(&format!(
            "config {} {} {} {} {} {}\n",
            cfg.tau.secs(),
            cfg.horizon.secs(),
            cfg.delta_t.secs(),
            cfg.r_max.map(|r| r as i64).unwrap_or(-1),
            policy_code(cfg.policy),
            cfg.seed,
        ));
        out.push_str(&format!(
            "clock {} {}\n",
            self.origin().secs(),
            self.now().secs()
        ));
        // Prune timing is observable (a fully-pruned job's `release` turns
        // into `UnknownJob`), so the restored scheduler must resume the
        // same amortized prune cadence as the original.
        out.push_str(&format!("pruned {}\n", self.last_prune().secs()));
        out.push_str(&format!("servers {}\n", self.num_servers()));
        for s in 0..self.num_servers() {
            let a = self.server_attrs(ServerId(s));
            if !a.is_empty() {
                out.push_str(&format!("attrs {s} {}\n", a.0));
            }
        }
        // Idle periods verbatim: released history leaves them un-merged
        // (module docs), so a restore that re-derived them from the `res`
        // lines would make *different* (if equivalent) grants. The ids and
        // the id counter below keep re-snapshots and tree tie order equal.
        for s in 0..self.num_servers() {
            for p in self.timeline().idle_periods(ServerId(s)) {
                if p.end.is_inf() {
                    out.push_str(&format!("idle {} {s} {} inf\n", p.id.0, p.start.secs()));
                } else {
                    out.push_str(&format!(
                        "idle {} {s} {} {}\n",
                        p.id.0,
                        p.start.secs(),
                        p.end.secs()
                    ));
                }
            }
        }
        // Live reservations, stable order: by server, then start.
        for s in 0..self.num_servers() {
            for r in self.timeline().reservations(ServerId(s)) {
                out.push_str(&format!(
                    "res {} {} {} {}\n",
                    r.job.0,
                    s,
                    r.start.secs(),
                    r.end.secs()
                ));
            }
        }
        out.push_str(&format!("next_period {}\n", self.timeline().next_period_id()));
        out.push_str(&format!("next_job {}\n", self.next_job_id()));
        // Integrity footer: line count and FNV-1a over every preceding byte.
        // Restore refuses a v2 snapshot whose footer does not match, so
        // truncation, reordering and bit-flips are all detected up front.
        let lines = out.lines().count();
        let sum = fnv1a(out.as_bytes());
        out.push_str(&format!("end {lines} {sum:016x}\n"));
        out
    }

    /// Rebuild a scheduler from a snapshot produced by [`Self::snapshot`].
    ///
    /// This is the crash-recovery base image of the WAL, so the input is
    /// treated as hostile: a v2 snapshot must carry a matching integrity
    /// footer, every field is bounds-checked before any internal
    /// constructor (which `assert!` on their invariants) runs, and every
    /// reservation must land on rebuilt idle time. Any deviation returns a
    /// [`SnapshotError`]; no input panics or commits overlapping grants.
    pub fn restore(snapshot: &str) -> Result<CoAllocScheduler, SnapshotError> {
        let all: Vec<&str> = snapshot.lines().collect();
        let magic = all.first().copied().ok_or(SnapshotError::BadMagic)?;
        let body: &[&str] = match magic.trim() {
            MAGIC => {
                // v2: the last line must be a footer matching the rest.
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
                // Hash exactly the bytes `snapshot` hashed: each content
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
        // (line, id, server, start, end) — end None = open-ended.
        let mut idle: Vec<(usize, u64, u64, i64, Option<i64>)> = Vec::new();
        let mut reservations: Vec<(usize, u64, u64, i64, i64)> = Vec::new();
        let mut next_period: Option<u64> = None;
        let mut next_job: u64 = 0;
        for (idx, raw) in body.iter().enumerate() {
            let line_no = idx + 2; // 1-based, after the magic line
            let bad = || SnapshotError::BadLine { line: line_no };
            let fields: Vec<&str> = raw.split_whitespace().collect();
            if fields.is_empty() {
                continue;
            }
            match fields[0] {
                "config" if fields.len() == 7 => {
                    raw_cfg = Some(RawConfig {
                        line: line_no,
                        tau: fields[1].parse().map_err(|_| bad())?,
                        horizon: fields[2].parse().map_err(|_| bad())?,
                        delta_t: fields[3].parse().map_err(|_| bad())?,
                        r_max: fields[4].parse().map_err(|_| bad())?,
                        policy: policy_from(fields[5].parse::<u8>().map_err(|_| bad())?)
                            .ok_or(bad())?,
                        seed: fields[6].parse().map_err(|_| bad())?,
                    });
                }
                "clock" if fields.len() == 3 => {
                    clock = Some((
                        line_no,
                        fields[1].parse().map_err(|_| bad())?,
                        fields[2].parse().map_err(|_| bad())?,
                    ));
                }
                "pruned" if fields.len() == 2 => {
                    pruned = Some((line_no, fields[1].parse().map_err(|_| bad())?));
                }
                "servers" if fields.len() == 2 => {
                    servers = Some(fields[1].parse().map_err(|_| bad())?);
                }
                "attrs" if fields.len() == 3 => {
                    attrs.push((
                        line_no,
                        fields[1].parse().map_err(|_| bad())?,
                        fields[2].parse().map_err(|_| bad())?,
                    ));
                }
                "idle" if fields.len() == 5 => {
                    let end = if fields[4] == "inf" {
                        None
                    } else {
                        Some(fields[4].parse().map_err(|_| bad())?)
                    };
                    idle.push((
                        line_no,
                        fields[1].parse().map_err(|_| bad())?,
                        fields[2].parse().map_err(|_| bad())?,
                        fields[3].parse().map_err(|_| bad())?,
                        end,
                    ));
                }
                "next_period" if fields.len() == 2 => {
                    next_period = Some(fields[1].parse().map_err(|_| bad())?);
                }
                "res" if fields.len() == 5 => {
                    reservations.push((
                        line_no,
                        fields[1].parse().map_err(|_| bad())?,
                        fields[2].parse().map_err(|_| bad())?,
                        fields[3].parse().map_err(|_| bad())?,
                        fields[4].parse().map_err(|_| bad())?,
                    ));
                }
                "next_job" if fields.len() == 2 => {
                    next_job = fields[1].parse().map_err(|_| bad())?;
                }
                _ => return Err(bad()),
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
            ..SchedulerConfig::default()
        };
        cfg.check_limits(n_servers, Time(origin), Time(now))
            .map_err(|what| invalid(0, what))?;
        let num_slots = cfg.slot_config().num_slots as i64;
        if now < origin {
            return Err(invalid(clock_line, "clock runs backwards (now < origin)"));
        }
        // Absent in v1 (and harmlessly conservative there): prune from the
        // origin, exactly what a freshly built scheduler would do.
        let (pruned_line, last_prune) = pruned.unwrap_or((0, origin));
        if last_prune < origin || last_prune > now {
            return Err(invalid(pruned_line, "prune boundary outside [origin, now]"));
        }
        for &(line, s, _mask) in &attrs {
            if s >= n_servers {
                return Err(invalid(line, "attrs server out of range"));
            }
        }
        // The committed window never extends past `now + Q*tau` (the slot
        // ring rounds the horizon up to whole slots).
        let window_end = now + num_slots * rc.tau;
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
        }
        // Id-faithful snapshots also carry the idle periods and the
        // period-id counter. Validate their geometry here — one pass over
        // sorted spans, never O(servers × lines) — so the direct installer
        // below cannot be handed an overlap or a missing trailing period.
        let full = !idle.is_empty() || next_period.is_some();
        let np = if full {
            let np = next_period.ok_or(invalid(0, "idle lines without next_period line"))?;
            if idle.is_empty() {
                return Err(invalid(0, "next_period without idle lines"));
            }
            let mut seen_ids = std::collections::HashSet::with_capacity(idle.len());
            // (server, start, end-or-sentinel, line); busy joins the same
            // span list so idle/busy overlap falls out of one sorted scan.
            let mut spans: Vec<(u64, i64, i64, usize)> = Vec::with_capacity(
                idle.len() + reservations.len(),
            );
            let mut trailing = vec![0u32; n_servers as usize];
            for &(line, id, server, start, end) in &idle {
                if server >= n_servers {
                    return Err(invalid(line, "idle server out of range"));
                }
                if id >= np {
                    return Err(invalid(line, "idle period id not below next_period"));
                }
                if !seen_ids.insert(id) {
                    return Err(invalid(line, "duplicate idle period id"));
                }
                if start < origin || start > MAX_ABS_TIME {
                    return Err(invalid(line, "idle period start out of range"));
                }
                match end {
                    Some(e) => {
                        if e <= start || e > window_end {
                            return Err(invalid(line, "idle period interval out of range"));
                        }
                        spans.push((server, start, e, line));
                    }
                    None => {
                        trailing[server as usize] += 1;
                        spans.push((server, start, i64::MAX, line));
                    }
                }
            }
            if trailing.iter().any(|&c| c != 1) {
                return Err(invalid(0, "each server needs exactly one open-ended idle period"));
            }
            for &(line, _, server, start, end) in &reservations {
                spans.push((server, start, end, line));
            }
            spans.sort_unstable();
            for w in spans.windows(2) {
                if w[0].0 == w[1].0 && w[1].1 < w[0].2 {
                    return Err(SnapshotError::InconsistentReservation { line: w[1].3 });
                }
            }
            np
        } else {
            0
        };

        // Phase 3: build. Every assert inside these constructors is now
        // unreachable; the only remaining failure is a reservation that
        // does not fit the rebuilt timeline.
        let mut sched = CoAllocScheduler::starting_at(n_servers as u32, Time(origin), cfg);
        for (_, s, mask) in attrs {
            sched.set_server_attrs(ServerId(s as u32), AttrSet(mask));
        }
        // Advance to the snapshot clock *before* re-committing reservations:
        // the live slot window must match the original's, or fragments near
        // the (original) horizon would fall outside the ring and never be
        // mirrored when the window later advances over them.
        sched.advance_to(Time(now));
        sched.set_last_prune(Time(last_prune));
        if full {
            // Id-faithful path: install the persisted idle periods (and the
            // id counter) verbatim and rebuild the indexes from them, so
            // future decisions are bit-identical to the writer's.
            let periods: Vec<IdlePeriod> = idle
                .iter()
                .map(|&(_, id, server, start, end)| IdlePeriod {
                    id: PeriodId(id),
                    server: ServerId(server as u32),
                    start: Time(start),
                    end: end.map(Time).unwrap_or(Time::INF),
                })
                .collect();
            let busy: Vec<Reservation> = reservations
                .iter()
                .map(|&(_, job, server, start, end)| Reservation {
                    job: JobId(job),
                    server: ServerId(server as u32),
                    start: Time(start),
                    end: Time(end),
                })
                .collect();
            sched.install_state(periods, busy, np);
        } else {
            // Legacy (v1) path: re-derive the idle geometry by re-committing
            // each reservation. Equivalent decisions, not bit-identical —
            // period ids are regenerated.
            for (line, job, server, start, end) in reservations {
                sched
                    .restore_reservation(JobId(job), ServerId(server as u32), Time(start), Time(end))
                    .map_err(|_| SnapshotError::InconsistentReservation { line })?;
            }
        }
        sched.set_next_job_id(next_job);
        Ok(sched)
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
        s.submit(&Request::on_demand(Time::ZERO, Dur(50), 2)).unwrap();
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
            r.next_job_id()
        };
        let g = s.submit(&Request::on_demand(Time::ZERO, Dur(10), 1)).unwrap();
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

    /// Recompute a valid v2 footer for (possibly hand-altered) content, so
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
            .replace("coalloc-snapshot v2", "coalloc-snapshot v1");
        let restored = CoAllocScheduler::restore(&v1).unwrap();
        restored.check_consistency();
        assert_eq!(restored.snapshot(), s.snapshot(), "v1 upgrade is lossless");
    }

    #[test]
    fn hostile_bounds_rejected_not_panicked() {
        let snap = busy_scheduler().snapshot();
        let cases: &[(&str, &str)] = &[
            // (search, replace) — each would assert or overflow if trusted.
            ("config 10 300", "config 0 300"),    // tau = 0
            ("config 10 300", "config -5 300"),   // tau < 0
            ("config 10 300", "config 10 5"),     // horizon < tau
            ("config 10 300 10", "config 10 300 0"), // delta_t = 0
            ("config 10 300 10", "config 1 4400000000000 10"), // too many slots
            ("servers 4", "servers 0"),
            ("servers 4", "servers 99999999"),
            ("clock 0 0", "clock 0 -10"),         // now < origin
            ("clock 0 0", "clock 0 4400000000000"), // |now| too large
            ("clock 0 0", "clock 0 30000000000"), // huge advance span
            ("pruned 0", "pruned -5"),            // prune boundary < origin
            ("pruned 0", "pruned 5"),             // prune boundary > now
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
            let err = CoAllocScheduler::restore(&refooter(&format!("{snap}{extra}\n")))
                .unwrap_err();
            assert!(
                matches!(err, SnapshotError::Invalid { .. }),
                "{extra:?} gave {err:?}"
            );
        }
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
        let g = s.submit(&Request::on_demand(Time::ZERO, Dur(20), 1)).unwrap();
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
            .filter(|l| {
                !["idle ", "next_period ", "end "]
                    .iter()
                    .any(|p| l.starts_with(p))
            })
            .map(|l| format!("{l}\n"))
            .collect::<String>()
            .replace(MAGIC, MAGIC_V1);
        let mut v1 = CoAllocScheduler::restore(&commitments_only).unwrap();
        v1.check_consistency();

        let probe = Request::advance(Time(60), Time(70), Dur(10), 1);
        let on_live = live.submit(&probe).unwrap();
        assert_eq!(on_live.servers, [ServerId(2)], "[50, inf) starts latest");
        assert_eq!(twin.submit(&probe).unwrap(), on_live, "v2: identical");
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
        let g = s.submit(&Request::on_demand(Time::ZERO, Dur(20), 1)).unwrap();
        s.advance_to(Time(330)); // past PRUNE_EVERY_SLOTS * tau: prune fires
        let mut restored = CoAllocScheduler::restore(&s.snapshot()).unwrap();
        assert!(matches!(s.release(g.job), Err(ScheduleError::UnknownJob(_))));
        assert!(matches!(restored.release(g.job), Err(ScheduleError::UnknownJob(_))));
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
}
