//! A site: one scheduler domain running in its own thread.
//!
//! Each site owns a [`CoAllocScheduler`] over its local servers and serves
//! the hold/commit protocol. Holds are tentative reservations backed by a
//! real committed job in the local scheduler, tracked with a wall-clock
//! deadline; expired holds are swept (released) lazily before every request,
//! so an orphaned hold (crashed or partitioned coordinator) can block
//! capacity only for its TTL.
//!
//! All transaction-bearing requests are **idempotent** under at-least-once
//! delivery: a re-delivered `Hold` returns the existing grant (instead of
//! reserving a second time and leaking the first), a re-delivered `Commit`
//! of a committed transaction reports `AlreadyCommitted` (instead of being
//! mistaken for an expiry), and terminal outcomes (aborted/expired) are
//! remembered in a bounded outcome cache so a late, reordered `Hold` cannot
//! resurrect a transaction the coordinator already gave up on.

use crate::messages::{CommitOutcome, Envelope, SiteId, SiteReply, SiteRequest, TxnId};
use coalloc_core::prelude::*;
use obs::obs_event;
use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long terminal per-txn outcomes (aborted / expired) are remembered so
/// that duplicate or reordered messages for finished transactions are
/// answered consistently. Messages older than this are assumed to have left
/// the network (it exceeds any RPC timeout + retry horizon by a wide
/// margin).
const OUTCOME_RETENTION: Duration = Duration::from_secs(120);

/// Handle to a running site thread.
#[derive(Debug)]
pub struct SiteHandle {
    /// The site's identity.
    pub id: SiteId,
    /// Number of servers at this site.
    pub servers: u32,
    tx: Sender<Envelope>,
    join: Option<JoinHandle<SiteStats>>,
}

/// Counters a site reports on shutdown.
///
/// Conservation invariant (checked by the chaos harness): once every live
/// hold has drained, `holds_granted == commits + holds_aborted + expired +
/// holds_lost` — every fresh grant ends in exactly one of those states.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SiteStats {
    /// Fresh holds granted (duplicate deliveries are *not* re-counted).
    pub holds_granted: u64,
    /// Holds denied for lack of capacity (or because the txn had already
    /// finished).
    pub holds_denied: u64,
    /// Transactions committed (each txn at most once).
    pub commits: u64,
    /// Abort messages processed (including idempotent no-ops).
    pub aborts: u64,
    /// Live holds released by an abort.
    pub holds_aborted: u64,
    /// Committed transactions undone by a compensating abort.
    pub commits_undone: u64,
    /// Holds released by TTL expiry.
    pub expired: u64,
    /// Duplicate `Hold` deliveries answered from the cache (would each have
    /// leaked a hold's worth of capacity before idempotency).
    pub duplicate_holds: u64,
    /// Duplicate `Commit` deliveries answered `AlreadyCommitted`.
    pub duplicate_commits: u64,
    /// Crash/restart cycles injected.
    pub crashes: u64,
    /// Live holds lost to a crash (volatile state).
    pub holds_lost: u64,
}

struct HoldState {
    job: JobId,
    servers: Vec<ServerId>,
    deadline: Instant,
}

struct CommittedState {
    job: JobId,
    servers: Vec<ServerId>,
}

/// Terminal transaction outcomes remembered in the dedup cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Terminal {
    Aborted,
    Expired,
}

struct Site {
    id: SiteId,
    sched: CoAllocScheduler,
    holds: HashMap<TxnId, HoldState>,
    /// Committed transactions (kept so a duplicate Hold/Commit can be
    /// answered from cache and a compensating Abort can undo them).
    committed: HashMap<TxnId, CommittedState>,
    /// Outcome cache for finished transactions, with the instant they
    /// finished (entries older than [`OUTCOME_RETENTION`] are pruned).
    finished: HashMap<TxnId, (Terminal, Instant)>,
    stats: SiteStats,
}

impl Site {
    /// Release TTL-expired holds and prune stale outcome-cache entries.
    fn sweep_expired(&mut self) {
        let now = Instant::now();
        let dead: Vec<TxnId> = self
            .holds
            .iter()
            .filter(|(_, h)| h.deadline <= now)
            .map(|(&t, _)| t)
            .collect();
        for txn in dead {
            if let Some(hold) = self.holds.remove(&txn) {
                // The backing job must be live while the hold lives. If a
                // protocol bug ever violates that, skip the release rather
                // than panicking the site thread out from under every
                // transaction it still serves.
                if let Err(e) = self.sched.release(hold.job) {
                    debug_assert!(false, "expired hold {txn:?} had no backing job: {e}");
                    continue;
                }
                obs_event!("site.expired", "txn" => txn.0, "site" => self.id.0);
                self.finish(txn, Terminal::Expired, now);
                self.stats.expired += 1;
            }
        }
        if !self.finished.is_empty() {
            self.finished
                .retain(|_, (_, at)| now.duration_since(*at) < OUTCOME_RETENTION);
        }
    }

    /// Record a terminal outcome in the dedup cache.
    fn finish(&mut self, txn: TxnId, how: Terminal, at: Instant) {
        self.finished.entry(txn).or_insert((how, at));
    }

    fn handle(&mut self, req: SiteRequest) -> Option<SiteReply> {
        self.sweep_expired();
        match req {
            SiteRequest::Hold {
                txn,
                seq: _,
                start,
                duration,
                servers,
                ttl,
            } => Some(self.handle_hold(txn, start, duration, servers, ttl)),
            SiteRequest::Commit { txn, seq: _ } => {
                let outcome = if let Some(hold) = self.holds.remove(&txn) {
                    self.committed.insert(
                        txn,
                        CommittedState {
                            job: hold.job,
                            servers: hold.servers,
                        },
                    );
                    self.stats.commits += 1;
                    obs_event!("site.commit", "txn" => txn.0, "site" => self.id.0);
                    CommitOutcome::Committed
                } else if self.committed.contains_key(&txn) {
                    self.stats.duplicate_commits += 1;
                    CommitOutcome::AlreadyCommitted
                } else {
                    // Expired, aborted, or never held here. Record the
                    // outcome so a reordered late Hold cannot resurrect the
                    // transaction after the coordinator compensates.
                    obs_event!("site.commit_expired", "txn" => txn.0, "site" => self.id.0);
                    self.finish(txn, Terminal::Expired, Instant::now());
                    CommitOutcome::Expired
                };
                Some(SiteReply::CommitResult {
                    txn,
                    site: self.id,
                    outcome,
                })
            }
            SiteRequest::Abort { txn, seq: _ } => {
                self.stats.aborts += 1;
                if let Some(hold) = self.holds.remove(&txn) {
                    if let Err(e) = self.sched.release(hold.job) {
                        debug_assert!(false, "aborted hold {txn:?} had no backing job: {e}");
                    } else {
                        self.stats.holds_aborted += 1;
                    }
                } else if let Some(c) = self.committed.remove(&txn) {
                    // Compensation: undo an already committed transaction.
                    let _ = self.sched.release(c.job);
                    self.stats.commits_undone += 1;
                }
                obs_event!("site.abort", "txn" => txn.0, "site" => self.id.0);
                self.finish(txn, Terminal::Aborted, Instant::now());
                Some(SiteReply::Aborted { txn, site: self.id })
            }
            SiteRequest::Query { start, duration } => {
                let available = self.sched.range_count(start, start + duration) as u32;
                Some(SiteReply::QueryResult {
                    site: self.id,
                    available,
                })
            }
            SiteRequest::Tick { now } => {
                self.sched.advance_to(now);
                Some(SiteReply::Ticked { site: self.id })
            }
            SiteRequest::Crash => {
                // Volatile state loss: live holds and the outcome cache are
                // gone; committed transactions are durable. Restart recovery
                // releases the scheduler jobs that backed the lost holds
                // (in a real deployment: redo-log replay drops uncommitted
                // reservations).
                let lost: Vec<HoldState> = self.holds.drain().map(|(_, h)| h).collect();
                obs_event!("site.crash", "site" => self.id.0, "holds_lost" => lost.len());
                for hold in lost {
                    let _ = self.sched.release(hold.job);
                    self.stats.holds_lost += 1;
                }
                self.finished.clear();
                self.stats.crashes += 1;
                Some(SiteReply::Crashed { site: self.id })
            }
            SiteRequest::Shutdown => None,
        }
    }

    fn handle_hold(
        &mut self,
        txn: TxnId,
        start: Time,
        duration: Dur,
        servers: u32,
        ttl: Duration,
    ) -> SiteReply {
        // Idempotency: a re-delivered Hold must not reserve a second time —
        // that would orphan the first reservation's capacity forever (the
        // coordinator only knows one job per (txn, site)). Answer from the
        // live-hold table or the committed table instead.
        if let Some(hold) = self.holds.get_mut(&txn) {
            hold.deadline = Instant::now() + ttl;
            self.stats.duplicate_holds += 1;
            return SiteReply::HoldGranted {
                txn,
                site: self.id,
                job: hold.job,
                servers: hold.servers.clone(),
            };
        }
        if let Some(c) = self.committed.get(&txn) {
            self.stats.duplicate_holds += 1;
            return SiteReply::HoldGranted {
                txn,
                site: self.id,
                job: c.job,
                servers: c.servers.clone(),
            };
        }
        if self.finished.contains_key(&txn) {
            // The transaction already ended here (aborted or expired); a
            // late duplicate must not re-acquire capacity the coordinator
            // will never learn about.
            self.stats.holds_denied += 1;
            return SiteReply::HoldDenied {
                txn,
                site: self.id,
                available: 0,
            };
        }
        let end = start + duration;
        let hits = self.sched.range_search(start, end);
        if (hits.len() as u32) < servers {
            self.stats.holds_denied += 1;
            obs_event!(
                "site.hold_denied",
                "txn" => txn.0,
                "site" => self.id.0,
                "available" => hits.len()
            );
            return SiteReply::HoldDenied {
                txn,
                site: self.id,
                available: hits.len() as u32,
            };
        }
        let pick: Vec<ServerId> = hits
            .iter()
            .take(servers as usize)
            .map(|h| h.server)
            .collect();
        match self.sched.reserve(&pick, start, end) {
            Ok(grant) => {
                self.holds.insert(
                    txn,
                    HoldState {
                        job: grant.job,
                        servers: grant.servers.clone(),
                        deadline: Instant::now() + ttl,
                    },
                );
                self.stats.holds_granted += 1;
                obs_event!(
                    "site.hold_granted",
                    "txn" => txn.0,
                    "site" => self.id.0,
                    "servers" => grant.servers.len()
                );
                SiteReply::HoldGranted {
                    txn,
                    site: self.id,
                    job: grant.job,
                    servers: grant.servers,
                }
            }
            Err(_) => {
                self.stats.holds_denied += 1;
                SiteReply::HoldDenied {
                    txn,
                    site: self.id,
                    available: 0,
                }
            }
        }
    }
}

impl SiteHandle {
    /// Spawn a site thread with `servers` local servers and the given
    /// scheduler configuration.
    pub fn spawn(id: SiteId, servers: u32, cfg: SchedulerConfig) -> SiteHandle {
        let (tx, rx): (Sender<Envelope>, Receiver<Envelope>) = mpsc::channel();
        let join = std::thread::Builder::new()
            .name(format!("site-{}", id.0))
            .spawn(move || {
                let mut site = Site {
                    id,
                    sched: CoAllocScheduler::new(servers, cfg),
                    holds: HashMap::new(),
                    committed: HashMap::new(),
                    finished: HashMap::new(),
                    stats: SiteStats::default(),
                };
                // Periodic wake-up so TTL expiry cannot be starved by an
                // idle channel.
                loop {
                    match rx.recv_timeout(Duration::from_millis(50)) {
                        Ok(env) => match site.handle(env.request) {
                            Some(reply) => {
                                let _ = env.reply_to.send(reply);
                            }
                            None => break, // Shutdown
                        },
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            site.sweep_expired();
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                }
                site.sweep_expired();
                site.sched.check_consistency();
                site.stats
            })
            .expect("spawn site thread");
        SiteHandle {
            id,
            servers,
            tx,
            join: Some(join),
        }
    }

    /// The channel to send [`Envelope`]s on (used by networks/relays).
    pub fn sender(&self) -> Sender<Envelope> {
        self.tx.clone()
    }

    /// An owned coordinator-side address for this site (direct, reliable
    /// channel — interpose a [`crate::network::FlakyLink`] for faults).
    pub fn endpoint(&self) -> crate::coordinator::SiteEndpoint {
        crate::coordinator::SiteEndpoint::new(self.id, self.tx.clone())
    }

    /// Send a request and synchronously await the reply (no timeout; prefer
    /// [`Self::call_timeout`] in protocol code).
    pub fn call(&self, request: SiteRequest) -> SiteReply {
        self.call_timeout(request, Duration::from_secs(10))
            .expect("site reply within 10s")
    }

    /// Send a request and await the reply with a timeout.
    pub fn call_timeout(&self, request: SiteRequest, timeout: Duration) -> Option<SiteReply> {
        let (reply_tx, reply_rx) = mpsc::channel();
        self.tx
            .send(Envelope {
                request,
                reply_to: reply_tx,
            })
            .ok()?;
        reply_rx.recv_timeout(timeout).ok()
    }

    /// Stop the site thread and collect its statistics.
    pub fn shutdown(mut self) -> SiteStats {
        let (reply_tx, _keep) = mpsc::channel();
        let _ = self.tx.send(Envelope {
            request: SiteRequest::Shutdown,
            reply_to: reply_tx,
        });
        self.join
            .take()
            .expect("not yet joined")
            .join()
            .expect("site thread panicked")
    }
}

impl Drop for SiteHandle {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            let (reply_tx, _keep) = mpsc::channel();
            let _ = self.tx.send(Envelope {
                request: SiteRequest::Shutdown,
                reply_to: reply_tx,
            });
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SchedulerConfig {
        SchedulerConfig::builder()
            .tau(Dur(60))
            .horizon(Dur(3600))
            .delta_t(Dur(60))
            .build()
    }

    fn hold(txn: u64, start: i64, dur: i64, servers: u32, ttl_ms: u64) -> SiteRequest {
        SiteRequest::Hold {
            txn: TxnId(txn),
            seq: 0,
            start: Time(start),
            duration: Dur(dur),
            servers,
            ttl: Duration::from_millis(ttl_ms),
        }
    }

    #[test]
    fn hold_commit_roundtrip() {
        let site = SiteHandle::spawn(SiteId(0), 4, cfg());
        let reply = site.call(hold(1, 0, 600, 2, 5000));
        assert!(matches!(
            reply,
            SiteReply::HoldGranted { txn: TxnId(1), .. }
        ));
        let reply = site.call(SiteRequest::Commit {
            txn: TxnId(1),
            seq: 0,
        });
        assert_eq!(
            reply,
            SiteReply::CommitResult {
                txn: TxnId(1),
                site: SiteId(0),
                outcome: CommitOutcome::Committed
            }
        );
        // The window is consumed.
        let reply = site.call(SiteRequest::Query {
            start: Time(0),
            duration: Dur(600),
        });
        assert_eq!(
            reply,
            SiteReply::QueryResult {
                site: SiteId(0),
                available: 2
            }
        );
        let stats = site.shutdown();
        assert_eq!(stats.holds_granted, 1);
        assert_eq!(stats.commits, 1);
    }

    #[test]
    fn hold_abort_releases_capacity() {
        let site = SiteHandle::spawn(SiteId(0), 2, cfg());
        let r = site.call(hold(5, 0, 600, 2, 5000));
        assert!(matches!(r, SiteReply::HoldGranted { .. }));
        site.call(SiteRequest::Abort {
            txn: TxnId(5),
            seq: 0,
        });
        let r = site.call(SiteRequest::Query {
            start: Time(0),
            duration: Dur(600),
        });
        assert_eq!(
            r,
            SiteReply::QueryResult {
                site: SiteId(0),
                available: 2
            }
        );
        // Abort is idempotent.
        let r = site.call(SiteRequest::Abort {
            txn: TxnId(5),
            seq: 1,
        });
        assert_eq!(
            r,
            SiteReply::Aborted {
                txn: TxnId(5),
                site: SiteId(0)
            }
        );
    }

    #[test]
    fn insufficient_capacity_denied_with_count() {
        let site = SiteHandle::spawn(SiteId(3), 2, cfg());
        let r = site.call(hold(9, 0, 600, 3, 5000));
        assert_eq!(
            r,
            SiteReply::HoldDenied {
                txn: TxnId(9),
                site: SiteId(3),
                available: 2
            }
        );
    }

    #[test]
    fn expired_hold_is_swept_and_commit_fails() {
        let site = SiteHandle::spawn(SiteId(0), 2, cfg());
        site.call(hold(1, 0, 600, 2, 30));
        std::thread::sleep(Duration::from_millis(120));
        // Capacity is back...
        let r = site.call(SiteRequest::Query {
            start: Time(0),
            duration: Dur(600),
        });
        assert_eq!(
            r,
            SiteReply::QueryResult {
                site: SiteId(0),
                available: 2
            }
        );
        // ...and a late commit reports expiry, not success.
        let r = site.call(SiteRequest::Commit {
            txn: TxnId(1),
            seq: 1,
        });
        assert_eq!(
            r,
            SiteReply::CommitResult {
                txn: TxnId(1),
                site: SiteId(0),
                outcome: CommitOutcome::Expired
            }
        );
        let stats = site.shutdown();
        assert_eq!(stats.expired, 1);
    }

    #[test]
    fn compensating_abort_undoes_commit() {
        let site = SiteHandle::spawn(SiteId(0), 2, cfg());
        site.call(hold(2, 60, 300, 1, 5000));
        site.call(SiteRequest::Commit {
            txn: TxnId(2),
            seq: 0,
        });
        site.call(SiteRequest::Abort {
            txn: TxnId(2),
            seq: 0,
        });
        let r = site.call(SiteRequest::Query {
            start: Time(60),
            duration: Dur(300),
        });
        assert_eq!(
            r,
            SiteReply::QueryResult {
                site: SiteId(0),
                available: 2
            }
        );
    }

    #[test]
    fn tick_unlocks_far_future_windows() {
        // Horizon 3600s: a window at t=5000 is initially unreachable; after
        // ticking the clock to 2000 the horizon covers it.
        let site = SiteHandle::spawn(SiteId(2), 2, cfg());
        let far_hold = hold(11, 5000, 300, 1, 5000);
        let r = site.call(far_hold.clone());
        assert!(
            matches!(r, SiteReply::HoldDenied { available: 0, .. }),
            "{r:?}"
        );
        site.call(SiteRequest::Tick { now: Time(2000) });
        let r = site.call(far_hold);
        assert!(matches!(r, SiteReply::HoldGranted { .. }), "{r:?}");
        let stats = site.shutdown();
        assert_eq!(stats.holds_granted, 1);
        assert_eq!(stats.holds_denied, 1);
    }

    #[test]
    fn query_reflects_live_holds() {
        let site = SiteHandle::spawn(SiteId(0), 3, cfg());
        site.call(hold(21, 0, 600, 2, 5000));
        // Uncommitted holds already consume capacity (that is the point of
        // a hold).
        let r = site.call(SiteRequest::Query {
            start: Time(0),
            duration: Dur(600),
        });
        assert_eq!(
            r,
            SiteReply::QueryResult {
                site: SiteId(0),
                available: 1
            }
        );
    }

    /// Regression (hold-leak bug): a duplicated `Hold` used to call
    /// `holds.insert` again, overwriting the prior `HoldState` and leaking
    /// its backing job's capacity forever. It must return the existing
    /// grant instead.
    #[test]
    fn duplicate_hold_returns_existing_grant_without_leak() {
        let site = SiteHandle::spawn(SiteId(0), 2, cfg());
        let first = site.call(hold(7, 0, 600, 1, 5000));
        let SiteReply::HoldGranted { job, servers, .. } = first.clone() else {
            panic!("expected grant, got {first:?}");
        };
        // Same txn re-delivered (different seq, as a retry would send).
        let second = site.call(SiteRequest::Hold {
            txn: TxnId(7),
            seq: 1,
            start: Time(0),
            duration: Dur(600),
            servers: 1,
            ttl: Duration::from_secs(5),
        });
        assert_eq!(
            second,
            SiteReply::HoldGranted {
                txn: TxnId(7),
                site: SiteId(0),
                job,
                servers: servers.clone()
            },
            "duplicate Hold must return the original grant"
        );
        // Only one server's capacity is consumed...
        let q = site.call(SiteRequest::Query {
            start: Time(0),
            duration: Dur(600),
        });
        assert_eq!(
            q,
            SiteReply::QueryResult {
                site: SiteId(0),
                available: 1
            }
        );
        // ...and one abort frees everything (no second, orphaned hold).
        site.call(SiteRequest::Abort {
            txn: TxnId(7),
            seq: 0,
        });
        let q = site.call(SiteRequest::Query {
            start: Time(0),
            duration: Dur(600),
        });
        assert_eq!(
            q,
            SiteReply::QueryResult {
                site: SiteId(0),
                available: 2
            }
        );
        let stats = site.shutdown();
        assert_eq!(stats.holds_granted, 1, "one fresh grant");
        assert_eq!(stats.duplicate_holds, 1, "one cached re-grant");
    }

    /// Regression (duplicate-commit misclassification): a retried commit of
    /// a committed txn used to report `ok: false`, indistinguishable from
    /// expiry, so coordinators compensated successful transactions.
    #[test]
    fn duplicate_commit_reports_already_committed() {
        let site = SiteHandle::spawn(SiteId(0), 2, cfg());
        site.call(hold(3, 0, 600, 1, 5000));
        let first = site.call(SiteRequest::Commit {
            txn: TxnId(3),
            seq: 0,
        });
        assert_eq!(
            first,
            SiteReply::CommitResult {
                txn: TxnId(3),
                site: SiteId(0),
                outcome: CommitOutcome::Committed
            }
        );
        let dup = site.call(SiteRequest::Commit {
            txn: TxnId(3),
            seq: 1,
        });
        assert_eq!(
            dup,
            SiteReply::CommitResult {
                txn: TxnId(3),
                site: SiteId(0),
                outcome: CommitOutcome::AlreadyCommitted
            },
            "duplicate commit is success, not expiry"
        );
        assert!(CommitOutcome::AlreadyCommitted.is_success());
        let stats = site.shutdown();
        assert_eq!(stats.commits, 1, "the txn committed exactly once");
        assert_eq!(stats.duplicate_commits, 1);
    }

    /// A duplicate `Hold` arriving after the txn committed also answers from
    /// cache instead of double-booking.
    #[test]
    fn hold_after_commit_returns_cached_grant() {
        let site = SiteHandle::spawn(SiteId(0), 2, cfg());
        site.call(hold(4, 0, 600, 1, 5000));
        site.call(SiteRequest::Commit {
            txn: TxnId(4),
            seq: 0,
        });
        let dup = site.call(hold(4, 0, 600, 1, 5000));
        assert!(
            matches!(dup, SiteReply::HoldGranted { txn: TxnId(4), .. }),
            "{dup:?}"
        );
        let q = site.call(SiteRequest::Query {
            start: Time(0),
            duration: Dur(600),
        });
        assert_eq!(
            q,
            SiteReply::QueryResult {
                site: SiteId(0),
                available: 1
            },
            "no double booking"
        );
    }

    /// A reordered `Hold` that arrives after the transaction was aborted is
    /// denied — it must not resurrect capacity the coordinator gave up on.
    #[test]
    fn hold_after_abort_is_denied() {
        let site = SiteHandle::spawn(SiteId(0), 2, cfg());
        site.call(SiteRequest::Abort {
            txn: TxnId(9),
            seq: 0,
        });
        let r = site.call(hold(9, 0, 600, 1, 5000));
        assert_eq!(
            r,
            SiteReply::HoldDenied {
                txn: TxnId(9),
                site: SiteId(0),
                available: 0
            }
        );
        let q = site.call(SiteRequest::Query {
            start: Time(0),
            duration: Dur(600),
        });
        assert_eq!(
            q,
            SiteReply::QueryResult {
                site: SiteId(0),
                available: 2
            },
            "nothing held"
        );
    }

    /// Crash/restart loses volatile state: live holds are released (capacity
    /// returns), committed transactions survive.
    #[test]
    fn crash_loses_holds_keeps_commits() {
        let site = SiteHandle::spawn(SiteId(0), 3, cfg());
        site.call(hold(1, 0, 600, 1, 60_000));
        site.call(SiteRequest::Commit {
            txn: TxnId(1),
            seq: 0,
        });
        site.call(hold(2, 0, 600, 1, 60_000));
        let r = site.call(SiteRequest::Crash);
        assert_eq!(r, SiteReply::Crashed { site: SiteId(0) });
        // The uncommitted hold's capacity is back; the commit stays.
        let q = site.call(SiteRequest::Query {
            start: Time(0),
            duration: Dur(600),
        });
        assert_eq!(
            q,
            SiteReply::QueryResult {
                site: SiteId(0),
                available: 2
            }
        );
        // Committing the lost hold now reports expiry (state loss is an
        // expiry from the coordinator's point of view).
        let c = site.call(SiteRequest::Commit {
            txn: TxnId(2),
            seq: 1,
        });
        assert_eq!(
            c,
            SiteReply::CommitResult {
                txn: TxnId(2),
                site: SiteId(0),
                outcome: CommitOutcome::Expired
            }
        );
        let stats = site.shutdown();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.holds_lost, 1);
        assert_eq!(stats.commits, 1);
    }

    #[test]
    fn tick_advances_clock() {
        let site = SiteHandle::spawn(SiteId(1), 1, cfg());
        let r = site.call(SiteRequest::Tick { now: Time(120) });
        assert_eq!(r, SiteReply::Ticked { site: SiteId(1) });
        // Window in the past is no longer available.
        let r = site.call(SiteRequest::Query {
            start: Time(0),
            duration: Dur(60),
        });
        assert_eq!(
            r,
            SiteReply::QueryResult {
                site: SiteId(1),
                available: 0
            }
        );
    }
}
