//! The co-allocation coordinator: acquires holds on every involved site in
//! global site order (deadlock freedom across concurrent coordinators),
//! then commits all-or-nothing, retrying the whole window shifted by
//! `Delta_t` when any site denies — the paper's retry loop lifted to the
//! multi-site level.
//!
//! ## Fault tolerance
//!
//! Every RPC is retried up to [`CoordinatorConfig::rpc_retries`] times with
//! exponential backoff plus jitter, which is safe because sites answer
//! `Hold`/`Commit`/`Abort` idempotently (see [`crate::site`]). In the commit
//! phase a lost reply therefore no longer forces an immediate compensation:
//! the coordinator re-sends the commit, and a duplicate that reaches a
//! committed site reports [`CommitOutcome::AlreadyCommitted`] — success.
//! Only when a site reports [`CommitOutcome::Expired`] (the hold's TTL ran
//! out) or stays silent through all retries does the coordinator compensate,
//! aborting the transaction at *every* site (aborts undo commits too, so
//! partially committed transactions are rolled back rather than leaked).

use crate::messages::{CommitOutcome, Envelope, SiteId, SiteReply, SiteRequest, TxnId};
use crate::site::SiteHandle;
use coalloc_core::prelude::{Dur, JobId, ServerId, Time};
use obs::{obs_event, obs_span, LazyCounter, LazyHistogram};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::time::Duration;

/// Global transaction-id source (unique across coordinators in-process).
static NEXT_TXN: AtomicU64 = AtomicU64::new(1);

// Protocol metrics, aggregated over every coordinator in the process (each
// coordinator also keeps its own [`CoordinatorStats`]).
static RPC_ATTEMPTS: LazyCounter = LazyCounter::new("rpc_attempts_total");
static RPC_RETRIES: LazyCounter = LazyCounter::new("rpc_retries_total");
static RPC_TIMEOUTS: LazyCounter = LazyCounter::new("rpc_timeouts_total");
static RPC_BACKOFF_NS: LazyHistogram = LazyHistogram::new("rpc_backoff_ns");
static COORD_GRANTS: LazyCounter = LazyCounter::new("coord_grants_total");
static COORD_FAILURES: LazyCounter = LazyCounter::new("coord_failures_total");
static COORD_COMPENSATIONS: LazyCounter = LazyCounter::new("coord_compensations_total");
static COORD_WINDOW_ATTEMPTS: LazyHistogram = LazyHistogram::new("coord_window_attempts");

/// A coordinator's address for one site: the site's id plus a channel the
/// site (or a fault-injecting relay in front of it — see
/// [`crate::network::FlakyLink`]) receives [`Envelope`]s on.
///
/// Owning endpoints instead of borrowing [`SiteHandle`]s lets coordinators
/// live on their own threads and route through per-coordinator links.
#[derive(Clone, Debug)]
pub struct SiteEndpoint {
    /// The site this endpoint reaches.
    pub id: SiteId,
    tx: Sender<Envelope>,
}

impl SiteEndpoint {
    /// Build an endpoint from a site id and the channel leading to it.
    pub fn new(id: SiteId, tx: Sender<Envelope>) -> SiteEndpoint {
        SiteEndpoint { id, tx }
    }

    /// One RPC attempt: send the request with a fresh reply channel and wait
    /// up to `timeout`. A stale reply to an earlier attempt lands on that
    /// attempt's dropped receiver, so it can never be confused with this
    /// one's.
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
}

/// What a coordinator asks for: `servers_per_site[s]` servers at site `s`,
/// all simultaneously for `duration`, starting no earlier than
/// `earliest_start`.
#[derive(Clone, Debug)]
pub struct MultiRequest {
    /// Per-site spatial demand. Sites not listed are not involved.
    pub parts: BTreeMap<SiteId, u32>,
    /// Earliest acceptable start.
    pub earliest_start: Time,
    /// Window length.
    pub duration: Dur,
}

/// A committed cross-site co-allocation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MultiGrant {
    /// The distributed transaction id.
    pub txn: TxnId,
    /// The common start time across all sites.
    pub start: Time,
    /// The common end time.
    pub end: Time,
    /// Per-site local job and servers.
    pub parts: Vec<(SiteId, JobId, Vec<ServerId>)>,
    /// Window attempts used (1 = first window).
    pub attempts: u32,
}

/// Why a co-allocation failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MultiSiteError {
    /// A named site is not registered with the coordinator.
    UnknownSite(SiteId),
    /// All `r_max` windows were tried without success.
    Exhausted {
        /// Window attempts made.
        attempts: u32,
    },
    /// A site failed to answer within the protocol timeout (after all
    /// retries). Holds already acquired were aborted; if this happened in
    /// the commit phase, every site was sent a compensating abort.
    SiteUnresponsive(SiteId),
    /// A commit arrived after the hold's TTL on some site; all other parts
    /// were compensated (undone), so the system is consistent but the
    /// transaction did not happen.
    CommitExpired(SiteId),
}

impl std::fmt::Display for MultiSiteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MultiSiteError::UnknownSite(s) => write!(f, "unknown site {s:?}"),
            MultiSiteError::Exhausted { attempts } => {
                write!(f, "no common window found in {attempts} attempts")
            }
            MultiSiteError::SiteUnresponsive(s) => {
                write!(f, "site {s:?} did not reply in time (all retries)")
            }
            MultiSiteError::CommitExpired(s) => {
                write!(f, "hold expired before commit at site {s:?}")
            }
        }
    }
}

impl std::error::Error for MultiSiteError {}

/// Protocol tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct CoordinatorConfig {
    /// Per-attempt reply timeout.
    pub rpc_timeout: Duration,
    /// Extra delivery attempts after the first times out (0 = old
    /// fail-fast behaviour).
    pub rpc_retries: u32,
    /// Base of the exponential backoff between attempts: attempt `k`
    /// (0-based, counting retries) waits `retry_base * 2^k` plus a uniform
    /// jitter in `[0, retry_base)` before re-sending.
    pub retry_base: Duration,
    /// Hold TTL granted to sites (must comfortably exceed the time to
    /// acquire the remaining holds and send commits, including retries).
    pub hold_ttl: Duration,
    /// Start-time increment between window attempts (`Delta_t`).
    pub delta_t: Dur,
    /// Maximum window attempts (`R_max`).
    pub r_max: u32,
    /// Seed for the backoff jitter (desynchronises coordinators that start
    /// retrying at the same moment).
    pub seed: u64,
}

impl Default for CoordinatorConfig {
    fn default() -> Self {
        CoordinatorConfig {
            rpc_timeout: Duration::from_secs(2),
            rpc_retries: 3,
            retry_base: Duration::from_millis(10),
            hold_ttl: Duration::from_secs(10),
            delta_t: Dur::from_mins(15),
            r_max: 32,
            seed: 0,
        }
    }
}

/// Statistics of one coordinator's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CoordinatorStats {
    /// Successful co-allocations.
    pub granted: u64,
    /// Failed co-allocations.
    pub failed: u64,
    /// Hold-phase aborts issued (contention and denials).
    pub aborts: u64,
    /// Total window attempts.
    pub window_attempts: u64,
    /// RPC attempts beyond the first (timeouts that triggered a re-send).
    pub rpc_retries: u64,
    /// Commit-phase compensations: transactions undone at every site after
    /// an expired or unresolved commit.
    pub compensations: u64,
    /// Commits answered `AlreadyCommitted` — proof a retry was needed and
    /// the idempotent re-delivery saved the transaction.
    pub duplicate_commits: u64,
}

/// Coordinates atomic co-allocations across a set of sites.
pub struct Coordinator {
    sites: BTreeMap<SiteId, SiteEndpoint>,
    cfg: CoordinatorConfig,
    stats: CoordinatorStats,
    rng: SmallRng,
    /// Per-attempt sequence numbers (tracing; lets logs and fault injectors
    /// tell a retry from a link-duplicated copy of the same attempt).
    next_seq: u64,
}

impl Coordinator {
    /// Build a coordinator talking directly to `sites` (reliable channels).
    pub fn new(sites: &[SiteHandle], cfg: CoordinatorConfig) -> Coordinator {
        Self::from_endpoints(sites.iter().map(SiteHandle::endpoint), cfg)
    }

    /// Build a coordinator over explicit endpoints — e.g. channels that lead
    /// through [`crate::network::FlakyLink`]s.
    pub fn from_endpoints(
        endpoints: impl IntoIterator<Item = SiteEndpoint>,
        cfg: CoordinatorConfig,
    ) -> Coordinator {
        Coordinator {
            sites: endpoints.into_iter().map(|e| (e.id, e)).collect(),
            rng: SmallRng::seed_from_u64(cfg.seed ^ 0xC00D),
            cfg,
            stats: CoordinatorStats::default(),
            next_seq: 0,
        }
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> &CoordinatorStats {
        &self.stats
    }

    /// Atomically co-allocate the request across its sites.
    ///
    /// Holds are acquired sequentially in ascending [`SiteId`] order — the
    /// global lock order that prevents deadlock (and livelock cycles)
    /// between concurrent coordinators. Any denial aborts the acquired
    /// prefix and retries the window `Delta_t` later.
    pub fn co_allocate(&mut self, req: &MultiRequest) -> Result<MultiGrant, MultiSiteError> {
        for site in req.parts.keys() {
            if !self.sites.contains_key(site) {
                return Err(MultiSiteError::UnknownSite(*site));
            }
        }
        let mut span = obs_span!(
            "coord.co_allocate",
            "sites" => req.parts.len(),
            "earliest_s" => req.earliest_start.secs(),
            "duration_s" => req.duration.secs().max(0) as u64
        );
        let mut attempts = 0u32;
        let mut start = req.earliest_start;
        let result = 'alloc: {
            while attempts < self.cfg.r_max {
                attempts += 1;
                self.stats.window_attempts += 1;
                let txn = TxnId(NEXT_TXN.fetch_add(1, Ordering::Relaxed));
                match self.try_window(txn, start, req) {
                    Ok(parts) => match self.commit_all(txn, &parts) {
                        Ok(()) => {
                            self.stats.granted += 1;
                            break 'alloc Ok(MultiGrant {
                                txn,
                                start,
                                end: start + req.duration,
                                parts,
                                attempts,
                            });
                        }
                        Err(e) => {
                            self.stats.failed += 1;
                            break 'alloc Err(e);
                        }
                    },
                    Err(HoldFailure::Unresponsive(site)) => {
                        self.stats.failed += 1;
                        break 'alloc Err(MultiSiteError::SiteUnresponsive(site));
                    }
                    Err(HoldFailure::Denied) => {
                        start += self.cfg.delta_t;
                    }
                }
            }
            self.stats.failed += 1;
            Err(MultiSiteError::Exhausted { attempts })
        };
        COORD_WINDOW_ATTEMPTS.observe(attempts as u64);
        match &result {
            Ok(grant) => {
                COORD_GRANTS.inc();
                if span.active() {
                    span.record("outcome", "granted");
                    span.record("txn", grant.txn.0);
                    span.record("attempts", attempts);
                    span.record("start_s", grant.start.secs());
                }
            }
            Err(e) => {
                COORD_FAILURES.inc();
                if span.active() {
                    span.record("outcome", "failed");
                    span.record("attempts", attempts);
                    span.record("error", format!("{e}"));
                }
            }
        }
        result
    }

    /// One RPC with bounded retries: up to `1 + rpc_retries` attempts, each
    /// with a fresh sequence number and reply channel, separated by
    /// exponential backoff plus jitter. Returns `None` only when every
    /// attempt timed out.
    fn call_retry(
        &mut self,
        site_id: SiteId,
        make: impl Fn(u64) -> SiteRequest,
    ) -> Option<SiteReply> {
        let endpoint = self.sites[&site_id].clone();
        for attempt in 0..=self.cfg.rpc_retries {
            if attempt > 0 {
                self.stats.rpc_retries += 1;
                RPC_RETRIES.inc();
                let base = self.cfg.retry_base.as_nanos() as u64;
                let backoff = base.saturating_mul(1u64 << (attempt - 1).min(20));
                let jitter = if base == 0 {
                    0
                } else {
                    self.rng.random_range(0..base)
                };
                RPC_BACKOFF_NS.observe(backoff + jitter);
                obs_event!(
                    "rpc.backoff",
                    "site" => site_id.0,
                    "attempt" => attempt,
                    "wait_ns" => backoff + jitter
                );
                std::thread::sleep(Duration::from_nanos(backoff + jitter));
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            RPC_ATTEMPTS.inc();
            let request = make(seq);
            let mut span = obs_span!(
                "rpc.call",
                "site" => site_id.0,
                "kind" => request.kind(),
                "txn" => request.txn().map(|t| t.0).unwrap_or(0),
                "seq" => seq,
                "attempt" => attempt
            );
            if let Some(reply) = endpoint.call_timeout(request, self.cfg.rpc_timeout) {
                if span.active() {
                    span.record("outcome", "reply");
                }
                return Some(reply);
            }
            RPC_TIMEOUTS.inc();
            if span.active() {
                span.record("outcome", "timeout");
            }
        }
        None
    }

    /// Commit every part, retrying lost replies before compensating. On an
    /// `Expired` outcome or a site that stays silent through all retries the
    /// whole transaction is aborted at every site (commits included).
    fn commit_all(
        &mut self,
        txn: TxnId,
        parts: &[(SiteId, JobId, Vec<ServerId>)],
    ) -> Result<(), MultiSiteError> {
        for (site_id, _, _) in parts {
            let reply = self.call_retry(*site_id, |seq| SiteRequest::Commit { txn, seq });
            match reply {
                Some(SiteReply::CommitResult { outcome, .. }) if outcome.is_success() => {
                    if outcome == CommitOutcome::AlreadyCommitted {
                        self.stats.duplicate_commits += 1;
                    }
                    obs_event!(
                        "coord.commit_ok",
                        "txn" => txn.0,
                        "site" => site_id.0,
                        "duplicate" => outcome == CommitOutcome::AlreadyCommitted
                    );
                }
                Some(SiteReply::CommitResult { .. }) => {
                    // Expired: the TTL ran out before any commit attempt
                    // landed. Undo the transaction everywhere.
                    obs_event!("coord.commit_expired", "txn" => txn.0, "site" => site_id.0);
                    self.compensate(txn, parts);
                    return Err(MultiSiteError::CommitExpired(*site_id));
                }
                Some(SiteReply::Crashed { .. }) | Some(_) | None => {
                    // Unresolved (site silent or restarted mid-commit): the
                    // commit may or may not have landed, so roll the whole
                    // transaction back — aborts are idempotent and undo
                    // commits, which makes the rollback safe either way.
                    obs_event!("coord.commit_unresolved", "txn" => txn.0, "site" => site_id.0);
                    self.compensate(txn, parts);
                    return Err(MultiSiteError::SiteUnresponsive(*site_id));
                }
            }
        }
        Ok(())
    }

    /// Abort `txn` at every listed site (with retries). Used both for
    /// hold-phase cleanup and as the commit-phase compensation path.
    fn compensate(&mut self, txn: TxnId, parts: &[(SiteId, JobId, Vec<ServerId>)]) {
        self.stats.compensations += 1;
        COORD_COMPENSATIONS.inc();
        obs_event!("coord.compensate", "txn" => txn.0, "sites" => parts.len());
        for (site_id, _, _) in parts {
            let _ = self.call_retry(*site_id, |seq| SiteRequest::Abort { txn, seq });
        }
    }

    /// Try to hold one fixed window on every site. On failure the acquired
    /// prefix is aborted.
    fn try_window(
        &mut self,
        txn: TxnId,
        start: Time,
        req: &MultiRequest,
    ) -> Result<Vec<(SiteId, JobId, Vec<ServerId>)>, HoldFailure> {
        let mut acquired: Vec<(SiteId, JobId, Vec<ServerId>)> = Vec::new();
        let ttl = self.cfg.hold_ttl;
        for (&site_id, &servers) in &req.parts {
            let reply = self.call_retry(site_id, |seq| SiteRequest::Hold {
                txn,
                seq,
                start,
                duration: req.duration,
                servers,
                ttl,
            });
            match reply {
                Some(SiteReply::HoldGranted { job, servers, .. }) => {
                    obs_event!(
                        "coord.hold_granted",
                        "txn" => txn.0,
                        "site" => site_id.0,
                        "servers" => servers.len()
                    );
                    acquired.push((site_id, job, servers));
                }
                Some(SiteReply::HoldDenied { available, .. }) => {
                    obs_event!(
                        "coord.hold_denied",
                        "txn" => txn.0,
                        "site" => site_id.0,
                        "available" => available
                    );
                    self.abort_all(txn, &acquired);
                    return Err(HoldFailure::Denied);
                }
                _ => {
                    obs_event!("coord.hold_unresolved", "txn" => txn.0, "site" => site_id.0);
                    self.abort_all(txn, &acquired);
                    return Err(HoldFailure::Unresponsive(site_id));
                }
            }
        }
        Ok(acquired)
    }

    fn abort_all(&mut self, txn: TxnId, acquired: &[(SiteId, JobId, Vec<ServerId>)]) {
        for (site_id, _, _) in acquired {
            self.stats.aborts += 1;
            obs_event!("coord.abort", "txn" => txn.0, "site" => site_id.0);
            let site_id = *site_id;
            let _ = self.call_retry(site_id, |seq| SiteRequest::Abort { txn, seq });
        }
    }
}

enum HoldFailure {
    Denied,
    Unresponsive(SiteId),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{FlakyLink, LinkConfig};
    use coalloc_core::prelude::SchedulerConfig;

    fn sites(n_sites: u32, servers: u32) -> Vec<SiteHandle> {
        let cfg = SchedulerConfig::builder()
            .tau(Dur(60))
            .horizon(Dur(7200))
            .delta_t(Dur(60))
            .build();
        (0..n_sites)
            .map(|i| SiteHandle::spawn(SiteId(i), servers, cfg))
            .collect()
    }

    fn cfg() -> CoordinatorConfig {
        CoordinatorConfig {
            delta_t: Dur(60),
            r_max: 20,
            ..CoordinatorConfig::default()
        }
    }

    fn req(parts: &[(u32, u32)], start: i64, dur: i64) -> MultiRequest {
        MultiRequest {
            parts: parts.iter().map(|&(s, n)| (SiteId(s), n)).collect(),
            earliest_start: Time(start),
            duration: Dur(dur),
        }
    }

    #[test]
    fn grants_across_three_sites() {
        let sites = sites(3, 4);
        let mut coord = Coordinator::new(&sites, cfg());
        let grant = coord
            .co_allocate(&req(&[(0, 2), (1, 3), (2, 1)], 0, 600))
            .unwrap();
        assert_eq!(grant.start, Time(0));
        assert_eq!(grant.parts.len(), 3);
        assert_eq!(grant.parts[0].2.len(), 2);
        assert_eq!(grant.parts[1].2.len(), 3);
        assert_eq!(coord.stats().granted, 1);
    }

    #[test]
    fn contention_shifts_window_atomically() {
        let sites = sites(2, 2);
        let mut coord = Coordinator::new(&sites, cfg());
        // Fill site 1 entirely for [0, 600).
        coord.co_allocate(&req(&[(1, 2)], 0, 600)).unwrap();
        // A cross-site request needing both sites must shift to 600 even
        // though site 0 is free at 0 — the window is common.
        let g = coord.co_allocate(&req(&[(0, 1), (1, 1)], 0, 300)).unwrap();
        assert_eq!(g.start, Time(600));
        assert!(g.attempts > 1);
        assert!(coord.stats().aborts > 0, "prefix holds must have aborted");
    }

    #[test]
    fn unknown_site_rejected() {
        let sites = sites(1, 2);
        let mut coord = Coordinator::new(&sites, cfg());
        assert_eq!(
            coord.co_allocate(&req(&[(7, 1)], 0, 60)),
            Err(MultiSiteError::UnknownSite(SiteId(7)))
        );
    }

    #[test]
    fn impossible_request_exhausts() {
        let sites = sites(1, 2);
        let mut coord = Coordinator::new(&sites, cfg());
        let err = coord.co_allocate(&req(&[(0, 3)], 0, 60)).unwrap_err();
        assert_eq!(err, MultiSiteError::Exhausted { attempts: 20 });
        assert_eq!(coord.stats().failed, 1);
    }

    #[test]
    fn failed_attempts_leave_no_residue() {
        let sites = sites(2, 2);
        {
            let mut coord = Coordinator::new(&sites, cfg());
            // Site 1 can never supply 3 servers → every attempt aborts the
            // hold acquired on site 0.
            let _ = coord.co_allocate(&req(&[(0, 2), (1, 3)], 0, 600));
        }
        // Site 0 must be fully free again.
        let r = sites[0].call(SiteRequest::Query {
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
    }

    /// Regression (lost CommitResult): with a reply-dropping link, the old
    /// coordinator compensated the transaction on the first silent commit
    /// even though the site had committed. With retries + idempotent
    /// commits, the co-allocation must succeed.
    #[test]
    fn retries_recover_lost_replies() {
        let sites = sites(2, 2);
        // Drop roughly a third of replies on each link; requests get
        // through. Retries must push every RPC to completion.
        let links: Vec<FlakyLink> = sites
            .iter()
            .map(|s| {
                FlakyLink::new(
                    s.sender(),
                    LinkConfig {
                        drop_reply_prob: 0.34,
                        seed: 0xBEEF + s.id.0 as u64,
                        ..LinkConfig::default()
                    },
                )
            })
            .collect();
        let endpoints: Vec<SiteEndpoint> = sites
            .iter()
            .zip(&links)
            .map(|(s, l)| SiteEndpoint::new(s.id, l.sender()))
            .collect();
        let mut coord = Coordinator::from_endpoints(
            endpoints,
            CoordinatorConfig {
                rpc_timeout: Duration::from_millis(150),
                rpc_retries: 8,
                retry_base: Duration::from_millis(2),
                delta_t: Dur(60),
                r_max: 4,
                ..CoordinatorConfig::default()
            },
        );
        for i in 0..10 {
            let g = coord.co_allocate(&req(&[(0, 1), (1, 1)], i * 600, 600));
            assert!(g.is_ok(), "attempt {i} failed: {g:?}");
        }
        assert!(
            coord.stats().rpc_retries > 0,
            "a 34% reply-drop rate must have forced retries"
        );
        assert_eq!(coord.stats().compensations, 0);
        // The coordinator's endpoints hold link senders; the links can only
        // drain (and their relay threads exit) once those are gone.
        drop(coord);
        drop(links);
        for s in sites {
            let stats = s.shutdown();
            assert_eq!(stats.commits, 10);
            assert_eq!(stats.holds_lost, 0);
        }
    }

    /// With retries disabled (`rpc_retries: 0`) a dead site surfaces as
    /// `SiteUnresponsive` and the acquired prefix is compensated.
    #[test]
    fn fail_fast_without_retries() {
        let sites = sites(2, 2);
        // Site 1's messages all vanish.
        let dead = FlakyLink::new(
            sites[1].sender(),
            LinkConfig {
                drop_prob: 1.0,
                ..LinkConfig::default()
            },
        );
        let endpoints = vec![
            sites[0].endpoint(),
            SiteEndpoint::new(SiteId(1), dead.sender()),
        ];
        let mut coord = Coordinator::from_endpoints(
            endpoints,
            CoordinatorConfig {
                rpc_timeout: Duration::from_millis(100),
                rpc_retries: 0,
                delta_t: Dur(60),
                r_max: 3,
                ..CoordinatorConfig::default()
            },
        );
        let err = coord
            .co_allocate(&req(&[(0, 1), (1, 1)], 0, 600))
            .unwrap_err();
        assert_eq!(err, MultiSiteError::SiteUnresponsive(SiteId(1)));
        // Site 0's hold was aborted: fully free again.
        let r = sites[0].call(SiteRequest::Query {
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
    }
}
