//! Chaos soak harness: concurrent coordinators over lossy, duplicating,
//! reordering links, with optional whole-site crash/restart injection —
//! and conservation checks over every statistics surface afterwards.
//!
//! [`run_chaos`] wires `coordinators × sites` independent [`FlakyLink`]s (so
//! every coordinator sees its own fault pattern), drives a random but
//! seeded workload through the full hold/commit protocol, drains, and
//! returns a [`ChaosReport`]. [`ChaosReport::verify`] asserts the invariants
//! the fault-tolerant protocol promises:
//!
//! 1. **No leaked holds** — per site, `holds_granted == commits +
//!    holds_aborted + expired + holds_lost` after the drain.
//! 2. **No lost or phantom commits** — the committed parts surviving at the
//!    sites exactly match the co-allocations the coordinators report granted
//!    (with a documented allowance for transactions a coordinator had to
//!    abandon as unresolved).
//! 3. **Liveness under message faults** — when no crashes are injected, at
//!    least 99% of the feasible requests (those not exhausted by capacity
//!    contention) eventually commit.
//!
//! Each site's scheduler additionally self-checks (`check_consistency`) at
//! shutdown, so structural corruption panics the site thread and fails the
//! run loudly.

use crate::coordinator::{
    Coordinator, CoordinatorConfig, CoordinatorStats, MultiRequest, MultiSiteError, SiteEndpoint,
};
use crate::messages::{SiteId, SiteRequest};
use crate::network::{FlakyLink, LinkConfig, LinkStats};
use crate::site::{SiteHandle, SiteStats};
use coalloc_core::prelude::{Dur, SchedulerConfig, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Parameters of one chaos run.
#[derive(Clone, Copy, Debug)]
pub struct ChaosConfig {
    /// Number of sites.
    pub sites: u32,
    /// Servers per site.
    pub servers_per_site: u32,
    /// Concurrent coordinators.
    pub coordinators: u32,
    /// Co-allocation requests each coordinator issues.
    pub requests_per_coordinator: u32,
    /// Link fault template. Every (coordinator, site) link derives its own
    /// RNG seed from this template's seed.
    pub link: LinkConfig,
    /// Coordinator protocol template (timeouts, retries, TTL). Seeds are
    /// likewise derived per coordinator.
    pub coordinator: CoordinatorConfig,
    /// When set, a crash injector restarts a random site at this interval
    /// for the duration of the workload.
    pub crash_interval: Option<Duration>,
    /// Master seed; the whole run is a pure function of the config.
    pub seed: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            sites: 3,
            servers_per_site: 8,
            coordinators: 4,
            requests_per_coordinator: 25,
            link: LinkConfig {
                drop_prob: 0.05,
                duplicate_prob: 0.05,
                drop_reply_prob: 0.05,
                duplicate_reply_prob: 0.05,
                reorder_prob: 0.02,
                ..LinkConfig::default()
            },
            coordinator: CoordinatorConfig {
                rpc_timeout: Duration::from_millis(150),
                rpc_retries: 8,
                retry_base: Duration::from_millis(2),
                hold_ttl: Duration::from_secs(3),
                delta_t: Dur(60),
                r_max: 12,
                seed: 0,
            },
            crash_interval: None,
            seed: 0xC0FFEE,
        }
    }
}

/// Everything a chaos run measured.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Total requests issued.
    pub requests: u64,
    /// Requests that committed everywhere.
    pub granted: u64,
    /// Committed site-parts across all grants (what must survive at sites).
    pub granted_parts: u64,
    /// Requests that ran out of windows (capacity contention — counted as
    /// infeasible, not as protocol failures).
    pub exhausted: u64,
    /// Requests abandoned because a site stayed silent through all retries
    /// (the transaction was compensated; commits may have been undone).
    pub unresponsive: u64,
    /// Requests whose hold expired before the commit landed (compensated).
    pub commit_expired: u64,
    /// Site crashes injected.
    pub crashes_injected: u64,
    /// Aggregated coordinator counters.
    pub coordinators: CoordinatorStats,
    /// Per-site counters, indexed by site.
    pub sites: Vec<SiteStats>,
    /// Per-link counters (coordinator-major order).
    pub links: Vec<LinkStats>,
}

impl ChaosReport {
    /// Check the protocol's invariants; returns every violation found.
    pub fn verify(&self) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();

        // 1. Per-site hold conservation: every granted hold ended in exactly
        //    one of commit / abort / TTL-expiry / crash-loss.
        for (i, s) in self.sites.iter().enumerate() {
            let accounted = s.commits + s.holds_aborted + s.expired + s.holds_lost;
            if s.holds_granted != accounted {
                errors.push(format!(
                    "site {i}: leaked holds — granted {} != commits {} + aborted {} \
                     + expired {} + lost {} (= {accounted})",
                    s.holds_granted, s.commits, s.holds_aborted, s.expired, s.holds_lost
                ));
            }
        }

        // 2. Commit conservation: surviving commits at the sites must match
        //    the parts of the co-allocations reported granted. Transactions
        //    abandoned as unresolved may legitimately leave extra durable
        //    commits (the compensating abort itself can be lost), bounded by
        //    sites-per-unresolved-txn.
        let net_commits: u64 = self
            .sites
            .iter()
            .map(|s| s.commits - s.commits_undone)
            .sum();
        let slack = self.unresponsive * self.sites.len() as u64;
        if net_commits < self.granted_parts || net_commits > self.granted_parts + slack {
            errors.push(format!(
                "commit conservation: {} net commits at sites, expected {} \
                 (+ at most {slack} from unresolved txns)",
                net_commits, self.granted_parts
            ));
        }
        if self.coordinators.granted != self.granted {
            errors.push(format!(
                "coordinator stats disagree with driver: {} vs {} granted",
                self.coordinators.granted, self.granted
            ));
        }

        // 3. Liveness: without crashes, ≥99% of feasible requests commit.
        if self.crashes_injected == 0 {
            let feasible = self.requests - self.exhausted;
            if feasible > 0 && (self.granted as f64) < 0.99 * feasible as f64 {
                errors.push(format!(
                    "liveness: only {}/{} feasible requests committed (<99%)",
                    self.granted, feasible
                ));
            }
        }

        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// Human-readable summary.
    pub fn summary(&self) -> String {
        let delivered: u64 = self.links.iter().map(|l| l.delivered).sum();
        let dropped: u64 = self
            .links
            .iter()
            .map(|l| l.dropped + l.replies_dropped)
            .sum();
        let duplicated: u64 = self
            .links
            .iter()
            .map(|l| l.duplicated + l.replies_duplicated)
            .sum();
        let reordered: u64 = self.links.iter().map(|l| l.reordered).sum();
        format!(
            "requests {} | granted {} | exhausted {} | unresponsive {} | \
             commit-expired {} | crashes {} | rpc retries {} | compensations {} | \
             link: {delivered} delivered / {dropped} dropped / {duplicated} duplicated / \
             {reordered} reordered",
            self.requests,
            self.granted,
            self.exhausted,
            self.unresponsive,
            self.commit_expired,
            self.crashes_injected,
            self.coordinators.rpc_retries,
            self.coordinators.compensations,
        )
    }
}

/// Split a master seed into decorrelated per-component seeds.
fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One coordinator thread's contribution to the report.
struct WorkerResult {
    granted: u64,
    granted_parts: u64,
    exhausted: u64,
    unresponsive: u64,
    commit_expired: u64,
    stats: CoordinatorStats,
    links: Vec<LinkStats>,
}

/// Generate one random-but-seeded multi-site request. Windows land on the
/// scheduler's slot grid within the first half of the horizon, demands are
/// light (1–2 servers at 1–`sites` sites), so most requests are feasible
/// within `r_max` window shifts.
fn random_request(rng: &mut SmallRng, sites: u32, servers_per_site: u32) -> MultiRequest {
    let n_sites = rng.random_range(1..=sites.min(3)) as usize;
    let mut parts = BTreeMap::new();
    while parts.len() < n_sites {
        let site = SiteId(rng.random_range(0..sites));
        let max = 2.min(servers_per_site);
        parts.entry(site).or_insert(rng.random_range(1..=max));
    }
    let start = Time(60 * rng.random_range(0..60i64));
    let duration = Dur(60 * rng.random_range(1..=10i64));
    MultiRequest {
        parts,
        earliest_start: start,
        duration,
    }
}

/// Run one chaos soak: spawn the grid, drive the workload, drain, report.
pub fn run_chaos(cfg: ChaosConfig) -> ChaosReport {
    assert!(cfg.sites > 0 && cfg.coordinators > 0);
    let sched_cfg = SchedulerConfig::builder()
        .tau(Dur(60))
        .horizon(Dur(7200))
        .delta_t(Dur(60))
        .build();
    let sites: Vec<SiteHandle> = (0..cfg.sites)
        .map(|i| SiteHandle::spawn(SiteId(i), cfg.servers_per_site, sched_cfg))
        .collect();

    // Optional crash injector: restarts a random site every interval until
    // the workload finishes. Crash messages travel on the reliable channel —
    // a crash is a site event, not a network one.
    let stop = Arc::new(AtomicBool::new(false));
    let injector = cfg.crash_interval.map(|interval| {
        let senders: Vec<_> = sites.iter().map(|s| s.sender()).collect();
        let stop = Arc::clone(&stop);
        let mut rng = SmallRng::seed_from_u64(mix(cfg.seed, 0xC7A5));
        std::thread::spawn(move || {
            let mut crashes = 0u64;
            'outer: while !stop.load(Ordering::Relaxed) {
                // Sleep in short slices so the injector notices the end of
                // the workload promptly even with long intervals.
                let wake = std::time::Instant::now() + interval;
                while std::time::Instant::now() < wake {
                    if stop.load(Ordering::Relaxed) {
                        break 'outer;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
                let victim = rng.random_range(0..senders.len());
                let (reply_tx, reply_rx) = std::sync::mpsc::channel();
                if senders[victim]
                    .send(crate::messages::Envelope {
                        request: SiteRequest::Crash,
                        reply_to: reply_tx,
                    })
                    .is_ok()
                    && reply_rx.recv_timeout(Duration::from_secs(5)).is_ok()
                {
                    crashes += 1;
                }
            }
            crashes
        })
    });

    // One thread per coordinator, each with its own flaky link to every
    // site so fault patterns are independent.
    let workers: Vec<std::thread::JoinHandle<WorkerResult>> = (0..cfg.coordinators)
        .map(|c| {
            let site_senders: Vec<_> = sites.iter().map(|s| (s.id, s.sender())).collect();
            std::thread::Builder::new()
                .name(format!("chaos-coord-{c}"))
                .spawn(move || {
                    let links: Vec<FlakyLink> = site_senders
                        .iter()
                        .enumerate()
                        .map(|(i, (_, tx))| {
                            FlakyLink::new(
                                tx.clone(),
                                LinkConfig {
                                    seed: mix(cfg.seed, (c as u64) << 16 | i as u64),
                                    ..cfg.link
                                },
                            )
                        })
                        .collect();
                    let endpoints = site_senders
                        .iter()
                        .zip(&links)
                        .map(|((id, _), link)| SiteEndpoint::new(*id, link.sender()));
                    let mut coord = Coordinator::from_endpoints(
                        endpoints,
                        CoordinatorConfig {
                            seed: mix(cfg.seed, 0xB0_0000 | c as u64),
                            ..cfg.coordinator
                        },
                    );
                    let mut rng = SmallRng::seed_from_u64(mix(cfg.seed, 0xA0_0000 | c as u64));
                    let mut res = WorkerResult {
                        granted: 0,
                        granted_parts: 0,
                        exhausted: 0,
                        unresponsive: 0,
                        commit_expired: 0,
                        stats: CoordinatorStats::default(),
                        links: Vec::new(),
                    };
                    for _ in 0..cfg.requests_per_coordinator {
                        let req = random_request(&mut rng, cfg.sites, cfg.servers_per_site);
                        match coord.co_allocate(&req) {
                            Ok(grant) => {
                                res.granted += 1;
                                res.granted_parts += grant.parts.len() as u64;
                            }
                            Err(MultiSiteError::Exhausted { .. }) => res.exhausted += 1,
                            Err(MultiSiteError::SiteUnresponsive(_)) => res.unresponsive += 1,
                            Err(MultiSiteError::CommitExpired(_)) => res.commit_expired += 1,
                            Err(MultiSiteError::UnknownSite(_)) => {
                                unreachable!("driver only names known sites")
                            }
                        }
                    }
                    res.stats = *coord.stats();
                    drop(coord);
                    res.links = links.into_iter().map(FlakyLink::shutdown).collect();
                    res
                })
                .expect("spawn chaos coordinator")
        })
        .collect();

    let results: Vec<WorkerResult> = workers
        .into_iter()
        .map(|w| w.join().expect("chaos coordinator panicked"))
        .collect();
    stop.store(true, Ordering::Relaxed);
    let crashes_injected = injector.map_or(0, |j| j.join().expect("injector panicked"));

    // Drain: any hold orphaned by lost aborts lives at most `hold_ttl`; wait
    // it out (plus the sweep period) so conservation can be exact.
    std::thread::sleep(cfg.coordinator.hold_ttl + Duration::from_millis(200));

    let site_stats: Vec<SiteStats> = sites.into_iter().map(SiteHandle::shutdown).collect();

    let mut report = ChaosReport {
        requests: (cfg.coordinators * cfg.requests_per_coordinator) as u64,
        granted: 0,
        granted_parts: 0,
        exhausted: 0,
        unresponsive: 0,
        commit_expired: 0,
        crashes_injected,
        coordinators: CoordinatorStats::default(),
        sites: site_stats,
        links: Vec::new(),
    };
    for r in results {
        report.granted += r.granted;
        report.granted_parts += r.granted_parts;
        report.exhausted += r.exhausted;
        report.unresponsive += r.unresponsive;
        report.commit_expired += r.commit_expired;
        report.coordinators.granted += r.stats.granted;
        report.coordinators.failed += r.stats.failed;
        report.coordinators.aborts += r.stats.aborts;
        report.coordinators.window_attempts += r.stats.window_attempts;
        report.coordinators.rpc_retries += r.stats.rpc_retries;
        report.coordinators.compensations += r.stats.compensations;
        report.coordinators.duplicate_commits += r.stats.duplicate_commits;
        report.links.extend(r.links);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fault-free chaos run: everything feasible commits, nothing leaks.
    #[test]
    fn clean_run_conserves_everything() {
        let defaults = ChaosConfig::default();
        let report = run_chaos(ChaosConfig {
            coordinators: 2,
            requests_per_coordinator: 10,
            link: LinkConfig::default(),
            coordinator: CoordinatorConfig {
                // Reliable links: no orphaned holds to wait out.
                hold_ttl: Duration::from_millis(300),
                ..defaults.coordinator
            },
            seed: 7,
            ..defaults
        });
        assert_eq!(report.requests, 20);
        report.verify().unwrap_or_else(|e| panic!("{e:?}"));
        assert_eq!(report.unresponsive, 0);
        assert_eq!(report.commit_expired, 0);
    }
}
