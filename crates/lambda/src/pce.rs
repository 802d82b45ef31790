//! The path computation element (PCE): lambda scheduling for grid
//! applications (Section 3.2).
//!
//! "Given a request consisting of a source-destination node pair, a range of
//! wavelengths, a time window, and the estimated length of the connection,
//! find a path and associated wavelength (or wavelengths, if wavelength
//! conversion is available) from the source to the destination nodes to
//! satisfy the request. Since the wavelength(s) on all links of the path
//! must be allocated and de-allocated simultaneously, this problem falls in
//! the class of resource co-allocation problems."
//!
//! The PCE maps each *(link, wavelength)* pair to one server of a
//! [`CoAllocScheduler`] and drives the paper's **range search →
//! post-process → commit** flow: a single range search returns every free
//! (link, λ) for the window; the PCE's application-specific post-processing
//! is wavelength-continuity intersection along candidate paths; the chosen
//! (link, λ) servers are then reserved for the window atomically via
//! `reserve`.

use crate::graph::{Network, NodeId, Wavelength};
use crate::paths::{k_shortest_paths, Path};
use coalloc_core::prelude::*;
use std::collections::{HashMap, HashSet};

/// A connection request.
#[derive(Clone, Debug)]
pub struct ConnectionRequest {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Earliest acceptable start of the connection.
    pub earliest_start: Time,
    /// Estimated length of the connection.
    pub duration: Dur,
    /// Acceptable wavelength range `[lo, hi]` (inclusive).
    pub wavelengths: (Wavelength, Wavelength),
}

/// An established lightpath.
#[derive(Clone, Debug)]
pub struct Lightpath {
    /// Scheduler job backing the lightpath (pass to [`Pce::tear_down`]).
    pub job: JobId,
    /// The routed path.
    pub path: Path,
    /// Wavelength per link (all equal without conversion).
    pub wavelengths: Vec<Wavelength>,
    /// Actual start (may be later than requested).
    pub start: Time,
    /// End of the reservation.
    pub end: Time,
    /// Window attempts used.
    pub attempts: u32,
}

impl Lightpath {
    /// Whether the lightpath uses a single wavelength end-to-end.
    pub fn is_continuous(&self) -> bool {
        self.wavelengths.windows(2).all(|w| w[0] == w[1])
    }
}

/// Why a connection could not be established.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PceError {
    /// Source and destination are not connected.
    NoRoute,
    /// No path/wavelength/window combination worked within `R_max` attempts.
    Exhausted {
        /// Attempts made.
        attempts: u32,
    },
    /// The wavelength range is empty or out of bounds.
    BadWavelengthRange,
}

impl std::fmt::Display for PceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PceError::NoRoute => write!(f, "no route between the endpoints"),
            PceError::Exhausted { attempts } => {
                write!(f, "no feasible lightpath within {attempts} attempts")
            }
            PceError::BadWavelengthRange => write!(f, "invalid wavelength range"),
        }
    }
}

impl std::error::Error for PceError {}

/// PCE configuration.
#[derive(Clone, Copy, Debug)]
pub struct PceConfig {
    /// Candidate paths per request (Yen's k).
    pub k_paths: usize,
    /// Whether wavelength conversion is available (per-link independent λ).
    pub wavelength_conversion: bool,
    /// Start-time increment between attempts.
    pub delta_t: Dur,
    /// Maximum window attempts.
    pub r_max: u32,
}

impl Default for PceConfig {
    fn default() -> Self {
        PceConfig {
            k_paths: 3,
            wavelength_conversion: false,
            delta_t: Dur::from_mins(15),
            r_max: 16,
        }
    }
}

/// The path computation element.
pub struct Pce {
    net: Network,
    sched: CoAllocScheduler,
    cfg: PceConfig,
    /// Route cache: (src, dst) → k shortest paths.
    routes: HashMap<(NodeId, NodeId), Vec<Path>>,
}

impl Pce {
    /// Build a PCE over `net` with the given scheduling configuration.
    pub fn new(net: Network, sched_cfg: SchedulerConfig, cfg: PceConfig) -> Pce {
        let sched = CoAllocScheduler::new(net.num_resources(), sched_cfg);
        Pce {
            net,
            sched,
            cfg,
            routes: HashMap::new(),
        }
    }

    /// The underlying network.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The underlying scheduler (diagnostics).
    pub fn scheduler(&self) -> &CoAllocScheduler {
        &self.sched
    }

    /// Advance the PCE clock.
    pub fn advance_to(&mut self, now: Time) {
        self.sched.advance_to(now);
    }

    fn routes_for(&mut self, src: NodeId, dst: NodeId) -> Vec<Path> {
        let k = self.cfg.k_paths;
        let net = &self.net;
        self.routes
            .entry((src, dst))
            .or_insert_with(|| k_shortest_paths(net, src, dst, k))
            .clone()
    }

    /// Establish a lightpath for `req`, retrying the window up to `R_max`
    /// times shifted by `Delta_t` (the paper's loop, applied to the
    /// PCE application).
    pub fn connect(&mut self, req: &ConnectionRequest) -> Result<Lightpath, PceError> {
        let (lo, hi) = req.wavelengths;
        if lo > hi || hi.0 >= self.net.wavelengths() {
            return Err(PceError::BadWavelengthRange);
        }
        let paths = self.routes_for(req.src, req.dst);
        if paths.is_empty() {
            return Err(PceError::NoRoute);
        }
        let mut attempts = 0u32;
        let mut start = req.earliest_start.max(self.sched.now());
        while attempts < self.cfg.r_max {
            attempts += 1;
            let end = start + req.duration;
            if end > self.sched.horizon_end() {
                break;
            }
            // One range search returns every free (link, λ) for the window —
            // "the range search returns all the resources available within
            // the specified time window".
            let hits = self.sched.range_search(start, end);
            let free: HashSet<ServerId> = hits.iter().map(|h| h.server).collect();
            if let Some((path, lambdas)) = self.post_process(&paths, &free, lo, hi) {
                let selection: Vec<ServerId> = path
                    .links
                    .iter()
                    .zip(&lambdas)
                    .map(|(&l, &w)| self.net.resource(l, w))
                    .collect();
                match self.sched.reserve(&selection, start, end) {
                    Ok(grant) => {
                        return Ok(Lightpath {
                            job: grant.job,
                            path,
                            wavelengths: lambdas,
                            start,
                            end,
                            attempts,
                        });
                    }
                    Err(ScheduleError::SelectionConflict) => {
                        // Single-threaded PCE cannot race itself, but keep
                        // the two-phase contract honest.
                        continue;
                    }
                    Err(_) => break,
                }
            }
            start += self.cfg.delta_t;
        }
        Err(PceError::Exhausted { attempts })
    }

    /// The application-specific post-processing step: pick a path and
    /// per-link wavelengths from the free set.
    fn post_process(
        &self,
        paths: &[Path],
        free: &HashSet<ServerId>,
        lo: Wavelength,
        hi: Wavelength,
    ) -> Option<(Path, Vec<Wavelength>)> {
        for path in paths {
            if self.cfg.wavelength_conversion {
                // Any free λ per link.
                let mut lambdas = Vec::with_capacity(path.links.len());
                let ok = path.links.iter().all(|&l| {
                    for w in lo.0..=hi.0 {
                        if free.contains(&self.net.resource(l, Wavelength(w))) {
                            lambdas.push(Wavelength(w));
                            return true;
                        }
                    }
                    false
                });
                if ok {
                    return Some((path.clone(), lambdas));
                }
            } else {
                // Wavelength continuity: one λ free on every link.
                for w in lo.0..=hi.0 {
                    let lambda = Wavelength(w);
                    if path
                        .links
                        .iter()
                        .all(|&l| free.contains(&self.net.resource(l, lambda)))
                    {
                        return Some((path.clone(), vec![lambda; path.links.len()]));
                    }
                }
            }
        }
        None
    }

    /// Tear a lightpath down, freeing its (link, λ) windows.
    pub fn tear_down(&mut self, lp: &Lightpath) -> Result<(), ScheduleError> {
        self.sched.release(lp.job)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched_cfg() -> SchedulerConfig {
        SchedulerConfig::builder()
            .tau(Dur(300))
            .horizon(Dur(36_000))
            .delta_t(Dur(300))
            .build()
    }

    fn pce(net: Network, conversion: bool) -> Pce {
        Pce::new(
            net,
            sched_cfg(),
            PceConfig {
                k_paths: 3,
                wavelength_conversion: conversion,
                delta_t: Dur(300),
                r_max: 8,
            },
        )
    }

    fn req(src: u32, dst: u32, start: i64, dur: i64, lo: u32, hi: u32) -> ConnectionRequest {
        ConnectionRequest {
            src: NodeId(src),
            dst: NodeId(dst),
            earliest_start: Time(start),
            duration: Dur(dur),
            wavelengths: (Wavelength(lo), Wavelength(hi)),
        }
    }

    #[test]
    fn establishes_continuous_lightpath() {
        let mut p = pce(Network::line(4, 2), false);
        let lp = p.connect(&req(0, 3, 0, 600, 0, 1)).unwrap();
        assert_eq!(lp.path.hops(), 3);
        assert!(lp.is_continuous());
        assert_eq!(lp.start, Time(0));
    }

    #[test]
    fn continuity_forces_common_wavelength() {
        // Occupy λ0 on the middle link only → a 0→3 path must use λ1
        // end-to-end.
        let mut p = pce(Network::line(4, 2), false);
        let lp1 = p.connect(&req(1, 2, 0, 600, 0, 0)).unwrap();
        assert_eq!(lp1.wavelengths, vec![Wavelength(0)]);
        let lp2 = p.connect(&req(0, 3, 0, 600, 0, 1)).unwrap();
        assert!(lp2.is_continuous());
        assert_eq!(lp2.wavelengths[0], Wavelength(1));
    }

    #[test]
    fn no_continuity_no_conversion_shifts_window() {
        // Block λ0 on link (1,2) and λ1 on link (2,3): no single λ works on
        // the only 0→3 path; PCE must shift the window.
        let mut p = pce(Network::line(4, 2), false);
        p.connect(&req(1, 2, 0, 600, 0, 0)).unwrap();
        p.connect(&req(2, 3, 0, 600, 1, 1)).unwrap();
        let lp = p.connect(&req(0, 3, 0, 300, 0, 1)).unwrap();
        assert!(lp.start >= Time(600), "had to wait out the blockers");
        assert!(lp.attempts > 1);
    }

    #[test]
    fn conversion_rescues_the_same_scenario() {
        let mut p = pce(Network::line(4, 2), true);
        p.connect(&req(1, 2, 0, 600, 0, 0)).unwrap();
        p.connect(&req(2, 3, 0, 600, 1, 1)).unwrap();
        let lp = p.connect(&req(0, 3, 0, 300, 0, 1)).unwrap();
        assert_eq!(lp.start, Time(0), "conversion uses mixed wavelengths");
        assert!(!lp.is_continuous());
    }

    #[test]
    fn alternate_path_used_when_primary_is_full() {
        // Ring: blocking the direct arc forces the other direction at the
        // same start time.
        let mut p = pce(Network::ring(6, 1), false);
        let direct = p.connect(&req(0, 3, 0, 600, 0, 0)).unwrap();
        assert_eq!(direct.path.hops(), 3);
        let other = p.connect(&req(0, 3, 0, 600, 0, 0)).unwrap();
        assert_eq!(other.path.hops(), 3);
        assert_eq!(other.start, Time(0));
        let links_a: HashSet<_> = direct.path.links.iter().collect();
        assert!(other.path.links.iter().all(|l| !links_a.contains(l)));
    }

    #[test]
    fn tear_down_frees_wavelengths() {
        let mut p = pce(Network::line(3, 1), false);
        let lp = p.connect(&req(0, 2, 0, 600, 0, 0)).unwrap();
        // The single wavelength is taken.
        let e = p.connect(&req(0, 2, 0, 300, 0, 0)).unwrap();
        assert!(e.start >= Time(600));
        p.tear_down(&lp).unwrap();
        let again = p.connect(&req(0, 2, 0, 300, 0, 0)).unwrap();
        assert_eq!(again.start, Time(0));
    }

    #[test]
    fn errors_reported() {
        // Node 2 is isolated: 0-1 is the only link.
        let mut disconnected = Network::new(3, 2);
        disconnected.add_link(NodeId(0), NodeId(1));
        let mut p = pce(disconnected, false);
        assert_eq!(
            p.connect(&req(0, 2, 0, 600, 0, 1)).unwrap_err(),
            PceError::NoRoute
        );
        let mut p = pce(Network::line(3, 2), false);
        assert_eq!(
            p.connect(&req(0, 2, 0, 600, 1, 0)).unwrap_err(),
            PceError::BadWavelengthRange
        );
        assert_eq!(
            p.connect(&req(0, 2, 0, 600, 0, 5)).unwrap_err(),
            PceError::BadWavelengthRange
        );
    }

    #[test]
    fn nsfnet_carries_many_connections() {
        let mut p = pce(Network::nsfnet(8), false);
        let mut ok = 0;
        for i in 0..40u32 {
            let (s, d) = (i % 14, (i * 5 + 3) % 14);
            if s == d {
                continue;
            }
            if p.connect(&req(s, d, 0, 1800, 0, 7)).is_ok() {
                ok += 1;
            }
        }
        assert!(
            ok >= 30,
            "NSFNET with 8 wavelengths should carry most: {ok}"
        );
        p.scheduler().timeline().check_invariants();
    }
}
