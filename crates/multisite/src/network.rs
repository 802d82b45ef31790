//! Network fault injection for protocol testing.
//!
//! Sites and coordinators exchange messages over `std::sync::mpsc`
//! channels; this module interposes a relay thread that can delay, drop,
//! **duplicate** and **reorder** requests, and drop or duplicate
//! **replies**, with a seeded RNG — exercising the protocol's timeout, retry, idempotency and
//! TTL-expiry paths without real sockets. Whole-site crashes are injected
//! separately by sending [`SiteRequest::Crash`](crate::SiteRequest::Crash).
//!
//! Reply faults work by rewriting each forwarded envelope's `reply_to` to a
//! relay-owned proxy channel; the relay pumps proxied replies back to the
//! original requester, applying the reply-path fault probabilities on the
//! way. To the coordinator a dropped reply is indistinguishable from a
//! dropped request — both surface as an RPC timeout — but the site *did*
//! execute the call, which is exactly the at-least-once ambiguity the
//! idempotent protocol has to absorb.

use crate::messages::{Envelope, SiteReply};
use obs::{obs_event, LazyCounter};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::mpsc::{self, Receiver, Sender};
use std::thread::JoinHandle;
use std::time::Duration;

/// Configuration of an unreliable link.
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Probability a request is silently dropped.
    pub drop_prob: f64,
    /// Probability a delivered request is delivered twice (duplicate
    /// delivery, as after an ambiguous send on a real network).
    pub duplicate_prob: f64,
    /// Probability a delivered request is held back and delivered *after*
    /// the next request (adjacent-pair reordering).
    pub reorder_prob: f64,
    /// Probability a site reply is silently dropped on the way back.
    pub drop_reply_prob: f64,
    /// Probability a site reply is delivered twice.
    pub duplicate_reply_prob: f64,
    /// Fixed latency added to every delivered request.
    pub base_delay: Duration,
    /// Additional uniformly random latency in `[0, jitter)`.
    pub jitter: Duration,
    /// RNG seed for reproducibility.
    pub seed: u64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            drop_reply_prob: 0.0,
            duplicate_reply_prob: 0.0,
            base_delay: Duration::ZERO,
            jitter: Duration::ZERO,
            seed: 0,
        }
    }
}

/// A faulty relay in front of a site's inbox. Send [`Envelope`]s to
/// [`FlakyLink::sender`]; surviving messages arrive at the wrapped
/// destination after the configured delay, possibly duplicated or reordered,
/// and their replies are relayed back subject to the reply-path faults.
#[derive(Debug)]
pub struct FlakyLink {
    tx: Sender<Envelope>,
    join: Option<JoinHandle<LinkStats>>,
}

/// Delivery statistics of a link.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Requests delivered (duplicate copies included).
    pub delivered: u64,
    /// Requests dropped.
    pub dropped: u64,
    /// Extra request copies injected by duplication.
    pub duplicated: u64,
    /// Requests held back and delivered out of order.
    pub reordered: u64,
    /// Replies forwarded back to the requester (duplicates included).
    pub replies_delivered: u64,
    /// Replies dropped on the return path.
    pub replies_dropped: u64,
    /// Extra reply copies injected by duplication.
    pub replies_duplicated: u64,
}

// Link-fault metrics, aggregated over every FlakyLink in the process.
static LINK_DROPS: LazyCounter = LazyCounter::new("link_drops_total");
static LINK_DUPS: LazyCounter = LazyCounter::new("link_dups_total");
static LINK_REORDERS: LazyCounter = LazyCounter::new("link_reorders_total");
static LINK_REPLY_DROPS: LazyCounter = LazyCounter::new("link_reply_drops_total");
static LINK_REPLY_DUPS: LazyCounter = LazyCounter::new("link_reply_dups_total");

/// Emit a link fault event carrying the affected request's kind and txn so
/// post-mortem timelines show which protocol step the fault hit.
fn link_event(name: &'static str, env: &Envelope) {
    obs_event!(
        name,
        "kind" => env.request.kind(),
        "txn" => env.request.txn().map(|t| t.0).unwrap_or(0)
    );
}

/// A proxied in-flight reply: messages arriving on `proxy` are forwarded to
/// `requester` with the reply faults applied.
struct ReplyRoute {
    proxy: Receiver<SiteReply>,
    requester: Sender<SiteReply>,
}

/// The relay's mutable state, shared by the live loop and the drain phase.
struct Relay {
    dest: Sender<Envelope>,
    cfg: LinkConfig,
    rng: SmallRng,
    stats: LinkStats,
    /// A request held back for adjacent-pair reordering.
    held: Option<Envelope>,
    /// Open return paths for proxied replies.
    routes: Vec<ReplyRoute>,
}

impl Relay {
    /// Apply request-path faults to one incoming envelope. Returns `false`
    /// when the destination is gone.
    fn handle(&mut self, mut env: Envelope) -> bool {
        if self.cfg.drop_prob > 0.0 && self.rng.random_bool(self.cfg.drop_prob) {
            self.stats.dropped += 1;
            LINK_DROPS.inc();
            link_event("link.drop", &env);
            return true;
        }
        if self.cfg.drop_reply_prob > 0.0 || self.cfg.duplicate_reply_prob > 0.0 {
            let (proxy_tx, proxy_rx) = mpsc::channel();
            let requester = std::mem::replace(&mut env.reply_to, proxy_tx);
            self.routes.push(ReplyRoute {
                proxy: proxy_rx,
                requester,
            });
        }
        let jitter_ns = if self.cfg.jitter.is_zero() {
            0
        } else {
            self.rng.random_range(0..self.cfg.jitter.as_nanos() as u64)
        };
        let delay = self.cfg.base_delay + Duration::from_nanos(jitter_ns);
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        let duplicate =
            self.cfg.duplicate_prob > 0.0 && self.rng.random_bool(self.cfg.duplicate_prob);
        if duplicate {
            self.stats.duplicated += 1;
            LINK_DUPS.inc();
            link_event("link.dup", &env);
            if !self.deliver(env.clone()) {
                return false;
            }
        }
        if self.cfg.reorder_prob > 0.0
            && self.held.is_none()
            && self.rng.random_bool(self.cfg.reorder_prob)
        {
            // Hold this one back; it goes out right after the next request
            // (or on the idle flush).
            self.stats.reordered += 1;
            LINK_REORDERS.inc();
            link_event("link.reorder", &env);
            self.held = Some(env);
            return true;
        }
        if !self.deliver(env) {
            return false;
        }
        if let Some(h) = self.held.take() {
            if !self.deliver(h) {
                return false;
            }
        }
        true
    }

    fn deliver(&mut self, env: Envelope) -> bool {
        if self.dest.send(env).is_err() {
            return false;
        }
        self.stats.delivered += 1;
        true
    }

    fn flush_held(&mut self) {
        if let Some(h) = self.held.take() {
            self.deliver(h);
        }
    }

    /// Forward any proxied replies that have arrived, applying reply faults,
    /// and prune return paths whose proxy sender is gone and drained.
    fn pump_replies(&mut self) {
        let mut i = 0;
        while i < self.routes.len() {
            let mut finished = false;
            loop {
                match self.routes[i].proxy.try_recv() {
                    Ok(reply) => {
                        if self.cfg.drop_reply_prob > 0.0
                            && self.rng.random_bool(self.cfg.drop_reply_prob)
                        {
                            self.stats.replies_dropped += 1;
                            LINK_REPLY_DROPS.inc();
                            obs_event!(
                                "link.reply_drop",
                                "txn" => reply.txn().map(|t| t.0).unwrap_or(0)
                            );
                            continue;
                        }
                        if self.cfg.duplicate_reply_prob > 0.0
                            && self.rng.random_bool(self.cfg.duplicate_reply_prob)
                        {
                            self.stats.replies_duplicated += 1;
                            LINK_REPLY_DUPS.inc();
                            obs_event!(
                                "link.reply_dup",
                                "txn" => reply.txn().map(|t| t.0).unwrap_or(0)
                            );
                            if self.routes[i].requester.send(reply.clone()).is_ok() {
                                self.stats.replies_delivered += 1;
                            }
                        }
                        // A requester that timed out and went away is fine.
                        if self.routes[i].requester.send(reply).is_ok() {
                            self.stats.replies_delivered += 1;
                        }
                    }
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        finished = true;
                        break;
                    }
                }
            }
            if finished {
                self.routes.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }
}

impl FlakyLink {
    /// Interpose a relay in front of `dest`.
    pub fn new(dest: Sender<Envelope>, cfg: LinkConfig) -> FlakyLink {
        let (tx, rx): (Sender<Envelope>, Receiver<Envelope>) = mpsc::channel();
        let join = std::thread::Builder::new()
            .name("flaky-link".into())
            .spawn(move || {
                let mut relay = Relay {
                    dest,
                    cfg,
                    rng: SmallRng::seed_from_u64(cfg.seed ^ 0x11A7),
                    stats: LinkStats::default(),
                    held: None,
                    routes: Vec::new(),
                };
                loop {
                    // Short poll so proxied replies and held-back requests
                    // keep moving even when no new request arrives.
                    match rx.recv_timeout(Duration::from_millis(1)) {
                        Ok(env) => {
                            if !relay.handle(env) {
                                break; // destination gone
                            }
                        }
                        Err(mpsc::RecvTimeoutError::Timeout) => {
                            relay.flush_held();
                        }
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                    relay.pump_replies();
                }
                // Drain: flush the reorder buffer and keep pumping until all
                // in-flight replies have been answered or abandoned.
                relay.flush_held();
                while !relay.routes.is_empty() {
                    relay.pump_replies();
                    std::thread::sleep(Duration::from_millis(1));
                }
                relay.stats
            })
            .expect("spawn relay");
        FlakyLink {
            tx,
            join: Some(join),
        }
    }

    /// The faulty endpoint to send through.
    pub fn sender(&self) -> Sender<Envelope> {
        self.tx.clone()
    }

    /// Close the link and collect delivery statistics. Blocks until every
    /// in-flight request and reply has drained — which requires all other
    /// senders obtained from [`Self::sender`] (e.g. coordinator endpoints)
    /// to have been dropped first.
    pub fn shutdown(mut self) -> LinkStats {
        // Replace our sender with a dummy so the relay loop sees the channel
        // disconnect once outstanding clones are gone.
        let (dummy, _) = mpsc::channel();
        drop(std::mem::replace(&mut self.tx, dummy));
        self.join
            .take()
            .expect("not yet joined")
            .join()
            .expect("relay panicked")
    }
}

impl Drop for FlakyLink {
    fn drop(&mut self) {
        if let Some(join) = self.join.take() {
            let (t, _) = mpsc::channel();
            let tx = std::mem::replace(&mut self.tx, t);
            drop(tx);
            let _ = join.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::SiteId;
    use crate::messages::{SiteReply, SiteRequest};
    use crate::site::SiteHandle;
    use coalloc_core::prelude::*;

    fn site() -> SiteHandle {
        SiteHandle::spawn(
            SiteId(0),
            2,
            SchedulerConfig::builder()
                .tau(Dur(60))
                .horizon(Dur(3600))
                .delta_t(Dur(60))
                .build(),
        )
    }

    fn call_via(link: &FlakyLink, request: SiteRequest, timeout: Duration) -> Option<SiteReply> {
        let (reply_tx, reply_rx) = mpsc::channel();
        link.sender()
            .send(Envelope {
                request,
                reply_to: reply_tx,
            })
            .ok()?;
        reply_rx.recv_timeout(timeout).ok()
    }

    fn query() -> SiteRequest {
        SiteRequest::Query {
            start: Time(0),
            duration: Dur(60),
        }
    }

    #[test]
    fn reliable_link_passes_through() {
        let s = site();
        let link = FlakyLink::new(s.sender(), LinkConfig::default());
        let r = call_via(&link, query(), Duration::from_secs(2));
        assert_eq!(
            r,
            Some(SiteReply::QueryResult {
                site: SiteId(0),
                available: 2
            })
        );
        let stats = link.shutdown();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.dropped, 0);
    }

    #[test]
    fn lossy_link_drops_messages() {
        let s = site();
        let link = FlakyLink::new(
            s.sender(),
            LinkConfig {
                drop_prob: 1.0,
                ..LinkConfig::default()
            },
        );
        let r = call_via(&link, query(), Duration::from_millis(100));
        assert_eq!(r, None, "fully lossy link must time out");
        let stats = link.shutdown();
        assert_eq!(stats.dropped, 1);
    }

    #[test]
    fn delay_is_applied() {
        let s = site();
        let link = FlakyLink::new(
            s.sender(),
            LinkConfig {
                base_delay: Duration::from_millis(80),
                ..LinkConfig::default()
            },
        );
        let t0 = std::time::Instant::now();
        let r = call_via(&link, query(), Duration::from_secs(2));
        assert!(r.is_some());
        assert!(t0.elapsed() >= Duration::from_millis(80));
    }

    #[test]
    fn duplicating_link_delivers_twice() {
        let s = site();
        let link = FlakyLink::new(
            s.sender(),
            LinkConfig {
                duplicate_prob: 1.0,
                ..LinkConfig::default()
            },
        );
        let (reply_tx, reply_rx) = mpsc::channel();
        link.sender()
            .send(Envelope {
                request: query(),
                reply_to: reply_tx,
            })
            .unwrap();
        // Both copies reach the site; both replies come back.
        let a = reply_rx.recv_timeout(Duration::from_secs(2)).unwrap();
        let b = reply_rx.recv_timeout(Duration::from_secs(2)).unwrap();
        assert_eq!(a, b);
        let stats = link.shutdown();
        assert_eq!(stats.delivered, 2);
        assert_eq!(stats.duplicated, 1);
    }

    #[test]
    fn reply_dropping_link_times_out_after_execution() {
        let s = site();
        let link = FlakyLink::new(
            s.sender(),
            LinkConfig {
                drop_reply_prob: 1.0,
                ..LinkConfig::default()
            },
        );
        // The request executes at the site, but the reply never returns.
        let r = call_via(
            &link,
            SiteRequest::Hold {
                txn: crate::messages::TxnId(1),
                seq: 0,
                start: Time(0),
                duration: Dur(600),
                servers: 1,
                ttl: Duration::from_secs(5),
            },
            Duration::from_millis(150),
        );
        assert_eq!(r, None, "reply must be dropped");
        let stats = link.shutdown();
        assert_eq!(stats.delivered, 1);
        assert_eq!(stats.replies_dropped, 1);
        // Proof the site executed the call: the hold is in place.
        let q = s.call(query());
        assert_eq!(
            q,
            SiteReply::QueryResult {
                site: SiteId(0),
                available: 1
            }
        );
    }

    #[test]
    fn reordering_link_swaps_adjacent_requests() {
        let s = site();
        let link = FlakyLink::new(
            s.sender(),
            LinkConfig {
                // Every request wants to be held back; only one can be at a
                // time, so pairs swap.
                reorder_prob: 1.0,
                ..LinkConfig::default()
            },
        );
        // Send Abort(7) then Hold(7): in order, the hold would be granted
        // (abort of an unknown txn is a no-op... but it records a terminal),
        // reordered the hold goes first and is granted, then the abort
        // releases it. Use Query bracketing to observe effects instead of
        // relying on timing: send two queries and check both reply.
        let (tx_a, rx_a) = mpsc::channel();
        let (tx_b, rx_b) = mpsc::channel();
        link.sender()
            .send(Envelope {
                request: query(),
                reply_to: tx_a,
            })
            .unwrap();
        link.sender()
            .send(Envelope {
                request: query(),
                reply_to: tx_b,
            })
            .unwrap();
        assert!(rx_a.recv_timeout(Duration::from_secs(2)).is_ok());
        assert!(rx_b.recv_timeout(Duration::from_secs(2)).is_ok());
        let stats = link.shutdown();
        assert_eq!(stats.delivered, 2);
        assert!(stats.reordered >= 1);
        drop(s);
    }
}
