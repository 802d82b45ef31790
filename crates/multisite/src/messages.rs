//! Protocol messages for atomic cross-site co-allocation.
//!
//! The paper notes that multi-site co-allocation work (DUROC et al.) focused
//! on "the administrative aspects resulting from having resources
//! distributed across multiple sites". This crate supplies that missing
//! substrate: a hold/commit (two-phase) protocol in which each site runs its
//! own slotted-tree scheduler and a coordinator acquires *tentative* holds
//! for one fixed time window on every site, then commits them atomically —
//! or aborts and retries the window shifted by `Delta_t`, lifting the
//! paper's retry loop to the multi-site level.

use coalloc_core::prelude::{Dur, JobId, ServerId, Time};
use std::sync::mpsc::Sender;
use std::time::Duration;

/// Identifies one site (ordering defines the global lock order that makes
/// concurrent coordinators deadlock-free).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SiteId(pub u32);

/// Identifies one distributed transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

/// A request sent to a site, paired with the channel for its reply.
#[derive(Clone, Debug)]
pub struct Envelope {
    /// The request body.
    pub request: SiteRequest,
    /// Where the site sends the [`SiteReply`].
    pub reply_to: Sender<SiteReply>,
}

/// Requests a site can serve.
///
/// `Hold`, `Commit` and `Abort` are **idempotent**: the site keeps a per-txn
/// outcome cache, so at-least-once delivery (retries, duplicating links) is
/// safe. The `seq` field identifies the individual RPC attempt — sites treat
/// re-deliveries of the same `txn` identically regardless of `seq`; it exists
/// for tracing and lets fault injectors distinguish copies of a call.
#[derive(Clone, Debug)]
pub enum SiteRequest {
    /// Tentatively reserve `servers` servers for exactly `[start, start +
    /// duration)`. The hold auto-expires after `ttl` (wall-clock) unless
    /// committed. Re-delivery for a held or committed `txn` returns the
    /// existing grant instead of reserving again.
    Hold {
        /// Transaction this hold belongs to.
        txn: TxnId,
        /// Per-attempt sequence number (tracing only; no protocol effect).
        seq: u64,
        /// Window start (virtual time).
        start: Time,
        /// Window length.
        duration: Dur,
        /// Servers required at this site.
        servers: u32,
        /// Wall-clock time-to-live of the tentative hold.
        ttl: Duration,
    },
    /// Make the hold of `txn` permanent. Re-delivery for an already
    /// committed `txn` reports [`CommitOutcome::AlreadyCommitted`] (success)
    /// rather than being confused with an expired hold.
    Commit {
        /// Transaction to commit.
        txn: TxnId,
        /// Per-attempt sequence number (tracing only; no protocol effect).
        seq: u64,
    },
    /// Drop the hold of `txn` (idempotent; also undoes an already committed
    /// transaction, which serves as the compensation path).
    Abort {
        /// Transaction to abort.
        txn: TxnId,
        /// Per-attempt sequence number (tracing only; no protocol effect).
        seq: u64,
    },
    /// Simulate a crash/restart of the site with loss of **volatile** state:
    /// live holds are released and the idempotency/outcome cache is cleared,
    /// while committed transactions (durable state) survive. Fault-injection
    /// aid for chaos tests; real deployments would reach the same state by
    /// restarting a site process whose commits are journaled.
    Crash,
    /// How many servers are free for the whole window? (read-only)
    Query {
        /// Window start.
        start: Time,
        /// Window length.
        duration: Dur,
    },
    /// Advance the site's virtual clock.
    Tick {
        /// The new clock value.
        now: Time,
    },
    /// Stop the site thread.
    Shutdown,
}

/// Replies a site produces.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SiteReply {
    /// The hold was granted on these servers.
    HoldGranted {
        /// The transaction.
        txn: TxnId,
        /// The granting site.
        site: SiteId,
        /// Site-local job backing the hold.
        job: JobId,
        /// Servers reserved.
        servers: Vec<ServerId>,
    },
    /// The hold was denied.
    HoldDenied {
        /// The transaction.
        txn: TxnId,
        /// The denying site.
        site: SiteId,
        /// Servers actually available for the window.
        available: u32,
    },
    /// Commit outcome (three-valued — see [`CommitOutcome`]).
    CommitResult {
        /// The transaction.
        txn: TxnId,
        /// The site.
        site: SiteId,
        /// What the commit did.
        outcome: CommitOutcome,
    },
    /// Abort acknowledged (always succeeds; idempotent).
    Aborted {
        /// The transaction.
        txn: TxnId,
        /// The site.
        site: SiteId,
    },
    /// Free-server count for a queried window.
    QueryResult {
        /// The site.
        site: SiteId,
        /// Servers free for the whole window.
        available: u32,
    },
    /// Clock advanced.
    Ticked {
        /// The site.
        site: SiteId,
    },
    /// Crash/restart processed; volatile state is gone.
    Crashed {
        /// The site.
        site: SiteId,
    },
}

/// Result of a `Commit`, distinguishing a duplicate delivery (success) from
/// a hold that expired before the commit arrived (failure). The distinction
/// is what makes commit retries safe: with a boolean, a re-delivered commit
/// of a committed transaction looked like an expiry and triggered a
/// compensation that undid a *successful* transaction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommitOutcome {
    /// The hold was live and is now permanent.
    Committed,
    /// This transaction was already committed here — a retried or duplicated
    /// commit. The transaction is in force; treat as success.
    AlreadyCommitted,
    /// No live hold and no committed record: the hold expired (or the
    /// transaction is unknown/aborted). Nothing was committed.
    Expired,
}

impl CommitOutcome {
    /// `true` when the transaction is committed at the site (first delivery
    /// or duplicate).
    pub fn is_success(self) -> bool {
        matches!(
            self,
            CommitOutcome::Committed | CommitOutcome::AlreadyCommitted
        )
    }
}

impl SiteRequest {
    /// Stable lowercase name of the request kind (tracing label).
    pub fn kind(&self) -> &'static str {
        match self {
            SiteRequest::Hold { .. } => "hold",
            SiteRequest::Commit { .. } => "commit",
            SiteRequest::Abort { .. } => "abort",
            SiteRequest::Crash => "crash",
            SiteRequest::Query { .. } => "query",
            SiteRequest::Tick { .. } => "tick",
            SiteRequest::Shutdown => "shutdown",
        }
    }

    /// The transaction this request refers to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            SiteRequest::Hold { txn, .. }
            | SiteRequest::Commit { txn, .. }
            | SiteRequest::Abort { txn, .. } => Some(*txn),
            _ => None,
        }
    }
}

impl SiteReply {
    /// The transaction this reply refers to, if any.
    pub fn txn(&self) -> Option<TxnId> {
        match self {
            SiteReply::HoldGranted { txn, .. }
            | SiteReply::HoldDenied { txn, .. }
            | SiteReply::CommitResult { txn, .. }
            | SiteReply::Aborted { txn, .. } => Some(*txn),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_extraction() {
        let r = SiteReply::Aborted {
            txn: TxnId(7),
            site: SiteId(1),
        };
        assert_eq!(r.txn(), Some(TxnId(7)));
        let q = SiteReply::QueryResult {
            site: SiteId(1),
            available: 3,
        };
        assert_eq!(q.txn(), None);
    }

    #[test]
    fn site_ids_order() {
        let mut ids = vec![SiteId(3), SiteId(1), SiteId(2)];
        ids.sort();
        assert_eq!(ids, vec![SiteId(1), SiteId(2), SiteId(3)]);
    }
}
