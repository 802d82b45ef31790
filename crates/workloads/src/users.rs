//! User attribution for workloads.
//!
//! The paper's problem statement asks schedulers to "allocate resources
//! fairly among users" (Section 2), and the SWF traces carry a user id per
//! job. This module tags synthetic requests with users drawn from a
//! Zipf-like popularity distribution (a few heavy users dominate, a long
//! tail submits occasionally — the classic parallel-workload pattern), so
//! fairness metrics can be computed per user.

use coalloc_core::prelude::Request;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A workload user.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UserId(pub u32);

/// A request attributed to a user.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TaggedRequest {
    /// The request itself.
    pub request: Request,
    /// The submitting user.
    pub user: UserId,
}

/// Assign users to a request stream with Zipf(s≈1) popularity over
/// `num_users` users, seeded. Consecutive jobs by the same user are common
/// (session behaviour): with probability `stickiness` a job reuses the
/// previous job's user.
pub fn assign_users(
    requests: &[Request],
    num_users: u32,
    stickiness: f64,
    seed: u64,
) -> Vec<TaggedRequest> {
    assert!(num_users > 0, "need at least one user");
    assert!((0.0..1.0).contains(&stickiness) || stickiness == 0.0 || stickiness < 1.0);
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x05E7);
    // Zipf CDF over ranks 1..=num_users.
    let weights: Vec<f64> = (1..=num_users).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(num_users as usize);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let draw = |rng: &mut SmallRng| {
        let x: f64 = rng.random();
        let idx = cdf.partition_point(|&c| c < x);
        UserId(idx.min(num_users as usize - 1) as u32)
    };
    let mut prev: Option<UserId> = None;
    requests
        .iter()
        .map(|&request| {
            let user = match prev {
                Some(u) if rng.random_bool(stickiness) => u,
                _ => draw(&mut rng),
            };
            prev = Some(user);
            TaggedRequest { request, user }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use coalloc_core::prelude::{Dur, Time};

    fn stream(n: usize) -> Vec<Request> {
        (0..n)
            .map(|i| Request::on_demand(Time(i as i64 * 60), Dur(600), 2))
            .collect()
    }

    #[test]
    fn preserves_requests_in_order() {
        let s = stream(100);
        let tagged = assign_users(&s, 10, 0.3, 1);
        assert_eq!(tagged.len(), 100);
        for (t, r) in tagged.iter().zip(&s) {
            assert_eq!(&t.request, r);
        }
    }

    #[test]
    fn zipf_head_dominates() {
        let s = stream(5000);
        let tagged = assign_users(&s, 50, 0.0, 7);
        let mut counts = vec![0usize; 50];
        for t in &tagged {
            counts[t.user.0 as usize] += 1;
        }
        // Rank-1 user should have several times the median user's jobs.
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        let median = sorted[25];
        assert!(
            counts[0] > median * 3,
            "rank-1 {} vs median {median}",
            counts[0]
        );
        // Everyone in range.
        assert!(tagged.iter().all(|t| t.user.0 < 50));
    }

    #[test]
    fn stickiness_creates_runs() {
        let s = stream(2000);
        let sticky = assign_users(&s, 20, 0.9, 3);
        let loose = assign_users(&s, 20, 0.0, 3);
        let runs = |ts: &[TaggedRequest]| ts.windows(2).filter(|w| w[0].user == w[1].user).count();
        assert!(
            runs(&sticky) > runs(&loose) * 2,
            "sticky {} vs loose {}",
            runs(&sticky),
            runs(&loose)
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let s = stream(50);
        assert_eq!(assign_users(&s, 5, 0.5, 9), assign_users(&s, 5, 0.5, 9));
        assert_ne!(assign_users(&s, 5, 0.5, 9), assign_users(&s, 5, 0.5, 10));
    }

    #[test]
    fn single_user_degenerate() {
        let s = stream(10);
        let tagged = assign_users(&s, 1, 0.5, 2);
        assert!(tagged.iter().all(|t| t.user == UserId(0)));
    }
}
