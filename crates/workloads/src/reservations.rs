//! Advance-reservation augmentation (Section 5.2).
//!
//! "Due to the fact that advance reservations are not widely implemented in
//! existing systems, there are no workload traces [...] that represent the
//! advance reservation model. In order to evaluate the performance of our
//! algorithm we generated advance reservation requests by randomly selecting
//! jobs from the workload traces according to a desired proportion [...].
//! For any advance reservation request we randomly set its requested start
//! time (`s_r`) to be within zero to three hours in the future, as in the
//! study presented in [Smith, Foster, Taylor 2000]."

use coalloc_core::prelude::{Dur, Request};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The paper's advance window: `s_r - q_r ~ U[0, 3h]`.
pub const PAPER_MAX_ADVANCE: Dur = Dur(3 * 3600);

/// Return a copy of `requests` where a fraction `rho` of jobs (selected
/// uniformly at random, seeded) become advance reservations with
/// `s_r = q_r + U[0, max_advance)`. `rho = 0` returns the stream unchanged;
/// `rho = 1` converts every job.
pub fn with_advance_reservations(
    requests: &[Request],
    rho: f64,
    max_advance: Dur,
    seed: u64,
) -> Vec<Request> {
    assert!((0.0..=1.0).contains(&rho), "rho must be in [0, 1]");
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xAD5A);
    requests
        .iter()
        .map(|r| {
            if rho > 0.0 && rng.random_bool(rho) {
                let adv = rng.random_range(0..=max_advance.secs());
                Request::advance(r.submit, r.submit + Dur(adv), r.duration, r.servers)
            } else {
                *r
            }
        })
        .collect()
}

/// Convenience wrapper using the paper's 0–3 h window.
pub fn with_paper_reservations(requests: &[Request], rho: f64, seed: u64) -> Vec<Request> {
    with_advance_reservations(requests, rho, PAPER_MAX_ADVANCE, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use coalloc_core::prelude::Time;

    fn stream(n: usize) -> Vec<Request> {
        (0..n)
            .map(|i| Request::on_demand(Time(i as i64 * 60), Dur(1800), 2))
            .collect()
    }

    #[test]
    fn rho_zero_is_identity() {
        let s = stream(50);
        assert_eq!(with_paper_reservations(&s, 0.0, 1), s);
    }

    #[test]
    fn rho_one_converts_every_job() {
        let s = stream(200);
        let out = with_paper_reservations(&s, 1.0, 1);
        assert!(out.iter().all(|r| r.earliest_start >= r.submit));
        assert!(out.iter().filter(|r| r.is_advance()).count() > 190);
        // Advance offsets stay within the paper's window.
        assert!(out
            .iter()
            .all(|r| (r.earliest_start - r.submit) <= PAPER_MAX_ADVANCE));
    }

    #[test]
    fn rho_half_converts_about_half() {
        let s = stream(2000);
        let out = with_paper_reservations(&s, 0.5, 42);
        let frac = out.iter().filter(|r| r.is_advance()).count() as f64 / 2000.0;
        assert!((frac - 0.5).abs() < 0.05, "fraction {frac}");
    }

    #[test]
    fn only_start_time_changes() {
        let s = stream(100);
        let out = with_paper_reservations(&s, 1.0, 7);
        for (a, b) in s.iter().zip(&out) {
            assert_eq!(a.submit, b.submit);
            assert_eq!(a.duration, b.duration);
            assert_eq!(a.servers, b.servers);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let s = stream(100);
        assert_eq!(
            with_paper_reservations(&s, 0.4, 9),
            with_paper_reservations(&s, 0.4, 9)
        );
        assert_ne!(
            with_paper_reservations(&s, 0.4, 9),
            with_paper_reservations(&s, 0.4, 10)
        );
    }

    #[test]
    fn custom_advance_window_respected() {
        let s = stream(100);
        let out = with_advance_reservations(&s, 1.0, Dur(600), 3);
        assert!(out
            .iter()
            .all(|r| (r.earliest_start - r.submit) <= Dur(600)));
    }
}
