//! The `Delta_t` / `R_max` retry ladder of Section 4.2.
//!
//! A request that cannot be placed at `s_r` is retried at `s_r + Delta_t`,
//! `s_r + 2 Delta_t`, … up to `R_max` times. [`Ladder`] is that sequence of
//! starts for one request, with two layered short-circuits:
//!
//! * the horizon cap: starts whose shifted end falls past the horizon can
//!   never succeed, so at most `tries` of the `budget` attempts are
//!   considered at all;
//! * profile jumping (unless the tests' linear walk is asked for): within
//!   those `tries`, attempt indexes whose window the capacity profile
//!   proves infeasible are skipped without a tree search.
//!
//! Every engine builds the ladder with [`Ladder::new`] (the only request
//! validation in the workspace), pulls starts with [`Ladder::next`] one at
//! a time, and turns what it found into the reply with [`Ladder::settle`].
//! Decision outputs — the grant's `attempts` field (the 1-based index of
//! the successful start), the error variant, both `Exhausted` fields — are
//! computed from attempt *indexes*, so they are identical whether or not
//! jumping is enabled.

use crate::error::ScheduleError;
use crate::profile::FreeProfile;
use crate::request::Request;
use crate::scheduler::SchedulerConfig;
use crate::stats::OpStats;
use crate::time::{Dur, Time};

/// The retry ladder of one request.
#[derive(Clone, Copy, Debug)]
pub struct Ladder {
    earliest: Time,
    step: Dur,
    duration: Dur,
    servers: u32,
    /// Starts the caller's bounds allow: `R_max + 1`, deadline-capped.
    budget: u64,
    /// Of those, the ones whose window ends inside the horizon.
    tries: u64,
    horizon_end: Time,
    jump: bool,
    /// Next attempt index to consider.
    k: u64,
}

/// Where a ladder found room.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// Start of the winning attempt.
    pub start: Time,
    /// `start + l_r`.
    pub end: Time,
    /// 1-based index of the winning attempt ([`crate::scheduler::Grant::attempts`]).
    pub attempts: u32,
    /// `start - max(s_r, now)`.
    pub waiting: Dur,
}

impl Ladder {
    /// Validate `req` and lay out its ladder for a system of `capacity`
    /// usable servers whose clock reads `now` and whose horizon ends at
    /// `horizon_end`. With a `deadline`, no start later than
    /// `deadline - l_r` is on the ladder; a request that is already too
    /// late fails here with `Exhausted { attempts: 0, .. }`. Without
    /// `jump` every start is offered, profile or not.
    pub fn new(
        cfg: &SchedulerConfig,
        req: &Request,
        capacity: u32,
        now: Time,
        horizon_end: Time,
        deadline: Option<Time>,
        jump: bool,
    ) -> Result<Ladder, ScheduleError> {
        req.validate()?;
        if req.servers > capacity {
            return Err(ScheduleError::TooManyServers {
                requested: req.servers,
                available: capacity,
            });
        }
        // Jobs cannot start in the past; on-demand requests start "now".
        let earliest = req.earliest_start.max(now);
        let step = cfg.delta_t.secs();
        let mut budget = cfg.effective_r_max() as u64 + 1;
        if let Some(deadline) = deadline {
            // The deadline is outside input over the whole `i64` range:
            // `deadline - l_r - earliest` can leave it, so widen first.
            let slack =
                deadline.secs() as i128 - req.duration.secs() as i128 - earliest.secs() as i128;
            if slack < 0 {
                return Err(ScheduleError::Exhausted {
                    attempts: 0,
                    last_tried: earliest,
                });
            }
            let rungs = slack / step as i128 + 1;
            budget = budget.min(u64::try_from(rungs).unwrap_or(u64::MAX));
        }
        // `s_r` and `l_r` are outside input too: `earliest + l_r` can wrap,
        // so measure the room before the horizon widened, like the slack.
        let room =
            horizon_end.secs() as i128 - req.duration.secs() as i128 - earliest.secs() as i128;
        let horizon_attempts = u64::try_from(room).map_or(0, |room| room / step as u64 + 1);
        Ok(Ladder {
            earliest,
            step: cfg.delta_t,
            duration: req.duration,
            servers: req.servers,
            budget,
            tries: budget.min(horizon_attempts),
            horizon_end,
            jump,
            k: 0,
        })
    }

    /// `max(s_r, now)`: the start of attempt 0.
    pub fn earliest(&self) -> Time {
        self.earliest
    }

    fn start_of(&self, k: u64) -> Time {
        self.earliest + self.step * (k as i64)
    }

    /// The next attempt `(index, start)` worth probing, or `None` when the
    /// ladder is exhausted. With jumping on, indexes whose window `profile`
    /// refutes are passed over: the profile bounds the free servers of the
    /// whole system, hence of any subset a caller restricts itself to.
    pub fn next(&mut self, profile: &FreeProfile) -> Option<(u64, Time)> {
        if self.k >= self.tries {
            return None;
        }
        let k = if self.jump {
            let allowed = profile.next_allowed(
                self.earliest,
                self.step,
                self.duration,
                self.servers,
                self.k,
                self.tries,
            );
            let Some(k) = allowed else {
                self.k = self.tries;
                return None;
            };
            k
        } else {
            self.k
        };
        self.k = k + 1;
        Some((k, self.start_of(k)))
    }

    /// Close the ladder: `winner` is the index of the attempt that found
    /// room (if any) and `probed` the number of starts charged as searched
    /// on the way. Charges `attempts`, `attempts_skipped` and
    /// `attempts_jumped` to `stats` — every start below a winner, or on the
    /// whole ladder without one, that was not probed was profile-refuted;
    /// starts cut off by the horizon or a deadline are skipped but not
    /// jumped — and returns the placement or the rejection.
    pub fn settle(
        &self,
        winner: Option<u64>,
        probed: u64,
        stats: &mut OpStats,
    ) -> Result<Placement, ScheduleError> {
        stats.attempts += probed;
        let Some(k) = winner else {
            stats.attempts_skipped += self.budget - probed;
            stats.attempts_jumped += self.tries - probed;
            return Err(if self.tries < self.budget {
                ScheduleError::HorizonExceeded {
                    horizon_end: self.horizon_end,
                }
            } else {
                ScheduleError::Exhausted {
                    attempts: self.tries as u32,
                    last_tried: self.start_of(self.tries - 1),
                }
            });
        };
        let jumped = k + 1 - probed;
        stats.attempts_skipped += jumped;
        stats.attempts_jumped += jumped;
        let start = self.start_of(k);
        Ok(Placement {
            start,
            end: start + self.duration,
            attempts: (k + 1) as u32,
            waiting: start.saturating_since(self.earliest),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deadline is raw protocol input: anywhere in `i64` it must land on
    /// the right side of `earliest + l_r`, never wrap to the other one.
    #[test]
    fn deadline_branch_does_not_wrap() {
        let cfg = SchedulerConfig::builder()
            .tau(Dur(10))
            .horizon(Dur(300))
            .delta_t(Dur(10))
            .build();
        let req = Request::on_demand(Time::ZERO, Dur(10), 1);
        let ladder = |deadline: i64| {
            Ladder::new(
                &cfg,
                &req,
                4,
                Time::ZERO,
                Time(300),
                Some(Time(deadline)),
                true,
            )
        };
        for too_late in [i64::MIN, -1, 9] {
            assert_eq!(
                ladder(too_late).unwrap_err(),
                ScheduleError::Exhausted {
                    attempts: 0,
                    last_tried: Time::ZERO
                },
                "deadline {too_late}"
            );
        }
        // Exactly `earliest + l_r` leaves one rung; each `Delta_t` adds one.
        assert_eq!(ladder(10).unwrap().budget, 1);
        assert_eq!(ladder(19).unwrap().budget, 1);
        assert_eq!(ladder(20).unwrap().budget, 2);
        assert_eq!(
            ladder(i64::MAX).unwrap().budget,
            cfg.effective_r_max() as u64 + 1
        );
    }

    /// So are `s_r` and `l_r`: a start or a duration near `i64::MAX` lies
    /// past the horizon, it does not wrap around to before it.
    #[test]
    fn horizon_branch_does_not_wrap() {
        use crate::scheduler::{CoAllocScheduler, MAX_ABS_TIME};
        let cfg = SchedulerConfig::builder()
            .tau(Dur(10))
            .horizon(Dur(300))
            .delta_t(Dur(10))
            .build();
        let ladder = |s: i64, l: i64| {
            let req = Request::advance(Time::ZERO, Time(s), Dur(l), 1);
            Ladder::new(&cfg, &req, 4, Time::ZERO, Time(300), None, true).unwrap()
        };
        for far in [i64::MAX, i64::MAX - 9, MAX_ABS_TIME + 1] {
            for (s, l) in [(far, 10), (0, far), (far, far)] {
                let ladder = ladder(s, l);
                assert_eq!(ladder.tries, 0, "s_r={s} l_r={l}");
                assert_eq!(
                    ladder.settle(None, 0, &mut OpStats::new()),
                    Err(ScheduleError::HorizonExceeded {
                        horizon_end: Time(300)
                    }),
                    "s_r={s} l_r={l}"
                );
            }
        }
        // The last rung that ends inside the horizon is still on the ladder
        // — and granted; one second later nothing is.
        assert_eq!(ladder(290, 10).tries, 1);
        assert_eq!(ladder(291, 10).tries, 0);
        let grant = CoAllocScheduler::new(4, cfg)
            .submit(&Request::advance(Time::ZERO, Time(290), Dur(10), 1))
            .unwrap();
        assert_eq!(
            (grant.start, grant.end, grant.attempts),
            (Time(290), Time(300), 1)
        );
    }
}
