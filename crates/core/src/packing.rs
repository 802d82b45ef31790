//! Packing sub-slot jobs into combined requests.
//!
//! Section 4.1 assumes requests are at least `tau` long and notes that
//! "jobs of size smaller than `tau` may be packed together and submitted
//! through a single request of size at least equal to `tau`". This module
//! implements that packing: small jobs destined for the same earliest start
//! are stacked into *lanes* (server-worth columns of back-to-back jobs) and
//! emitted as one co-allocation request whose duration is the longest lane,
//! padded up to `tau`.
//!
//! After the combined request is granted, [`PackedGroup::placements`] maps
//! each original job onto `(server index within the grant, offset)` so the
//! caller can dispatch the small jobs inside the reserved window.

use crate::request::Request;
use crate::time::{Dur, Time};

/// One small job to be packed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SmallJob {
    /// Caller-side identifier.
    pub tag: u64,
    /// Duration (typically `< tau`).
    pub duration: Dur,
    /// Servers needed simultaneously.
    pub servers: u32,
}

/// Where one small job landed inside the packed reservation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Placement {
    /// The original job's tag.
    pub tag: u64,
    /// First lane (grant-server index) this job occupies.
    pub first_lane: u32,
    /// Number of lanes (= the job's `servers`).
    pub lanes: u32,
    /// Offset of the job's start from the reservation start.
    pub offset: Dur,
}

/// A set of small jobs packed into one co-allocation request.
#[derive(Clone, Debug)]
pub struct PackedGroup {
    request_duration: Dur,
    request_servers: u32,
    placements: Vec<Placement>,
}

impl PackedGroup {
    /// Pack `jobs` into lanes using first-fit decreasing on duration:
    /// multi-server jobs occupy `servers` adjacent lanes at a common offset;
    /// each lane accumulates back-to-back work. The resulting request is
    /// `max(tau, longest lane)` long and `lanes` wide.
    ///
    /// Returns `None` for an empty job set.
    pub fn pack(jobs: &[SmallJob], tau: Dur) -> Option<PackedGroup> {
        if jobs.is_empty() {
            return None;
        }
        assert!(
            jobs.iter().all(|j| j.duration.secs() > 0 && j.servers > 0),
            "jobs must have positive size"
        );
        let mut order: Vec<&SmallJob> = jobs.iter().collect();
        // Widest-then-longest first packs the awkward pieces early.
        order.sort_by_key(|j| (std::cmp::Reverse(j.servers), std::cmp::Reverse(j.duration)));
        let max_width = order.iter().map(|j| j.servers).max().unwrap();
        // Lane heights (occupied time per lane).
        let mut lanes: Vec<Dur> = vec![Dur::ZERO; max_width as usize];
        let mut placements = Vec::with_capacity(jobs.len());
        for job in order {
            let w = job.servers as usize;
            // Find the window of `w` adjacent lanes whose max height is
            // minimal (first-fit on the flattest shelf), extending the lane
            // set if every existing window would exceed the current tallest
            // lane by more than the job length... keep it simple: consider
            // all existing windows plus one fresh window appended at the
            // end, pick the minimal-resulting-height option.
            let mut best: Option<(usize, Dur)> = None; // (first lane, base height)
            if lanes.len() >= w {
                for i in 0..=(lanes.len() - w) {
                    let base = lanes[i..i + w].iter().copied().max().unwrap();
                    if best.map(|(_, b)| base < b).unwrap_or(true) {
                        best = Some((i, base));
                    }
                }
            }
            // Alternative: open fresh lanes (base height zero) if that beats
            // stacking — bounded so the request never gets absurdly wide.
            let (first, base) = match best {
                Some((i, base)) if base.is_zero() => (i, base),
                // Stack onto the flattest shelf unless that would push the
                // reservation past max(tallest-so-far, tau) — in that case
                // widening is cheaper than lengthening.
                Some((i, base)) => {
                    let tallest = lanes.iter().copied().max().unwrap();
                    if base + job.duration > tallest.max(tau) {
                        let i = lanes.len();
                        lanes.extend(std::iter::repeat_n(Dur::ZERO, w));
                        (i, Dur::ZERO)
                    } else {
                        (i, base)
                    }
                }
                None => {
                    let i = lanes.len();
                    lanes.extend(std::iter::repeat_n(Dur::ZERO, w));
                    (i, Dur::ZERO)
                }
            };
            // Level the window to `base`, then stack the job.
            let top = base + job.duration;
            for lane in &mut lanes[first..first + w] {
                *lane = top;
            }
            placements.push(Placement {
                tag: job.tag,
                first_lane: first as u32,
                lanes: job.servers,
                offset: base,
            });
        }
        let height = lanes.iter().copied().max().unwrap();
        Some(PackedGroup {
            request_duration: if height < tau { tau } else { height },
            request_servers: lanes.len() as u32,
            placements,
        })
    }

    /// The combined request for earliest start `start`, submitted at
    /// `submit`.
    pub fn request(&self, submit: Time, start: Time) -> Request {
        Request::advance(submit, start, self.request_duration, self.request_servers)
    }

    /// Duration of the combined request (`>= tau`).
    pub fn duration(&self) -> Dur {
        self.request_duration
    }

    /// Width of the combined request.
    pub fn servers(&self) -> u32 {
        self.request_servers
    }

    /// Per-job placements inside the reservation.
    pub fn placements(&self) -> &[Placement] {
        &self.placements
    }

    /// Validate that no two placements overlap in (lane, time) — test
    /// helper; panics on violation.
    #[doc(hidden)]
    pub fn check_disjoint(&self, jobs: &[SmallJob]) {
        let dur = |tag: u64| {
            jobs.iter()
                .find(|j| j.tag == tag)
                .expect("placement for unknown job")
                .duration
        };
        for (i, a) in self.placements.iter().enumerate() {
            assert!(a.first_lane + a.lanes <= self.request_servers);
            assert!(a.offset + dur(a.tag) <= self.request_duration);
            for b in &self.placements[i + 1..] {
                let lanes_overlap =
                    a.first_lane < b.first_lane + b.lanes && b.first_lane < a.first_lane + a.lanes;
                let time_overlap =
                    a.offset < b.offset + dur(b.tag) && b.offset < a.offset + dur(a.tag);
                assert!(
                    !(lanes_overlap && time_overlap),
                    "placements {a:?} and {b:?} collide"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(tag: u64, dur: i64, servers: u32) -> SmallJob {
        SmallJob {
            tag,
            duration: Dur(dur),
            servers,
        }
    }

    #[test]
    fn empty_set_packs_to_none() {
        assert!(PackedGroup::pack(&[], Dur(100)).is_none());
    }

    #[test]
    fn single_small_job_padded_to_tau() {
        let g = PackedGroup::pack(&[job(1, 30, 2)], Dur(100)).unwrap();
        assert_eq!(g.duration(), Dur(100));
        assert_eq!(g.servers(), 2);
        assert_eq!(g.placements().len(), 1);
    }

    #[test]
    fn serial_jobs_stack_back_to_back_in_one_lane() {
        let jobs = [job(1, 40, 1), job(2, 30, 1), job(3, 20, 1)];
        let g = PackedGroup::pack(&jobs, Dur(100)).unwrap();
        g.check_disjoint(&jobs);
        // All fit in one lane (40+30+20 = 90 <= tau).
        assert_eq!(g.servers(), 1);
        assert_eq!(g.duration(), Dur(100));
    }

    #[test]
    fn overflow_opens_a_second_lane() {
        let jobs = [job(1, 80, 1), job(2, 70, 1), job(3, 60, 1)];
        let g = PackedGroup::pack(&jobs, Dur(100)).unwrap();
        g.check_disjoint(&jobs);
        // 210s of serial work cannot fit one 100s lane after padding rules;
        // the packer balances lanes rather than making a 210s reservation.
        assert!(g.servers() >= 2);
        assert!(g.duration() >= Dur(100));
        // Total reserved area is not absurd (within 2x of the work).
        let work: i64 = jobs.iter().map(|j| j.duration.secs()).sum();
        let area = g.duration().secs() * g.servers() as i64;
        assert!(area <= work * 2 + 200, "area {area} for work {work}");
    }

    #[test]
    fn wide_job_occupies_adjacent_lanes() {
        let jobs = [job(1, 50, 3), job(2, 40, 1), job(3, 30, 2)];
        let g = PackedGroup::pack(&jobs, Dur(100)).unwrap();
        g.check_disjoint(&jobs);
        assert!(g.servers() >= 3);
        let p1 = g.placements().iter().find(|p| p.tag == 1).unwrap();
        assert_eq!(p1.lanes, 3);
    }

    #[test]
    fn request_has_combined_shape() {
        let jobs = [job(1, 30, 1), job(2, 30, 1)];
        let g = PackedGroup::pack(&jobs, Dur(100)).unwrap();
        let r = g.request(Time(5), Time(50));
        assert_eq!(r.submit, Time(5));
        assert_eq!(r.earliest_start, Time(50));
        assert_eq!(r.duration, g.duration());
        assert_eq!(r.servers, g.servers());
        assert!(r.validate().is_ok());
    }

    #[test]
    fn packing_never_loses_or_duplicates_jobs() {
        let jobs: Vec<SmallJob> = (0..40)
            .map(|i| job(i, 10 + (i as i64 * 13) % 90, 1 + (i as u32 % 4)))
            .collect();
        let g = PackedGroup::pack(&jobs, Dur(120)).unwrap();
        g.check_disjoint(&jobs);
        let mut tags: Vec<u64> = g.placements().iter().map(|p| p.tag).collect();
        tags.sort_unstable();
        assert_eq!(tags, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn packed_group_schedules_end_to_end() {
        use crate::prelude::*;
        let jobs = [job(1, 200, 2), job(2, 150, 1), job(3, 100, 1)];
        let g = PackedGroup::pack(&jobs, Dur(600)).unwrap();
        let mut s = CoAllocScheduler::new(
            8,
            SchedulerConfig::builder()
                .tau(Dur(600))
                .horizon(Dur(6000))
                .delta_t(Dur(600))
                .build(),
        );
        let grant = s.submit(&g.request(Time::ZERO, Time::ZERO)).unwrap();
        assert_eq!(grant.servers.len() as u32, g.servers());
        // Each placement maps into the granted window.
        for p in g.placements() {
            let job_dur = jobs.iter().find(|j| j.tag == p.tag).unwrap().duration;
            assert!(grant.start + p.offset + job_dur <= grant.end);
        }
        s.check_consistency();
    }
}
