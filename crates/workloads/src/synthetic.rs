//! Synthetic statistical twins of the paper's three workloads.
//!
//! The real CTC/KTH/HPC2N traces from the Parallel Workloads Archive are not
//! redistributable here, so experiments run against seeded generators
//! calibrated to the published features the paper's analysis relies on
//! (Table 1 and Figure 4b):
//!
//! | trace | N   | jobs    | mean `l_r` | temporal shape                   |
//! |-------|-----|---------|-----------|----------------------------------|
//! | CTC   | 512 | 39,734  | 5.82 h    | ≤14 % of jobs under 2 h          |
//! | KTH   | 128 | 28,481  | 2.46 h    | most jobs under 2 h (Fig. 4b)    |
//! | HPC2N | 240 | 202,825 | 4.72 h    | intermediate                     |
//!
//! Durations are a two-component lognormal mixture (short interactive body +
//! heavy batch tail), spatial sizes are power-of-two biased (the classic
//! parallel-workload shape), arrivals follow a diurnally modulated Poisson
//! process whose rate is derived from a target offered load. An optional
//! exact-mean calibration rescales durations so Table 1 reproduces tightly.

use coalloc_core::prelude::{Dur, Request, Time};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Parameters of a synthetic workload twin.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Display name ("CTC", "KTH", ...).
    pub name: String,
    /// Number of servers `N`.
    pub servers: u32,
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Target mean requested duration, hours.
    pub mean_duration_hours: f64,
    /// Fraction of jobs drawn from the short-duration component.
    pub short_frac: f64,
    /// Lognormal `mu` (ln hours) of the short component.
    pub short_mu: f64,
    /// Lognormal `sigma` of the short component.
    pub short_sigma: f64,
    /// Lognormal `mu` (ln hours) of the long component.
    pub long_mu: f64,
    /// Lognormal `sigma` of the long component.
    pub long_sigma: f64,
    /// Durations are clamped to this maximum (hours).
    pub max_duration_hours: f64,
    /// Fraction of strictly serial jobs (`n_r = 1`).
    pub serial_frac: f64,
    /// Among parallel jobs, fraction with exact power-of-two sizes.
    pub pow2_frac: f64,
    /// Offered load (fraction of total capacity) used to derive the arrival
    /// rate: `span = total_work / (N * load)`.
    pub offered_load: f64,
    /// Whether arrivals follow a day/night cycle.
    pub diurnal: bool,
    /// Rescale durations so the empirical mean matches
    /// `mean_duration_hours` exactly (shape-preserving).
    pub calibrate_mean: bool,
}

impl WorkloadSpec {
    /// The CTC SP2 twin (512 processors, 39,734 jobs, mean 5.82 h, few
    /// short jobs).
    pub fn ctc() -> WorkloadSpec {
        WorkloadSpec {
            name: "CTC".into(),
            servers: 512,
            jobs: 39_734,
            mean_duration_hours: 5.82,
            short_frac: 0.10,
            short_mu: (0.75f64).ln(),
            short_sigma: 0.6,
            long_mu: (5.5f64).ln(),
            long_sigma: 0.6,
            max_duration_hours: 18.0,
            serial_frac: 0.25,
            pow2_frac: 0.7,
            offered_load: 0.66,
            diurnal: true,
            calibrate_mean: true,
        }
    }

    /// The KTH SP2 twin (128 processors, 28,481 jobs, mean 2.46 h, most
    /// jobs under 2 h — the high-fragmentation workload of Figure 4b).
    pub fn kth() -> WorkloadSpec {
        WorkloadSpec {
            name: "KTH".into(),
            servers: 128,
            jobs: 28_481,
            mean_duration_hours: 2.46,
            short_frac: 0.70,
            short_mu: (0.45f64).ln(),
            short_sigma: 0.8,
            long_mu: (4.5f64).ln(),
            long_sigma: 0.7,
            max_duration_hours: 44.0,
            serial_frac: 0.30,
            pow2_frac: 0.75,
            offered_load: 0.69,
            diurnal: true,
            calibrate_mean: true,
        }
    }

    /// The HPC2N twin (240 processors, 202,825 jobs, mean 4.72 h).
    pub fn hpc2n() -> WorkloadSpec {
        WorkloadSpec {
            name: "HPC2N".into(),
            servers: 240,
            jobs: 202_825,
            mean_duration_hours: 4.72,
            short_frac: 0.45,
            short_mu: (0.5f64).ln(),
            short_sigma: 0.75,
            long_mu: (5.5f64).ln(),
            long_sigma: 0.8,
            max_duration_hours: 36.0,
            serial_frac: 0.35,
            pow2_frac: 0.7,
            offered_load: 0.62,
            diurnal: true,
            calibrate_mean: true,
        }
    }

    /// All three presets (the paper's Table 1).
    pub fn all() -> Vec<WorkloadSpec> {
        vec![
            WorkloadSpec::ctc(),
            WorkloadSpec::kth(),
            WorkloadSpec::hpc2n(),
        ]
    }

    /// Scale the job count by `f` (for quick experiments and CI), keeping
    /// every distribution and the offered load unchanged.
    pub fn scaled(mut self, f: f64) -> WorkloadSpec {
        assert!(f > 0.0 && f <= 1.0, "scale must be in (0, 1]");
        self.jobs = ((self.jobs as f64 * f).round() as usize).max(1);
        self
    }

    /// Generate the request stream (on-demand requests, sorted by `q_r`).
    pub fn generate(&self, seed: u64) -> Vec<Request> {
        let mut rng = SmallRng::seed_from_u64(seed ^ hash_name(&self.name));
        // --- durations -------------------------------------------------
        let mut hours: Vec<f64> = (0..self.jobs)
            .map(|_| {
                let (mu, sigma) = if rng.random_bool(self.short_frac) {
                    (self.short_mu, self.short_sigma)
                } else {
                    (self.long_mu, self.long_sigma)
                };
                lognormal(&mut rng, mu, sigma).clamp(1.0 / 60.0, self.max_duration_hours)
            })
            .collect();
        if self.calibrate_mean {
            let actual = hours.iter().sum::<f64>() / hours.len() as f64;
            let k = self.mean_duration_hours / actual;
            for h in &mut hours {
                *h = (*h * k).clamp(1.0 / 60.0, self.max_duration_hours);
            }
        }
        // --- spatial sizes ---------------------------------------------
        let max_log2 = (self.servers as f64).log2().floor() as u32;
        let sizes: Vec<u32> = (0..self.jobs)
            .map(|_| {
                if rng.random_bool(self.serial_frac) {
                    1
                } else if rng.random_bool(self.pow2_frac) {
                    // Power-of-two biased towards smaller sizes.
                    let a = rng.random_range(1..=max_log2);
                    let b = rng.random_range(1..=max_log2);
                    1u32 << a.min(b)
                } else {
                    rng.random_range(2..=self.servers)
                }
            })
            .map(|n| n.min(self.servers))
            .collect();
        // --- arrivals ---------------------------------------------------
        // Derive the span from the offered load, then draw exponential
        // interarrivals modulated by a diurnal rate factor.
        let total_work_hours: f64 = hours.iter().zip(&sizes).map(|(h, &n)| h * n as f64).sum();
        let span_hours = total_work_hours / (self.servers as f64 * self.offered_load);
        let mean_gap_secs = span_hours * 3600.0 / self.jobs as f64;
        let mut t = 0.0f64;
        let mut reqs = Vec::with_capacity(self.jobs);
        for i in 0..self.jobs {
            let factor = if self.diurnal { diurnal_factor(t) } else { 1.0 };
            // Exponential interarrival with rate scaled by the diurnal
            // factor (thinning-free approximation, adequate at this scale).
            let u: f64 = rng.random::<f64>().max(1e-12);
            t += -u.ln() * mean_gap_secs / factor;
            reqs.push(Request::on_demand(
                Time(t as i64),
                Dur::from_secs((hours[i] * 3600.0).round() as i64),
                sizes[i],
            ));
        }
        reqs
    }
}

fn hash_name(name: &str) -> u64 {
    name.bytes().fold(0xcbf29ce484222325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// Sample `exp(mu + sigma * Z)` with `Z ~ N(0,1)` via Box-Muller.
fn lognormal(rng: &mut SmallRng, mu: f64, sigma: f64) -> f64 {
    let u1: f64 = rng.random::<f64>().max(1e-12);
    let u2: f64 = rng.random();
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (mu + sigma * z).exp()
}

/// Day/night arrival-rate modulation: peak in working hours, trough at
/// night, as observed across Parallel Workloads Archive traces.
fn diurnal_factor(t_secs: f64) -> f64 {
    let hour = (t_secs / 3600.0) % 24.0;
    // Smooth bump peaking at 14:00, min at 02:00.
    1.0 + 0.6 * ((hour - 14.0) / 24.0 * 2.0 * std::f64::consts::PI).cos()
}

/// Summary features of a request stream (Table 1).
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadStats {
    /// Number of requests.
    pub jobs: usize,
    /// Mean requested duration, hours.
    pub mean_duration_hours: f64,
    /// Mean spatial size.
    pub mean_servers: f64,
    /// Largest spatial size.
    pub max_servers: u32,
    /// Span from first to last submission, hours.
    pub span_hours: f64,
    /// Fraction of jobs shorter than 2 hours (the Figure-4b discriminator).
    pub frac_under_2h: f64,
}

impl WorkloadStats {
    /// Compute the summary of a request stream.
    pub fn of(reqs: &[Request]) -> WorkloadStats {
        if reqs.is_empty() {
            return WorkloadStats {
                jobs: 0,
                mean_duration_hours: 0.0,
                mean_servers: 0.0,
                max_servers: 0,
                span_hours: 0.0,
                frac_under_2h: 0.0,
            };
        }
        let n = reqs.len() as f64;
        let mean_duration_hours = reqs.iter().map(|r| r.duration.hours()).sum::<f64>() / n;
        let mean_servers = reqs.iter().map(|r| r.servers as f64).sum::<f64>() / n;
        let max_servers = reqs.iter().map(|r| r.servers).max().unwrap();
        let first = reqs.iter().map(|r| r.submit).min().unwrap();
        let last = reqs.iter().map(|r| r.submit).max().unwrap();
        let under = reqs.iter().filter(|r| r.duration.hours() < 2.0).count();
        WorkloadStats {
            jobs: reqs.len(),
            mean_duration_hours,
            mean_servers,
            max_servers,
            span_hours: (last - first).hours(),
            frac_under_2h: under as f64 / n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ctc_twin_matches_table1() {
        let reqs = WorkloadSpec::ctc().scaled(0.1).generate(1);
        let stats = WorkloadStats::of(&reqs);
        assert_eq!(stats.jobs, 3973);
        assert!(
            (stats.mean_duration_hours - 5.82).abs() < 0.35,
            "CTC mean duration {} != 5.82",
            stats.mean_duration_hours
        );
        // "at most 14% of all jobs are smaller than 2 hours" — allow the
        // clamped calibration a little slack.
        assert!(
            stats.frac_under_2h < 0.20,
            "CTC short-job fraction {} too high",
            stats.frac_under_2h
        );
        assert!(stats.max_servers <= 512);
    }

    #[test]
    fn kth_twin_is_short_job_dominated() {
        let reqs = WorkloadSpec::kth().scaled(0.1).generate(1);
        let stats = WorkloadStats::of(&reqs);
        assert!(
            (stats.mean_duration_hours - 2.46).abs() < 0.25,
            "KTH mean duration {}",
            stats.mean_duration_hours
        );
        // "most jobs in the KTH workload have a duration smaller than 2h".
        assert!(
            stats.frac_under_2h > 0.5,
            "KTH short-job fraction {} should dominate",
            stats.frac_under_2h
        );
        assert!(stats.max_servers <= 128);
    }

    #[test]
    fn hpc2n_twin_sized_correctly() {
        let reqs = WorkloadSpec::hpc2n().scaled(0.02).generate(1);
        let stats = WorkloadStats::of(&reqs);
        assert_eq!(stats.jobs, 4057);
        assert!((stats.mean_duration_hours - 4.72).abs() < 0.4);
        assert!(stats.max_servers <= 240);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let a = WorkloadSpec::kth().scaled(0.01).generate(7);
        let b = WorkloadSpec::kth().scaled(0.01).generate(7);
        let c = WorkloadSpec::kth().scaled(0.01).generate(8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn arrivals_sorted_and_positive() {
        let reqs = WorkloadSpec::ctc().scaled(0.01).generate(3);
        assert!(reqs.windows(2).all(|w| w[0].submit <= w[1].submit));
        assert!(reqs.iter().all(|r| r.duration.secs() >= 60));
        assert!(reqs.iter().all(|r| r.servers >= 1));
    }

    #[test]
    fn offered_load_controls_span() {
        let mut light = WorkloadSpec::kth().scaled(0.02);
        light.offered_load = 0.3;
        let mut heavy = light.clone();
        heavy.offered_load = 0.9;
        let sl = WorkloadStats::of(&light.generate(5)).span_hours;
        let sh = WorkloadStats::of(&heavy.generate(5)).span_hours;
        assert!(
            sl > sh * 2.0,
            "lighter load should stretch the trace: {sl} vs {sh}"
        );
    }

    #[test]
    fn spatial_sizes_have_pow2_bias_and_serial_jobs() {
        let reqs = WorkloadSpec::ctc().scaled(0.05).generate(11);
        let serial = reqs.iter().filter(|r| r.servers == 1).count() as f64;
        let pow2 = reqs
            .iter()
            .filter(|r| r.servers.is_power_of_two() && r.servers > 1)
            .count() as f64;
        let n = reqs.len() as f64;
        assert!(serial / n > 0.15 && serial / n < 0.40);
        assert!(pow2 / n > 0.35, "power-of-two fraction {}", pow2 / n);
    }

    #[test]
    fn diurnal_factor_cycles_daily() {
        let peak = diurnal_factor(14.0 * 3600.0);
        let trough = diurnal_factor(2.0 * 3600.0);
        assert!(peak > 1.5 && trough < 0.5);
        assert!((diurnal_factor(0.0) - diurnal_factor(24.0 * 3600.0)).abs() < 1e-9);
    }

    #[test]
    fn table1_row_shapes_hold_across_all_twins() {
        for spec in WorkloadSpec::all() {
            let name = spec.name.clone();
            let reqs = spec.scaled(0.01).generate(2);
            let stats = WorkloadStats::of(&reqs);
            assert!(stats.jobs > 0);
            assert!(stats.mean_duration_hours > 1.0);
            assert!(stats.span_hours > 24.0, "{name} span too short");
        }
    }
}
