//! What the host says about this process: CPU time, peak memory, cores,
//! and a fixed spin loop that shows when the box, not the code, was slow.

use std::time::{Duration, Instant};

/// CPU nanoseconds every live thread of this process has run, from the
/// scheduler's own per-thread clocks (nanosecond resolution, where
/// `/proc/self/stat` counts 10 ms ticks). A thread that has exited takes
/// its time with it, so read this only across an interval in which no
/// thread ends — as inside a timed window.
pub fn cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("schedstat")).ok())
        .filter_map(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPUs this process may run on (`Cpus_allowed_list`, e.g. `0-1,4`).
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("")
        .trim();
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

extern "C" {
    /// glibc's wrapper of the `sched_setaffinity` system call; `std` has no
    /// safe equivalent. `pid` 0 is the calling thread.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Confine the calling thread, and every thread it spawns from now on, to
/// the highest-numbered CPU it may use (interrupts land on CPU 0 by
/// default). Returns that CPU, or `None` when there was nothing to do or
/// the kernel refused.
///
/// Why: on the reference VM a wake-up that crosses virtual CPUs costs
/// about 50 us where one that stays on a CPU costs 5 us, and the guest
/// scheduler flips between the two placements for seconds at a time. A
/// closed loop over one connection is a chain of such wake-ups, so every
/// wire-level number swung two- to three-fold between runs. One outstanding
/// burst keeps about one core busy anyway, and the confined server is the
/// faster deployment as well as the repeatable one.
pub fn pin_to_last_cpu() -> Option<usize> {
    let cpus = allowed_cpus();
    let &cpu = cpus.last()?;
    if cpus.len() == 1 || cpu >= 1024 {
        return None;
    }
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live, initialised array of `size_of_val(&mask)`
    // bytes, which the call only reads; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Milliseconds a fixed integer loop takes on one core right now.
pub fn ref_spin_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..50_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// The probe's unit time on the reference box when nothing else runs on the
/// host. It only fixes the unit of the normalised times.
const PROBE_REF_NS: f64 = 1_200_000.0;

/// How often a pass re-reads the host's speed.
const PROBE_EVERY: Duration = Duration::from_millis(100);

/// A reading of how fast the host runs memory-bound code right now, taken
/// with a fixed work unit that shares nothing with the code under test:
/// ordered-map churn over a working set of a few MB.
///
/// Why it exists: on the reference VM the same instructions take 15 to 30 %
/// longer for seconds or minutes at a time (other tenants on the core and
/// its caches; a dependent-chain spin loop does not see it). Measured over
/// 32 runs, a run's mean probe time correlates 0.87 to 0.96 with its time
/// per command, CPU cost and median latency, on every workload. So each
/// pass multiplies its times by `reference probe time / mean probe time
/// during the pass`: what the pass would have taken on the quiet reference
/// box. That cut the run-to-run spread of the CPU-bound workloads three- to
/// fourfold (README, *Measured baseline*). The code under test
/// only enters the numerator; it can move the probe solely through the
/// shared cache, a second-order effect.
pub struct HostClock {
    map: std::collections::BTreeMap<u64, u64>,
    x: u64,
    last: Instant,
    readings: u64,
    reading_sum_ns: u64,
    /// Wall time the probe itself took; it ran on the calling thread, so
    /// this is also its share of the process's CPU time.
    pub probe_total_ns: u64,
}

impl HostClock {
    /// Build the working set, warm it, and take the first reading.
    pub fn new() -> HostClock {
        let mut c = HostClock {
            map: std::collections::BTreeMap::new(),
            x: 88_172_645_463_325_252,
            last: Instant::now(),
            readings: 0,
            reading_sum_ns: 0,
            probe_total_ns: 0,
        };
        for _ in 0..20 {
            c.unit();
        }
        c.restart();
        c
    }

    fn unit(&mut self) -> u64 {
        let t = Instant::now();
        for i in 0..3000u64 {
            self.x ^= self.x << 13;
            self.x ^= self.x >> 7;
            self.x ^= self.x << 17;
            self.map.insert(self.x % 100_000, i);
            if i % 2 == 0 {
                self.map.remove(&((self.x >> 20) % 100_000));
            }
        }
        std::hint::black_box(self.map.len());
        t.elapsed().as_nanos() as u64
    }

    fn read(&mut self) {
        let ns = self.unit();
        self.readings += 1;
        self.reading_sum_ns += ns;
        self.probe_total_ns += ns;
        self.last = Instant::now();
    }

    /// Forget earlier readings and take one: the start of a pass.
    pub fn restart(&mut self) {
        (self.readings, self.reading_sum_ns, self.probe_total_ns) = (0, 0, 0);
        self.read();
    }

    /// Call between units of work, outside anything being timed: takes a
    /// reading when the last one is older than [`PROBE_EVERY`].
    pub fn tick(&mut self) {
        if self.last.elapsed() >= PROBE_EVERY {
            self.read();
        }
    }

    /// What to multiply a time measured since [`HostClock::restart`] by to
    /// get the time on the quiet reference box; 1 there, below 1 on a
    /// slower or busier host. Takes a closing reading first.
    pub fn factor(&mut self) -> f64 {
        self.read();
        PROBE_REF_NS / (self.reading_sum_ns as f64 / self.readings as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn procfs_readings_are_sane() {
        assert!(peak_rss_mb() > 0.5);
        assert!(!allowed_cpus().is_empty());
        let before = cpu_ns();
        let spin = ref_spin_ms();
        // The spin ran on this thread, so at least most of it was counted.
        assert!(
            (cpu_ns() - before) as f64 / 1e6 > 0.5 * spin,
            "cpu clock missed a {spin} ms spin"
        );
    }

    #[test]
    fn host_clock_reads_a_plausible_speed() {
        let mut clock = HostClock::new();
        clock.tick(); // too soon: no reading
        assert_eq!(clock.readings, 1);
        std::thread::sleep(PROBE_EVERY);
        clock.tick();
        assert_eq!(clock.readings, 2);
        let f = clock.factor();
        assert!(f > 0.01 && f < 100.0, "factor {f}");
        assert!(clock.probe_total_ns > 0);
    }
}
