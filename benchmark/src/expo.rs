//! Reading the server's own `metrics` exposition: counters, and histogram
//! means and quantiles over the interval between two scrapes.

use std::collections::BTreeMap;

/// One scrape: every sample line as `series → value`, where a series is
/// the text before the value (`net_shed_total`,
/// `req_stage_sched_bucket{le="127"}`).
pub struct Expo(BTreeMap<String, f64>);

impl Expo {
    pub fn parse(text: &str) -> Expo {
        let samples = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (series, value) = l.rsplit_once(' ')?;
                Some((series.to_string(), value.parse().ok()?))
            });
        Expo(samples.collect())
    }

    /// 0 for a series the server has not registered yet.
    pub fn value(&self, series: &str) -> f64 {
        self.0.get(series).copied().unwrap_or(0.0)
    }

    pub fn delta(&self, before: &Expo, series: &str) -> f64 {
        self.value(series) - before.value(series)
    }

    /// `(count, sum)` a histogram gained since `before`.
    pub fn hist_delta(&self, before: &Expo, name: &str) -> (f64, f64) {
        (
            self.delta(before, &format!("{name}_count")),
            self.delta(before, &format!("{name}_sum")),
        )
    }

    /// The finite buckets of a histogram as ascending `(le, cumulative)`.
    fn buckets(&self, name: &str) -> Vec<(f64, f64)> {
        let prefix = format!("{name}_bucket{{le=\"");
        let mut out: Vec<(f64, f64)> = self
            .0
            .range(prefix.clone()..)
            .take_while(|(k, _)| k.starts_with(&prefix))
            .filter_map(|(k, &v)| Some((k[prefix.len()..].strip_suffix("\"}")?.parse().ok()?, v)))
            .collect();
        out.sort_by(|a, b| a.0.total_cmp(&b.0));
        out
    }

    /// The `q`-quantile (as a bucket's upper bound) of the observations a
    /// histogram gained since `before`; 0 when it gained none. Only
    /// non-empty buckets are exposed, so a bound missing from `before`
    /// holds what the next lower bound held.
    pub fn hist_quantile(&self, before: &Expo, name: &str, q: f64) -> f64 {
        let (count, _) = self.hist_delta(before, name);
        if count <= 0.0 {
            return 0.0;
        }
        let old = before.buckets(name);
        let old_at = |le: f64| {
            old.iter()
                .take_while(|(b, _)| *b <= le)
                .last()
                .map_or(0.0, |&(_, c)| c)
        };
        let rank = (q * count).ceil().max(1.0);
        for (le, cum) in self.buckets(name) {
            if le.is_finite() && cum - old_at(le) >= rank {
                return le;
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = "# TYPE h histogram\nh_bucket{le=\"3\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 5\nh_count 2\n# TYPE c counter\nc 7\n";
    const AFTER: &str = "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"3\"} 3\nh_bucket{le=\"15\"} 7\nh_bucket{le=\"+Inf\"} 7\nh_sum 55\nh_count 7\n# TYPE c counter\nc 10\n";

    #[test]
    fn deltas_and_quantiles_between_two_scrapes() {
        let (b, a) = (Expo::parse(BEFORE), Expo::parse(AFTER));
        assert_eq!(a.delta(&b, "c"), 3.0);
        assert_eq!(a.delta(&b, "never_registered"), 0.0);
        assert_eq!(a.hist_delta(&b, "h"), (5.0, 50.0));
        // Gained: one at <=1, none more at <=3, four at <=15.
        assert_eq!(a.hist_quantile(&b, "h", 0.2), 1.0);
        assert_eq!(a.hist_quantile(&b, "h", 0.5), 15.0);
        assert_eq!(a.hist_quantile(&a, "h", 0.5), 0.0);
    }

    #[test]
    fn parses_the_real_registry() {
        obs::metrics::histogram("expo_test_hist").observe(9);
        let e = Expo::parse(&obs::metrics::exposition());
        assert_eq!(e.value("expo_test_hist_count"), 1.0);
        assert!(e.hist_quantile(&Expo::parse(""), "expo_test_hist", 0.5) >= 9.0);
    }
}
