//! Reading the gateway's `GET /metrics` scrape.
//!
//! Counters are taken as deltas between a scrape before and one after
//! the timed phase, summed over every label set: the per-layer counters
//! the harness reports are per-job totals, not per-rule or per-tenant
//! breakdowns.

use std::collections::BTreeMap;

/// Series value sums keyed by metric name (label sets folded together;
/// histogram `_sum`/`_count` series keep their suffixed names).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape(BTreeMap<String, f64>);

impl Scrape {
    /// Parses Prometheus text exposition. Label values may contain spaces
    /// (rule names do), so the value is the last field of the line and the
    /// name is everything before the first `{` or space.
    pub fn parse(text: &str) -> Scrape {
        let mut sums = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let Some((head, value)) = line.rsplit_once(' ') else {
                continue;
            };
            let Ok(value) = value.parse::<f64>() else {
                continue;
            };
            let name = head
                .split(['{', ' '])
                .next()
                .unwrap_or_default()
                .to_string();
            *sums.entry(name).or_insert(0.0) += value;
        }
        Scrape(sums)
    }

    /// The summed value of `name` (`0.0` when absent).
    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `after − before` for every series present after.
    pub fn delta(before: &Scrape, after: &Scrape) -> Scrape {
        Scrape(
            after
                .0
                .iter()
                .map(|(k, v)| (k.clone(), v - before.get(k)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_labels_and_keeps_histogram_series() {
        let before = Scrape::parse(
            "# HELP x y\n\
             cqfd_chase_triggers_total{rule=\"a ] b[fwd]\"} 3\n\
             cqfd_chase_triggers_total{rule=\"c\"} 4\n\
             cqfd_pool_job_seconds_sum{kind=\"determine\"} 0.5\n\
             cqfd_pool_job_seconds_count{kind=\"determine\"} 2\n",
        );
        assert_eq!(before.get("cqfd_chase_triggers_total"), 7.0);
        let after = Scrape::parse(
            "cqfd_chase_triggers_total{rule=\"a ] b[fwd]\"} 10\n\
             cqfd_chase_triggers_total{rule=\"c\"} 4\n\
             cqfd_pool_job_seconds_sum{kind=\"determine\"} 1.5\n\
             cqfd_pool_job_seconds_count{kind=\"determine\"} 6\n\
             cqfd_build_info 1\n",
        );
        let d = Scrape::delta(&before, &after);
        assert_eq!(d.get("cqfd_chase_triggers_total"), 7.0);
        assert_eq!(d.get("cqfd_pool_job_seconds_sum"), 1.0);
        assert_eq!(d.get("cqfd_pool_job_seconds_count"), 4.0);
        assert_eq!(d.get("absent"), 0.0);
    }
}
