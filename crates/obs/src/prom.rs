//! Prometheus text-format exposition of a registry [`Snapshot`].
//!
//! Produces the classic text format: `# HELP` / `# TYPE` headers, one
//! sample line per series, histograms as cumulative `_bucket{le=...}`
//! lines plus `_sum` and `_count`. Output is deterministic — families in
//! name order, series in label order, buckets in ascending `le` — so it
//! can be golden-tested and diffed across scrapes.
//!
//! Histograms registered with [`Unit::Seconds`] record raw nanoseconds;
//! this renderer divides bounds and sums by 1e9 so the exposed family
//! follows the Prometheus base-unit convention (seconds). Log₂ buckets
//! expose their octave upper bound as `le` (bucket *i* holds values in
//! `[2^i, 2^{i+1})`, so its cumulative bound is `2^{i+1}`); trailing
//! empty octaves are elided, `+Inf` is always present.
//!
//! Buckets carry **exemplars** in the OpenMetrics trailer syntax
//! (`… # {job_id="17"} 0.003`): the last job-tagged observation that
//! landed in the bucket, linking a latency octave straight back to a
//! concrete pool job id for forensics. Strict classic-text-format
//! parsers that reject the trailer can scrape with job tagging unused —
//! exemplars only render once a tagged observation exists.

use crate::registry::{Snapshot, Unit, Value};

/// Renders a snapshot as Prometheus text (UTF-8, trailing newline).
pub fn render(snap: &Snapshot) -> String {
    let mut out = String::new();
    for fam in &snap.families {
        out.push_str("# HELP ");
        out.push_str(&fam.name);
        out.push(' ');
        push_help(&mut out, &fam.help);
        out.push('\n');
        out.push_str("# TYPE ");
        out.push_str(&fam.name);
        out.push(' ');
        out.push_str(fam.kind.prom_type());
        out.push('\n');
        for (labels, value) in &fam.series {
            match value {
                Value::Counter(v) => {
                    sample(&mut out, &fam.name, "", labels, None, &v.to_string());
                }
                Value::Gauge(v) => {
                    sample(&mut out, &fam.name, "", labels, None, &v.to_string());
                }
                Value::Histogram(h) => {
                    let last = h
                        .buckets
                        .iter()
                        .rposition(|&c| c > 0)
                        .map(|i| i + 1)
                        .unwrap_or(0);
                    let mut cumulative = 0u64;
                    for (i, &count) in h.buckets.iter().take(last).enumerate() {
                        cumulative += count;
                        let bound = scale(2f64.powi(i as i32 + 1), h.unit);
                        let mut value = cumulative.to_string();
                        if let Some(ex) = h.exemplars.get(i).copied().flatten() {
                            value.push_str(&format!(
                                " # {{job_id=\"{}\"}} {}",
                                ex.job,
                                format_f64(scale(ex.value as f64, h.unit))
                            ));
                        }
                        sample(
                            &mut out,
                            &fam.name,
                            "_bucket",
                            labels,
                            Some(&format_f64(bound)),
                            &value,
                        );
                    }
                    sample(
                        &mut out,
                        &fam.name,
                        "_bucket",
                        labels,
                        Some("+Inf"),
                        &h.count().to_string(),
                    );
                    let sum = scale(h.sum as f64, h.unit);
                    sample(&mut out, &fam.name, "_sum", labels, None, &format_f64(sum));
                    sample(
                        &mut out,
                        &fam.name,
                        "_count",
                        labels,
                        None,
                        &h.count().to_string(),
                    );
                }
            }
        }
    }
    out
}

fn scale(v: f64, unit: Unit) -> f64 {
    match unit {
        Unit::None => v,
        Unit::Seconds => v / 1e9,
    }
}

/// Formats a float the way Prometheus expects: integral values without a
/// fraction, everything else in shortest round-trip form.
fn format_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

fn sample(
    out: &mut String,
    family: &str,
    suffix: &str,
    labels: &[(String, String)],
    le: Option<&str>,
    value: &str,
) {
    out.push_str(family);
    out.push_str(suffix);
    let has_labels = !labels.is_empty() || le.is_some();
    if has_labels {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(k);
            out.push_str("=\"");
            push_label_value(out, v);
            out.push('"');
        }
        if let Some(le) = le {
            if !first {
                out.push(',');
            }
            out.push_str("le=\"");
            out.push_str(le);
            out.push('"');
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

fn push_help(out: &mut String, help: &str) {
    for ch in help.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

fn push_label_value(out: &mut String, v: &str) {
    for ch in v.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Registry, Unit};

    #[test]
    fn golden_counter_and_gauge() {
        let reg = Registry::new();
        reg.counter("a_total", "Total as.", &[("kind", "x")]).add(3);
        reg.counter("a_total", "Total as.", &[("kind", "y")]).add(1);
        reg.gauge("b_level", "Level.", &[]).set(-2);
        let text = super::render(&reg.snapshot());
        assert_eq!(
            text,
            "# HELP a_total Total as.\n\
             # TYPE a_total counter\n\
             a_total{kind=\"x\"} 3\n\
             a_total{kind=\"y\"} 1\n\
             # HELP b_level Level.\n\
             # TYPE b_level gauge\n\
             b_level -2\n"
        );
    }

    /// Pins the exposition bytes of the wco hom-search counter families
    /// (registered from `cqfd-core::hom::publish_hom_metrics`): family
    /// order is alphabetical and label-free samples render bare, so a
    /// scrape diff across runs shows only the values.
    #[test]
    fn golden_wco_hom_search_families() {
        let reg = Registry::new();
        reg.counter(
            "cqfd_hom_intersection_steps_total",
            "Sorted-posting intersection element steps taken by the wco engine.",
            &[],
        )
        .add(42);
        reg.counter(
            "cqfd_homplan_cache_hits_total",
            "Wco variable-order plan-cache hits.",
            &[],
        )
        .add(7);
        reg.counter(
            "cqfd_homplan_cache_misses_total",
            "Wco variable-order plan-cache misses (orders computed).",
            &[],
        )
        .add(3);
        let text = super::render(&reg.snapshot());
        assert_eq!(
            text,
            "# HELP cqfd_hom_intersection_steps_total Sorted-posting intersection element \
             steps taken by the wco engine.\n\
             # TYPE cqfd_hom_intersection_steps_total counter\n\
             cqfd_hom_intersection_steps_total 42\n\
             # HELP cqfd_homplan_cache_hits_total Wco variable-order plan-cache hits.\n\
             # TYPE cqfd_homplan_cache_hits_total counter\n\
             cqfd_homplan_cache_hits_total 7\n\
             # HELP cqfd_homplan_cache_misses_total Wco variable-order plan-cache misses \
             (orders computed).\n\
             # TYPE cqfd_homplan_cache_misses_total counter\n\
             cqfd_homplan_cache_misses_total 3\n"
        );
    }

    #[test]
    fn golden_histogram_buckets_are_cumulative_and_ordered() {
        let reg = Registry::new();
        let h = reg.histogram("h_bytes", "Sizes.", &[], Unit::None);
        h.observe(1); // bucket 0, le 2
        h.observe(3); // bucket 1, le 4
        h.observe(3);
        let text = super::render(&reg.snapshot());
        assert_eq!(
            text,
            "# HELP h_bytes Sizes.\n\
             # TYPE h_bytes histogram\n\
             h_bytes_bucket{le=\"2\"} 1\n\
             h_bytes_bucket{le=\"4\"} 3\n\
             h_bytes_bucket{le=\"+Inf\"} 3\n\
             h_bytes_sum 7\n\
             h_bytes_count 3\n"
        );
    }

    #[test]
    fn label_and_help_escaping() {
        let reg = Registry::new();
        reg.counter("esc_total", "Back\\slash\nnewline.", &[("q", "a\"b\\c\nd")])
            .inc();
        let text = super::render(&reg.snapshot());
        assert!(text.contains("# HELP esc_total Back\\\\slash\\nnewline.\n"));
        assert!(text.contains("esc_total{q=\"a\\\"b\\\\c\\nd\"} 1\n"));
    }

    #[test]
    fn seconds_histograms_expose_base_units() {
        let reg = Registry::new();
        let h = reg.histogram("t_seconds", "Latency.", &[], Unit::Seconds);
        h.observe(1_500_000_000); // 1.5s in ns → bucket 30, le 2^31 ns ≈ 2.147s
        let text = super::render(&reg.snapshot());
        assert!(text.contains("t_seconds_sum 1.5\n"), "{text}");
        assert!(text.contains("le=\"2.147483648\""), "{text}");
        assert!(text.contains("t_seconds_count 1\n"));
    }
}
