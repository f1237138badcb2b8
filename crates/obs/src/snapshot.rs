//! Point-in-time metrics exposition: JSON and Prometheus-style text.

use crate::hist::HistSnapshot;
use std::fmt;

/// One series of a labeled counter family: `family{label_key="label_value"} value`.
#[derive(Debug, Clone)]
pub struct LabeledCounter {
    pub family: String,
    pub label_key: String,
    pub label_value: String,
    pub value: u64,
}

/// Everything the engine knows about itself at one instant: monotonic
/// counters, instantaneous gauges, latency histograms, and labeled
/// counter series. The engine assembles one of these
/// (`Database::metrics()`); this type only renders it.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistSnapshot)>,
    pub labeled: Vec<LabeledCounter>,
}

/// `buffer.page_read` → `buffer_page_read` (Prometheus label charset).
fn prom_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double quote, and newline must be backslash-escaped.
fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A metric family being assembled for exposition: its kind, HELP text,
/// and sample lines, grouped so `# HELP`/`# TYPE` are emitted exactly
/// once per family with all its samples contiguous (the text format
/// requires one group per family even after registry merges).
struct Family {
    kind: &'static str,
    help: String,
    samples: Vec<String>,
}

#[derive(Default)]
struct FamilySet {
    order: Vec<String>,
    by_name: std::collections::BTreeMap<String, usize>,
}

impl FamilySet {
    fn touch<'a>(
        &mut self,
        fams: &'a mut Vec<Family>,
        name: &str,
        kind: &'static str,
        help: &str,
    ) -> &'a mut Family {
        let idx = *self.by_name.entry(name.to_string()).or_insert_with(|| {
            self.order.push(name.to_string());
            fams.push(Family {
                kind,
                help: help.to_string(),
                samples: Vec::new(),
            });
            fams.len() - 1
        });
        &mut fams[idx]
    }
}

fn fmt_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v:.6}")
    }
}

impl MetricsSnapshot {
    /// Hand-rolled JSON object (the environment has no serde); names
    /// are engine-controlled identifiers, so no string escaping is
    /// needed beyond what the fixed grammar provides.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            s.push_str(&format!("{sep}\n    \"{k}\": {v}"));
        }
        s.push_str("\n  },\n  \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            s.push_str(&format!("{sep}\n    \"{k}\": {}", fmt_f64(*v)));
        }
        s.push_str("\n  },\n  \"labeled\": {");
        for (i, lc) in self.labeled.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            s.push_str(&format!(
                "{sep}\n    \"{}{{{}={}}}\": {}",
                lc.family, lc.label_key, lc.label_value, lc.value
            ));
        }
        s.push_str("\n  },\n  \"histograms\": {");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            s.push_str(&format!(
                "{sep}\n    \"{k}\": {{\"count\": {}, \"sum_ns\": {}, \"min_ns\": {}, \
                 \"max_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}",
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50(),
                h.p95(),
                h.p99()
            ));
        }
        s.push_str("\n  }\n}\n");
        s
    }

    /// Prometheus-style exposition text: counters and gauges as-is,
    /// histograms as summaries with quantile labels, labeled counter
    /// series under their family. Families are grouped with `# HELP`
    /// and `# TYPE` emitted exactly once each, duplicate counter
    /// samples (a merged registry can present the same counter twice)
    /// are summed, and label values are escaped.
    pub fn to_prometheus(&self) -> String {
        let mut fams: Vec<Family> = Vec::new();
        let mut set = FamilySet::default();

        // Bare counters: merge duplicates by exposition name (two bare
        // samples of one name would be an invalid scrape).
        let mut counter_totals: Vec<(String, String, u64)> = Vec::new();
        for (k, v) in &self.counters {
            let n = format!("aim2_{}", prom_name(k));
            match counter_totals.iter_mut().find(|(name, _, _)| *name == n) {
                Some((_, _, total)) => *total += v,
                None => counter_totals.push((n, k.clone(), *v)),
            }
        }
        for (n, help, v) in &counter_totals {
            let fam = set.touch(&mut fams, n, "counter", help);
            fam.samples.push(format!("{n} {v}"));
        }

        // Labeled counter series join their family's group (which may
        // already hold a bare sample of the same name).
        for lc in &self.labeled {
            let n = format!("aim2_{}", prom_name(&lc.family));
            let fam = set.touch(&mut fams, &n, "counter", &lc.family);
            fam.samples.push(format!(
                "{n}{{{}=\"{}\"}} {}",
                prom_name(&lc.label_key),
                escape_label_value(&lc.label_value),
                lc.value
            ));
        }

        // Gauges: duplicates keep the last value (a gauge is a level,
        // and the later registry wins after a merge).
        for (k, v) in &self.gauges {
            let n = format!("aim2_{}", prom_name(k));
            let fam = set.touch(&mut fams, &n, "gauge", k);
            let line = format!("{n} {}", fmt_f64(*v));
            fam.samples.clear();
            fam.samples.push(line);
        }

        // Histogram summaries: duplicates keep the first snapshot.
        for (k, h) in &self.histograms {
            let n = format!("aim2_{}_ns", prom_name(k));
            let fam = set.touch(&mut fams, &n, "summary", k);
            if !fam.samples.is_empty() {
                continue;
            }
            for (q, v) in [("0.5", h.p50()), ("0.95", h.p95()), ("0.99", h.p99())] {
                fam.samples.push(format!("{n}{{quantile=\"{q}\"}} {v}"));
            }
            fam.samples.push(format!("{n}_sum {}", h.sum));
            fam.samples.push(format!("{n}_count {}", h.count));
        }

        let mut s = String::new();
        for (name, fam) in set.order.iter().zip(&fams) {
            s.push_str(&format!("# HELP {name} {}\n", fam.help));
            s.push_str(&format!("# TYPE {name} {}\n", fam.kind));
            for line in &fam.samples {
                s.push_str(line);
                s.push('\n');
            }
        }
        s
    }
}

impl fmt::Display for MetricsSnapshot {
    /// Human-oriented table: counters, then gauges, then histogram
    /// quantiles in microseconds.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = |ns: u64| ns as f64 / 1e3;
        for (k, v) in &self.counters {
            if *v != 0 {
                writeln!(f, "{k:<34} {v}")?;
            }
        }
        for lc in &self.labeled {
            let key = format!("{}{{{}={}}}", lc.family, lc.label_key, lc.label_value);
            writeln!(f, "{key:<34} {}", lc.value)?;
        }
        for (k, v) in &self.gauges {
            writeln!(f, "{k:<34} {}", fmt_f64(*v))?;
        }
        for (k, h) in &self.histograms {
            if h.count == 0 {
                continue;
            }
            writeln!(
                f,
                "{k:<34} n={} p50={:.1}µs p95={:.1}µs p99={:.1}µs max={:.1}µs",
                h.count,
                us(h.p50()),
                us(h.p95()),
                us(h.p99()),
                us(h.max)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Histogram;

    fn sample() -> MetricsSnapshot {
        let h = Histogram::new();
        h.record(1_000);
        h.record(2_000);
        MetricsSnapshot {
            counters: vec![("buffer.hits".into(), 7)],
            gauges: vec![("buffer.hit_rate".into(), 0.875)],
            histograms: vec![("wal.fsync".into(), h.snapshot())],
            labeled: vec![],
        }
    }

    #[test]
    fn json_shape() {
        let j = sample().to_json();
        assert!(j.contains("\"buffer.hits\": 7"));
        assert!(j.contains("\"buffer.hit_rate\": 0.875000"));
        assert!(j.contains("\"wal.fsync\": {\"count\": 2"));
        // Balanced braces — cheap well-formedness check.
        assert_eq!(
            j.matches('{').count(),
            j.matches('}').count(),
            "unbalanced JSON: {j}"
        );
    }

    #[test]
    fn prometheus_shape() {
        let p = sample().to_prometheus();
        assert!(p.contains("# HELP aim2_buffer_hits buffer.hits"));
        assert!(p.contains("# TYPE aim2_buffer_hits counter"));
        assert!(p.contains("aim2_buffer_hits 7"));
        assert!(p.contains("# TYPE aim2_wal_fsync_ns summary"));
        assert!(p.contains("aim2_wal_fsync_ns{quantile=\"0.99\"}"));
        assert!(p.contains("aim2_wal_fsync_ns_count 2"));
    }

    #[test]
    fn prometheus_scrape_shape_after_registry_merge() {
        // A merged registry can present the same counter twice and mix
        // bare and labeled series of one family; the exposition must
        // still be one group per family with HELP/TYPE exactly once.
        let mut s = sample();
        s.counters.push(("buffer.hits".into(), 3)); // duplicate → summed
        s.labeled = vec![
            LabeledCounter {
                family: "net.queries".into(),
                label_key: "conn".into(),
                label_value: "1".into(),
                value: 4,
            },
            LabeledCounter {
                family: "net.queries".into(),
                label_key: "conn".into(),
                label_value: "evil\"conn\\\n".into(),
                value: 2,
            },
        ];
        // A bare total for the same family as the labeled series.
        s.counters.push(("net.queries".into(), 6));
        let p = s.to_prometheus();

        // TYPE/HELP exactly once per family, duplicates summed.
        assert_eq!(p.matches("# TYPE aim2_buffer_hits counter").count(), 1);
        assert_eq!(p.matches("# HELP aim2_buffer_hits ").count(), 1);
        assert!(p.contains("aim2_buffer_hits 10"));
        assert_eq!(p.matches("# TYPE aim2_net_queries counter").count(), 1);

        // Label values escaped per the exposition grammar.
        assert!(p.contains("aim2_net_queries{conn=\"1\"} 4"));
        assert!(p.contains("aim2_net_queries{conn=\"evil\\\"conn\\\\\\n\"} 2"));

        // All samples of a family are contiguous: after a family's TYPE
        // line, no second comment block interrupts until its samples
        // end. Concretely: every line either starts a new family (`#`)
        // or belongs to the family most recently announced.
        let mut current = String::new();
        for line in p.lines() {
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                current = rest.split(' ').next().unwrap().to_string();
            } else if !line.starts_with('#') {
                let metric = line.split(['{', ' ']).next().unwrap().to_string();
                let base = metric
                    .strip_suffix("_sum")
                    .or_else(|| metric.strip_suffix("_count"))
                    .unwrap_or(&metric);
                assert_eq!(base, current, "sample outside its family group: {line}");
            }
        }
    }

    #[test]
    fn display_suppresses_zero_counters() {
        let mut s = sample();
        s.counters.push(("buffer.misses".into(), 0));
        let text = s.to_string();
        assert!(text.contains("buffer.hits"));
        assert!(!text.contains("buffer.misses"));
    }
}
