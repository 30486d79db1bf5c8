//! Snapshot export: JSON for machines, a text table for humans.

use serde_json::{Map, Value};

use crate::Registry;

impl Registry {
    /// Renders every metric as a JSON tree:
    ///
    /// ```json
    /// {
    ///   "counters":   { "crawler.rss.torrents": 3072, ... },
    ///   "gauges":     { "sim.torrents": 3072, ... },
    ///   "histograms": { "span.tracker.announce.ns":
    ///       { "count": 9, "sum": 1290, "max": 410, "mean": 143.3,
    ///         "p50": 101.0, "p90": 380.5, "p99": 407.1 }, ... }
    /// }
    /// ```
    pub fn snapshot(&self) -> Value {
        let mut counters = Map::new();
        for (name, v) in self.counters() {
            counters.insert(name, Value::from(v));
        }
        let mut gauges = Map::new();
        for (name, v) in self.gauges() {
            gauges.insert(name, Value::from(v));
        }
        let mut histograms = Map::new();
        for (name, h) in self.histograms() {
            let mut m = Map::new();
            m.insert("count", Value::from(h.count()));
            m.insert("sum", Value::from(h.sum()));
            m.insert("max", Value::from(h.max()));
            m.insert("mean", Value::from(h.mean()));
            m.insert("p50", Value::from(h.quantile(0.50)));
            m.insert("p90", Value::from(h.quantile(0.90)));
            m.insert("p99", Value::from(h.quantile(0.99)));
            histograms.insert(name, Value::Object(m));
        }
        let mut root = Map::new();
        root.insert("counters", Value::Object(counters));
        root.insert("gauges", Value::Object(gauges));
        root.insert("histograms", Value::Object(histograms));
        Value::Object(root)
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Renders a human-readable report of `registry`.
///
/// Span histograms (named `span.*.ns`) come first, sorted by **total
/// recorded time, descending** — the top line is where the run's wall
/// clock went. Other histograms, then counters and gauges, follow in
/// name order.
pub fn text_report(registry: &Registry) -> String {
    let mut out = String::new();
    let histograms = registry.histograms();

    let mut spans: Vec<_> = histograms
        .iter()
        .filter(|(n, _)| n.starts_with("span.") && n.ends_with(".ns"))
        .collect();
    // Descending by total time, ties broken by name: equal totals
    // (e.g. zero-count spans) must not fall back to map order, or the
    // report stops being byte-deterministic.
    spans.sort_by(|(an, ah), (bn, bh)| bh.sum().cmp(&ah.sum()).then_with(|| an.cmp(bn)));
    if !spans.is_empty() {
        out.push_str("spans (by total time):\n");
        out.push_str(&format!(
            "  {:<40} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
            "span", "count", "total", "self", "mean", "p90", "max"
        ));
        for (name, h) in &spans {
            let short = name
                .strip_prefix("span.")
                .and_then(|n| n.strip_suffix(".ns"))
                .unwrap_or(name);
            let self_ns = registry.counter(&format!("span.{short}.self_ns")).value();
            out.push_str(&format!(
                "  {:<40} {:>7} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                short,
                h.count(),
                fmt_ns(h.sum() as f64),
                fmt_ns(self_ns as f64),
                fmt_ns(h.mean()),
                fmt_ns(h.quantile(0.9)),
                fmt_ns(h.max() as f64),
            ));
        }
    }

    let others: Vec<_> = histograms
        .iter()
        .filter(|(n, _)| !(n.starts_with("span.") && n.ends_with(".ns")))
        .collect();
    if !others.is_empty() {
        out.push_str("histograms:\n");
        for (name, h) in others {
            out.push_str(&format!(
                "  {:<40} count={} mean={:.1} p50={:.1} p90={:.1} max={}\n",
                name,
                h.count(),
                h.mean(),
                h.quantile(0.5),
                h.quantile(0.9),
                h.max(),
            ));
        }
    }

    let counters = registry.counters();
    // Span self-time counters are already folded into the span table.
    let counters: Vec<_> = counters
        .into_iter()
        .filter(|(n, _)| !(n.starts_with("span.") && n.ends_with(".self_ns")))
        .collect();
    if !counters.is_empty() {
        out.push_str("counters:\n");
        for (name, v) in counters {
            out.push_str(&format!("  {name:<40} {v}\n"));
        }
    }

    let gauges = registry.gauges();
    if !gauges.is_empty() {
        out.push_str("gauges:\n");
        for (name, v) in gauges {
            out.push_str(&format!("  {name:<40} {v}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_has_expected_shape() {
        let r = Registry::new();
        r.counter("c.events").add(5);
        r.gauge("g.level").set(-3);
        let h = r.histogram("h.sizes");
        for v in [1u64, 2, 4, 8, 100] {
            h.record(v);
        }
        let snap = r.snapshot();
        assert_eq!(snap["counters"]["c.events"].as_u64(), Some(5));
        assert_eq!(snap["gauges"]["g.level"].as_i64(), Some(-3));
        let hs = &snap["histograms"]["h.sizes"];
        assert_eq!(hs["count"].as_u64(), Some(5));
        assert_eq!(hs["sum"].as_u64(), Some(115));
        assert_eq!(hs["max"].as_u64(), Some(100));
        assert!(hs["p50"].as_f64().unwrap() > 0.0);
        assert!(hs["p99"].as_f64().unwrap() <= 101.0);
        // Round-trips through the JSON writer.
        let text = serde_json::to_string_pretty(&snap).unwrap();
        let back: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(back["counters"]["c.events"].as_u64(), Some(5));
    }

    #[test]
    fn text_report_sorts_spans_by_total_time() {
        let r = Registry::new();
        r.histogram("span.fast.ns").record(10);
        r.histogram("span.slow.ns").record(5_000_000_000);
        r.counter("span.slow.self_ns").add(5_000_000_000);
        r.counter("span.fast.self_ns").add(10);
        r.counter("crawler.polls").add(7);
        r.gauge("store.items").set(12);
        let report = text_report(&r);
        let slow_at = report.find("slow").expect("slow span listed");
        let fast_at = report.find("fast").expect("fast span listed");
        assert!(slow_at < fast_at, "slowest span first:\n{report}");
        assert!(report.contains("5.00s"));
        assert!(report.contains("crawler.polls"));
        assert!(report.contains("store.items"));
    }

    #[test]
    fn span_ties_break_by_name_and_snapshot_keys_are_deterministic() {
        // Two registries populated in opposite insertion orders must
        // render identical bytes: JSON keys sorted (BTreeMap-backed
        // registry), span table ties broken by name.
        let build = |reversed: bool| {
            let r = Registry::new();
            let names = ["span.bb.ns", "span.aa.ns", "span.cc.ns"];
            let iter: Vec<&str> = if reversed {
                names.iter().rev().copied().collect()
            } else {
                names.to_vec()
            };
            for n in iter {
                r.histogram(n).record(100); // equal totals: a three-way tie
                let short = n
                    .strip_prefix("span.")
                    .unwrap()
                    .strip_suffix(".ns")
                    .unwrap();
                r.counter(&format!("span.{short}.self_ns")).add(100);
            }
            r.counter("zz.total").add(1);
            r.counter("aa.total").add(1);
            r
        };
        let (a, b) = (build(false), build(true));
        assert_eq!(text_report(&a), text_report(&b));
        assert_eq!(
            serde_json::to_string(&a.snapshot()).unwrap(),
            serde_json::to_string(&b.snapshot()).unwrap(),
            "snapshot JSON key order must not depend on insertion order"
        );
        // Tie order is name order.
        let report = text_report(&a);
        let (aa, bb, cc) = (
            report.find("  aa ").unwrap(),
            report.find("  bb ").unwrap(),
            report.find("  cc ").unwrap(),
        );
        assert!(aa < bb && bb < cc, "tied spans sorted by name:\n{report}");
    }

    #[test]
    fn fmt_ns_picks_sane_units() {
        assert_eq!(fmt_ns(12.0), "12ns");
        assert_eq!(fmt_ns(12_500.0), "12.50us");
        assert_eq!(fmt_ns(12_500_000.0), "12.50ms");
        assert_eq!(fmt_ns(2_500_000_000.0), "2.50s");
    }
}
