//! Aggregated metrics: the counter/histogram half of the observability
//! layer, attached to serving reports and rendered by `repro`.

use crate::counter::{Counter, Histogram, Metric};

/// Snapshot of every non-zero counter and non-empty histogram a tracer
/// accumulated, in the fixed order of [`Counter::ALL`] / [`Metric::ALL`]
/// (never hash-map order), so two same-seed runs produce identical
/// reports.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsReport {
    /// Non-zero counters in [`Counter::ALL`] order.
    pub counters: Vec<(Counter, u64)>,
    /// Non-empty histograms in [`Metric::ALL`] order.
    pub histograms: Vec<(Metric, Histogram)>,
}

impl MetricsReport {
    /// A report with nothing recorded.
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds a report from the tracer's raw accumulation arrays, keeping
    /// only non-zero counters and non-empty histograms.
    pub(crate) fn from_raw(counters: &[u64; Counter::COUNT], histograms: &[Histogram]) -> Self {
        MetricsReport {
            counters: Counter::ALL
                .iter()
                .filter(|c| counters[c.index()] != 0)
                .map(|&c| (c, counters[c.index()]))
                .collect(),
            histograms: Metric::ALL
                .iter()
                .filter(|m| !histograms[m.index()].is_empty())
                .map(|&m| (m, histograms[m.index()].clone()))
                .collect(),
        }
    }

    /// Value of one counter (0 if it never fired).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .iter()
            .find(|(c, _)| *c == counter)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Histogram for one metric, if anything was recorded.
    pub fn histogram(&self, metric: Metric) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(m, _)| *m == metric)
            .map(|(_, h)| h)
    }

    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Renders the report as an aligned plain-text table (the `repro`
    /// console output).
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("  (no metrics recorded)\n");
            return out;
        }
        if !self.counters.is_empty() {
            out.push_str("  counter                        value  unit\n");
            for &(c, v) in &self.counters {
                out.push_str(&format!("  {:<28} {:>9}  {}\n", c.name(), v, c.unit()));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str(
                "  histogram (ns)        count       mean        p50        p99        max\n",
            );
            for (m, h) in &self.histograms {
                out.push_str(&format!(
                    "  {:<18} {:>8} {:>10.0} {:>10} {:>10} {:>10}\n",
                    m.name(),
                    h.count(),
                    h.mean_ns(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.max_ns(),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_raw_keeps_only_nonzero_in_all_order() {
        let mut counters = [0u64; Counter::COUNT];
        counters[Counter::ExpertMisses.index()] = 3;
        counters[Counter::PmuAccessCycles.index()] = 9;
        let mut hists = vec![Histogram::new(); Metric::COUNT];
        hists[Metric::Request.index()].record(42);
        let r = MetricsReport::from_raw(&counters, &hists);
        // PmuAccessCycles precedes ExpertMisses in Counter::ALL.
        assert_eq!(
            r.counters,
            vec![(Counter::PmuAccessCycles, 9), (Counter::ExpertMisses, 3)]
        );
        assert_eq!(r.counter(Counter::ExpertHits), 0);
        assert_eq!(r.histograms.len(), 1);
        assert!(r.histogram(Metric::Request).is_some());
        assert!(r.histogram(Metric::KernelRun).is_none());
    }

    #[test]
    fn table_renders_names_and_units() {
        let mut counters = [0u64; Counter::COUNT];
        counters[Counter::DmaTransfers.index()] = 12;
        let mut hists = vec![Histogram::new(); Metric::COUNT];
        hists[Metric::DmaTransfer.index()].record(1000);
        let r = MetricsReport::from_raw(&counters, &hists);
        let t = r.render_table();
        assert!(t.contains("dma_transfers"));
        assert!(t.contains("transfers"));
        assert!(t.contains("dma_transfer_ns"));
    }

    #[test]
    fn empty_report() {
        let r = MetricsReport::empty();
        assert!(r.is_empty());
        assert!(r.render_table().contains("no metrics"));
    }

    #[test]
    fn zero_sample_gauges_render_zero_not_nan() {
        // Regression for the empty-window-NaN class of bug: a histogram
        // whose only samples are zero-valued, and a hand-built report
        // carrying a fully empty histogram, must both render finite
        // numbers (mean 0, quantiles 0) — never NaN.
        let mut counters = [0u64; Counter::COUNT];
        counters[Counter::AlertsFired.index()] = 0; // stays filtered out
        let mut hists = vec![Histogram::new(); Metric::COUNT];
        hists[Metric::Request.index()].record(0);
        hists[Metric::Request.index()].record(0);
        let r = MetricsReport::from_raw(&counters, &hists);
        let h = r.histogram(Metric::Request).unwrap();
        assert_eq!(h.mean_ns(), 0.0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.min_ns(), 0);
        let table = r.render_table();
        assert!(!table.contains("NaN"), "table: {table}");

        // A report constructed with an empty histogram (bypassing the
        // from_raw filter) still renders finite stats.
        let forced = MetricsReport {
            counters: vec![],
            histograms: vec![(Metric::Request, Histogram::new())],
        };
        let empty = forced.histogram(Metric::Request).unwrap();
        assert_eq!(empty.mean_ns(), 0.0);
        assert_eq!(empty.quantile(0.5), 0);
        assert!(!forced.render_table().contains("NaN"));
    }
}
