//! Labeled series identities and fixed-capacity downsampling buffers.
//!
//! A series is identified by a [`SeriesKey`] — a metric name plus a
//! sorted [`LabelSet`] (`tenant=`, `node=`, `slo_class=`, …). Samples
//! land in a [`SeriesBuffer`], which keeps two views of the data under a
//! hard memory bound:
//!
//! - a **recent window**: the last `recent_capacity` raw samples,
//!   verbatim — what alert rules and post-mortem bundles read;
//! - a **downsampled ring**: the whole run at degrading resolution.
//!   When the ring reaches capacity, adjacent buckets merge pairwise
//!   (min/max/sum/count combine exactly), halving the point count while
//!   preserving the full time range. Compaction is a pure function of
//!   the sample sequence, so two same-seed runs produce byte-identical
//!   buffers.
//!
//! Everything is sim-clock-timestamped ([`sn_arch::TimeSecs`]) and
//! allocation happens only on recording paths — a disabled observability
//! pipeline never constructs a buffer at all.

use serde::{Deserialize, Serialize};
use sn_arch::TimeSecs;
use std::collections::VecDeque;

/// A sorted, deduplicated set of `key=value` labels. Ordering is by the
/// sorted pair list, so any two sets built from the same pairs — in any
/// order — compare equal and sort identically.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct LabelSet(Vec<(String, String)>);

impl LabelSet {
    /// An empty label set (a global, unlabeled series).
    pub fn empty() -> Self {
        LabelSet(Vec::new())
    }

    /// Builds a set from pairs; keys sort and deduplicate (pairs sort
    /// by key then value and dedup keeps the first of each key's run,
    /// so the smallest value for a repeated key wins).
    pub fn from_pairs(pairs: &[(&str, &str)]) -> Self {
        let mut v: Vec<(String, String)> = pairs
            .iter()
            .map(|&(k, val)| (k.to_string(), val.to_string()))
            .collect();
        v.sort();
        v.dedup_by(|a, b| a.0 == b.0);
        LabelSet(v)
    }

    /// The sorted pairs.
    pub fn pairs(&self) -> &[(String, String)] {
        &self.0
    }

    /// Value of one label, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Whether no labels are set.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Renders as `{k="v",k2="v2"}` (empty string for no labels) — the
    /// display form used in tables and alert messages.
    pub fn render(&self) -> String {
        if self.0.is_empty() {
            return String::new();
        }
        let body: Vec<String> = self.0.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("{{{}}}", body.join(","))
    }
}

/// Identity of one time series: metric name plus labels.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SeriesKey {
    /// Metric name (snake_case).
    pub name: String,
    /// Label dimensions.
    pub labels: LabelSet,
}

impl SeriesKey {
    /// Builds a key from a name and label pairs.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        SeriesKey {
            name: name.to_string(),
            labels: LabelSet::from_pairs(labels),
        }
    }

    /// `name{labels}` display form.
    pub fn render(&self) -> String {
        format!("{}{}", self.name, self.labels.render())
    }
}

/// What a series measures — determines how wave-boundary sampling
/// treats it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Point-in-time value set during the wave; sampled only on waves
    /// that set it.
    Gauge,
    /// Per-wave delta, accumulated during the wave and sampled every
    /// wave once the series exists (0.0 on untouched waves) — dense, so
    /// windowed sums over it are well-defined.
    Counter,
}

/// One raw sample: the value a series had at a wave boundary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Wave index the sample closed.
    pub wave: usize,
    /// Sim-clock timestamp (seconds of model time).
    pub t: TimeSecs,
    /// Gauge value or counter delta.
    pub value: f64,
}

/// One bucket of the downsampled ring: an aggregate over a contiguous
/// span of waves. A freshly pushed sample is a bucket of one; compaction
/// merges neighbours exactly (min/min, max/max, sum/sum, count/count).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bucket {
    /// First wave the bucket covers.
    pub wave_first: usize,
    /// Last wave the bucket covers.
    pub wave_last: usize,
    /// Sim-clock of the first covered sample.
    pub t_first: TimeSecs,
    /// Sim-clock of the last covered sample.
    pub t_last: TimeSecs,
    /// Smallest covered sample.
    pub min: f64,
    /// Largest covered sample.
    pub max: f64,
    /// Sum of covered samples.
    pub sum: f64,
    /// Covered sample count.
    pub count: u64,
}

impl Bucket {
    fn of(s: Sample) -> Self {
        Bucket {
            wave_first: s.wave,
            wave_last: s.wave,
            t_first: s.t,
            t_last: s.t,
            min: s.value,
            max: s.value,
            sum: s.value,
            count: 1,
        }
    }

    fn merge(self, other: Bucket) -> Bucket {
        Bucket {
            wave_first: self.wave_first,
            wave_last: other.wave_last,
            t_first: self.t_first,
            t_last: other.t_last,
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            sum: self.sum + other.sum,
            count: self.count + other.count,
        }
    }

    /// Mean of the covered samples (0.0 for an impossible empty bucket).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Fixed-capacity storage for one series: recent raw window plus the
/// full-run downsampling ring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesBuffer {
    kind: MetricKind,
    ring_capacity: usize,
    recent_capacity: usize,
    ring: Vec<Bucket>,
    recent: VecDeque<Sample>,
    total_samples: u64,
}

impl SeriesBuffer {
    /// An empty buffer. Capacities below 2 are promoted to 2 so pairwise
    /// compaction is always possible.
    pub fn new(kind: MetricKind, ring_capacity: usize, recent_capacity: usize) -> Self {
        SeriesBuffer {
            kind,
            ring_capacity: ring_capacity.max(2),
            recent_capacity: recent_capacity.max(2),
            ring: Vec::new(),
            recent: VecDeque::new(),
            total_samples: 0,
        }
    }

    /// Gauge or counter.
    pub fn kind(&self) -> MetricKind {
        self.kind
    }

    /// Records one wave-boundary sample.
    pub fn push(&mut self, sample: Sample) {
        if self.recent.len() == self.recent_capacity {
            self.recent.pop_front();
        }
        self.recent.push_back(sample);
        self.ring.push(Bucket::of(sample));
        self.total_samples += 1;
        if self.ring.len() >= self.ring_capacity {
            self.compact();
        }
    }

    /// Halves the ring by merging adjacent bucket pairs; an odd trailing
    /// bucket is kept as-is.
    fn compact(&mut self) {
        let mut merged = Vec::with_capacity(self.ring.len() / 2 + 1);
        let mut it = self.ring.drain(..);
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => merged.push(a.merge(b)),
                None => merged.push(a),
            }
        }
        drop(it);
        self.ring = merged;
    }

    /// The downsampled full-run ring, oldest first.
    pub fn buckets(&self) -> &[Bucket] {
        &self.ring
    }

    /// The raw recent window, oldest first.
    pub fn recent(&self) -> impl Iterator<Item = &Sample> {
        self.recent.iter()
    }

    /// The last `n` raw samples, oldest first (fewer when the window
    /// holds fewer).
    pub fn last_n(&self, n: usize) -> Vec<Sample> {
        let skip = self.recent.len().saturating_sub(n);
        self.recent.iter().skip(skip).copied().collect()
    }

    /// Number of raw samples in the recent window.
    pub fn recent_len(&self) -> usize {
        self.recent.len()
    }

    /// Latest raw sample, if any.
    pub fn last(&self) -> Option<Sample> {
        self.recent.back().copied()
    }

    /// Sum of the last `n` raw samples (0.0 when empty).
    pub fn window_sum(&self, n: usize) -> f64 {
        let skip = self.recent.len().saturating_sub(n);
        self.recent.iter().skip(skip).map(|s| s.value).sum()
    }

    /// Mean of the last `n` raw samples (0.0 when empty — no NaN).
    pub fn window_mean(&self, n: usize) -> f64 {
        let skip = self.recent.len().saturating_sub(n);
        let len = self.recent.len() - skip;
        if len == 0 {
            0.0
        } else {
            self.window_sum(n) / len as f64
        }
    }

    /// Samples recorded over the buffer's lifetime (compaction never
    /// loses mass: the ring's counts always sum to this).
    pub fn total_samples(&self) -> u64 {
        self.total_samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample(wave: usize, value: f64) -> Sample {
        Sample {
            wave,
            t: TimeSecs::from_millis(wave as f64),
            value,
        }
    }

    #[test]
    fn label_sets_sort_and_dedup() {
        let a = LabelSet::from_pairs(&[("tenant", "chat"), ("node", "0")]);
        let b = LabelSet::from_pairs(&[("node", "0"), ("tenant", "chat")]);
        assert_eq!(a, b);
        assert_eq!(a.get("tenant"), Some("chat"));
        assert_eq!(a.get("missing"), None);
        assert_eq!(a.render(), "{node=\"0\",tenant=\"chat\"}");
        assert_eq!(LabelSet::empty().render(), "");
        // Repeated key: one survives.
        let c = LabelSet::from_pairs(&[("k", "a"), ("k", "b")]);
        assert_eq!(c.pairs().len(), 1);
    }

    #[test]
    fn series_keys_order_deterministically() {
        let a = SeriesKey::new("shed", &[("tenant", "a")]);
        let b = SeriesKey::new("shed", &[("tenant", "b")]);
        let c = SeriesKey::new("waves", &[]);
        let mut v = vec![c.clone(), b.clone(), a.clone()];
        v.sort();
        assert_eq!(v, vec![a, b, c]);
    }

    #[test]
    fn recent_window_keeps_the_tail() {
        let mut buf = SeriesBuffer::new(MetricKind::Gauge, 64, 4);
        for i in 0..10 {
            buf.push(sample(i, i as f64));
        }
        let recent: Vec<usize> = buf.recent().map(|s| s.wave).collect();
        assert_eq!(recent, vec![6, 7, 8, 9]);
        assert_eq!(buf.last().unwrap().wave, 9);
        assert_eq!(buf.last_n(2).len(), 2);
        assert_eq!(buf.last_n(100).len(), 4);
        assert_eq!(buf.recent_len(), 4);
        assert_eq!(buf.window_sum(2), 8.0 + 9.0);
        assert!((buf.window_mean(4) - 7.5).abs() < 1e-12);
    }

    #[test]
    fn empty_window_stats_are_zero_not_nan() {
        let buf = SeriesBuffer::new(MetricKind::Counter, 8, 8);
        assert_eq!(buf.window_sum(5), 0.0);
        assert_eq!(buf.window_mean(5), 0.0);
        assert!(buf.last().is_none());
    }

    #[test]
    fn ring_compacts_pairwise_and_preserves_mass() {
        let mut buf = SeriesBuffer::new(MetricKind::Counter, 8, 8);
        for i in 0..64 {
            buf.push(sample(i, 1.0));
        }
        assert!(buf.buckets().len() < 8, "ring stays under capacity");
        let total: u64 = buf.buckets().iter().map(|b| b.count).sum();
        assert_eq!(total, 64, "compaction never loses samples");
        assert_eq!(buf.total_samples(), 64);
        // Full time range preserved: first bucket starts at wave 0, last
        // ends at wave 63, and buckets are contiguous and ordered.
        assert_eq!(buf.buckets().first().unwrap().wave_first, 0);
        assert_eq!(buf.buckets().last().unwrap().wave_last, 63);
        for w in buf.buckets().windows(2) {
            assert_eq!(w[0].wave_last + 1, w[1].wave_first);
        }
    }

    #[test]
    fn bucket_aggregates_are_exact() {
        let mut buf = SeriesBuffer::new(MetricKind::Gauge, 2, 8);
        buf.push(sample(0, 3.0));
        buf.push(sample(1, 5.0)); // hits capacity 2 -> compacts to 1
        assert_eq!(buf.buckets().len(), 1);
        let b = buf.buckets()[0];
        assert_eq!(b.min, 3.0);
        assert_eq!(b.max, 5.0);
        assert_eq!(b.sum, 8.0);
        assert_eq!(b.count, 2);
        assert!((b.mean() - 4.0).abs() < 1e-12);
    }

    proptest! {
        /// Mass conservation and span coverage hold for any sample count.
        #[test]
        fn compaction_conserves_mass(n in 1usize..500, cap in 2usize..32) {
            let mut buf = SeriesBuffer::new(MetricKind::Counter, cap, 16);
            for i in 0..n {
                buf.push(sample(i, (i % 7) as f64));
            }
            let total: u64 = buf.buckets().iter().map(|b| b.count).sum();
            prop_assert_eq!(total, n as u64);
            prop_assert!(buf.buckets().len() <= cap.max(2));
            prop_assert_eq!(buf.buckets().first().unwrap().wave_first, 0);
            prop_assert_eq!(buf.buckets().last().unwrap().wave_last, n - 1);
            let sum: f64 = buf.buckets().iter().map(|b| b.sum).sum();
            let direct: f64 = (0..n).map(|i| (i % 7) as f64).sum();
            prop_assert!((sum - direct).abs() < 1e-9);
        }
    }
}
