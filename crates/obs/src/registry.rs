//! The labeled metric registry: a deterministic map from [`SeriesKey`]
//! to live values, sampled into [`SeriesBuffer`]s at wave boundaries.
//!
//! During a wave the serving loop sets gauges (`gauge`) and accumulates
//! counter deltas (`add`); at the wave boundary [`MetricRegistry::sample`]
//! flushes every touched gauge and every known counter (counters sample
//! densely — 0.0 on untouched waves — so windowed rates over them are
//! well-defined). Storage is a key-sorted `Vec`, so iteration order —
//! and therefore every export — is a pure function of the recorded keys,
//! never of hash state.
//!
//! The recording hot path ([`MetricRegistry::gauge_parts`] /
//! [`MetricRegistry::add_parts`]) looks a series up by *borrowed* name
//! and label parts — a binary search comparing `&str` against the
//! stored key — so the per-wave instrumentation in the serving loop
//! allocates a [`SeriesKey`] only the first time a series is touched,
//! not on every call. The fast path requires the label slice already in
//! canonical form (strictly sorted by key, no duplicates); anything
//! else falls back to the allocating [`SeriesKey::new`] normalization,
//! so both paths produce byte-identical exports.

use crate::series::{MetricKind, Sample, SeriesBuffer, SeriesKey};
use sn_arch::TimeSecs;
use std::cmp::Ordering;

/// Sizing knobs for per-series storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegistryConfig {
    /// Downsampling ring capacity per series (buckets kept for the whole
    /// run; compaction halves resolution when full).
    pub ring_capacity: usize,
    /// Raw recent-window capacity per series (samples kept verbatim for
    /// alert evaluation and post-mortem bundles).
    pub recent_capacity: usize,
}

impl Default for RegistryConfig {
    fn default() -> Self {
        RegistryConfig {
            ring_capacity: 256,
            recent_capacity: 128,
        }
    }
}

#[derive(Debug, Clone)]
struct SeriesState {
    buffer: SeriesBuffer,
    /// Gauge: value set this wave, if any. Counter: delta accumulated
    /// this wave.
    pending: Option<f64>,
}

/// Compares a stored key against borrowed (name, canonical labels)
/// parts, consistent with `SeriesKey`'s derived `Ord` when the label
/// slice is canonical (strictly key-sorted: key order then decides, as
/// duplicates are impossible).
fn cmp_parts(key: &SeriesKey, name: &str, labels: &[(&str, &str)]) -> Ordering {
    match key.name.as_str().cmp(name) {
        Ordering::Equal => {}
        other => return other,
    }
    for (stored, part) in key.labels.pairs().iter().zip(labels) {
        match (stored.0.as_str(), stored.1.as_str()).cmp(part) {
            Ordering::Equal => {}
            other => return other,
        }
    }
    key.labels.pairs().len().cmp(&labels.len())
}

/// Whether a label slice is already in canonical form: strictly sorted
/// by key, therefore duplicate-free. Canonical slices can skip the
/// allocating sort/dedup normalization.
fn is_canonical(labels: &[(&str, &str)]) -> bool {
    labels.windows(2).all(|w| w[0].0 < w[1].0)
}

/// Deterministic labeled-series store. See the module docs for the
/// sampling contract.
#[derive(Debug, Clone)]
pub struct MetricRegistry {
    config: RegistryConfig,
    /// Sorted by key; binary-searched on both the owned-key and the
    /// borrowed-parts paths.
    series: Vec<(SeriesKey, SeriesState)>,
}

impl MetricRegistry {
    /// An empty registry with the given sizing.
    pub fn new(config: RegistryConfig) -> Self {
        MetricRegistry {
            config,
            series: Vec::new(),
        }
    }

    fn fresh_state(&self, kind: MetricKind) -> SeriesState {
        SeriesState {
            buffer: SeriesBuffer::new(kind, self.config.ring_capacity, self.config.recent_capacity),
            pending: None,
        }
    }

    fn state(&mut self, key: SeriesKey, kind: MetricKind) -> &mut SeriesState {
        let idx = match self.series.binary_search_by(|(k, _)| k.cmp(&key)) {
            Ok(i) => i,
            Err(i) => {
                let state = self.fresh_state(kind);
                self.series.insert(i, (key, state));
                i
            }
        };
        &mut self.series[idx].1
    }

    /// The hot-path lookup: finds (or creates) a series from borrowed
    /// parts. Only called with canonical labels, so the comparison — and
    /// a first-touch key construction — match `SeriesKey::new` exactly.
    fn state_parts(
        &mut self,
        name: &str,
        labels: &[(&str, &str)],
        kind: MetricKind,
    ) -> &mut SeriesState {
        debug_assert!(is_canonical(labels));
        let idx = match self
            .series
            .binary_search_by(|(k, _)| cmp_parts(k, name, labels))
        {
            Ok(i) => i,
            Err(i) => {
                let state = self.fresh_state(kind);
                self.series.insert(i, (SeriesKey::new(name, labels), state));
                i
            }
        };
        &mut self.series[idx].1
    }

    /// Sets a gauge for the current wave (last write in a wave wins).
    pub fn gauge(&mut self, key: SeriesKey, value: f64) {
        self.state(key, MetricKind::Gauge).pending = Some(value);
    }

    /// Adds to a counter's delta for the current wave.
    pub fn add(&mut self, key: SeriesKey, delta: f64) {
        let state = self.state(key, MetricKind::Counter);
        state.pending = Some(state.pending.unwrap_or(0.0) + delta);
    }

    /// [`MetricRegistry::gauge`] from borrowed parts: allocation-free
    /// for an existing series when `labels` is canonical (strictly
    /// key-sorted); falls back to the normalizing path otherwise.
    pub fn gauge_parts(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        if is_canonical(labels) {
            self.state_parts(name, labels, MetricKind::Gauge).pending = Some(value);
        } else {
            self.gauge(SeriesKey::new(name, labels), value);
        }
    }

    /// [`MetricRegistry::add`] from borrowed parts: allocation-free for
    /// an existing series when `labels` is canonical (strictly
    /// key-sorted); falls back to the normalizing path otherwise.
    pub fn add_parts(&mut self, name: &str, labels: &[(&str, &str)], delta: f64) {
        if is_canonical(labels) {
            let state = self.state_parts(name, labels, MetricKind::Counter);
            state.pending = Some(state.pending.unwrap_or(0.0) + delta);
        } else {
            self.add(SeriesKey::new(name, labels), delta);
        }
    }

    /// Closes the wave: flushes touched gauges and all counters (dense)
    /// into their buffers, clearing pending values.
    pub fn sample(&mut self, wave: usize, t: TimeSecs) {
        for (_, state) in self.series.iter_mut() {
            let value = match (state.buffer.kind(), state.pending.take()) {
                (_, Some(v)) => v,
                (MetricKind::Counter, None) => 0.0,
                (MetricKind::Gauge, None) => continue,
            };
            state.buffer.push(Sample { wave, t, value });
        }
    }

    /// Looks up one series' buffer.
    pub fn buffer(&self, key: &SeriesKey) -> Option<&SeriesBuffer> {
        self.series
            .binary_search_by(|(k, _)| k.cmp(key))
            .ok()
            .map(|i| &self.series[i].1.buffer)
    }

    /// All series in deterministic (sorted-key) order.
    pub fn iter(&self) -> impl Iterator<Item = (&SeriesKey, &SeriesBuffer)> {
        self.series.iter().map(|(k, s)| (k, &s.buffer))
    }

    /// All series whose metric name matches, sorted by labels.
    pub fn by_name<'a>(
        &'a self,
        name: &'a str,
    ) -> impl Iterator<Item = (&'a SeriesKey, &'a SeriesBuffer)> {
        self.iter().filter(move |(k, _)| k.name == name)
    }

    /// Number of distinct series recorded.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(name: &str, labels: &[(&str, &str)]) -> SeriesKey {
        SeriesKey::new(name, labels)
    }

    #[test]
    fn gauges_sample_only_when_set() {
        let mut reg = MetricRegistry::new(RegistryConfig::default());
        reg.gauge(key("depth", &[]), 3.0);
        reg.sample(0, TimeSecs::from_millis(1.0));
        reg.sample(1, TimeSecs::from_millis(2.0)); // untouched wave
        reg.gauge(key("depth", &[]), 5.0);
        reg.sample(2, TimeSecs::from_millis(3.0));
        let buf = reg.buffer(&key("depth", &[])).unwrap();
        let waves: Vec<usize> = buf.recent().map(|s| s.wave).collect();
        assert_eq!(waves, vec![0, 2], "wave 1 produced no gauge sample");
    }

    #[test]
    fn counters_sample_densely_once_created() {
        let mut reg = MetricRegistry::new(RegistryConfig::default());
        reg.add(key("shed", &[("tenant", "a")]), 2.0);
        reg.sample(0, TimeSecs::from_millis(1.0));
        reg.sample(1, TimeSecs::from_millis(2.0)); // untouched -> 0.0
        reg.add(key("shed", &[("tenant", "a")]), 1.0);
        reg.add(key("shed", &[("tenant", "a")]), 1.0);
        reg.sample(2, TimeSecs::from_millis(3.0));
        let buf = reg.buffer(&key("shed", &[("tenant", "a")])).unwrap();
        let vals: Vec<f64> = buf.recent().map(|s| s.value).collect();
        assert_eq!(vals, vec![2.0, 0.0, 2.0]);
        assert_eq!(buf.window_sum(3), 4.0);
    }

    /// Renders the full registry state — keys, kinds, and every recent
    /// sample — so two registries can be compared byte-for-byte.
    fn dump(reg: &MetricRegistry) -> String {
        let mut out = String::new();
        for (key, buf) in reg.iter() {
            out.push_str(&format!("{} {:?}\n", key.render(), buf.kind()));
            for s in buf.recent() {
                out.push_str(&format!("  {} {:?} {:?}\n", s.wave, s.t, s.value));
            }
        }
        out
    }

    /// One test recording: metric name, label slice, value.
    type Recording<'a> = (&'a str, &'a [(&'a str, &'a str)], f64);

    #[test]
    fn parts_path_is_byte_identical_to_owned_key_path() {
        // Same recordings through the borrowed-parts hot path (canonical,
        // unsorted, and duplicate-key label slices) and through the
        // allocating owned-key path must leave identical state.
        let recordings: [Recording; 5] = [
            (
                "lat",
                &[("slo_class", "interactive"), ("tenant", "t0")],
                4.0,
            ),
            (
                "lat",
                &[("tenant", "t0"), ("slo_class", "interactive")],
                7.0,
            ),
            ("depth", &[], 3.0),
            ("shed", &[("reason", "queue-full"), ("tenant", "t1")], 2.0),
            (
                "shed",
                &[
                    ("tenant", "t1"),
                    ("reason", "queue-full"),
                    ("reason", "zzz"),
                ],
                1.0,
            ),
        ];
        let mut via_parts = MetricRegistry::new(RegistryConfig::default());
        let mut via_keys = MetricRegistry::new(RegistryConfig::default());
        for (wave, &(name, labels, value)) in recordings.iter().enumerate() {
            if name == "shed" {
                via_parts.add_parts(name, labels, value);
                via_keys.add(SeriesKey::new(name, labels), value);
            } else {
                via_parts.gauge_parts(name, labels, value);
                via_keys.gauge(SeriesKey::new(name, labels), value);
            }
            via_parts.sample(wave, TimeSecs::from_millis(wave as f64));
            via_keys.sample(wave, TimeSecs::from_millis(wave as f64));
        }
        assert_eq!(dump(&via_parts), dump(&via_keys));
        // The unsorted and duplicate-key slices normalized onto the
        // canonical series rather than creating new ones.
        assert_eq!(via_parts.len(), 3);
    }

    #[test]
    fn iteration_order_is_sorted_not_insertion() {
        let mut reg = MetricRegistry::new(RegistryConfig::default());
        reg.gauge(key("z_metric", &[]), 1.0);
        reg.gauge(key("a_metric", &[("tenant", "b")]), 1.0);
        reg.gauge(key("a_metric", &[("tenant", "a")]), 1.0);
        reg.sample(0, TimeSecs::ZERO);
        let names: Vec<String> = reg.iter().map(|(k, _)| k.render()).collect();
        assert_eq!(
            names,
            vec![
                "a_metric{tenant=\"a\"}",
                "a_metric{tenant=\"b\"}",
                "z_metric"
            ]
        );
        assert_eq!(reg.by_name("a_metric").count(), 2);
        assert_eq!(reg.len(), 3);
    }
}
