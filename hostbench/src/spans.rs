//! Host-time spans recorded by the benchmark around its calls into each
//! library crate. Spans live in memory for the whole run and are written
//! out once at the end; every span of one op carries that op's id.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Op the span belongs to.
    pub op: u64,
    /// Layer name, `crate.module[.call]`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in ns.
    pub dur_ns: u64,
}

/// In-memory span recorder. When disabled, [`Spans::span`] only calls
/// its closure, so the plain run pays one branch per layer call.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            epoch: Instant::now(),
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off between ops.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags every following span with `op`.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.open.last().copied(),
            start_ns: nanos(start - self.epoch),
            dur_ns: 0,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].dur_ns = nanos(start.elapsed());
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-layer totals over every recorded span.
    pub fn layers(&self) -> BTreeMap<&'static str, Layer> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let layer = layers.entry(s.name).or_default();
            layer.calls += 1;
            layer.busy_ns += s.dur_ns;
            layer.self_ns += s.dur_ns.saturating_sub(children);
        }
        layers
    }

    /// Chrome-trace JSON (loadable in Perfetto) of every span.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"op\":{},\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.op,
                i,
                parent
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// One row of the per-layer table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Layer {
    /// Spans recorded under this name.
    pub calls: u64,
    /// Sum of span durations, ns.
    pub busy_ns: u64,
    /// Sum of span durations minus their direct children, ns.
    pub self_ns: u64,
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut sp = Spans::new(true);
        sp.begin_op(7);
        sp.span("outer", |sp| {
            sp.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let layers = sp.layers();
        let outer = layers["outer"];
        let inner = layers["inner"];
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.busy_ns >= 2_000_000);
        assert_eq!(outer.self_ns, outer.busy_ns - inner.busy_ns);
        assert!(sp.spans().iter().all(|s| s.op == 7));
        assert_eq!(sp.spans()[1].parent, Some(0));
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut sp = Spans::new(false);
        let v = sp.span("outer", |sp| sp.span("inner", |_| 3));
        assert_eq!(v, 3);
        assert!(sp.spans().is_empty());
    }
}
