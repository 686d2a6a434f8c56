//! Structured trace events: the timeline half of the observability layer.
//!
//! Events map one-to-one onto the Chrome trace format (see [`crate::chrome`]):
//! a [`Track`] becomes a process row in Perfetto, complete events become
//! duration slices, counter events become counter tracks, and instants
//! become markers.

/// A timeline row: each instrumented subsystem gets its own process id in
/// the Chrome trace so Perfetto groups its events together.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Track {
    /// On-chip cycle-level simulation (`sn-rdusim`): PCU/PMU occupancy,
    /// bank conflicts, RDN credit stalls. Timestamps on this track are in
    /// *simulated cycles*, rendered at 1 cycle = 1 ns (nominal 1 GHz).
    Rdusim,
    /// Off-chip memory traffic (`sn-memsim`): DMA transfers per route,
    /// queue depth, per-tier bandwidth.
    Memsim,
    /// Kernel launches and execution sections (`sn-runtime`).
    Runtime,
    /// CoE serving (`sn-coe`): router decisions, expert switches, per
    /// prompt execution, fault recovery.
    Coe,
    /// Multi-node serving (`sn-coe::cluster`): per-node lanes keyed by the
    /// event's thread id.
    Cluster,
}

impl Track {
    /// Every track, in process-id order.
    pub const ALL: [Track; 5] = [
        Track::Rdusim,
        Track::Memsim,
        Track::Runtime,
        Track::Coe,
        Track::Cluster,
    ];

    /// Stable process id used in the Chrome trace (1-based; 0 is reserved).
    pub const fn pid(self) -> u32 {
        match self {
            Track::Rdusim => 1,
            Track::Memsim => 2,
            Track::Runtime => 3,
            Track::Coe => 4,
            Track::Cluster => 5,
        }
    }

    /// Process name shown in Perfetto.
    pub const fn name(self) -> &'static str {
        match self {
            Track::Rdusim => "rdusim (on-chip, 1 cycle = 1 ns)",
            Track::Memsim => "memsim (DMA / memory tiers)",
            Track::Runtime => "runtime (kernel launches)",
            Track::Coe => "coe serving",
            Track::Cluster => "coe cluster",
        }
    }

    pub(crate) const fn index(self) -> usize {
        self.pid() as usize - 1
    }
}

/// What kind of mark an event puts on the timeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A slice with a duration (Chrome phase `"X"`).
    Complete {
        /// Duration in microseconds of model time.
        dur_us: f64,
    },
    /// A zero-duration marker (Chrome phase `"i"`).
    Instant,
    /// A sampled counter value rendered as a counter track (phase `"C"`).
    Counter {
        /// The sampled value.
        value: f64,
    },
}

/// A typed argument value attached to an event (`args` in Chrome trace).
#[derive(Debug, Clone, PartialEq)]
pub enum ArgValue {
    /// Unsigned integer payload (counts, bytes, indices).
    U64(u64),
    /// Floating payload (times, fractions).
    F64(f64),
    /// String payload (names).
    Str(String),
    /// Boolean payload (hit/miss style flags).
    Bool(bool),
}

impl From<u64> for ArgValue {
    fn from(v: u64) -> Self {
        ArgValue::U64(v)
    }
}

impl From<usize> for ArgValue {
    fn from(v: usize) -> Self {
        ArgValue::U64(v as u64)
    }
}

impl From<f64> for ArgValue {
    fn from(v: f64) -> Self {
        ArgValue::F64(v)
    }
}

impl From<&str> for ArgValue {
    fn from(v: &str) -> Self {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> Self {
        ArgValue::Str(v)
    }
}

impl From<bool> for ArgValue {
    fn from(v: bool) -> Self {
        ArgValue::Bool(v)
    }
}

/// One structured trace event.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Event name (the slice label in Perfetto).
    pub name: String,
    /// Timeline row this event belongs to.
    pub track: Track,
    /// Thread id within the track (cluster events use the node index).
    pub tid: u32,
    /// Start timestamp in microseconds of model time.
    pub ts_us: f64,
    /// Slice, instant, or counter sample.
    pub kind: EventKind,
    /// Typed key/value payload (`args` in the Chrome trace).
    pub args: Vec<(&'static str, ArgValue)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pids_are_unique_and_stable() {
        let mut seen = std::collections::HashSet::new();
        for t in Track::ALL {
            assert!(seen.insert(t.pid()), "duplicate pid for {t:?}");
            assert_eq!(Track::ALL[t.index()], t, "index roundtrips");
        }
    }

    #[test]
    fn arg_conversions() {
        assert_eq!(ArgValue::from(3usize), ArgValue::U64(3));
        assert_eq!(ArgValue::from("x"), ArgValue::Str("x".into()));
        assert_eq!(ArgValue::from(true), ArgValue::Bool(true));
    }
}
