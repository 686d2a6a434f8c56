//! Control-fabric orchestration (§IV-A, §IV-C).
//!
//! The RDN's circuit-switched control fabric carries single-bit *tokens*
//! that "collectively orchestrate the execution of a graph": loop counters
//! in PCUs/PMUs emit a `done` event when they hit their programmed
//! maximum, and downstream units arm on those tokens. This module models
//! that machinery: programmable counters, token wires, and a distributed
//! orchestration graph whose completion order must respect the program's
//! dependences — with detection of the classic misprogramming (a token
//! cycle that deadlocks the kernel).

/// A hardware loop counter (§IV-A): counts events up to a programmed
/// maximum and fires a `done` token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopCounter {
    max: u64,
    count: u64,
    fired: bool,
}

impl LoopCounter {
    /// Creates a counter with the programmed maximum.
    ///
    /// # Panics
    ///
    /// Panics on a zero maximum (a loop executes at least once).
    pub fn new(max: u64) -> Self {
        assert!(max > 0, "loop maximum must be positive");
        LoopCounter {
            max,
            count: 0,
            fired: false,
        }
    }

    /// Registers one iteration; returns `true` exactly once, when the
    /// programmed maximum is reached.
    pub fn tick(&mut self) -> bool {
        if self.fired {
            return false;
        }
        self.count += 1;
        if self.count >= self.max {
            self.fired = true;
            return true;
        }
        false
    }

    pub fn done(&self) -> bool {
        self.fired
    }

    /// Re-arms the counter for the next kernel invocation.
    pub fn reset(&mut self) {
        self.count = 0;
        self.fired = false;
    }
}

/// One unit in the orchestration graph: it runs for `work` ticks once all
/// its token inputs have fired, then fires its own token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrchUnit {
    pub name: String,
    /// Iterations before this unit's counter fires `done`.
    pub work: u64,
    /// Indices of units whose tokens must arrive before this one starts.
    pub waits_on: Vec<usize>,
}

/// Outcome of running an orchestration graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrchOutcome {
    /// All units completed; `finish_order` is by completion tick.
    Completed {
        ticks: u64,
        finish_order: Vec<usize>,
    },
    /// Some units never started: their token dependences form a cycle or
    /// wait on units that can never fire.
    Deadlocked { stuck: Vec<usize> },
}

/// Runs the token-orchestrated graph tick by tick.
///
/// # Panics
///
/// Panics if a `waits_on` index is out of range.
pub fn run_orchestration(units: &[OrchUnit]) -> OrchOutcome {
    let n = units.len();
    for u in units {
        for &d in &u.waits_on {
            assert!(d < n, "dependence index {d} out of range");
        }
    }
    let mut counters: Vec<LoopCounter> = units
        .iter()
        .map(|u| LoopCounter::new(u.work.max(1)))
        .collect();
    let mut started = vec![false; n];
    let mut finish_order = Vec::new();
    let mut ticks = 0u64;
    while finish_order.len() < n {
        // Arm units whose tokens have all arrived.
        for i in 0..n {
            if !started[i] && units[i].waits_on.iter().all(|&d| counters[d].done()) {
                started[i] = true;
            }
        }
        // Advance every armed, unfinished unit one tick.
        let mut progressed = false;
        for i in 0..n {
            if started[i] && !counters[i].done() {
                progressed = true;
                if counters[i].tick() {
                    finish_order.push(i);
                }
            }
        }
        if !progressed {
            let stuck: Vec<usize> = (0..n).filter(|&i| !counters[i].done()).collect();
            return OrchOutcome::Deadlocked { stuck };
        }
        ticks += 1;
    }
    OrchOutcome::Completed {
        ticks,
        finish_order,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn unit(name: &str, work: u64, waits_on: &[usize]) -> OrchUnit {
        OrchUnit {
            name: name.to_string(),
            work,
            waits_on: waits_on.to_vec(),
        }
    }

    #[test]
    fn counter_fires_exactly_once() {
        let mut c = LoopCounter::new(3);
        assert!(!c.tick());
        assert!(!c.tick());
        assert!(c.tick());
        assert!(c.done());
        assert!(!c.tick(), "no re-fire without reset");
        c.reset();
        assert!(!c.done());
    }

    #[test]
    fn chain_completes_in_dependence_order() {
        let units = vec![
            unit("load", 4, &[]),
            unit("gemm", 8, &[0]),
            unit("store", 2, &[1]),
        ];
        match run_orchestration(&units) {
            OrchOutcome::Completed {
                ticks,
                finish_order,
            } => {
                assert_eq!(finish_order, vec![0, 1, 2]);
                assert_eq!(ticks, 4 + 8 + 2, "serial chain sums work");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn independent_units_overlap() {
        let units = vec![
            unit("a", 10, &[]),
            unit("b", 10, &[]),
            unit("join", 1, &[0, 1]),
        ];
        match run_orchestration(&units) {
            OrchOutcome::Completed { ticks, .. } => {
                assert_eq!(ticks, 11, "parallel units share ticks");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn token_cycle_deadlocks() {
        let units = vec![unit("a", 1, &[1]), unit("b", 1, &[0])];
        match run_orchestration(&units) {
            OrchOutcome::Deadlocked { stuck } => assert_eq!(stuck, vec![0, 1]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn self_dependence_deadlocks() {
        let units = vec![unit("a", 1, &[0])];
        assert!(matches!(
            run_orchestration(&units),
            OrchOutcome::Deadlocked { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_dependence_index_panics() {
        let _ = run_orchestration(&[unit("a", 1, &[7])]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Forward-only dependences (a DAG by construction) always
        /// complete, and every unit finishes after everything it waited on.
        #[test]
        fn dags_always_complete(
            works in proptest::collection::vec(1u64..12, 1..12),
            edges in proptest::collection::vec((1usize..12, 0usize..11), 0..20),
        ) {
            let n = works.len();
            let mut units: Vec<OrchUnit> = works
                .iter()
                .enumerate()
                .map(|(i, &w)| unit(&format!("u{i}"), w, &[]))
                .collect();
            for &(to, from) in &edges {
                let (to, from) = (to % n, from % n);
                if from < to {
                    units[to].waits_on.push(from);
                }
            }
            match run_orchestration(&units) {
                OrchOutcome::Completed { finish_order, .. } => {
                    let pos: std::collections::HashMap<usize, usize> =
                        finish_order.iter().enumerate().map(|(p, &i)| (i, p)).collect();
                    for (i, u) in units.iter().enumerate() {
                        for &d in &u.waits_on {
                            prop_assert!(pos[&d] < pos[&i], "{d} must finish before {i}");
                        }
                    }
                }
                OrchOutcome::Deadlocked { stuck } => {
                    prop_assert!(false, "DAG deadlocked: {stuck:?}");
                }
            }
        }
    }
}
