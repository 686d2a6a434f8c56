//! Coarse-grained pipeline simulator for spatially fused kernels.
//!
//! A fused kernel is a chain of stages (Figure 4): compute stages (gangs of
//! PCUs) separated by decoupling stage buffers (PMU groups). Tensors are
//! tiled and streamed through; steady-state throughput is set by the
//! slowest stage and latency by the pipeline fill. The compiler's static
//! bandwidth model *predicts* `fill + (tiles - 1) * bottleneck`; this
//! simulator executes the pipeline cycle by cycle so tests can check the
//! prediction, including the effect of finite stage-buffer depths.

use sn_arch::Cycles;

/// One pipeline stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stage {
    pub name: String,
    /// Service time per tile.
    pub cycles_per_tile: u64,
    /// Capacity of the stage's *output* buffer, in tiles (PMU stage
    /// buffers; at least 1 — double buffering is 2).
    pub buffer_tiles: usize,
}

impl Stage {
    pub fn new(name: impl Into<String>, cycles_per_tile: u64, buffer_tiles: usize) -> Self {
        assert!(
            cycles_per_tile >= 1,
            "a stage needs at least one cycle per tile"
        );
        assert!(buffer_tiles >= 1, "a stage needs at least a single buffer");
        Stage {
            name: name.into(),
            cycles_per_tile,
            buffer_tiles,
        }
    }
}

/// Results of a pipeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineStats {
    /// Cycles from first injection to last tile drained.
    pub total: Cycles,
    /// Cycles each stage spent in service.
    pub busy: Vec<u64>,
    /// Cycles each stage spent blocked on a full downstream buffer.
    pub blocked: Vec<u64>,
    /// Index of the stage with the highest utilization.
    pub bottleneck: usize,
}

/// Cycle-stepped simulator of a linear stage pipeline.
#[derive(Debug, Clone)]
pub struct PipelineSim {
    stages: Vec<Stage>,
}

impl PipelineSim {
    /// Creates a simulator for the given stage chain.
    ///
    /// # Panics
    ///
    /// Panics if `stages` is empty.
    pub fn new(stages: Vec<Stage>) -> Self {
        assert!(!stages.is_empty(), "pipeline needs at least one stage");
        PipelineSim { stages }
    }

    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// The static model's prediction: fill plus bottleneck-paced tiles.
    pub fn predicted_cycles(&self, tiles: u64) -> Cycles {
        assert!(tiles >= 1);
        let fill: u64 = self.stages.iter().map(|s| s.cycles_per_tile).sum();
        let bottleneck = self
            .stages
            .iter()
            .map(|s| s.cycles_per_tile)
            .max()
            .expect("non-empty");
        Cycles::new(fill + (tiles - 1) * bottleneck)
    }

    /// Runs `tiles` tiles through the pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `tiles` is zero.
    pub fn run(&self, tiles: u64) -> PipelineStats {
        assert!(tiles >= 1, "nothing to simulate");
        let n = self.stages.len();
        // Per-stage state.
        let mut in_service: Vec<Option<u64>> = vec![None; n]; // remaining cycles
        let mut out_q: Vec<u64> = vec![0; n];
        let mut busy = vec![0u64; n];
        let mut blocked = vec![0u64; n];
        let mut fed = 0u64; // tiles injected into stage 0
        let mut drained = 0u64;
        let mut cycle = 0u64;
        let bound = self.predicted_cycles(tiles).as_u64() * 4 + 1000;
        while drained < tiles {
            assert!(cycle < bound, "pipeline failed to drain: {drained}/{tiles}");
            // Sink drains the last stage's buffer (one tile per cycle).
            if out_q[n - 1] > 0 {
                out_q[n - 1] -= 1;
                drained += 1;
            }
            // Advance stages; iterate downstream-first so freed buffer
            // space and completed outputs are visible upstream within the
            // same cycle boundary (credits return combinationally).
            for i in (0..n).rev() {
                match in_service[i] {
                    Some(rem) if rem > 1 => {
                        in_service[i] = Some(rem - 1);
                        busy[i] += 1;
                    }
                    Some(_) => {
                        // Completing: needs output buffer space.
                        if (out_q[i] as usize) < self.stages[i].buffer_tiles {
                            out_q[i] += 1;
                            in_service[i] = None;
                            busy[i] += 1;
                        } else {
                            blocked[i] += 1;
                        }
                    }
                    None => {}
                }
                // A stage that is (or just became) idle starts its next
                // tile at the same cycle boundary, so service back-to-back
                // tiles take exactly `cycles_per_tile` each.
                if in_service[i].is_none() {
                    let input_ready = if i == 0 {
                        fed < tiles
                    } else {
                        out_q[i - 1] > 0
                    };
                    if input_ready {
                        if i == 0 {
                            fed += 1;
                        } else {
                            out_q[i - 1] -= 1;
                        }
                        in_service[i] = Some(self.stages[i].cycles_per_tile);
                    }
                }
            }
            cycle += 1;
        }
        let bottleneck = (0..n).max_by_key(|&i| busy[i]).expect("non-empty");
        PipelineStats {
            total: Cycles::new(cycle),
            busy,
            blocked,
            bottleneck,
        }
    }

    /// [`PipelineSim::run`] plus trace recording: emits one
    /// `pipeline:<name>` span (1 cycle = 1 ns) on the rdusim track with the
    /// bottleneck stage in its args, one instant per stage carrying its
    /// busy/blocked split, and adds the summed back-pressure cycles to
    /// [`Counter::PipelineBlockedCycles`]. Stats are bit-identical to the
    /// untraced call.
    ///
    /// [`Counter::PipelineBlockedCycles`]: sn_trace::Counter::PipelineBlockedCycles
    pub fn run_traced(&self, tiles: u64, name: &str, tracer: &sn_trace::Tracer) -> PipelineStats {
        let stats = self.run(tiles);
        if tracer.is_enabled() {
            use sn_trace::{ArgValue, Counter, Track};
            tracer.count(
                Counter::PipelineBlockedCycles,
                stats.blocked.iter().sum::<u64>(),
            );
            for (i, s) in self.stages.iter().enumerate() {
                tracer.instant(
                    Track::Rdusim,
                    format!("stage:{name}:{}", s.name),
                    &[
                        ("busy_cycles", ArgValue::from(stats.busy[i])),
                        ("blocked_cycles", ArgValue::from(stats.blocked[i])),
                        ("buffer_tiles", ArgValue::from(s.buffer_tiles)),
                    ],
                );
            }
            tracer.span(
                Track::Rdusim,
                format!("pipeline:{name}"),
                sn_arch::TimeSecs::from_nanos(stats.total.as_u64() as f64),
                &[
                    ("tiles", ArgValue::from(tiles)),
                    (
                        "bottleneck_stage",
                        ArgValue::Str(self.stages[stats.bottleneck].name.clone()),
                    ),
                    (
                        "blocked_cycles",
                        ArgValue::from(stats.blocked.iter().sum::<u64>()),
                    ),
                ],
            );
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn chain(times: &[u64]) -> PipelineSim {
        PipelineSim::new(
            times
                .iter()
                .enumerate()
                .map(|(i, &t)| Stage::new(format!("s{i}"), t, 2))
                .collect(),
        )
    }

    #[test]
    fn throughput_set_by_bottleneck() {
        let p = chain(&[2, 8, 3]);
        let tiles = 200;
        let stats = p.run(tiles);
        let per_tile = stats.total.as_u64() as f64 / tiles as f64;
        assert!((per_tile - 8.0).abs() < 0.5, "per-tile {per_tile}");
        assert_eq!(stats.bottleneck, 1);
    }

    #[test]
    fn simulation_matches_static_prediction() {
        // With double buffers the deterministic pipeline should match the
        // fill + (n-1)*bottleneck model within a small constant.
        for times in [&[3u64, 5, 2][..], &[1, 1, 1], &[7, 2, 7, 2]] {
            let p = chain(times);
            let tiles = 100;
            let sim = p.run(tiles).total.as_u64();
            let pred = p.predicted_cycles(tiles).as_u64();
            let err = (sim as f64 - pred as f64).abs() / pred as f64;
            assert!(err < 0.12, "times {times:?}: sim {sim} vs pred {pred}");
        }
    }

    #[test]
    fn single_buffer_still_drains() {
        let p = PipelineSim::new(vec![
            Stage::new("a", 4, 1),
            Stage::new("b", 4, 1),
            Stage::new("c", 4, 1),
        ]);
        let stats = p.run(50);
        assert!(stats.total.as_u64() > 0);
    }

    #[test]
    fn blocked_cycles_appear_when_downstream_is_slow() {
        // Fast producer into slow consumer with a shallow buffer.
        let p = PipelineSim::new(vec![Stage::new("fast", 1, 1), Stage::new("slow", 10, 1)]);
        let stats = p.run(40);
        assert!(
            stats.blocked[0] > 0,
            "fast stage must block on the slow one"
        );
        assert_eq!(stats.bottleneck, 1);
    }

    #[test]
    fn deeper_buffers_never_hurt() {
        let shallow = PipelineSim::new(vec![
            Stage::new("a", 3, 1),
            Stage::new("b", 5, 1),
            Stage::new("c", 2, 1),
        ])
        .run(100);
        let deep = PipelineSim::new(vec![
            Stage::new("a", 3, 4),
            Stage::new("b", 5, 4),
            Stage::new("c", 2, 4),
        ])
        .run(100);
        assert!(deep.total <= shallow.total);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The simulator is never faster than the static lower bound and
        /// never slower than serial execution.
        #[test]
        fn sim_between_bounds(
            times in proptest::collection::vec(1u64..10, 1..6),
            tiles in 1u64..60,
        ) {
            let p = chain(&times);
            let sim = p.run(tiles).total.as_u64();
            let lower = p.predicted_cycles(tiles).as_u64();
            let serial: u64 = times.iter().sum::<u64>() * tiles;
            prop_assert!(sim + 2 >= lower, "sim {sim} below lower bound {lower}");
            // +tiles slack: the sink drains one per cycle.
            prop_assert!(sim <= serial + tiles + times.len() as u64 + 2,
                "sim {sim} above serial bound {serial}");
        }
    }
}
