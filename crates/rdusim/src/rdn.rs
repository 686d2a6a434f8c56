//! Reconfigurable Dataflow Network simulator (§IV-C).
//!
//! A cycle-stepped model of the vector fabric: a 2-D mesh of non-blocking
//! switches with per-hop credit flow control, static flow routing with
//! multicast fan-out, and programmable injection throttling. Two flow-ID
//! allocation schemes are modeled (§IV-E "On-chip bandwidth utilization"):
//! the SN10's single global pool, where two flows sharing any switch
//! permanently consume distinct chip-wide IDs, and the SN40L's MPLS-style
//! per-link relabeling, where labels are rewritten at every switch and only
//! need to be unique per link.

use std::collections::VecDeque;

/// A switch position in the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Coord {
    pub x: usize,
    pub y: usize,
}

impl Coord {
    pub const fn new(x: usize, y: usize) -> Self {
        Coord { x, y }
    }
}

/// Switch port directions (four mesh neighbors plus the local unit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Dir {
    North,
    East,
    South,
    West,
    Local,
}

const DIRS: [Dir; 5] = [Dir::North, Dir::East, Dir::South, Dir::West, Dir::Local];

/// Flow-ID allocation scheme (§IV-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowIdMode {
    /// SN10: one chip-wide pool; flows sharing any switch must use
    /// distinct pool IDs, and the pool is small. Flows that cannot be
    /// colored are deferred to a second serial phase.
    GlobalPool { pool_size: usize },
    /// SN40L: labels are rewritten at each switch (like MPLS), so they only
    /// need to be unique per link; allocation effectively never fails.
    Mpls,
}

/// One logical packet stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flow {
    pub src: Coord,
    /// One destination for unicast; several for multicast fan-out.
    pub dsts: Vec<Coord>,
    /// Number of packets to inject.
    pub packets: usize,
    /// Cycles between injected packets in steady state (1 = line rate).
    pub injection_interval: u64,
    /// Packets injected back-to-back per burst. With `burst > 1` the
    /// source alternates full-rate bursts and idle gaps, keeping the same
    /// average rate — the bursty behavior §VII says can "slow down the
    /// entire kernel if left unmanaged".
    pub burst: usize,
}

impl Flow {
    /// A unicast flow at line rate.
    pub fn unicast(src: Coord, dst: Coord, packets: usize) -> Self {
        Flow {
            src,
            dsts: vec![dst],
            packets,
            injection_interval: 1,
            burst: 1,
        }
    }
}

/// Simulator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConfig {
    pub width: usize,
    pub height: usize,
    /// Per-input-port queue capacity (credit count per link).
    pub queue_capacity: usize,
    pub flow_mode: FlowIdMode,
    /// Hardware packet throttling: enforce at least this many cycles
    /// between injections of the same flow, flattening bursts (§VII).
    pub throttle: Option<u64>,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            width: 8,
            height: 8,
            queue_capacity: 4,
            flow_mode: FlowIdMode::Mpls,
            throttle: None,
        }
    }
}

/// Results of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct NetStats {
    /// Total cycles until every packet of every phase was delivered.
    pub cycles: u64,
    /// Packets delivered to local ports.
    pub delivered: usize,
    /// Output-port stalls due to exhausted credits, summed over switches.
    pub stall_cycles: u64,
    /// Per-switch stall counts (index `y * width + x`) for hotspot
    /// identification — the §VII performance-counter story.
    pub per_switch_stalls: Vec<u64>,
    /// Delivered packet-hops over total link-cycles: the achieved fraction
    /// of bisection capacity.
    pub link_utilization: f64,
    /// Flows deferred to a serial phase by flow-ID exhaustion.
    pub deferred_flows: usize,
}

#[derive(Debug, Clone)]
struct Packet {
    flow: usize,
    dsts: Vec<Coord>,
}

struct Switch {
    /// One input queue per direction.
    queues: [VecDeque<Packet>; 5],
    stalls: u64,
    rr: usize,
}

impl Switch {
    fn new() -> Self {
        Switch {
            queues: Default::default(),
            stalls: 0,
            rr: 0,
        }
    }
}

/// The mesh simulator.
#[derive(Debug)]
pub struct NetSim {
    config: NetConfig,
}

impl NetSim {
    pub fn new(config: NetConfig) -> Self {
        assert!(
            config.width >= 2 && config.height >= 2,
            "mesh must be at least 2x2"
        );
        assert!(config.queue_capacity >= 1);
        NetSim { config }
    }

    pub fn config(&self) -> &NetConfig {
        &self.config
    }

    fn idx(&self, c: Coord) -> usize {
        c.y * self.config.width + c.x
    }

    /// XY dimension-order next hop from `at` toward `to`.
    fn next_dir(at: Coord, to: Coord) -> Dir {
        if to.x > at.x {
            Dir::East
        } else if to.x < at.x {
            Dir::West
        } else if to.y > at.y {
            Dir::South
        } else if to.y < at.y {
            Dir::North
        } else {
            Dir::Local
        }
    }

    fn step(at: Coord, d: Dir) -> Coord {
        match d {
            Dir::East => Coord::new(at.x + 1, at.y),
            Dir::West => Coord::new(at.x - 1, at.y),
            Dir::South => Coord::new(at.x, at.y + 1),
            Dir::North => Coord::new(at.x, at.y - 1),
            Dir::Local => at,
        }
    }

    /// Set of switches an XY-routed flow traverses (union over multicast
    /// destinations), used for flow-ID conflict analysis.
    fn footprint(&self, flow: &Flow) -> Vec<usize> {
        let mut seen = vec![false; self.config.width * self.config.height];
        for &dst in &flow.dsts {
            let mut at = flow.src;
            seen[self.idx(at)] = true;
            while at != dst {
                at = Self::step(at, Self::next_dir(at, dst));
                seen[self.idx(at)] = true;
            }
        }
        seen.iter()
            .enumerate()
            .filter_map(|(i, &s)| s.then_some(i))
            .collect()
    }

    /// Allocates flow IDs, returning `(admitted, deferred)` flow indices.
    /// Under [`FlowIdMode::Mpls`] everything is admitted; under the global
    /// pool, greedy coloring of the shared-switch conflict graph admits
    /// flows until colors run out.
    pub fn allocate_flow_ids(&self, flows: &[Flow]) -> (Vec<usize>, Vec<usize>) {
        match self.config.flow_mode {
            FlowIdMode::Mpls => ((0..flows.len()).collect(), Vec::new()),
            FlowIdMode::GlobalPool { pool_size } => {
                let footprints: Vec<Vec<usize>> = flows.iter().map(|f| self.footprint(f)).collect();
                let mut colors: Vec<Option<usize>> = vec![None; flows.len()];
                for i in 0..flows.len() {
                    let mut used = vec![false; pool_size];
                    for j in 0..flows.len() {
                        if let Some(cj) = colors[j] {
                            let share = footprints[i]
                                .iter()
                                .any(|s| footprints[j].binary_search(s).is_ok());
                            if share {
                                used[cj] = true;
                            }
                        }
                    }
                    colors[i] = (0..pool_size).find(|&c| !used[c]);
                }
                let admitted = (0..flows.len()).filter(|&i| colors[i].is_some()).collect();
                let deferred = (0..flows.len()).filter(|&i| colors[i].is_none()).collect();
                (admitted, deferred)
            }
        }
    }

    /// Runs one phase of concurrent flows to completion; returns
    /// `(cycles, delivered, stalls, per_switch, hops)`.
    fn run_phase(&self, flows: &[&Flow]) -> (u64, usize, u64, Vec<u64>, u64) {
        let w = self.config.width;
        let h = self.config.height;
        let mut switches: Vec<Switch> = (0..w * h).map(|_| Switch::new()).collect();
        let mut injected = vec![0usize; flows.len()];
        let mut tokens = vec![0usize; flows.len()];
        let mut next_burst = vec![0u64; flows.len()];
        let mut delivered = 0usize;
        let total_packets: usize = flows.iter().map(|f| f.packets * f.dsts.len()).sum();
        let mut cycle: u64 = 0;
        let mut hops: u64 = 0;
        // Generous bound: serial delivery over the mesh diameter.
        let bound = 1000 + (total_packets as u64 + 10) * (w + h) as u64 * 4;
        while delivered < total_packets {
            assert!(
                cycle < bound,
                "network failed to drain: {delivered}/{total_packets} after {cycle} cycles"
            );
            // Injection: sources push into their switch's Local input
            // queue, at most one packet per cycle (the local port is a
            // single link). A burst of `b` means `b` consecutive line-rate
            // cycles followed by an idle gap that keeps the average rate at
            // one packet per `injection_interval`.
            for (fi, f) in flows.iter().enumerate() {
                if injected[fi] >= f.packets {
                    continue;
                }
                let (interval, burst) = match self.config.throttle {
                    Some(t) => (f.injection_interval.max(t), 1),
                    None => (f.injection_interval, f.burst.max(1)),
                };
                if tokens[fi] == 0 && cycle >= next_burst[fi] {
                    tokens[fi] = burst;
                    next_burst[fi] = cycle + interval * burst as u64;
                }
                let sw = self.idx(f.src);
                if tokens[fi] > 0 && switches[sw].queues[4].len() < self.config.queue_capacity {
                    switches[sw].queues[4].push_back(Packet {
                        flow: fi,
                        dsts: f.dsts.clone(),
                    });
                    injected[fi] += 1;
                    tokens[fi] -= 1;
                }
            }
            // Forwarding: two-phase to keep moves same-cycle consistent.
            let lens: Vec<[usize; 5]> = switches
                .iter()
                .map(|s| {
                    [
                        s.queues[0].len(),
                        s.queues[1].len(),
                        s.queues[2].len(),
                        s.queues[3].len(),
                        s.queues[4].len(),
                    ]
                })
                .collect();
            let mut incoming: Vec<Vec<(usize, Packet)>> = vec![Vec::new(); w * h];
            for y in 0..h {
                for x in 0..w {
                    let at = Coord::new(x, y);
                    let si = self.idx(at);
                    let mut port_used = [false; 5];
                    let rr = switches[si].rr;
                    switches[si].rr = (rr + 1) % 5;
                    for k in 0..5 {
                        let din = (rr + k) % 5;
                        let Some(pkt) = switches[si].queues[din].front() else {
                            continue;
                        };
                        // Group destinations by next-hop port.
                        let mut groups: Vec<(Dir, Vec<Coord>)> = Vec::new();
                        for &dst in &pkt.dsts {
                            let d = Self::next_dir(at, dst);
                            match groups.iter_mut().find(|(gd, _)| *gd == d) {
                                Some((_, v)) => v.push(dst),
                                None => groups.push((d, vec![dst])),
                            }
                        }
                        // All required output ports must be free and
                        // credited for the packet to move (multicast forks
                        // atomically).
                        let ok = groups.iter().all(|&(d, _)| {
                            if port_used[DIRS.iter().position(|&x| x == d).unwrap()] {
                                return false;
                            }
                            match d {
                                Dir::Local => true,
                                _ => {
                                    let n = Self::step(at, d);
                                    let ni = self.idx(n);
                                    let back = match d {
                                        Dir::East => 3, // arrives on West
                                        Dir::West => 1,
                                        Dir::South => 0,
                                        Dir::North => 2,
                                        Dir::Local => unreachable!(),
                                    };
                                    lens[ni][back]
                                        + incoming[ni].iter().filter(|(p, _)| *p == back).count()
                                        < self.config.queue_capacity
                                }
                            }
                        });
                        if !ok {
                            switches[si].stalls += 1;
                            continue;
                        }
                        let pkt = switches[si].queues[din].pop_front().expect("front exists");
                        for (d, dsts) in groups {
                            let pi = DIRS.iter().position(|&x| x == d).unwrap();
                            port_used[pi] = true;
                            match d {
                                Dir::Local => {
                                    delivered += dsts.len();
                                }
                                _ => {
                                    let n = Self::step(at, d);
                                    let ni = self.idx(n);
                                    let back = match d {
                                        Dir::East => 3,
                                        Dir::West => 1,
                                        Dir::South => 0,
                                        Dir::North => 2,
                                        Dir::Local => unreachable!(),
                                    };
                                    hops += 1;
                                    incoming[ni].push((
                                        back,
                                        Packet {
                                            flow: pkt.flow,
                                            dsts,
                                        },
                                    ));
                                }
                            }
                        }
                    }
                }
            }
            for (ni, arrivals) in incoming.into_iter().enumerate() {
                for (port, pkt) in arrivals {
                    switches[ni].queues[port].push_back(pkt);
                }
            }
            cycle += 1;
        }
        let per_switch = switches.iter().map(|s| s.stalls).collect::<Vec<_>>();
        let stalls = per_switch.iter().sum();
        (cycle, delivered, stalls, per_switch, hops)
    }

    /// Runs all flows: admitted flows run concurrently; flows deferred by
    /// flow-ID exhaustion run in a serial follow-up phase (the SN10
    /// penalty).
    pub fn run(&self, flows: &[Flow]) -> NetStats {
        let (admitted, deferred) = self.allocate_flow_ids(flows);
        let mut cycles = 0u64;
        let mut delivered = 0usize;
        let mut stalls = 0u64;
        let mut per_switch = vec![0u64; self.config.width * self.config.height];
        let mut hops = 0u64;
        let phases: Vec<Vec<&Flow>> = if deferred.is_empty() {
            vec![admitted.iter().map(|&i| &flows[i]).collect()]
        } else {
            vec![
                admitted.iter().map(|&i| &flows[i]).collect(),
                deferred.iter().map(|&i| &flows[i]).collect(),
            ]
        };
        for phase in phases.iter().filter(|p| !p.is_empty()) {
            let (c, d, s, ps, hp) = self.run_phase(phase);
            cycles += c;
            delivered += d;
            stalls += s;
            for (a, b) in per_switch.iter_mut().zip(ps) {
                *a += b;
            }
            hops += hp;
        }
        let links =
            (2 * ((self.config.width - 1) * self.config.height
                + self.config.height.saturating_sub(1) * self.config.width)) as f64;
        let util = if cycles == 0 {
            0.0
        } else {
            hops as f64 / (links * cycles as f64)
        };
        NetStats {
            cycles,
            delivered,
            stall_cycles: stalls,
            per_switch_stalls: per_switch,
            link_utilization: util,
            deferred_flows: deferred.len(),
        }
    }

    /// [`NetSim::run`] plus trace recording: emits one `rdn:<name>` span on
    /// the rdusim track (1 cycle = 1 ns) and accumulates the RDN counters
    /// ([`Counter::RdnCycles`], [`Counter::RdnStallCycles`],
    /// [`Counter::RdnPacketsDelivered`], [`Counter::RdnDeferredFlows`]).
    /// The returned stats are bit-identical to the untraced call.
    ///
    /// [`Counter::RdnCycles`]: sn_trace::Counter::RdnCycles
    /// [`Counter::RdnStallCycles`]: sn_trace::Counter::RdnStallCycles
    /// [`Counter::RdnPacketsDelivered`]: sn_trace::Counter::RdnPacketsDelivered
    /// [`Counter::RdnDeferredFlows`]: sn_trace::Counter::RdnDeferredFlows
    pub fn run_traced(&self, flows: &[Flow], name: &str, tracer: &sn_trace::Tracer) -> NetStats {
        let stats = self.run(flows);
        if tracer.is_enabled() {
            use sn_trace::{ArgValue, Counter, Track};
            tracer.count(Counter::RdnCycles, stats.cycles);
            tracer.count(Counter::RdnStallCycles, stats.stall_cycles);
            tracer.count(Counter::RdnPacketsDelivered, stats.delivered as u64);
            tracer.count(Counter::RdnDeferredFlows, stats.deferred_flows as u64);
            tracer.span(
                Track::Rdusim,
                format!("rdn:{name}"),
                sn_arch::TimeSecs::from_nanos(stats.cycles as f64),
                &[
                    ("flows", ArgValue::from(flows.len())),
                    ("delivered", ArgValue::from(stats.delivered)),
                    ("stall_cycles", ArgValue::from(stats.stall_cycles)),
                    ("deferred_flows", ArgValue::from(stats.deferred_flows)),
                    ("link_utilization", ArgValue::from(stats.link_utilization)),
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

    fn sim(mode: FlowIdMode) -> NetSim {
        NetSim::new(NetConfig {
            flow_mode: mode,
            ..NetConfig::default()
        })
    }

    #[test]
    fn single_flow_latency_is_distance_plus_packets() {
        let s = sim(FlowIdMode::Mpls);
        let f = Flow::unicast(Coord::new(0, 0), Coord::new(3, 0), 10);
        let stats = s.run(&[f]);
        assert_eq!(stats.delivered, 10);
        // 3 hops of pipeline fill + ~1 packet/cycle + delivery.
        assert!(
            stats.cycles >= 13 && stats.cycles <= 20,
            "cycles {}",
            stats.cycles
        );
    }

    #[test]
    fn multicast_forks_in_fabric() {
        let s = sim(FlowIdMode::Mpls);
        let f = Flow {
            src: Coord::new(0, 0),
            dsts: vec![Coord::new(3, 0), Coord::new(0, 3), Coord::new(3, 3)],
            packets: 5,
            injection_interval: 1,
            burst: 1,
        };
        let stats = s.run(&[f]);
        assert_eq!(stats.delivered, 15, "each packet reaches all three sinks");
    }

    #[test]
    fn crossing_flows_create_stalls() {
        let s = sim(FlowIdMode::Mpls);
        // Four flows converging through the mesh center.
        let flows: Vec<Flow> = vec![
            Flow::unicast(Coord::new(0, 3), Coord::new(7, 3), 40),
            Flow::unicast(Coord::new(7, 4), Coord::new(0, 4), 40),
            Flow::unicast(Coord::new(3, 0), Coord::new(3, 7), 40),
            Flow::unicast(Coord::new(4, 7), Coord::new(4, 0), 40),
        ];
        let stats = s.run(&flows);
        assert_eq!(stats.delivered, 160);
    }

    #[test]
    fn global_pool_defers_flows_mpls_does_not() {
        // Many flows sharing the center of the mesh exhaust a small global
        // pool; MPLS relabeling admits all of them (§IV-E).
        let flows: Vec<Flow> = (0..6)
            .map(|i| Flow::unicast(Coord::new(0, i), Coord::new(7, 5 - i), 20))
            .collect();
        let sn10 = sim(FlowIdMode::GlobalPool { pool_size: 3 }).run(&flows);
        let sn40l = sim(FlowIdMode::Mpls).run(&flows);
        assert!(
            sn10.deferred_flows > 0,
            "pool of 3 cannot color 6 crossing flows"
        );
        assert_eq!(sn40l.deferred_flows, 0);
        assert!(
            sn40l.cycles < sn10.cycles,
            "MPLS should finish faster: {} vs {}",
            sn40l.cycles,
            sn10.cycles
        );
        assert!(sn40l.link_utilization > sn10.link_utilization);
    }

    #[test]
    fn throttling_tames_bursty_congestion() {
        // A bursty flow crossing a victim flow's path: §VII says throttling
        // mitigates the victim's slowdown. The victim's completion time is
        // the whole run here (same total work), so compare stalls.
        let mk = |throttle| {
            NetSim::new(NetConfig {
                throttle,
                ..NetConfig::default()
            })
        };
        // The bursty flow and the victim merge onto the same row-2 links;
        // their combined *average* demand (0.5 + 0.5) fits the link, so a
        // throttled schedule is nearly stall-free while line-rate bursts
        // overflow the shared queues.
        let flows = vec![
            Flow {
                src: Coord::new(0, 2),
                dsts: vec![Coord::new(7, 2)],
                packets: 60,
                injection_interval: 2,
                burst: 12,
            },
            Flow {
                src: Coord::new(1, 2),
                dsts: vec![Coord::new(7, 2)],
                packets: 60,
                injection_interval: 2,
                burst: 1,
            },
        ];
        let unmanaged = mk(None).run(&flows);
        let throttled = mk(Some(2)).run(&flows);
        assert!(
            throttled.stall_cycles < unmanaged.stall_cycles,
            "throttling should reduce stalls: {} vs {}",
            throttled.stall_cycles,
            unmanaged.stall_cycles
        );
    }

    #[test]
    fn stall_counters_identify_hotspot() {
        let s = sim(FlowIdMode::Mpls);
        // Two line-rate flows merging at switch (1, 4): demand on the
        // shared eastbound row-4 links is 2x capacity, so stalls pile up
        // along that row — the §VII performance-counter workflow.
        let flows = vec![
            Flow::unicast(Coord::new(0, 4), Coord::new(7, 4), 50),
            Flow::unicast(Coord::new(1, 4), Coord::new(7, 4), 50),
        ];
        let stats = s.run(&flows);
        let hot: u64 = stats
            .per_switch_stalls
            .iter()
            .enumerate()
            .filter(|&(i, _)| i / 8 == 4)
            .map(|(_, &v)| v)
            .sum();
        let total: u64 = stats.per_switch_stalls.iter().sum();
        assert!(total > 0, "merging line-rate flows must stall somewhere");
        assert!(
            hot * 2 >= total,
            "stalls should concentrate on the merged row"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Every packet is always delivered (XY routing on a mesh with
        /// credit flow control is deadlock-free), and hops never exceed
        /// packets x diameter.
        #[test]
        fn all_packets_always_delivered(
            sx in 0usize..8, sy in 0usize..8, dx in 0usize..8, dy in 0usize..8,
            n in 1usize..40, burst in 1usize..8,
        ) {
            let s = sim(FlowIdMode::Mpls);
            let f = Flow {
                src: Coord::new(sx, sy),
                dsts: vec![Coord::new(dx, dy)],
                packets: n,
                injection_interval: 1,
                burst,
            };
            let stats = s.run(&[f]);
            prop_assert_eq!(stats.delivered, n);
        }

        /// Link utilization is a valid fraction.
        #[test]
        fn utilization_is_a_fraction(n in 1usize..60) {
            let s = sim(FlowIdMode::Mpls);
            let f = Flow::unicast(Coord::new(0, 0), Coord::new(7, 7), n);
            let stats = s.run(&[f]);
            prop_assert!(stats.link_utilization >= 0.0);
            prop_assert!(stats.link_utilization <= 1.0);
        }
    }
}
