//! Kernel-launch sequences (§IV-D).
//!
//! Running a model is a schedule of kernel launches; each launch is the
//! command triple *Program Load → Argument Load → Kernel Execute*.
//! Program loads are skipped when the kernel's configuration is already
//! resident (identical decoder layers share one program). The sequence is
//! the artifact that software orchestration replays from the host and
//! hardware orchestration offloads to the AGCU.

use sn_arch::{Calibration, Orchestration, TimeSecs};
use sn_compiler::{Executable, KernelId};
use std::collections::HashSet;

/// One AGCU command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Command {
    /// Load a kernel's configuration bitstream onto the tile.
    ProgramLoad(KernelId),
    /// Load the launch's runtime arguments (tensor addresses, sizes).
    ArgumentLoad(KernelId),
    /// Fire the kernel.
    KernelExecute(KernelId),
}

/// A fully expanded launch sequence for one execution of an executable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LaunchSequence {
    commands: Vec<Command>,
    program_loads: usize,
    executes: usize,
}

impl LaunchSequence {
    /// Expands an executable into its command stream. Kernels sharing a
    /// program signature reuse the resident configuration: only the first
    /// occurrence issues a `ProgramLoad`.
    pub fn from_executable(exe: &Executable) -> Self {
        let mut commands = Vec::new();
        let mut resident: HashSet<u64> = HashSet::new();
        let mut program_loads = 0;
        for kernel in exe.kernels() {
            if resident.insert(kernel.program_signature) {
                commands.push(Command::ProgramLoad(kernel.id));
                program_loads += 1;
            }
            commands.push(Command::ArgumentLoad(kernel.id));
            commands.push(Command::KernelExecute(kernel.id));
        }
        let executes = exe.kernel_count();
        LaunchSequence {
            commands,
            program_loads,
            executes,
        }
    }

    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// Number of `ProgramLoad` commands (distinct resident programs).
    pub fn program_loads(&self) -> usize {
        self.program_loads
    }

    /// Number of `KernelExecute` commands (launches).
    pub fn executes(&self) -> usize {
        self.executes
    }

    /// Total orchestration overhead of replaying this sequence: program
    /// loads plus the per-launch dispatch cost of the given mode. This is
    /// the quantity hardware orchestration shrinks (§IV-D); it matches
    /// [`crate::executor::NodeExecutor`]'s arithmetic by construction.
    pub fn overhead(&self, calib: &Calibration, orch: Orchestration) -> TimeSecs {
        calib.program_load * self.program_loads as f64
            + calib.launch_overhead(orch) * self.executes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::NodeExecutor;
    use sn_arch::{NodeSpec, SocketSpec};
    use sn_compiler::{Compiler, FusionPolicy};
    use sn_models::{build, Phase, TransformerConfig};

    fn decode_exe() -> Executable {
        let cfg = TransformerConfig::llama2_7b();
        let g = build(&cfg, Phase::Decode { past_tokens: 2048 }, 1, 8).unwrap();
        Compiler::new(SocketSpec::sn40l(), Calibration::baseline())
            .compile(&g, FusionPolicy::Spatial)
            .unwrap()
    }

    #[test]
    fn identical_layers_load_one_program() {
        let exe = decode_exe();
        let seq = LaunchSequence::from_executable(&exe);
        assert_eq!(seq.executes(), exe.kernel_count());
        assert_eq!(seq.program_loads(), exe.distinct_programs());
        assert!(
            seq.program_loads() < seq.executes() / 4,
            "layers share programs"
        );
    }

    #[test]
    fn command_stream_is_well_formed() {
        let exe = decode_exe();
        let seq = LaunchSequence::from_executable(&exe);
        // Every execute is immediately preceded by its argument load.
        let cmds = seq.commands();
        for (i, c) in cmds.iter().enumerate() {
            if let Command::KernelExecute(k) = c {
                assert_eq!(cmds[i - 1], Command::ArgumentLoad(*k));
            }
        }
        // A kernel never executes before its program was loaded.
        let mut loaded = std::collections::HashSet::new();
        let sig_of = |k: KernelId| exe.kernels()[k.index()].program_signature;
        for c in cmds {
            match c {
                Command::ProgramLoad(k) => {
                    loaded.insert(sig_of(*k));
                }
                Command::KernelExecute(k) => {
                    assert!(loaded.contains(&sig_of(*k)), "execute before program load");
                }
                Command::ArgumentLoad(_) => {}
            }
        }
    }

    #[test]
    fn sequence_overhead_matches_executor_arithmetic() {
        let exe = decode_exe();
        let seq = LaunchSequence::from_executable(&exe);
        let calib = Calibration::baseline();
        let node = NodeExecutor::new(NodeSpec::sn40l_node(), calib.clone());
        for orch in [Orchestration::Software, Orchestration::Hardware] {
            let report = node.run(&exe, orch);
            let expect = (report.launch + report.program_load).as_secs();
            let got = seq.overhead(&calib, orch).as_secs();
            assert!((got - expect).abs() < 1e-12, "{orch:?}: {got} vs {expect}");
        }
    }
}
