//! `hostbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! Prints every metric by name with its unit, then one JSON line with
//! `correct`, `attempted`, `failed` and `metrics`. `--emit-refs` instead
//! prints the workload's reference digests at the default seed, in the
//! format `refs/<workload>.txt` stores.

use hostbench::workloads::Workload;
use hostbench::{committed_references, reference_lines, run, Options, DEFAULT_SEED};
use std::process::ExitCode;

const USAGE: &str =
    "usage: hostbench --workload <policy-thrash|tenant-grid|observed-outage|paper-compile> \
[--seed N] [--seconds S] [--trace 0|1] [--emit-refs]";

fn parse(args: &[String]) -> Result<(Options, bool), String> {
    let mut workload = None;
    let mut opts = Options {
        workload: Workload::PolicyThrash,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut emit_refs = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--emit-refs" {
            emit_refs = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => opts.seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                opts.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or(format!("bad seconds {value}"))?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok((opts, emit_refs))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, emit_refs) = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if emit_refs {
        return match reference_lines(opts.workload) {
            Ok(lines) => {
                print!("{lines}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("reference run failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let report = run(&opts, &committed_references(opts.workload));
    println!(
        "hostbench {} seed {} ({} run, {} s)",
        opts.workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "plain" },
        opts.seconds
    );
    if opts.trace {
        print!("{}", report.layer_table);
        let dir = std::path::Path::new("hostbench/target");
        let path = dir.join(format!("spans-{}-{}.json", opts.workload.name(), opts.seed));
        match std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, report.spans.to_chrome_json()))
        {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write spans to {}: {e}", path.display()),
        }
    }
    let (kernel_ms, samples) = report.reference_ms;
    println!(
        "host speed: reference kernel {kernel_ms:.4} ms (median of {samples}); \
host times scaled to its {} ms",
        hostbench::speed::REFERENCE_MS
    );
    print!("{}", report.render_metrics());
    for f in &report.failures {
        println!("FAILED {f}");
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
