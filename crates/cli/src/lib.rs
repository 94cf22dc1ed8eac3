//! The `vc2m` command-line tool.
//!
//! A thin, dependency-free front end over the [`vc2m`] library:
//!
//! ```text
//! vc2m platforms                         list the built-in platforms
//! vc2m benchmarks [--platform a]         list benchmark profiles + slowdowns
//! vc2m analyze   --utilization 1.0 ...   allocate a random workload
//! vc2m simulate  --utilization 1.0 ...   allocate, then validate by simulation
//! vc2m sweep     --distribution uniform  schedulability sweep (Fig. 2/3 style)
//! vc2m admit     --requests 100          stream a VM admission trace
//! ```
//!
//! Argument parsing is hand-rolled (the workspace's dependency policy
//! admits no CLI crates); see [`args`]. Each subcommand lives in
//! [`commands`] and returns a process exit code, so the whole tool is
//! testable without spawning processes.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
pub mod commands;

use std::fmt;

/// Error produced by CLI parsing or execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable description, printed to stderr.
    pub message: String,
}

impl CliError {
    /// Creates an error from anything printable.
    pub fn new(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

/// Top-level usage text.
pub const USAGE: &str = "\
vc2m — holistic CPU/cache/memory-bandwidth allocation (DAC'19 reproduction)

USAGE:
    vc2m <COMMAND> [OPTIONS]

COMMANDS:
    platforms     List the built-in evaluation platforms
    benchmarks    List the PARSEC-style benchmark profiles
    analyze       Generate a workload and allocate it
    simulate      Allocate a workload and validate it on the simulator
    sweep         Run a schedulability sweep (Figure 2/3 style)
    isolation     WCET with vs without isolation (Section 3.3 style)
    admit         Replay a VM admission trace through the streaming engine
    help          Show this message

COMMON OPTIONS:
    --platform <a|b|c>            Platform (default: a)
    --utilization <f64>           Taskset reference utilization (default: 1.0)
    --distribution <name>         uniform | light | medium | heavy (default: uniform)
    --solution <name>             flattening | overhead-free | existing |
                                  evenly | baseline | all (default: all)
    --seed <u64>                  Workload/allocation seed (default: 42)
    --vms <usize>                 Number of VMs to split the workload into (default: 1)

SWEEP OPTIONS:
    --full                        Paper scale (step 0.05, 50 tasksets/point)
    --fleet                       Campaign scale (step 0.001, 3 tasksets/point)
    --threads <usize>             Worker threads (default: all cores)
    --out <path>                  Write the fractions CSV here
    --metrics-out <path>          Write the aggregate sweep metrics as JSON

SIMULATE OPTIONS:
    --horizon-ms <f64>            Simulation horizon (default: 2500)
    --gantt                       Print an ASCII schedule chart (first 200 ms)
    --trace-out <path>            Write the event trace (last 4096 records/run)
    --metrics-out <path>          Write per-solution run metrics as JSON

ADMIT OPTIONS:
    --trace-in <path>             Replay this vc2m-admission-trace-v1 file
    --requests <usize>            Generate a trace of this size instead (default: 100)
    --hosts <usize>               Fleet size (default: the trace's hosts directive, else 1)
    --threads <usize>             Parallel fleet replay threads (default: 1)
    --rejection-heavy             Generate the saturated rejection-heavy preset
    --no-memo                     Disable the saturated-regime rejection memo
    --reference                   Run the slow differential-oracle engine
    --trace-out <path>            Write the (generated) trace text here
    --report-out <path>           Write the byte-stable decision log here
    --metrics-out <path>          Write the admission.* / fleet.* metrics as JSON
    --hi-fraction <f64>           Mark this fraction of generated VMs criticality-HI
    --fleet-fault-seed <u64>      Arm a generated fleet fault plan (needs --hosts > 1)
    --fleet-fault-count <usize>   Faults in the generated plan (default: 4)
    --journal <path>              Write the write-ahead decision journal (1-host path)
    --recover <path>              Reconstruct an engine from a journal and verify it
";

/// Runs the CLI on the given arguments (without the program name).
/// Returns the process exit code.
pub fn run(argv: &[String], out: &mut dyn std::io::Write) -> i32 {
    match dispatch(argv, out) {
        Ok(()) => 0,
        Err(e) => {
            let _ = writeln!(out, "error: {e}");
            2
        }
    }
}

fn dispatch(argv: &[String], out: &mut dyn std::io::Write) -> Result<(), CliError> {
    let Some(command) = argv.first() else {
        writeln!(out, "{USAGE}").map_err(io_error)?;
        return Ok(());
    };
    let rest = &argv[1..];
    match command.as_str() {
        "platforms" => commands::platforms(out),
        "benchmarks" => commands::benchmarks(rest, out),
        "analyze" => commands::analyze(rest, out),
        "simulate" => commands::simulate(rest, out),
        "sweep" => commands::sweep(rest, out),
        "isolation" => commands::isolation(rest, out),
        "admit" => commands::admit(rest, out),
        "help" | "--help" | "-h" => {
            writeln!(out, "{USAGE}").map_err(io_error)?;
            Ok(())
        }
        other => Err(CliError::new(format!(
            "unknown command '{other}' (try 'vc2m help')"
        ))),
    }
}

pub(crate) fn io_error(e: std::io::Error) -> CliError {
    CliError::new(format!("write failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_capture(args: &[&str]) -> (i32, String) {
        let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let mut buf = Vec::new();
        let code = run(&argv, &mut buf);
        (code, String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn no_args_prints_usage() {
        let (code, out) = run_capture(&[]);
        assert_eq!(code, 0);
        assert!(out.contains("USAGE"));
    }

    #[test]
    fn help_prints_usage() {
        for flag in ["help", "--help", "-h"] {
            let (code, out) = run_capture(&[flag]);
            assert_eq!(code, 0);
            assert!(out.contains("COMMANDS"));
        }
    }

    #[test]
    fn unknown_command_fails() {
        let (code, out) = run_capture(&["frobnicate"]);
        assert_eq!(code, 2);
        assert!(out.contains("unknown command"));
    }
}
