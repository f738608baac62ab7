//! `kg-perfbench`: host-throughput benchmark of the write-rationing GC
//! simulator. `DESIGN.md` next to this crate gives the metric → layer →
//! workload table and the reason for each workload.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload replay-cached --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, with every time in reference
//! seconds (host seconds over the slowness `speed.rs` probes between runs),
//! and `--trace 1` the per-layer metrics of a traced run, in host seconds. `--workload all` runs every workload in turn,
//! each in a process of its own. The last line of standard output is the
//! result (`correct`, `attempted`, `failed`, `metrics`); the line before it
//! is the full report (host stamp and the spread of every metric); the
//! human-readable table goes to standard error. The exit code is 1 when a
//! run failed its digest check, 3 when the traced run failed its closure
//! check, and 2 on bad arguments.

mod digest;
mod layers;
mod report;
mod speed;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;

use digest::{Checker, Goldens};
use report::{median, HostStamp, Metric, Outcome};
use speed::SpeedProbe;
use workload::{Inputs, Pass, Workload, DEFAULT_SEED};

const USAGE: &str =
    "usage: kg-perfbench --workload replay-cached|live-gc|fleet|all [--seed N] [--seconds N] \
[--trace 0|1] [--scale N] [--goldens FILE] [--print-goldens]";

/// Set-up repetitions per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Fewest measured passes per end-to-end run, however short `--seconds`.
const MIN_PASSES: usize = 3;

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    scale: Option<u64>,
    goldens: Option<PathBuf>,
    print_goldens: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: 10,
            trace: false,
            scale: None,
            goldens: None,
            print_goldens: false,
        };
        let mut workload = None;
        while let Some(flag) = args.next() {
            if flag == "--print-goldens" {
                parsed.print_goldens = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|err| format!("{flag} {value:?}: {err}"))
            };
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => parsed.seed = number()?,
                "--seconds" => parsed.seconds = number()?.max(1),
                "--scale" => parsed.scale = Some(number()?.max(1)),
                "--goldens" => parsed.goldens = Some(PathBuf::from(&value)),
                "--trace" => {
                    parsed.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        match workload.as_deref() {
            None => return Err("--workload is required".to_string()),
            Some("all") => {}
            Some(name) => {
                parsed.workload =
                    Some(Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
        }
        Ok(parsed)
    }
}

/// Removes the run's scratch directory (traces) however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A scratch directory beside the benchmark's executable, which lives in
/// the build directory of the checkout.
fn work_dir() -> Result<WorkDir, String> {
    let exe = std::env::current_exe().map_err(|err| format!("cannot locate the executable: {err}"))?;
    let dir = exe
        .parent()
        .ok_or("the executable has no parent directory")?
        .join(format!("perfbench-work-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|err| format!("cannot create {}: {err}", dir.display()))?;
    Ok(WorkDir(dir))
}

/// glibc's `mallopt` parameter number for the mmap threshold.
#[cfg(target_env = "gnu")]
const M_MMAP_THRESHOLD: std::ffi::c_int = -3;

#[cfg(target_env = "gnu")]
extern "C" {
    fn mallopt(param: std::ffi::c_int, value: std::ffi::c_int) -> std::ffi::c_int;
}

/// Pins glibc's mmap threshold at its default starting value, 128 KiB.
/// Left dynamic, glibc raises the threshold after the first large free,
/// and whether a freed trace buffer then stays resident differed from
/// process to process: `peak_rss_mb` read either ~37 or ~51 MiB on the
/// same inputs. Pinned, the high-water mark is the live footprint.
fn pin_mmap_threshold() {
    #[cfg(target_env = "gnu")]
    // SAFETY: `mallopt` takes no pointers; it only sets an allocator
    // parameter, under the allocator's own lock, and 128 KiB is a valid
    // threshold. It runs first thing in `main`, before any thread exists.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 128 * 1024);
    }
}

fn main() -> ExitCode {
    pin_mmap_threshold();
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("kg-perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = args.workload else {
        return run_all();
    };
    let goldens = match &args.goldens {
        None => Goldens::parse(include_str!("../goldens.txt")),
        Some(path) => std::fs::read_to_string(path)
            .map_err(|err| format!("cannot read {}: {err}", path.display()))
            .and_then(|text| Goldens::parse(&text)),
    };
    let goldens = match goldens {
        Ok(goldens) => goldens,
        Err(err) => {
            eprintln!("kg-perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let work = match work_dir() {
        Ok(work) => work,
        Err(err) => {
            eprintln!("kg-perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    let inputs = Inputs {
        workload,
        seed: args.seed,
        scale: args.scale.unwrap_or(workload.default_scale()),
        jobs: report::nproc(),
        trace_dir: work.0.clone(),
    };
    if args.print_goldens {
        let pass = workload::pass(&inputs, &mut SpeedProbe::new());
        print!(
            "{}",
            Goldens::rows(workload.name(), inputs.scale, inputs.seed, &pass.runs)
        );
        return ExitCode::SUCCESS;
    }
    let mut checker = Checker::new(goldens.lookup(workload.name(), inputs.scale, inputs.seed));
    let seconds = args.seconds as f64;
    let metrics = if args.trace {
        match layers::traced(&inputs, seconds, &mut checker) {
            Ok(metrics) => metrics,
            Err(err) => {
                eprintln!("kg-perfbench: {err}");
                return ExitCode::from(3);
            }
        }
    } else {
        end_to_end(&inputs, seconds, &mut checker)
    };
    let outcome = Outcome {
        workload: workload.name(),
        seed: inputs.seed,
        scale: inputs.scale,
        seconds: args.seconds,
        trace: args.trace,
        attempted: checker.attempted,
        failed: checker.failed,
        notes: checker.notes,
        metrics,
    };
    eprint!("{}", outcome.table());
    println!("{}", outcome.report_json(&HostStamp::collect()));
    println!("{}", outcome.result_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end run: `SETUP_REPEATS` set-ups, then measured passes until
/// `seconds` would be exceeded. Every time is in reference seconds (see
/// `speed.rs`); the host's own figures go into the notes.
fn end_to_end(inputs: &Inputs, seconds: f64, checker: &mut Checker) -> Vec<Metric> {
    let mut probe = SpeedProbe::new();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut setup_host_s = Vec::with_capacity(SETUP_REPEATS);
    for repeat in 0..SETUP_REPEATS {
        // Set-up is the warm-up pass; for `replay-cached` it starts from an
        // empty trace directory, so it also records the trace.
        if inputs.workload == Workload::ReplayCached {
            let _ = std::fs::remove_dir_all(&inputs.trace_dir);
            let _ = std::fs::create_dir_all(&inputs.trace_dir);
        }
        let pass = workload::pass(inputs, &mut probe);
        checker.check(&format!("set-up {repeat}"), &pass.runs);
        setup_s.push(pass.ref_wall_s);
        setup_host_s.push(pass.wall_s);
    }
    let setup_peak_rss_mb = report::peak_rss_mb();
    let start = Instant::now();
    let mut passes = Vec::new();
    let mut peak_rss_mb = Vec::new();
    let mut resettable = true;
    loop {
        // Each pass gets its own high-water mark, so the median is not set
        // by set-up or by one pass's allocator layout.
        resettable &= report::reset_peak_rss();
        let began = Instant::now();
        let pass = workload::pass(inputs, &mut probe);
        let took = began.elapsed().as_secs_f64();
        peak_rss_mb.push(report::peak_rss_mb());
        checker.check(&format!("pass {}", passes.len()), &pass.runs);
        eprintln!(
            "pass {}: wall {:.4} s ({:.4} reference s, slowness {:.3}), cpu {:.2} s, peak RSS {:.1} MiB, {} touches",
            passes.len(),
            pass.wall_s,
            pass.ref_wall_s,
            pass.slowness(),
            pass.cpu_s,
            peak_rss_mb[passes.len()],
            pass.touches
        );
        passes.push(pass);
        if passes.len() >= MIN_PASSES && start.elapsed().as_secs_f64() + took > seconds {
            break;
        }
    }
    if !resettable {
        checker
            .notes
            .push("peak_rss_mb includes set-up: the high-water mark could not be reset".to_string());
    }
    let touches_per_s = passes.iter().map(|p| p.touches as f64 / p.ref_wall_s).collect();
    let cpu_s: Vec<f64> = passes.iter().map(Pass::ref_cpu_s).collect();
    let host = |f: fn(&Pass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    checker.notes.push(format!(
        "{} measured passes, {} touches per pass; host medians: wall {:.4} s, cpu {:.4} s, \
         {:.0} touches/s, slowness {:.3}, set-up {:.4} s; peak RSS {setup_peak_rss_mb:.1} MiB after set-up",
        passes.len(),
        passes[0].touches,
        host(|p| p.wall_s),
        host(|p| p.cpu_s),
        host(|p| p.touches as f64 / p.wall_s),
        host(Pass::slowness),
        median(&setup_host_s)
    ));
    vec![
        Metric::new("touches_per_s", "1/s", touches_per_s),
        Metric::new("cpu_s", "s", cpu_s),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb),
        Metric::new("setup_s", "s", setup_s),
    ]
}

/// `--workload all`: every workload in a process of its own (so each
/// `peak_rss_mb` is its own), with the same flags. Exits non-zero if any
/// of them did.
fn run_all() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("kg-perfbench: cannot locate the executable: {err}");
            return ExitCode::from(2);
        }
    };
    let mut rest: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--workload" {
            args.next();
        } else {
            rest.push(arg);
        }
    }
    let mut failed = Vec::new();
    for workload in Workload::ALL {
        let status = Command::new(&exe)
            .args(["--workload", workload.name()])
            .args(&rest)
            .status();
        if !matches!(status, Ok(status) if status.success()) {
            failed.push(workload.name());
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("kg-perfbench: failed: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let args = parse(&[
            "--workload",
            "fleet",
            "--seed",
            "7",
            "--seconds",
            "20",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(args.workload, Some(Workload::Fleet));
        assert_eq!((args.seed, args.seconds, args.trace), (7, 20, true));
        assert_eq!(parse(&["--workload", "all"]).unwrap().workload, None);
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            &["--seed", "1"][..],
            &["--workload", "nope"],
            &["--workload", "fleet", "--trace", "2"],
            &["--workload", "fleet", "--seed"],
            &["--workload", "fleet", "--bogus", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn committed_goldens_cover_every_workload_at_the_default_seed() {
        let goldens = Goldens::parse(include_str!("../goldens.txt")).unwrap();
        for workload in Workload::ALL {
            let rows = goldens
                .lookup(workload.name(), workload.default_scale(), DEFAULT_SEED)
                .unwrap_or_else(|| panic!("no goldens for {}", workload.name()));
            let expected = if workload == Workload::Fleet { 1 } else { 6 };
            assert_eq!(rows.len(), expected, "{}", workload.name());
        }
    }
}
