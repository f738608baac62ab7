//! The three workloads and one untraced pass of each, driven through the
//! entry points `repro` uses: `runner::run_benchmark` and
//! `fleet::run_fleet`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use experiments::runner::{run_benchmark, run_jobs_reporting, ExperimentConfig};
use experiments::traces::{config_for, REPLAY_COLLECTORS};
use fleet::{run_fleet, FleetConfig, FleetOutcome};
use hybrid_mem::MemoryConfig;
use kingsguard::HeapConfig;
use workloads::BenchmarkProfile;

use crate::digest::{fleet_digest, run_digest, RunCheck};
use crate::report::cpu_seconds;
use crate::speed::SpeedProbe;

/// The seed whose digests are committed in `goldens.txt`.
pub const DEFAULT_SEED: u64 = 1;
/// Tenant sessions of the `fleet` workload (eight waves of sixteen).
pub const FLEET_TENANTS: usize = 128;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// lusearch replayed from its `.kgtrace` under the six comparison
    /// collectors, with the scaled cache hierarchy.
    ReplayCached,
    /// hsqldb run live under the six collectors, no caches, no trace.
    LiveGc,
    /// The default multi-tenant fleet, faults on, `jobs` = `nproc`.
    Fleet,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::ReplayCached, Workload::LiveGc, Workload::Fleet];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReplayCached => "replay-cached",
            Workload::LiveGc => "live-gc",
            Workload::Fleet => "fleet",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Scale divisor of the workload's inputs: for `fleet`, the base
    /// session scale.
    pub fn default_scale(self) -> u64 {
        match self {
            Workload::ReplayCached => 512,
            Workload::LiveGc => 32,
            Workload::Fleet => 2048,
        }
    }
}

/// Everything a pass needs, fixed at start-up.
#[derive(Clone, Debug)]
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub scale: u64,
    /// Worker threads of the fleet (`nproc`).
    pub jobs: usize,
    /// Where `replay-cached` records and replays its trace.
    pub trace_dir: PathBuf,
}

impl Inputs {
    /// The runner configuration of `replay-cached` and `live-gc`.
    pub fn experiment_config(&self) -> ExperimentConfig {
        let config = match self.workload {
            Workload::ReplayCached => ExperimentConfig::simulation().with_trace_dir(&self.trace_dir),
            Workload::LiveGc | Workload::Fleet => ExperimentConfig::architecture_independent(),
        };
        ExperimentConfig {
            seed: self.seed,
            ..config.with_scale(self.scale)
        }
    }

    pub fn fleet_config(&self, tenants: usize, jobs: usize) -> FleetConfig {
        FleetConfig::new(tenants)
            .with_seed(self.seed)
            .with_scale(self.scale)
            .with_jobs(jobs)
    }

    /// The benchmark whose sessions the runner workloads drive.
    pub fn profile(&self) -> BenchmarkProfile {
        let name = match self.workload {
            Workload::ReplayCached | Workload::Fleet => "lusearch",
            Workload::LiveGc => "hsqldb",
        };
        workloads::benchmark(name).expect("the benchmark is part of the simulated suite")
    }
}

/// The heap configuration `run_benchmark` builds for `label`: the
/// collector's configuration with the benchmark's scaled heap budget.
pub fn heap_config(label: &str, profile: &BenchmarkProfile, scale: u64) -> HeapConfig {
    config_for(label).with_heap_budget(profile.scaled_heap_bytes(scale).max(2 << 20) as usize)
}

/// The memory configuration `run_benchmark` builds for `config`.
pub fn memory_config(config: &ExperimentConfig) -> MemoryConfig {
    match config.mode {
        experiments::runner::MeasurementMode::Simulation => MemoryConfig::hybrid_scaled(config.cache_scale),
        experiments::runner::MeasurementMode::ArchitectureIndependent => {
            MemoryConfig::architecture_independent()
        }
    }
}

/// One untraced pass: host wall and CPU seconds, the same in reference
/// seconds, the simulated touches it performed, and one digest per run.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Host wall seconds of the pass's runs; the speed probes between them
    /// are not included.
    pub wall_s: f64,
    /// The same runs in reference seconds: each run's wall time over the
    /// mean of the slowness probed just before and just after it.
    pub ref_wall_s: f64,
    /// Host CPU seconds of the pass's runs, all threads.
    pub cpu_s: f64,
    pub touches: u64,
    pub runs: Vec<RunCheck>,
}

impl Pass {
    /// Host seconds per reference second over the pass.
    pub fn slowness(&self) -> f64 {
        self.wall_s / self.ref_wall_s
    }

    /// CPU seconds in reference seconds, at the pass's slowness.
    pub fn ref_cpu_s(&self) -> f64 {
        self.cpu_s / self.slowness()
    }
}

/// Runs `f`, returning its host wall and CPU seconds with its result.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, f64, R) {
    let cpu = cpu_seconds();
    let start = Instant::now();
    let result = f();
    (start.elapsed().as_secs_f64(), cpu_seconds() - cpu, result)
}

/// Times the runs of one pass, probing the host's speed before the first
/// run, between runs and after the last.
struct Timer<'a> {
    probe: &'a mut SpeedProbe,
    slowness: f64,
    wall_s: f64,
    ref_wall_s: f64,
    cpu_s: f64,
}

impl<'a> Timer<'a> {
    fn new(probe: &'a mut SpeedProbe) -> Timer<'a> {
        let slowness = probe.slowness();
        Timer {
            probe,
            slowness,
            wall_s: 0.0,
            ref_wall_s: 0.0,
            cpu_s: 0.0,
        }
    }

    fn run<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let (wall_s, cpu_s, result) = timed(f);
        let after = self.probe.slowness();
        self.wall_s += wall_s;
        self.ref_wall_s += wall_s / ((self.slowness + after) / 2.0);
        self.cpu_s += cpu_s;
        self.slowness = after;
        result
    }

    fn finish(self, touches: u64, runs: Vec<RunCheck>) -> Pass {
        Pass {
            wall_s: self.wall_s,
            ref_wall_s: self.ref_wall_s,
            cpu_s: self.cpu_s,
            touches,
            runs,
        }
    }
}

/// Runs one pass of `inputs.workload`, one run at a time with `probe`
/// between runs. Digests are taken after the clocks stop.
pub fn pass(inputs: &Inputs, probe: &mut SpeedProbe) -> Pass {
    let mut timer = Timer::new(probe);
    if inputs.workload == Workload::Fleet {
        let outcome = timer.run(|| run_fleet_checked(&inputs.fleet_config(FLEET_TENANTS, inputs.jobs)));
        let touches = outcome.as_ref().map_or(0, |o| o.touch_events);
        return timer.finish(touches, vec![fleet_run(&outcome)]);
    }
    let profile = inputs.profile();
    let config = inputs.experiment_config();
    let mut touches = 0;
    let mut runs = Vec::with_capacity(REPLAY_COLLECTORS.len());
    for label in REPLAY_COLLECTORS {
        // One collector per call, so the probe can run between them; the
        // call still catches a panicking run as `repro` does.
        let (mut results, failures) = timer.run(|| {
            run_jobs_reporting(&[label], 1, |label| {
                run_benchmark(&profile, config_for(label), &config)
            })
        });
        let digest = match results.pop().flatten() {
            Some(result) => {
                touches += result
                    .telemetry
                    .as_ref()
                    .and_then(|telemetry| telemetry.counter("touch.events"))
                    .unwrap_or(0);
                Ok(run_digest(&result.gc, &result.memory))
            }
            None => Err(failures
                .first()
                .map_or_else(|| "no result".to_string(), |failure| failure.message.clone())),
        };
        runs.push(RunCheck {
            label: label.to_string(),
            digest,
        });
    }
    timer.finish(touches, runs)
}

/// `run_fleet` with a panic or a died tenant turned into an error.
pub fn run_fleet_checked(config: &FleetConfig) -> Result<FleetOutcome, String> {
    let outcome = catch_unwind(AssertUnwindSafe(|| run_fleet(config)))
        .map_err(|payload| experiments::runner::panic_message(payload.as_ref()))?;
    match outcome.failures.first() {
        Some(failure) => Err(format!(
            "{} tenant(s) died, first #{} ({}): {}",
            outcome.failures.len(),
            failure.index,
            failure.benchmark,
            failure.message
        )),
        None => Ok(outcome),
    }
}

/// The check of one fleet run: its digest, or why it produced none.
pub fn fleet_run(outcome: &Result<FleetOutcome, String>) -> RunCheck {
    RunCheck {
        label: "fleet".to_string(),
        digest: outcome.as_ref().map(fleet_digest).map_err(Clone::clone),
    }
}
