//! The traced run (`--trace 1`): per-layer numbers.
//!
//! Every time is taken from outside, around a call into one crate's public
//! functions; nothing inside the simulator is timed by this run. The only
//! instrumentation read is what already exists: the `gc.*` spans, the
//! `gc.pause_ns` histogram and the `touch.events` counter of the run's
//! telemetry report, and the hot-path profiler's exact per-stage event
//! *counts* (its sampled times are never used: the profiler runs at a
//! cadence so large no touch is timed).
//!
//! A traced pass does the same work as the workload's untraced pass, cut
//! into timed calls. Its closure check is two-sided: the timed layers must
//! not add up to more than the pass's wall time (so `runner.other_s` is
//! never negative), and a layer measured inside another (GC inside the
//! replay or live run) must not exceed it. Layers the workload's pass does
//! not use are measured by probes on the same inputs, outside the pass.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use experiments::runner::trace_path;
use experiments::traces::REPLAY_COLLECTORS;
use fleet::driver::default_fleet_fault;
use fleet::FleetOutcome;
use hybrid_mem::energy::EnergyModel;
use hybrid_mem::timing::ExecutionModel;
use hybrid_mem::{Address, MemoryConfig, MemoryKind, MemorySystem, Phase, CACHE_LINE_SIZE, PAGE_SIZE};
use kingsguard::KingsguardHeap;
use telemetry::{HistogramSummary, Stage};
use trace::TraceReplayer;
use workloads::{BenchmarkProfile, SyntheticMutator, WorkloadConfig};

use crate::digest::{run_digest, Checker, RunCheck};
use crate::report::{median, Metric};
use crate::speed::SpeedProbe;
use crate::workload::{self, fleet_run, heap_config, run_fleet_checked, Inputs, Workload, FLEET_TENANTS};

/// Hot-path profiler cadence of the traced sessions: no touch is ever
/// sampled, so the profiler only counts.
const COUNT_ONLY: u64 = u64::MAX;
/// Tenants of the fleet probe on the workloads that do not run the fleet:
/// one wave.
const FLEET_PROBE_TENANTS: usize = 16;
/// Timed `parse_trace` repetitions.
const DECODE_REPEATS: usize = 3;
/// Accesses per timed memory-model batch, and batches per operation.
const MEM_OPS: usize = 1 << 18;
const MEM_REPEATS: usize = 3;
/// Lines per probed copy: one 256-byte PCM fault line.
const COPY_LINES: usize = 4;

const MIB: f64 = 1024.0 * 1024.0;

/// A pass's wall time and the layers timed inside it.
#[derive(Clone, Debug, Default)]
pub struct Closure {
    pub wall: Duration,
    /// Disjoint layers timed inside the pass.
    pub layers: Vec<(&'static str, Duration)>,
    /// `(inner, inner time, outer, outer time)`: a layer timed inside
    /// another one.
    pub nested: Vec<(&'static str, Duration, &'static str, Duration)>,
}

impl Closure {
    /// Wall time no timed layer accounts for (negative when the layers
    /// over-count).
    pub fn other_s(&self) -> f64 {
        let timed: Duration = self.layers.iter().map(|(_, d)| *d).sum();
        self.wall.as_secs_f64() - timed.as_secs_f64()
    }

    pub fn check(&self, what: &str) -> Result<(), String> {
        let timed: Duration = self.layers.iter().map(|(_, d)| *d).sum();
        if timed > self.wall {
            let names: Vec<&str> = self.layers.iter().map(|(name, _)| *name).collect();
            return Err(format!(
                "closure check failed on the {what}: {} add up to {:.6} s, more than its wall time {:.6} s",
                names.join(" + "),
                timed.as_secs_f64(),
                self.wall.as_secs_f64()
            ));
        }
        for (inner, inner_time, outer, outer_time) in &self.nested {
            if inner_time > outer_time {
                return Err(format!(
                    "closure check failed on the {what}: {inner} ({:.6} s) exceeds {outer} ({:.6} s), which contains it",
                    inner_time.as_secs_f64(),
                    outer_time.as_secs_f64()
                ));
            }
        }
        Ok(())
    }
}

/// The six-collector sessions a workload's session layers are measured on.
struct Sessions {
    profile: BenchmarkProfile,
    scale: u64,
    seed: u64,
    memory: MemoryConfig,
    trace_path: PathBuf,
}

impl Sessions {
    fn of(inputs: &Inputs) -> Sessions {
        let profile = inputs.profile();
        match inputs.workload {
            Workload::ReplayCached | Workload::LiveGc => {
                let config = inputs.experiment_config();
                Sessions {
                    trace_path: trace_path(
                        &inputs.trace_dir,
                        profile.name,
                        &heap_config("KG-N", &profile, config.scale),
                        &config,
                        1,
                    ),
                    scale: config.scale,
                    seed: config.seed,
                    memory: workload::memory_config(&config),
                    profile,
                }
            }
            // The fleet's replay tenant: lusearch at twice the base session
            // scale, in the fleet's memory mode.
            Workload::Fleet => {
                let mut memory = MemoryConfig::architecture_independent();
                memory.track_line_writes = true;
                Sessions {
                    trace_path: inputs.trace_dir.join("fleet-sessions.kgtrace"),
                    scale: inputs.scale * 2,
                    seed: inputs.seed,
                    memory,
                    profile,
                }
            }
        }
    }

    fn heap(&self, label: &str) -> KingsguardHeap {
        let mut heap =
            KingsguardHeap::new(heap_config(label, &self.profile, self.scale), self.memory.clone());
        heap.enable_telemetry();
        heap.enable_hot_path_profiler(COUNT_ONLY);
        heap
    }

    fn mutator(&self) -> SyntheticMutator {
        SyntheticMutator::new(
            self.profile.clone(),
            WorkloadConfig {
                scale: self.scale,
                seed: self.seed,
            },
        )
    }
}

/// How a drive feeds each collector's heap.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Feed {
    /// `load_trace` then `TraceReplayer::replay`.
    Replay,
    /// `SyntheticMutator::run`.
    Live,
}

/// One session per comparison collector, with its timed layers and the
/// counts read from each run's report.
#[derive(Clone, Debug, Default)]
struct Drive {
    replayed: bool,
    wall: Duration,
    load: Duration,
    run: Duration,
    gc: Duration,
    pauses: HistogramSummary,
    collections: [u64; 3],
    bytes_copied: u64,
    touches: u64,
    cache_hits: u64,
    llc_misses: u64,
    pcm_writes: u64,
    dram_writes: u64,
    stage_events: [u64; Stage::ALL.len()],
    profiled_touches: u64,
    resident_bytes: usize,
    /// Peak mapped (DRAM, PCM) bytes of the largest session.
    footprint: (u64, u64),
    runs: Vec<RunCheck>,
}

impl Drive {
    fn closure(&self) -> Closure {
        let (run_name, layers) = if self.replayed {
            (
                "trace.replay_s",
                vec![("trace.load_s", self.load), ("trace.replay_s", self.run)],
            )
        } else {
            ("workloads.live_s", vec![("workloads.live_s", self.run)])
        };
        Closure {
            wall: self.wall,
            layers,
            nested: vec![("gc.s", self.gc, run_name, self.run)],
        }
    }
}

fn drive(sessions: &Sessions, feed: Feed) -> Drive {
    let mut drive = Drive::default();
    let (mut load, mut run) = (Duration::ZERO, Duration::ZERO);
    let start = Instant::now();
    let reports: Vec<_> = REPLAY_COLLECTORS
        .iter()
        .map(|label| {
            catch_unwind(AssertUnwindSafe(|| {
                let heap = match feed {
                    Feed::Replay => {
                        let t = Instant::now();
                        let recorded = trace::load_trace(&sessions.trace_path).map_err(|e| e.to_string())?;
                        load += t.elapsed();
                        let mut heap = sessions.heap(label);
                        let t = Instant::now();
                        TraceReplayer::new(&recorded)
                            .replay(&mut heap)
                            .map_err(|e| e.to_string())?;
                        run += t.elapsed();
                        heap
                    }
                    Feed::Live => {
                        let mut heap = sessions.heap(label);
                        let mutator = sessions.mutator();
                        let t = Instant::now();
                        mutator.run(&mut heap);
                        run += t.elapsed();
                        heap
                    }
                };
                let resident = heap.memory().resident_bytes();
                let report = heap.finish();
                // The models `run_benchmark` evaluates on every result.
                let time = ExecutionModel::default().breakdown(&report.gc.work, &report.memory);
                black_box(EnergyModel::default().breakdown(&report.memory, time.total_s(), 1.0 / 32.0, 1.0));
                Ok((report, resident))
            }))
            .unwrap_or_else(|payload| Err(experiments::runner::panic_message(payload.as_ref())))
        })
        .collect();
    drive.wall = start.elapsed();
    drive.replayed = feed == Feed::Replay;
    drive.load = load;
    drive.run = run;
    for (label, result) in REPLAY_COLLECTORS.iter().zip(reports) {
        let digest = result
            .as_ref()
            .map(|(report, _)| run_digest(&report.gc, &report.memory));
        drive.runs.push(RunCheck {
            label: label.to_string(),
            digest: digest.map_err(Clone::clone),
        });
        let Ok((report, resident)) = result else {
            continue;
        };
        drive.resident_bytes = drive.resident_bytes.max(resident);
        let gc = &report.gc;
        drive.collections[0] += gc.nursery.collections;
        drive.collections[1] += gc.observer.collections;
        drive.collections[2] += gc.major.collections;
        drive.bytes_copied += gc.nursery.bytes_copied + gc.observer.bytes_copied + gc.major.bytes_copied;
        if gc.peak_dram_mapped + gc.peak_pcm_mapped > drive.footprint.0 + drive.footprint.1 {
            drive.footprint = (gc.peak_dram_mapped, gc.peak_pcm_mapped);
        }
        let memory = &report.memory;
        drive.cache_hits += memory.cache_hits;
        drive.llc_misses += memory.llc_misses;
        drive.pcm_writes += memory.writes(MemoryKind::Pcm);
        drive.dram_writes += memory.writes(MemoryKind::Dram);
        let Some(telemetry) = report.telemetry.as_ref() else {
            continue;
        };
        let gc_ns: u64 = ["gc.nursery", "gc.observer", "gc.major"]
            .iter()
            .filter_map(|name| telemetry.span(name))
            .map(|span| span.total_ns)
            .sum();
        drive.gc += Duration::from_nanos(gc_ns);
        if let Some(pauses) = telemetry.hist("gc.pause_ns") {
            drive.pauses.merge(pauses);
        }
        drive.touches += telemetry.counter("touch.events").unwrap_or(0);
        drive.profiled_touches += telemetry.counter("profile.touches").unwrap_or(0);
        for (slot, stage) in drive.stage_events.iter_mut().zip(Stage::ALL) {
            *slot += telemetry
                .counter(&format!("profile.events.{}", stage.label()))
                .unwrap_or(0);
        }
    }
    drive
}

/// The recording probe: `SyntheticMutator::record` timed, the trace's
/// size, and `parse_trace` throughput on the in-memory bytes. Saves the
/// trace for the replay drives unless the workload's pass already did.
struct Recording {
    record_s: f64,
    events: u64,
    bytes: u64,
    decode_mevents_per_s: Vec<f64>,
}

fn record(sessions: &Sessions) -> Result<Recording, String> {
    let mut heap = KingsguardHeap::new(
        heap_config("KG-N", &sessions.profile, sessions.scale),
        sessions.memory.clone(),
    );
    let mutator = sessions.mutator();
    let t = Instant::now();
    let recorded = mutator.record(&mut heap);
    let record_s = t.elapsed().as_secs_f64();
    drop(heap.finish());
    if !sessions.trace_path.exists() {
        trace::save_trace(&recorded, &sessions.trace_path).map_err(|e| e.to_string())?;
    }
    let bytes = trace::trace_to_bytes(&recorded);
    let events = recorded.events.len() as u64;
    let mut decode_mevents_per_s = Vec::with_capacity(DECODE_REPEATS);
    for _ in 0..DECODE_REPEATS {
        let t = Instant::now();
        let parsed = trace::parse_trace(black_box(&bytes)).map_err(|e| e.to_string())?;
        let elapsed = t.elapsed().as_secs_f64();
        black_box(parsed);
        decode_mevents_per_s.push(events as f64 / elapsed / 1e6);
    }
    Ok(Recording {
        record_s,
        events,
        bytes: bytes.len() as u64,
        decode_mevents_per_s,
    })
}

/// Nanoseconds per `write_u64`, per `read_u64` and per copied line of
/// `copy`, each batch-timed over a seeded access stream spread across a
/// footprint of `footprint` (DRAM, PCM) bytes.
fn memory_model(config: MemoryConfig, footprint: (u64, u64), seed: u64) -> [Vec<f64>; 3] {
    let pages = |bytes: u64| (bytes as usize).div_ceil(PAGE_SIZE).max(1);
    let (dram_pages, pcm_pages) = (pages(footprint.0), pages(footprint.1));
    let span = (dram_pages + pcm_pages) * PAGE_SIZE;
    let mut mem = MemorySystem::new(config);
    let base = mem.reserve_extent("perfbench", span);
    mem.map_pages(base, dram_pages, MemoryKind::Dram, 0);
    mem.map_pages(base.add(dram_pages * PAGE_SIZE), pcm_pages, MemoryKind::Pcm, 1);
    // Touch the whole footprint once so the backing store is allocated
    // before any batch is timed.
    mem.zero(base, span, Phase::Mutator);
    let mut state = seed ^ 0x9e37_79b9_7f4a_7c15;
    let mut next = |bound: usize| {
        // splitmix64
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % bound as u64) as usize
    };
    let words: Vec<Address> = (0..MEM_OPS).map(|_| base.add(next(span / 8) * 8)).collect();
    let copy_lines = span / CACHE_LINE_SIZE - COPY_LINES;
    let copies: Vec<(Address, Address)> = (0..MEM_OPS / COPY_LINES)
        .map(|_| {
            let src = base.add(next(copy_lines) * CACHE_LINE_SIZE);
            (src, base.add(next(copy_lines) * CACHE_LINE_SIZE))
        })
        .collect();
    let mut ns = [Vec::new(), Vec::new(), Vec::new()];
    for _ in 0..MEM_REPEATS {
        let t = Instant::now();
        for (i, &addr) in words.iter().enumerate() {
            mem.write_u64(addr, i as u64, Phase::Mutator);
        }
        ns[0].push(t.elapsed().as_nanos() as f64 / words.len() as f64);
        let t = Instant::now();
        let mut sum = 0u64;
        for &addr in &words {
            sum = sum.wrapping_add(mem.read_u64(addr, Phase::Mutator));
        }
        black_box(sum);
        ns[1].push(t.elapsed().as_nanos() as f64 / words.len() as f64);
        let t = Instant::now();
        for &(src, dst) in &copies {
            mem.copy(src, dst, COPY_LINES * CACHE_LINE_SIZE, Phase::MajorGc);
        }
        ns[2].push(t.elapsed().as_nanos() as f64 / (copies.len() * COPY_LINES) as f64);
    }
    black_box(mem.stats());
    ns
}

/// Quantile `q` of a power-of-two histogram, interpolated linearly inside
/// the bucket that holds the rank (bucket `(upper / 2, upper]`) and clamped
/// to the observed range. The histogram's own quantile returns the bucket
/// bound, which would read the same on almost every run.
fn interpolated_quantile(hist: &HistogramSummary, q: f64) -> f64 {
    if hist.count == 0 {
        return 0.0;
    }
    let rank = q * hist.count as f64;
    let mut below = 0u64;
    for &(upper, count) in &hist.buckets {
        if (below + count) as f64 >= rank {
            let lower = if upper <= 1 { 0.0 } else { (upper / 2) as f64 };
            let within = ((rank - below as f64) / count as f64).clamp(0.0, 1.0);
            let value = lower + (upper as f64 - lower) * within;
            return value.clamp(hist.min as f64, hist.max as f64);
        }
        below += count;
    }
    hist.max as f64
}

fn secs(drives: &[Drive], f: impl Fn(&Drive) -> Duration) -> Vec<f64> {
    drives.iter().map(|d| f(d).as_secs_f64()).collect()
}

/// The traced run: a warm-up pass, then untraced and traced passes in
/// turn until `seconds` have passed (at least one of each), then the
/// probes. Returns the per-layer metrics, or the closure failure.
pub fn traced(inputs: &Inputs, seconds: f64, checker: &mut Checker) -> Result<Vec<Metric>, String> {
    let sessions = Sessions::of(inputs);
    let mut probe = SpeedProbe::new();
    let warm_up = workload::pass(inputs, &mut probe);
    checker.check("warm-up pass", &warm_up.runs);
    let recording = record(&sessions)?;

    let mut untraced_wall = Vec::new();
    let mut closures = Vec::new();
    let mut primary: Vec<Drive> = Vec::new();
    let mut fleet_runs: Vec<(f64, Result<FleetOutcome, String>)> = Vec::new();
    let start = Instant::now();
    loop {
        let untraced = workload::pass(inputs, &mut probe);
        checker.check("untraced pass", &untraced.runs);
        untraced_wall.push(untraced.wall_s);
        let closure = match inputs.workload {
            Workload::ReplayCached | Workload::LiveGc => {
                let feed = if inputs.workload == Workload::ReplayCached {
                    Feed::Replay
                } else {
                    Feed::Live
                };
                let traced = drive(&sessions, feed);
                checker.check("traced pass", &traced.runs);
                let closure = traced.closure();
                primary.push(traced);
                closure
            }
            Workload::Fleet => {
                let t = Instant::now();
                let outcome = run_fleet_checked(&inputs.fleet_config(FLEET_TENANTS, inputs.jobs));
                let parallel = t.elapsed();
                // The pass is this one call, so only the clock reads
                // separate the pass's wall time from the layer's.
                let wall = t.elapsed();
                checker.check("traced pass", &[fleet_run(&outcome)]);
                fleet_runs.push((parallel.as_secs_f64(), outcome));
                Closure {
                    wall,
                    layers: vec![("fleet.parallel_s", parallel)],
                    nested: Vec::new(),
                }
            }
        };
        closure.check("traced pass")?;
        closures.push(closure);
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }

    // Probes: the session layers the workload's pass does not exercise,
    // driven on the same inputs. Replay and live runs of one trace are
    // bit-identical, so every probe run is checked too.
    let probe = |feed: Feed, what: &str| -> Result<Drive, String> {
        let probe = drive(&sessions, feed);
        probe.closure().check(what)?;
        Ok(probe)
    };
    let (replays, lives) = match inputs.workload {
        Workload::ReplayCached => {
            let live = probe(Feed::Live, "live probe")?;
            checker.check("live probe", &live.runs);
            (primary.clone(), vec![live])
        }
        Workload::LiveGc => {
            let replay = probe(Feed::Replay, "replay probe")?;
            checker.check("replay probe", &replay.runs);
            (vec![replay], primary.clone())
        }
        Workload::Fleet => {
            let replay = probe(Feed::Replay, "replay probe")?;
            let live = probe(Feed::Live, "live probe")?;
            for (r, l) in replay.runs.iter().zip(&live.runs) {
                checker.check_equal(&format!("session probe {} replay vs live", r.label), r, l);
            }
            primary.push(live.clone());
            (vec![replay], vec![live])
        }
    };

    // The fleet layer: the workload's own fleet, or a one-wave probe.
    let (serial, parallel_s, fleet_outcome) = match inputs.workload {
        Workload::Fleet => {
            let t = Instant::now();
            let serial = run_fleet_checked(&inputs.fleet_config(FLEET_TENANTS, 1));
            let serial_s = t.elapsed().as_secs_f64();
            let (_, last) = fleet_runs.last().expect("at least one traced pass");
            checker.check_equal(
                "fleet jobs 1 vs jobs nproc",
                &fleet_run(&serial),
                &fleet_run(last),
            );
            let parallel: Vec<f64> = fleet_runs.iter().map(|(s, _)| *s).collect();
            (serial_s, parallel, last.clone())
        }
        Workload::ReplayCached | Workload::LiveGc => {
            let probe = |jobs| {
                let config = fleet::FleetConfig::new(FLEET_PROBE_TENANTS)
                    .with_seed(inputs.seed)
                    .with_jobs(jobs);
                let t = Instant::now();
                let outcome = run_fleet_checked(&config);
                (t.elapsed().as_secs_f64(), outcome)
            };
            let (serial_s, serial) = probe(1);
            let (parallel_s, parallel) = probe(inputs.jobs);
            checker.check_equal(
                "fleet probe jobs 1 vs jobs nproc",
                &fleet_run(&serial),
                &fleet_run(&parallel),
            );
            (serial_s, vec![parallel_s], parallel)
        }
    };

    let head = &primary[0];
    let mut pauses = HistogramSummary::default();
    match inputs.workload {
        Workload::Fleet => {
            for outcome in fleet_runs.iter().filter_map(|(_, o)| o.as_ref().ok()) {
                pauses.merge(&outcome.pauses);
            }
        }
        _ => primary.iter().for_each(|d| pauses.merge(&d.pauses)),
    }
    // In `MEM_NAMES` order: as replay-cached, as live-gc, as the fleet.
    let mut wear =
        MemoryConfig::architecture_independent().with_faults(default_fleet_fault(inputs.seed, FLEET_TENANTS));
    wear.track_line_writes = true;
    let mem_configs = [
        MemoryConfig::hybrid_scaled(experiments::runner::ExperimentConfig::simulation().cache_scale),
        MemoryConfig::architecture_independent(),
        wear,
    ];
    let mem_ns: Vec<[Vec<f64>; 3]> = mem_configs
        .into_iter()
        .map(|config| memory_model(config, head.footprint, inputs.seed))
        .collect();

    let live_s = secs(&lives, |d| d.run);
    let replay_s = secs(&replays, |d| d.run);
    let run_s = secs(&primary, |d| d.run);
    let gc_s = secs(&primary, |d| d.gc);
    let serial_over_parallel = serial / median(&parallel_s);
    let fleet = fleet_outcome.as_ref().ok();
    let fleet_count = |f: fn(&FleetOutcome) -> u64| fleet.map_or(0, f) as f64;
    let cached = head.cache_hits + head.llc_misses;
    let stage = |s: Stage| head.stage_events[s as usize] as f64;

    let mut metrics = vec![
        Metric::single("trace.record_s", "s", recording.record_s),
        Metric::new("trace.load_s", "s", secs(&replays, |d| d.load)),
        Metric::new(
            "trace.decode_mevents_per_s",
            "Mevents/s",
            recording.decode_mevents_per_s,
        ),
        Metric::new("trace.replay_s", "s", replay_s.clone()),
        Metric::single("trace.events", "count", recording.events as f64),
        Metric::single("trace.bytes", "bytes", recording.bytes as f64),
        Metric::new("workloads.live_s", "s", live_s.clone()),
        Metric::single("workloads.gen_s", "s", median(&live_s) - median(&replay_s)),
        Metric::new("gc.s", "s", gc_s.clone()),
        Metric::new(
            "gc.share",
            "ratio",
            gc_s.iter().zip(&run_s).map(|(gc, run)| gc / run).collect(),
        ),
        Metric::single(
            "gc.pause_ms.p50",
            "ms",
            interpolated_quantile(&pauses, 0.50) / 1e6,
        ),
        Metric::single(
            "gc.pause_ms.p99",
            "ms",
            interpolated_quantile(&pauses, 0.99) / 1e6,
        ),
        Metric::single("gc.collections.nursery", "count", head.collections[0] as f64),
        Metric::single("gc.collections.observer", "count", head.collections[1] as f64),
        Metric::single("gc.collections.major", "count", head.collections[2] as f64),
        Metric::single("gc.bytes_copied", "bytes", head.bytes_copied as f64),
        Metric::new(
            "kingsguard.mutator_s",
            "s",
            run_s.iter().zip(&gc_s).map(|(run, gc)| run - gc).collect(),
        ),
    ];
    const MEM_NAMES: [[&str; 3]; 3] = [
        [
            "mem.write_ns.cached",
            "mem.read_ns.cached",
            "mem.copy_ns_per_line.cached",
        ],
        [
            "mem.write_ns.uncached",
            "mem.read_ns.uncached",
            "mem.copy_ns_per_line.uncached",
        ],
        [
            "mem.write_ns.wear",
            "mem.read_ns.wear",
            "mem.copy_ns_per_line.wear",
        ],
    ];
    for (names, ns) in MEM_NAMES.iter().zip(mem_ns) {
        for (name, samples) in names.iter().zip(ns) {
            metrics.push(Metric::new(name, "ns", samples));
        }
    }
    metrics.extend([
        Metric::single("mem.touches", "count", head.touches as f64),
        Metric::single(
            "mem.cache_hit_rate",
            "ratio",
            if cached == 0 {
                0.0
            } else {
                head.cache_hits as f64 / cached as f64
            },
        ),
        Metric::single("mem.llc_misses", "count", head.llc_misses as f64),
        Metric::single("mem.pcm_writes", "count", head.pcm_writes as f64),
        Metric::single("mem.dram_writes", "count", head.dram_writes as f64),
        Metric::single("mem.events.page-map", "count", stage(Stage::PageMap)),
        Metric::single("mem.events.cache-model", "count", stage(Stage::CacheModel)),
        Metric::single(
            "mem.events.line-bookkeeping",
            "count",
            stage(Stage::LineBookkeeping),
        ),
        Metric::single("mem.events.backing-store", "count", stage(Stage::BackingStore)),
        Metric::single("mem.events.wear-tracking", "count", stage(Stage::WearTracking)),
        Metric::single(
            "mem.page_map_lookups_per_touch",
            "ratio",
            stage(Stage::PageMap) / head.profiled_touches.max(1) as f64,
        ),
        Metric::single("mem.resident_mb", "MiB", head.resident_bytes as f64 / MIB),
        Metric::single("fleet.serial_s", "s", serial),
        Metric::new("fleet.parallel_s", "s", parallel_s),
        Metric::single("fleet.speedup", "x", serial_over_parallel),
        Metric::single(
            "fleet.efficiency",
            "ratio",
            serial_over_parallel / inputs.jobs as f64,
        ),
        Metric::single(
            "fleet.sessions",
            "count",
            fleet_count(|o| o.outcomes.len() as u64),
        ),
        Metric::single("fleet.died", "count", fleet_count(|o| o.failures.len() as u64)),
        Metric::single("fleet.touch_events", "count", fleet_count(|o| o.touch_events)),
        Metric::single("fleet.retired_pages", "count", fleet_count(|o| o.retired_pages)),
        Metric::single("fleet.failed_lines", "count", fleet_count(|o| o.failed_lines)),
        Metric::single("fleet.warm_starts", "count", fleet_count(|o| o.warm_starts)),
        Metric::new(
            "runner.other_s",
            "s",
            closures.iter().map(Closure::other_s).collect(),
        ),
        Metric::single(
            "tracing_overhead",
            "ratio",
            median(&closures.iter().map(|c| c.wall.as_secs_f64()).collect::<Vec<_>>())
                / median(&untraced_wall),
        ),
    ]);
    checker.notes.push(format!(
        "closure checks passed on {} traced passes and the probes",
        closures.len()
    ));
    Ok(metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn layers_that_sum_past_the_wall_fail_the_closure_check() {
        let mut closure = Closure {
            wall: ms(100),
            layers: vec![("trace.load_s", ms(30)), ("trace.replay_s", ms(60))],
            nested: vec![("gc.s", ms(20), "trace.replay_s", ms(60))],
        };
        assert!(closure.check("pass").is_ok());
        assert!((closure.other_s() - 0.010).abs() < 1e-12);

        closure.layers[1].1 = ms(71);
        let err = closure.check("pass").unwrap_err();
        assert!(err.contains("more than its wall time"), "{err}");
        assert!(closure.other_s() < 0.0);
    }

    #[test]
    fn a_nested_layer_longer_than_its_parent_fails_the_closure_check() {
        let closure = Closure {
            wall: ms(100),
            layers: vec![("workloads.live_s", ms(90))],
            nested: vec![("gc.s", ms(91), "workloads.live_s", ms(90))],
        };
        let err = closure.check("pass").unwrap_err();
        assert!(err.contains("gc.s"), "{err}");
    }

    #[test]
    fn interpolated_quantiles_stay_inside_the_bucket_and_the_range() {
        let mut hist = telemetry::Histogram::new();
        for value in [3, 5, 6, 7, 8, 100] {
            hist.record(value);
        }
        let summary = HistogramSummary::from_histogram(&hist);
        let p50 = interpolated_quantile(&summary, 0.5);
        assert!((4.0..=8.0).contains(&p50), "{p50}");
        assert_eq!(interpolated_quantile(&summary, 1.0), 100.0);
        assert_eq!(interpolated_quantile(&summary, 0.0), 3.0);
        assert_eq!(interpolated_quantile(&HistogramSummary::default(), 0.5), 0.0);
    }
}
