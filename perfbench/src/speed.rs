//! The host speed probe: a fixed kernel, timed between the runs of a pass,
//! that turns host seconds into reference seconds.
//!
//! The benchmark's host is a few vCPUs of a shared machine, and its speed
//! moves by up to 1.8× within seconds as other tenants come and go (the
//! simulator and the probe slow down together; no steal time is reported).
//! A run of `--seconds` seconds can fall wholly in a slow or a fast stretch,
//! so medians inside a run cannot remove it. The probe can: it is a fixed
//! piece of the benchmark's own code, so a change to the simulator never
//! changes its time, while a slow host slows both. Each timed run is
//! divided by the *slowness* measured next to it, the probe's time over
//! [`REFERENCE_PROBE_S`], which gives the run's time on the reference host.
//!
//! The kernel is random lookups and updates in a 64 Ki-entry hash map, the
//! access pattern of the simulator's side tables. Of the kernels tried
//! (map lookups at two sizes, a pointer chase through 4 MiB, pure integer
//! arithmetic) it tracked the simulator's speed best on both single-threaded
//! workloads; `DESIGN.md` gives the numbers. It runs on one thread, also
//! for `fleet`: a probe on every thread at once tracked the fleet no better,
//! and would make a reference second depend on how the host's vCPUs share
//! cores.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::time::Instant;

/// The probe's time on the reference host, a 2-vCPU Intel Xeon VM in the
/// faster of its two states (`DESIGN.md`). It only sets the scale: a
/// reference second is a host second on a host where the probe takes this
/// long.
pub const REFERENCE_PROBE_S: f64 = 0.0085;

/// Entries in the probe's map, and the key space they are drawn from.
const ENTRIES: u64 = 1 << 16;
const KEY_SPACE: u64 = 1 << 20;
/// Timed lookups per probe: about 10 ms.
const LOOKUPS: usize = 400_000;

/// A deterministic hasher, so every process builds the same table layout.
type Fixed = BuildHasherDefault<DefaultHasher>;

/// The probe: its table and its key stream.
pub struct SpeedProbe {
    table: HashMap<u64, u64, Fixed>,
    state: u64,
}

impl SpeedProbe {
    pub fn new() -> SpeedProbe {
        let mut state = 0x9E37_79B9_7F4A_7C15;
        let mut table = HashMap::with_capacity_and_hasher(ENTRIES as usize, Fixed::default());
        for value in 0..ENTRIES {
            table.insert(xorshift(&mut state) % KEY_SPACE, value);
        }
        SpeedProbe { table, state }
    }

    /// The host's slowness now: the time of [`LOOKUPS`] random lookups and
    /// updates over [`REFERENCE_PROBE_S`] (above 1 on a slower host). An
    /// untimed sweep first brings the table back into cache, whatever ran
    /// before.
    pub fn slowness(&mut self) -> f64 {
        black_box(self.table.values().fold(0u64, |sum, v| sum.wrapping_add(*v)));
        let start = Instant::now();
        let mut sum = 0u64;
        for _ in 0..LOOKUPS {
            let key = xorshift(&mut self.state) % KEY_SPACE;
            match self.table.get_mut(&key) {
                Some(value) => {
                    *value = value.wrapping_add(1);
                    sum = sum.wrapping_add(*value);
                }
                None => sum = sum.wrapping_add(key),
            }
        }
        black_box(sum);
        start.elapsed().as_secs_f64() / REFERENCE_PROBE_S
    }
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowness_is_positive_and_finite() {
        let mut probe = SpeedProbe::new();
        for _ in 0..2 {
            let slowness = probe.slowness();
            assert!(slowness.is_finite() && slowness > 0.0, "{slowness}");
        }
    }

    #[test]
    fn every_probe_builds_the_same_table() {
        let (a, b) = (SpeedProbe::new(), SpeedProbe::new());
        assert_eq!(a.table, b.table);
    }
}
