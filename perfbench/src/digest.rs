//! Result digests and the checks that count failed runs.
//!
//! A digest hashes a run's simulated results only — never a host timing —
//! so two runs of the same inputs must produce the same digest on any host,
//! at any `--jobs`, in any hash-map iteration order.

use std::collections::BTreeMap;
use std::fmt::Debug;

use fleet::FleetOutcome;
use hybrid_mem::MemoryStats;
use kingsguard::GcStats;

/// FNV-1a 64 over `text`, as 16 hex digits.
fn fnv1a(text: &str) -> String {
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    format!("{hash:016x}")
}

fn sorted<K: Ord + Debug, V: Debug>(map: impl IntoIterator<Item = (K, V)>) -> String {
    format!("{:?}", map.into_iter().collect::<BTreeMap<K, V>>())
}

/// Digest of one (benchmark, collector) run: every field of `GcStats` and
/// `MemoryStats`, with the four hash maps of `GcStats` sorted first so the
/// digest does not depend on their iteration order.
pub fn run_digest(gc: &GcStats, memory: &MemoryStats) -> String {
    let mut gc = gc.clone();
    let maps = [
        sorted(std::mem::take(&mut gc.mature_object_writes)),
        sorted(std::mem::take(&mut gc.object_sites)),
        sorted(std::mem::take(&mut gc.site_rescues)),
        sorted(std::mem::take(&mut gc.site_demotions)),
    ];
    fnv1a(&format!("{gc:?}|{}|{memory:?}", maps.join("|")))
}

/// Digest of a fleet run: every simulated or modelled outcome, none of the
/// host-timed pause histograms.
pub fn fleet_digest(outcome: &FleetOutcome) -> String {
    let tenants: Vec<String> = outcome
        .outcomes
        .iter()
        .map(|o| {
            format!(
                "{}:{}:{}:{}:{}:{}:{}:{}:{:x}:{:?}",
                o.index,
                o.benchmark,
                o.collector,
                o.region,
                o.warm.label(),
                o.pcm_writes,
                o.pcm_bytes,
                o.touch_events,
                o.elapsed_s.to_bits(),
                o.died
            )
        })
        .collect();
    let failures: Vec<String> = outcome
        .failures
        .iter()
        .map(|f| format!("{}:{}", f.index, f.benchmark))
        .collect();
    fnv1a(&format!(
        "lines={} pages={} degraded={} events={} modeled={:x} pcm={} advice={} warm={}/{}/{} ue={:?} wear={:?} waves={:?} failures={:?} | {}",
        outcome.failed_lines,
        outcome.retired_pages,
        outcome.degraded_bytes,
        outcome.touch_events,
        outcome.modeled_s.to_bits(),
        outcome.pcm_bytes,
        outcome.advice_deposits,
        outcome.warm_starts,
        outcome.drifted_warm_starts,
        outcome.cold_starts,
        outcome.years_to_first_ue.map(f64::to_bits),
        outcome.device_wear,
        outcome.wave_series,
        failures,
        tenants.join(",")
    ))
}

/// One checked run: its label and its digest, or why it produced none (a
/// panic or an error).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunCheck {
    pub label: String,
    pub digest: Result<String, String>,
}

/// Golden digests: `(workload, scale, seed)` → `(run label, digest)` rows.
#[derive(Clone, Debug, Default)]
pub struct Goldens {
    entries: BTreeMap<(String, u64, u64), Vec<(String, String)>>,
}

impl Goldens {
    /// Parses the goldens format: one `workload scale seed label digest`
    /// row per line; blank lines and `#` comments are skipped.
    pub fn parse(text: &str) -> Result<Goldens, String> {
        let mut goldens = Goldens::default();
        for (number, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            let [workload, scale, seed, label, digest] = fields[..] else {
                return Err(format!(
                    "goldens line {}: expected 5 fields, got {line:?}",
                    number + 1
                ));
            };
            let parse = |what: &str, value: &str| {
                value
                    .parse::<u64>()
                    .map_err(|err| format!("goldens line {}: bad {what} {value:?}: {err}", number + 1))
            };
            goldens
                .entries
                .entry((workload.to_string(), parse("scale", scale)?, parse("seed", seed)?))
                .or_default()
                .push((label.to_string(), digest.to_string()));
        }
        Ok(goldens)
    }

    pub fn lookup(&self, workload: &str, scale: u64, seed: u64) -> Option<&[(String, String)]> {
        self.entries
            .get(&(workload.to_string(), scale, seed))
            .map(Vec::as_slice)
    }

    /// Renders `runs` as goldens rows for `(workload, scale, seed)`.
    pub fn rows(workload: &str, scale: u64, seed: u64, runs: &[RunCheck]) -> String {
        runs.iter()
            .map(|run| {
                let digest = run.digest.as_deref().unwrap_or("error");
                format!("{workload} {scale} {seed} {} {digest}\n", run.label)
            })
            .collect()
    }
}

/// Compares runs against a reference and counts the failures that make up
/// `mismatch_frac`.
#[derive(Debug, Default)]
pub struct Checker {
    reference: Option<Vec<(String, String)>>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checker {
    /// A checker against known digests (the goldens), or — with `None` —
    /// against the first complete set of runs it is given.
    pub fn new(reference: Option<&[(String, String)]>) -> Checker {
        Checker {
            reference: reference.map(<[_]>::to_vec),
            ..Checker::default()
        }
    }

    /// Checks one pass's runs. Without a reference yet, the pass becomes
    /// the reference; its runs still fail if they panicked or errored.
    pub fn check(&mut self, what: &str, runs: &[RunCheck]) {
        if self.reference.is_none() && runs.iter().all(|run| run.digest.is_ok()) {
            self.reference = Some(
                runs.iter()
                    .map(|run| (run.label.clone(), run.digest.clone().unwrap_or_default()))
                    .collect(),
            );
        }
        for (index, run) in runs.iter().enumerate() {
            self.attempted += 1;
            let expected = self
                .reference
                .as_ref()
                .and_then(|reference| reference.get(index))
                .filter(|(label, _)| *label == run.label)
                .map(|(_, digest)| digest.as_str());
            let problem = match (&run.digest, expected) {
                (Err(err), _) => Some(format!("failed: {err}")),
                (Ok(_), None) => Some("no reference digest".to_string()),
                (Ok(got), Some(want)) if got != want => Some(format!("digest {got} != reference {want}")),
                _ => None,
            };
            if let Some(problem) = problem {
                self.failed += 1;
                self.notes.push(format!("{what} {}: {problem}", run.label));
            }
        }
    }

    /// Checks that two runs that must agree (the fleet at jobs 1 and at
    /// jobs `nproc`) did.
    pub fn check_equal(&mut self, what: &str, a: &RunCheck, b: &RunCheck) {
        self.attempted += 1;
        if a.digest.is_err() || a.digest != b.digest {
            self.failed += 1;
            self.notes
                .push(format!("{what}: {:?} != {:?}", a.digest, b.digest));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(label: &str, digest: &str) -> RunCheck {
        RunCheck {
            label: label.to_string(),
            digest: Ok(digest.to_string()),
        }
    }

    #[test]
    fn digest_ignores_hash_map_order() {
        let mut a = GcStats::default();
        let mut b = GcStats::default();
        for i in 0..1000u64 {
            a.mature_object_writes.insert(i, i * 3);
            b.mature_object_writes.insert(999 - i, (999 - i) * 3);
            a.site_rescues.insert(i as u32, i);
            b.site_rescues.insert(999 - i as u32, 999 - i);
        }
        let memory = MemoryStats::default();
        assert_eq!(run_digest(&a, &memory), run_digest(&b, &memory));
        b.site_rescues.insert(5, 6);
        assert_ne!(run_digest(&a, &memory), run_digest(&b, &memory));
    }

    #[test]
    fn perturbed_golden_fails_the_check() {
        let goldens = Goldens::parse("# comment\nlive-gc 32 1 KG-N 00aa\nlive-gc 32 1 KG-W 00bb\n").unwrap();
        let reference = goldens.lookup("live-gc", 32, 1).unwrap();
        let runs = [run("KG-N", "00aa"), run("KG-W", "00bb")];
        let mut ok = Checker::new(Some(reference));
        ok.check("pass", &runs);
        assert_eq!((ok.attempted, ok.failed), (2, 0));

        let perturbed = Goldens::parse("live-gc 32 1 KG-N 00aa\nlive-gc 32 1 KG-W 00bc\n").unwrap();
        let mut bad = Checker::new(perturbed.lookup("live-gc", 32, 1));
        bad.check("pass", &runs);
        assert_eq!((bad.attempted, bad.failed), (2, 1));
        assert!(bad.notes[0].contains("KG-W"));
    }

    #[test]
    fn without_goldens_the_first_pass_is_the_reference_and_errors_fail() {
        let mut checker = Checker::new(None);
        checker.check("setup", &[run("A", "1"), run("B", "2")]);
        checker.check("pass", &[run("A", "1"), run("B", "3")]);
        let crashed = RunCheck {
            label: "A".to_string(),
            digest: Err("panicked".to_string()),
        };
        checker.check("pass", &[crashed.clone(), run("B", "2")]);
        assert_eq!((checker.attempted, checker.failed), (6, 2));
        checker.check_equal("jobs", &run("fleet", "1"), &run("fleet", "2"));
        checker.check_equal("jobs", &crashed, &crashed);
        assert_eq!((checker.attempted, checker.failed), (8, 4));
    }

    #[test]
    fn malformed_goldens_are_rejected() {
        assert!(Goldens::parse("live-gc 32 1 KG-N").is_err());
        assert!(Goldens::parse("live-gc x 1 KG-N 00").is_err());
    }
}
