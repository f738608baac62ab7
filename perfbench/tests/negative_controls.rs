//! Negative controls: the benchmark's correctness gate must be able to
//! fail. A perturbed golden digest has to make `mismatch_frac` > 0 and the
//! command exit non-zero, while the unperturbed goldens pass. (The closure
//! check's controls are unit tests in `src/layers.rs`.)

use std::path::PathBuf;
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_kg-perfbench");

/// A small live-gc configuration, cheap enough for a debug build.
const SMALL: [&str; 6] = ["--workload", "live-gc", "--scale", "4096", "--seconds", "1"];

fn run(extra: &[&str]) -> Output {
    Command::new(EXE)
        .args(SMALL)
        .args(extra)
        .output()
        .expect("the benchmark executable runs")
}

fn last_line(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .last()
        .unwrap_or_default()
        .to_string()
}

fn goldens_file(name: &str, text: &str) -> PathBuf {
    let path =
        PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{name}-{}", std::process::id()));
    std::fs::write(&path, text).expect("the temporary goldens file is writable");
    path
}

#[test]
fn a_perturbed_golden_digest_fails_the_run() {
    let printed = run(&["--print-goldens"]);
    assert!(printed.status.success());
    let goldens = String::from_utf8(printed.stdout).unwrap();
    assert_eq!(goldens.lines().count(), 6, "one golden per collector:\n{goldens}");

    let good = goldens_file("good", &goldens);
    let output = run(&["--goldens", good.to_str().unwrap()]);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result = last_line(&output);
    assert!(
        result.starts_with("{\"correct\": true,") && result.contains("\"failed\": 0,"),
        "{result}"
    );

    // Flip the last hex digit of one collector's digest.
    let mut lines: Vec<String> = goldens.lines().map(str::to_string).collect();
    let last = lines[3].pop().unwrap();
    lines[3].push(if last == '0' { '1' } else { '0' });
    let bad = goldens_file("bad", &(lines.join("\n") + "\n"));
    let output = run(&["--goldens", bad.to_str().unwrap()]);
    assert_eq!(
        output.status.code(),
        Some(1),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let result = last_line(&output);
    assert!(result.starts_with("{\"correct\": false,"), "{result}");
    assert!(!result.contains("\"failed\": 0,"), "{result}");
    assert!(String::from_utf8_lossy(&output.stderr).contains("mismatch_frac 0."));

    std::fs::remove_file(good).ok();
    std::fs::remove_file(bad).ok();
}

#[test]
fn bad_arguments_exit_without_a_result() {
    let output = Command::new(EXE).args(["--workload", "nope"]).output().unwrap();
    assert_eq!(output.status.code(), Some(2));
    assert!(output.stdout.is_empty());
}
