//! The benchmark's correctness checks must catch a corrupted payload:
//! flipping one bit of one frame between encoder and decoder has to
//! raise the failure count above zero on every workload, and a clean run
//! of the same seed must count none.
//!
//! Run with `cargo test --release --manifest-path benchmark/Cargo.toml`;
//! each case runs the workload for one pass.

use std::process::Command;

const WORKLOADS: [&str; 3] = [
    "headset_fixation",
    "headset_pursuit_temporal",
    "fleet_mixed",
];

/// `(correct, attempted, failed)` of one short untraced run.
fn run(workload: &str, corrupt: Option<u32>) -> (bool, u64, u64) {
    let mut command = Command::new(env!("CARGO_BIN_EXE_pvc_benchmark"));
    command.args([
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0.1",
        "--trace",
        "0",
    ]);
    if let Some(frame) = corrupt {
        command.args(["--corrupt", &frame.to_string()]);
    }
    let output = command.output().expect("the benchmark binary runs");
    assert!(output.status.success(), "{workload}: {output:?}");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let result = stdout.lines().last().expect("a result line").to_string();
    let field = |key: &str| -> String {
        let at = result.find(&format!("\"{key}\": ")).expect(key) + key.len() + 4;
        result[at..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect()
    };
    (
        field("correct") == "true",
        field("attempted").parse().expect("attempted"),
        field("failed").parse().expect("failed"),
    )
}

#[test]
fn a_flipped_payload_bit_is_counted_as_a_failure() {
    for workload in WORKLOADS {
        let (correct, attempted, failed) = run(workload, Some(5));
        assert!(!correct, "{workload}: corruption went unnoticed");
        assert!(
            failed > 0 && failed < attempted,
            "{workload}: {failed} of {attempted} failed"
        );
    }
}

#[test]
fn a_clean_run_counts_no_failure() {
    for workload in WORKLOADS {
        let (correct, attempted, failed) = run(workload, None);
        assert!(correct && attempted > 0 && failed == 0, "{workload}");
    }
}
