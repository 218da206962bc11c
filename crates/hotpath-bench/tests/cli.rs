//! The `experiments` command line: malformed invocations are usage
//! errors (exit 2) that run nothing.

use std::process::Command;

/// `--checkpoint-every` and `--checkpoint-dir` name one periodic-image
/// policy; either one alone is rejected, not silently ignored.
#[test]
fn a_half_set_checkpoint_pair_is_a_usage_error() {
    for half in [["--checkpoint-every", "2"], ["--checkpoint-dir", "ckpt"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["scenario", "sporting_event", "--scale", "quick"])
            .args(half)
            .output()
            .expect("run experiments");
        assert_eq!(out.status.code(), Some(2), "{half:?}");
        assert!(out.stdout.is_empty(), "{half:?} ran anyway");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--checkpoint-every and --checkpoint-dir"), "{stderr}");
    }
}

/// The scenario-only flags are rejected by every other command, not
/// silently ignored.
#[test]
fn a_scenario_only_flag_on_another_command_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["compress", "--fault-seed", "5", "--restore-check"])
        .output()
        .expect("run experiments");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "compress ran anyway");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--fault-seed applies only to the scenario command"), "{stderr}");
}
