//! The `experiments` command line: malformed invocations are usage
//! errors (exit 2) that run nothing.

use std::process::Command;

/// The run driver has no file checkpoints: the former image flags are
/// unknown arguments that run nothing and write nothing.
#[test]
fn the_removed_checkpoint_flags_are_usage_errors() {
    // Per process, so concurrent test runs never share the directory.
    let dir = std::env::temp_dir().join(format!("hotpath-cli-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("utf-8 temp dir").to_string();
    let image = dir.join("x.ckpt").to_str().expect("utf-8 temp dir").to_string();
    let flag_sets: [&[&str]; 2] =
        [&["--checkpoint-every", "2", "--checkpoint-dir", &dir_arg], &["--restore-from", &image]];
    for flags in flag_sets {
        let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["scenario", "sporting_event", "--scale", "quick"])
            .args(flags)
            .output()
            .expect("run experiments");
        assert_eq!(out.status.code(), Some(2), "{flags:?}");
        assert!(out.stdout.is_empty(), "{flags:?} ran anyway");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown argument '{}'", flags[0])), "{stderr}");
        assert!(!dir.exists(), "{flags:?} wrote {}", dir.display());
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
