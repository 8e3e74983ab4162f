//! `simulate` turns hostile scenario input into a message and exit code
//! 1, never a panic.

use std::path::PathBuf;
use std::process::Command;

/// `scenarios/mixed_workload.json` with its one occurrence of
/// `original` replaced by `replacement`.
fn mixed_workload_with(original: &str, replacement: &str) -> String {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/mixed_workload.json");
    let text = std::fs::read_to_string(&path).expect("checked-in scenario");
    assert_eq!(text.matches(original).count(), 1, "scenario layout changed");
    text.replace(original, replacement)
}

/// Runs `simulate` on `scenario` and returns (exit code, stderr).
fn simulate(name: &str, scenario: &str) -> (Option<i32>, String) {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&path, scenario).expect("write scenario");
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .arg(&path)
        .output()
        .expect("run simulate");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Hostile edits that used to crash `simulate`: a goal so small that
/// `arrival + goal == arrival` in `f64` (a mid-run panic in
/// `CompletionGoal::new`), and node or classic job counts that `build`
/// would materialize up front (an abort on allocation failure, exit 134
/// under a 1.5 GB address-space limit).
#[test]
fn hostile_edits_exit_1_naming_the_field() {
    let goal = "\"goal\": { \"factor\": 4.0 }";
    for (i, (original, hostile, expected)) in [
        (
            goal,
            "\"goal\": {\"relative_secs\": 1e-300}",
            "jobs[0].goal.relative_secs = 1e-300 is too small",
        ),
        (
            goal,
            "\"goal\": {\"factor\": 1e-300}",
            "jobs[0].goal.factor = 1e-300 is too small",
        ),
        (
            "\"count\": 4,",
            "\"count\": 4000000000,",
            "nodes[0].count brings the total to 4000000000",
        ),
        (
            "\"count\": 20,",
            "\"count\": 2000000000,",
            "jobs[0].count brings the total to 2000000000",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        let (code, stderr) = simulate(
            &format!("hostile_{i}.json"),
            &mixed_workload_with(original, hostile),
        );
        assert_eq!(code, Some(1), "{hostile}: {stderr}");
        assert!(stderr.contains("invalid scenario"), "{hostile}: {stderr}");
        assert!(stderr.contains(expected), "{hostile}: {stderr}");
        assert!(!stderr.contains("panicked"), "{hostile}: {stderr}");
    }
}
