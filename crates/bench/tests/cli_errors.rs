//! `simulate` turns hostile scenario input into a message and exit code
//! 1, never a panic.

use std::path::PathBuf;
use std::process::Command;

/// `scenarios/mixed_workload.json` with its first job group's goal
/// replaced by `goal`.
fn mixed_workload_with_goal(goal: &str) -> String {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/mixed_workload.json");
    let text = std::fs::read_to_string(&path).expect("checked-in scenario");
    let original = "\"goal\": { \"factor\": 4.0 }";
    assert_eq!(text.matches(original).count(), 1, "scenario layout changed");
    text.replace(original, &format!("\"goal\": {goal}"))
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

/// A goal so small that `arrival + goal == arrival` in `f64` used to pass
/// validation and panic mid-run in `CompletionGoal::new`.
#[test]
fn vanishing_job_goals_exit_1_naming_the_field() {
    for (goal, field) in [
        ("{\"relative_secs\": 1e-300}", "jobs[0].goal.relative_secs"),
        ("{\"factor\": 1e-300}", "jobs[0].goal.factor"),
    ] {
        let (code, stderr) = simulate(
            &format!("vanishing_goal_{}.json", field.rsplit('.').next().unwrap()),
            &mixed_workload_with_goal(goal),
        );
        assert_eq!(code, Some(1), "{goal}: {stderr}");
        assert!(stderr.contains("invalid scenario"), "{goal}: {stderr}");
        assert!(
            stderr.contains(&format!("{field} = 1e-300 is too small")),
            "{goal}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{goal}: {stderr}");
    }
}
