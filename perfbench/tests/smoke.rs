//! Smoke mode: every workload, untraced and traced, at a tiny budget.
//! Checks the harness end to end — oracle, set-up timing, the program's
//! own runners, the hand-driven traced loop and its fidelity check, the
//! in-process daemon — in seconds.

use difftest_perfbench::workload::SPECS;

#[test]
fn smoke_runs_every_workload_untraced_and_traced() {
    let results = difftest_perfbench::smoke(5).expect("smoke run");
    assert_eq!(results.len(), 2 * SPECS.len());
    for (name, attempted, failed) in results {
        assert!(attempted >= 1, "{name}: nothing attempted");
        // Clean links must verify every program exactly; the faulty
        // link may hit the retention defect documented in README.md.
        if name != "lossy_boot" {
            assert_eq!(failed, 0, "{name}: {failed} of {attempted} failed");
        }
    }
}
