//! Smoke tests: every registered experiment runs and produces a
//! non-trivial report. Fast experiments run at tiny trial counts in the
//! normal suite; the full registry sweep is `#[ignore]`d for CI time.

use robustore_bench::{find, registry};

fn run(id: &str, trials: u64) -> String {
    let e = find(id).unwrap_or_else(|| panic!("experiment {id} not registered"));
    let out = (e.run)(trials);
    assert!(
        out.lines().count() > 4,
        "{id} produced a trivial report:\n{out}"
    );
    assert!(out.contains('#'), "{id} report lacks a title");
    out
}

#[test]
fn fast_experiments_run() {
    for id in ["table6-1", "fig6-5", "fig4-1", "ablation-lt"] {
        run(id, 2);
    }
}

#[test]
fn scheme_sweep_experiments_run() {
    for id in ["fig6-6", "fig6-15", "fig6-24"] {
        let out = run(id, 2);
        assert!(
            out.contains("RobuSTore"),
            "{id} should report RobuSTore rows"
        );
        assert!(out.contains("RAID-0"), "{id} should report RAID-0 rows");
    }
}

#[test]
fn quick_run_leaves_recorded_baselines_alone() {
    // A smoke run in a directory holding a recorded BENCH_scrub.json must
    // write its rows and report under target/xp-quick/ and nowhere else.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("quick-sentinel");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sentinel = dir.join("BENCH_scrub.json");
    std::fs::write(&sentinel, "recorded baseline\n").unwrap();

    let run = std::process::Command::new(env!("CARGO_BIN_EXE_xp"))
        .args(["scrub", "--quick"])
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(
        run.status.success(),
        "xp scrub --quick failed: {}",
        String::from_utf8_lossy(&run.stderr)
    );

    assert_eq!(
        std::fs::read_to_string(&sentinel).unwrap(),
        "recorded baseline\n",
        "a quick run replaced the recorded rows"
    );
    assert!(
        !dir.join("results").exists(),
        "quick report clobbers results/"
    );
    let quick = dir.join("target/xp-quick");
    let rows = std::fs::read_to_string(quick.join("BENCH_scrub.json")).unwrap();
    assert!(
        rows.starts_with("[\n  {\"variant\": \"scrubbed\""),
        "{rows}"
    );
    assert!(quick.join("results/scrub.txt").is_file());
}

#[test]
#[ignore = "runs the entire registry; invoke with --ignored for the full sweep"]
fn every_registered_experiment_runs() {
    for e in registry() {
        run(e.id, 2);
    }
}
