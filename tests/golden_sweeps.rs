//! Frozen oracle for every registered sweep.
//!
//! `tests/golden/<sweep>.txt` holds each `sweep_specs()` entry's
//! rendered report (footnotes included) at a budget of 20,000
//! conditional branches, generated once by the per-config reference
//! engine (`Harness::accuracy_table_sequential`). Every execution
//! strategy must reproduce those bytes exactly, so a drift in a
//! component the in-tree paths share (an automaton, a table's victim
//! rule, report rendering) cannot hide behind two paths moving
//! together.
//!
//! The fixtures change only on purpose: run
//! `TLAT_BLESS=1 cargo test --release --test golden_sweeps` to rewrite
//! them from the reference engine, and state the reason in the change
//! log.

use std::path::{Path, PathBuf};
use two_level_adaptive::sim::{sweep_specs, Harness, Report, SweepSpec, TraceStore};

const BUDGET: u64 = 20_000;

fn fixture_path(spec: &SweepSpec) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{}.txt", spec.name))
}

fn with_notes(mut report: Report, spec: &SweepSpec) -> String {
    for note in &spec.notes {
        report.push_note(*note);
    }
    report.to_string()
}

/// The frozen report bytes of every sweep, rewritten from the
/// reference engine first when `TLAT_BLESS=1`.
fn fixtures() -> Vec<(SweepSpec, String)> {
    let bless = std::env::var("TLAT_BLESS").is_ok_and(|v| v == "1");
    let reference = bless.then(|| Harness::new(BUDGET));
    sweep_specs()
        .into_iter()
        .map(|spec| {
            let path = fixture_path(&spec);
            if let Some(h) = &reference {
                let report = h.accuracy_table_sequential(spec.title, &spec.configs);
                std::fs::create_dir_all(path.parent().expect("fixture dir")).unwrap();
                std::fs::write(&path, with_notes(report, &spec)).unwrap();
            }
            let frozen = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{}: {e} (bless with TLAT_BLESS=1)", path.display()));
            (spec, frozen)
        })
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tlat-golden-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn in_memory_strategies_render_the_frozen_reports() {
    let h = Harness::new(BUDGET);
    for (spec, frozen) in fixtures() {
        assert_eq!(
            h.run_sweep(&spec).to_string(),
            frozen,
            "{}: gang + pool",
            spec.name
        );
        let single = h.accuracy_table_on(spec.title, &spec.configs, 1);
        assert_eq!(
            with_notes(single, &spec),
            frozen,
            "{}: one thread",
            spec.name
        );
    }
}

#[test]
fn cold_and_warm_disk_caches_render_the_frozen_reports() {
    let dir = scratch_dir("cache");
    let fixtures = fixtures();
    for (tag, expected_generations) in [("cold", 14), ("warm", 0)] {
        let h = Harness::over(TraceStore::new(BUDGET).with_disk_cache(&dir));
        for (spec, frozen) in &fixtures {
            assert_eq!(
                h.run_sweep(spec).to_string(),
                *frozen,
                "{}: {tag} cache",
                spec.name
            );
        }
        assert_eq!(h.store().generations(), expected_generations, "{tag} cache");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
