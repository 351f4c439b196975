//! Sweep-level telemetry tests: the observability layer's acceptance
//! scenarios, end to end through the public harness API.
//!
//! Telemetry state is process-global, so every test here serializes on
//! one mutex and leaves recording disabled and zeroed on exit. This
//! integration binary runs as its own process, so toggling the switch
//! cannot race the unit tests of the library crate.

use std::sync::Mutex;
use tlat_core::{AutomatonKind, HrtConfig};
use tlat_sim::metrics::{self, Counter};
use tlat_sim::{sweep_specs, Harness, SchemeConfig, TraceStore, TrainingData};

static GLOBAL_STATE: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL_STATE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A small sweep exercising every cell-outcome class the telemetry
/// distinguishes: computed cells everywhere, plus Diff training for
/// the paper's Table 3 blanks.
fn configs() -> Vec<SchemeConfig> {
    vec![
        SchemeConfig::at(HrtConfig::ahrt(512), 8, AutomatonKind::A2),
        SchemeConfig::st(HrtConfig::Ideal, 8, TrainingData::Diff),
        SchemeConfig::Btfn,
    ]
}

#[test]
fn recording_never_changes_report_output() {
    let _guard = lock();
    let harness = Harness::new(5_000);
    metrics::set_enabled(false);
    metrics::reset();
    let off = harness.accuracy_table("telemetry", &configs()).to_string();
    metrics::set_enabled(true);
    metrics::reset();
    let on = harness.accuracy_table("telemetry", &configs()).to_string();
    metrics::set_enabled(false);
    metrics::reset();
    assert_eq!(on, off, "a metrics-enabled sweep must render byte-identically");
}

#[test]
fn gang_and_sequential_agree_on_invariant_counters() {
    let _guard = lock();
    metrics::set_enabled(true);
    metrics::reset();
    // Fresh harnesses per engine, so each pays its own trace
    // generations instead of hitting the other's in-memory store.
    let gang_harness = Harness::new(5_000);
    let before = metrics::Snapshot::now();
    gang_harness.accuracy_table_on("invariant", &configs(), 2);
    let gang = metrics::Snapshot::now().since(&before);

    let seq_harness = Harness::new(5_000);
    let before = metrics::Snapshot::now();
    seq_harness.accuracy_table_sequential("invariant", &configs());
    let seq = metrics::Snapshot::now().since(&before);
    metrics::set_enabled(false);
    metrics::reset();

    assert_eq!(
        gang.invariant_counters(),
        seq.invariant_counters(),
        "engine-invariant counters must total identically across engines"
    );
    // The totals are real, not trivially zero.
    assert!(gang.counter(Counter::CellsComputed) > 0);
    assert!(gang.counter(Counter::CellsBlank) > 0, "Diff rows have Table 3 blanks");
    assert!(gang.counter(Counter::TraceGenerations) > 0);
    // The engine-dependent class really is engine-dependent: the gang
    // engine walks once per workload, the sequential path once per
    // computed cell.
    assert!(
        gang.counter(Counter::TraceWalks) < seq.counter(Counter::TraceWalks),
        "gang {} walks vs sequential {}",
        gang.counter(Counter::TraceWalks),
        seq.counter(Counter::TraceWalks)
    );
}

#[test]
fn emitted_file_round_trips_through_check_and_summarize() {
    let _guard = lock();
    metrics::set_enabled(true);
    metrics::reset();
    let harness = Harness::new(2_000);
    harness.accuracy_table("roundtrip", &configs());
    let path = std::env::temp_dir().join(format!(
        "tlat-metrics-it-{}.jsonl",
        std::process::id()
    ));
    metrics::write_jsonl(&path).expect("telemetry file must write");
    metrics::set_enabled(false);
    metrics::reset();

    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let file = metrics::check(&text).expect("emitted telemetry must validate");
    assert_eq!(file.schema, metrics::SCHEMA_VERSION);
    assert!(file.counters["cells_computed"] > 0);
    assert!(file.counters["cells_blank"] > 0);
    // Cell records carry the (workload, family) grouping.
    assert!(file.cells.keys().any(|(w, f)| w == "gcc" && f == "AT"));
    let summary = metrics::summarize(&file);
    assert!(summary.contains("cells_computed"));
    assert!(summary.contains("gang_walk"));
    assert!(summary.contains("gcc"));
}

#[test]
fn disabled_recording_accumulates_nothing_across_a_sweep() {
    let _guard = lock();
    metrics::set_enabled(false);
    metrics::reset();
    let harness = Harness::new(2_000);
    harness.accuracy_table("off", &configs());
    let snap = metrics::Snapshot::now();
    for counter in Counter::ALL {
        assert_eq!(snap.counter(counter), 0, "{} accumulated while off", counter.name());
    }
}

#[test]
fn every_sweep_order_reads_each_cache_entry_once() {
    // A cold suite generates each of its 14 traces (9 test, 5 training)
    // exactly once and never reads back an entry it has just written;
    // a warm suite reads each entry exactly once. Neither may depend
    // on the order the sweeps run in.
    let _guard = lock();
    let mut orders = vec![sweep_specs()];
    orders.push(sweep_specs().into_iter().rev().collect());
    for (oi, order) in orders.iter().enumerate() {
        let dir =
            std::env::temp_dir().join(format!("tlat-metrics-order{oi}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (run, generations, hits) in [("cold", 14, 0), ("warm", 0, 14)] {
            metrics::set_enabled(true);
            metrics::reset();
            let harness = Harness::over(TraceStore::new(2_000).with_disk_cache(&dir));
            for spec in order {
                harness.run_sweep(spec);
            }
            let snap = metrics::Snapshot::now();
            metrics::set_enabled(false);
            metrics::reset();
            assert_eq!(
                snap.counter(Counter::TraceGenerations),
                generations,
                "order {oi}, {run}: trace_generations"
            );
            assert_eq!(
                snap.counter(Counter::CacheHits),
                hits,
                "order {oi}, {run}: cache_hits"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
