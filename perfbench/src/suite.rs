//! The `suite_cold` and `suite_warm` workloads, cache fill, and the
//! oracle that pins the expected reports.

use crate::check::{Pinned, PinnedSweep, Tally};
use crate::pass::{self, PassReport};
use crate::stats::median;
use crate::{host, Ctx, Metric, RunResult, BUDGET};
use std::path::Path;
use std::time::Instant;
use tlat_sim::{sweep_specs, Harness, Report, SweepSpec, TraceStore};
use tlat_workloads::SplitMix64;

/// The registered sweeps in the order pass `pass` of a seed runs them
/// (Fisher–Yates under SplitMix64).
pub fn sweep_order(seed: u64, pass: u64) -> Vec<SweepSpec> {
    let mut specs = sweep_specs();
    let mut rng = SplitMix64::new(seed ^ pass.wrapping_mul(0xa076_1d64_78bd_642f));
    for i in (1..specs.len()).rev() {
        specs.swap(i, rng.index(i + 1));
    }
    specs
}

/// A fresh harness (empty in-memory memos) over the trace cache at `dir`.
pub fn harness(budget: u64, dir: &Path) -> Harness {
    Harness::over(TraceStore::new(budget).with_disk_cache(dir))
}

/// Traces a full suite pass touches: every test trace plus every
/// training trace (the Diff-training rows read them).
pub fn trace_count() -> u64 {
    tlat_workloads::all()
        .iter()
        .map(|w| 1 + u64::from(w.train_input().is_some()))
        .sum()
}

/// Runs `order` on `harness`, checking every report for failed cells
/// and against its pinned digest. Returns the reports by sweep name.
pub fn run_suite(
    harness: &Harness,
    order: &[SweepSpec],
    pinned: &Pinned,
    tally: &mut Tally,
) -> Vec<(&'static str, Report)> {
    order
        .iter()
        .map(|spec| {
            let report = harness.run_sweep(spec);
            tally.record(check_sweep(spec.name, &report, pinned));
            (spec.name, report)
        })
        .collect()
}

/// A sweep report passes when no cell failed and its bytes match the
/// pinned digest.
fn check_sweep(name: &str, report: &Report, pinned: &Pinned) -> Result<(), String> {
    let failed = report.failed_cells();
    if let Some((row, column, message)) = failed.first() {
        return Err(format!("{name}: cell {row}/{column} failed: {message}"));
    }
    pinned.check_report(name, report.to_string().as_bytes())
}

/// Lane events of one full suite pass.
pub fn suite_lane_events(pinned: &Pinned) -> u64 {
    pinned.sweeps.iter().map(|s| s.lane_events).sum()
}

/// One suite pass (run inside a `--pass` child): a fresh harness over
/// `cache`, every sweep in the order of the seed's pass `index`.
/// It reports ready once the harness exists, right before the timed
/// work. A store that shows another generation count than
/// `generations` took another path than the workload names, so the
/// pass fails.
pub fn pass(ctx: &Ctx, cache: &Path, index: usize, generations: u64) -> PassReport {
    let h = harness(BUDGET, cache);
    let order = sweep_order(ctx.seed, index as u64);
    pass::ready();
    let mut report = PassReport::default();
    let t0 = Instant::now();
    run_suite(&h, &order, &ctx.pinned, &mut report.tally);
    report.wall_s = t0.elapsed().as_secs_f64();
    let seen = h.store().generations();
    if seen != generations {
        report.tally.fail(format!(
            "pass {index}: {seen} trace generations, expected {generations}"
        ));
    }
    report
}

/// A workload's result from its timed passes. The end-to-end metrics
/// are medians over the passes: `ref_wall_s` is each pass's wall over
/// its host-speed probe, in seconds at the reference speed (see
/// `host`), so host drift between runs cancels; raw wall, rate and
/// probe times are printed beside them, ahead of `extra`. (The fastest
/// pass or a low quantile would ignore slow passes, but on a shared
/// host the fast passes are the rare ones, and their extremes spread
/// further from run to run than the median.)
pub fn pass_result(
    ctx: &Ctx,
    tally: Tally,
    passes: &[PassReport],
    extra: Vec<Metric>,
) -> RunResult {
    let events = suite_lane_events(&ctx.pinned) as f64;
    let series = |f: fn(&PassReport) -> f64| -> Vec<f64> { passes.iter().map(f).collect() };
    let ref_wall = median(&series(|p| p.wall_s / p.probe_s)) * host::REFERENCE_S;
    let wall = median(&series(|p| p.wall_s));
    let n = passes.len();
    let metrics = vec![
        Metric::new("ref_wall_s", ref_wall, "s", n),
        Metric::new("ref_lane_events_per_s", events / ref_wall, "1/s", n),
        Metric::new("peak_rss_mb", median(&series(|p| p.rss_mb)), "MB", n),
        Metric::new("setup_s", median(&series(|p| p.setup_s)), "s", n),
    ];
    let raw = vec![
        Metric::new("wall_s", wall, "s", n),
        Metric::new("lane_events_per_s", events / wall, "1/s", n),
        Metric::new("probe_s", median(&series(|p| p.probe_s)), "s", n),
    ];
    RunResult {
        metrics,
        extra: raw.into_iter().chain(extra).collect(),
        tally,
        pass_walls: series(|p| p.wall_s),
        pass_probes: series(|p| p.probe_s),
    }
}

/// `suite_cold`: every pass starts from an empty cache directory.
pub fn cold(ctx: &Ctx) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let mut previous: Option<std::path::PathBuf> = None;
    let timed = pass::run_passes(ctx, "suite_cold", &mut tally, |index| {
        if let Some(dir) = previous.take() {
            let _ = std::fs::remove_dir_all(dir);
        }
        let dir = ctx.cache_dir(&format!("cold-{index}"))?;
        previous = Some(dir.clone());
        Ok(dir)
    })?;
    Ok(pass_result(ctx, tally, &timed, Vec::new()))
}

/// `suite_warm`: every pass reads the cache filled during set-up.
pub fn warm(ctx: &Ctx) -> Result<RunResult, String> {
    let cache = fill_warm_cache(ctx)?;
    let mut tally = Tally::default();
    let timed = pass::run_passes(ctx, "suite_warm", &mut tally, |_| Ok(cache.clone()))?;
    Ok(pass_result(ctx, tally, &timed, Vec::new()))
}

/// Fills a fresh trace cache in a child process (a user's first run)
/// and returns its directory.
pub fn fill_warm_cache(ctx: &Ctx) -> Result<std::path::PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let dir = ctx.cache_dir("warm")?;
    let status = std::process::Command::new(&exe)
        .arg("--fill")
        .arg(&dir)
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("starting the cache fill: {e}"))?;
    if !status.success() {
        return Err(format!("cache fill exited with {status}"));
    }
    let entries = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .count() as u64;
    if entries != trace_count() {
        return Err(format!(
            "cache fill left {entries} entries, expected {}",
            trace_count()
        ));
    }
    Ok(dir)
}

/// The `--fill <dir>` child: generates and stores every trace.
pub fn fill_in_process(dir: &Path) -> Result<(), String> {
    let h = harness(BUDGET, dir);
    h.prewarm();
    if h.store().generations() != trace_count() {
        return Err(format!("fill generated {} traces", h.store().generations()));
    }
    Ok(())
}

/// Expectations from the per-config oracle: one sequential simulation
/// per cell, no gang walk, pool or cache.
pub fn oracle_pinned(budget: u64) -> Result<Pinned, String> {
    let h = Harness::new(budget);
    let conditionals: Vec<u64> = h
        .workloads()
        .iter()
        .map(|w| h.store().test(w).conditional_len())
        .collect();
    let mut sweeps = Vec::new();
    for spec in sweep_specs() {
        let mut report = h.accuracy_table_sequential(spec.title, &spec.configs);
        for note in &spec.notes {
            report.push_note(*note);
        }
        if !report.failed_cells().is_empty() {
            return Err(format!("oracle failed cells in {}", spec.name));
        }
        let mut lane_events = 0;
        for config in &spec.configs {
            for (w, n) in h.workloads().iter().zip(&conditionals) {
                if report.cell(&config.label(), w.name).is_some() {
                    lane_events += n;
                }
            }
        }
        sweeps.push(PinnedSweep {
            name: spec.name.to_owned(),
            digest: crate::check::digest(report.to_string().as_bytes()),
            lane_events,
        });
    }
    Ok(Pinned { budget, sweeps })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_reorder_sweeps_but_never_change_report_bytes() {
        let names = |seed| -> Vec<&str> { sweep_order(seed, 0).iter().map(|s| s.name).collect() };
        assert_ne!(names(1), names(2), "two seeds give two orders");
        assert_eq!(names(7), names(7), "one seed gives one order");
        let mut sorted = names(3);
        sorted.sort_unstable();
        let mut all: Vec<&str> = sweep_specs().iter().map(|s| s.name).collect();
        all.sort_unstable();
        assert_eq!(sorted, all, "an order is a permutation");
        // Same bytes whatever the order, through one shared harness
        // and through fresh ones, at a small budget.
        let bytes = |seed| {
            let h = Harness::new(3_000);
            let mut out: Vec<(&str, String)> = sweep_order(seed, 0)
                .iter()
                .map(|s| (s.name, h.run_sweep(s).to_string()))
                .collect();
            out.sort();
            out
        };
        assert_eq!(bytes(1), bytes(2));
    }
}
