//! The repository benchmark: end-to-end sweep and serve workloads, plus
//! a traced per-layer run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <suite_cold|suite_warm|serve_mix|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the root of a checkout. Every run works in its own
//! scratch directory under `.perfbench/` and removes it at the end; the
//! trace cache is always that scratch directory, never the program's
//! default `target/tlat-cache`.
//!
//! * `suite_cold` runs all seven registered sweeps in a fresh
//!   `Harness` over an empty trace cache: trace generation, TLA3
//!   encode and cache store, and stream compile dominate.
//! * `suite_warm` runs them in a fresh `Harness` over a cache filled
//!   during set-up: cache decode, the gang walk and training dominate,
//!   and nothing is generated or encoded.
//! * `serve_mix` binds an in-process `Server` over the warm cache and
//!   drives it with closed-loop clients: every sweep computed once with
//!   a coalescing twin, then one phase per request kind answered from
//!   memory (see `serve_mix`).
//!
//! The seed permutes the sweep order of both suites and generates the
//! serve request sequence; the nine programs always use their fixed
//! paper data sets. Every report and response is checked against the
//! digests in `pinned.txt` (see `check`). With `--trace 1` the run
//! replays the suites step by step through the public calls of each
//! layer and prints the per-layer metrics instead (see `traced`).
//!
//! Every timed pass runs in a child process of its own (see `pass`).
//! A run reports the medians over its passes of wall time scaled to a
//! reference host speed (see `host`), peak resident set and set-up time
//! (spawn to ready); the raw wall time is printed beside them.
//!
//! `--bless` prints a fresh `pinned.txt` computed by the per-config
//! oracle. `--fill <dir>` and `--pass ...` are the child processes that
//! fill a trace cache during set-up and run one timed pass.

mod check;
mod host;
mod pass;
mod serve_mix;
mod stats;
mod suite;
mod traced;

use check::{Pinned, Tally};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Conditional branches per trace: the harness default, so every
/// number describes the budget users run.
pub const BUDGET: u64 = tlat_sim::DEFAULT_BRANCH_LIMIT;

/// Most worker threads and serve clients a run uses.
const MAX_THREADS: usize = 2;

const USAGE: &str = "usage: perfbench --workload <suite_cold|suite_warm|serve_mix|all> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     perfbench --bless\n       perfbench --fill <dir>";

const WORKLOADS: [&str; 3] = ["suite_cold", "suite_warm", "serve_mix"];

/// Everything a workload run needs to know.
pub struct Ctx {
    /// Workload seed: sweep order and request sequence.
    pub seed: u64,
    /// Measuring time per run.
    pub seconds: f64,
    /// Worker-pool size (`TLAT_THREADS`) and serve client count.
    pub threads: usize,
    /// This run's scratch directory.
    pub work: PathBuf,
    /// Expected report digests.
    pub pinned: Pinned,
}

impl Ctx {
    /// A fresh, empty trace-cache directory inside the scratch
    /// directory. Refuses any path that could be the program's default
    /// cache or the committed cache files under `crates/bench`.
    pub fn cache_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let resolved = dir
            .canonicalize()
            .map_err(|e| format!("{}: {e}", dir.display()))?;
        let forbidden = [
            PathBuf::from(tlat_sim::diskcache::DEFAULT_CACHE_DIR),
            PathBuf::from("crates/bench").join(tlat_sim::diskcache::DEFAULT_CACHE_DIR),
        ];
        for f in &forbidden {
            let clash = f.canonicalize().is_ok_and(|f| f == resolved);
            if clash || resolved.ends_with(f) {
                return Err(format!(
                    "cache dir {} resolves to {}",
                    dir.display(),
                    f.display()
                ));
            }
        }
        Ok(dir)
    }
}

/// One reported metric.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
}

impl Metric {
    /// A metric from its parts.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
        }
    }
}

/// One workload run's outcome.
#[derive(Default)]
pub struct RunResult {
    /// Checked operations.
    pub tally: Tally,
    /// Metrics for the final JSON line.
    pub metrics: Vec<Metric>,
    /// Figures printed for people but not gated (with units and n).
    pub extra: Vec<Metric>,
    /// Every timed pass's wall seconds, in run order.
    pub pass_walls: Vec<f64>,
    /// Every timed pass's host-speed probe seconds, in run order.
    pub pass_probes: Vec<f64>,
}

enum Mode {
    Run {
        workload: String,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    Bless,
    Fill(PathBuf),
    Pass {
        workload: String,
        seed: u64,
        index: usize,
        cache: PathBuf,
    },
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    if let [flag, workload, seed, index, cache] = args {
        if flag == "--pass" {
            return Ok(Mode::Pass {
                workload: workload.clone(),
                seed: seed.parse().map_err(|e| format!("--pass seed: {e}"))?,
                index: index.parse().map_err(|e| format!("--pass index: {e}"))?,
                cache: PathBuf::from(cache),
            });
        }
    }
    let mut workload = None;
    let mut seed = 1;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--bless" => return Ok(Mode::Bless),
            "--fill" => return Ok(Mode::Fill(PathBuf::from(value()?))),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(Mode::Run {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = match parse_args(&args) {
        Ok(mode) => mode,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = match mode {
        Mode::Fill(dir) => suite::fill_in_process(&dir),
        Mode::Pass {
            workload,
            seed,
            index,
            cache,
        } => pass::run_child(&workload, seed, index, cache),
        Mode::Bless => bless(),
        Mode::Run {
            workload,
            seed,
            seconds,
            trace,
        } => run(&workload, seed, seconds, trace),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

/// Prints a fresh `pinned.txt` from the per-config oracle.
fn bless() -> Result<(), String> {
    let pinned = suite::oracle_pinned(BUDGET)?;
    print!("{}", pinned.render());
    Ok(())
}

fn run(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<(), String> {
    if !Path::new("crates/sim/src").is_dir() {
        return Err("run from the root of a checkout (crates/sim/src not found)".to_owned());
    }
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let threads = nproc.min(MAX_THREADS);
    // Read by the harness's worker pool; set before any thread exists.
    std::env::set_var(tlat_sim::pool::THREADS_ENV, threads.to_string());
    let work = PathBuf::from(".perfbench").join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let ctx = Ctx {
        seed,
        seconds,
        threads,
        work,
        pinned: Pinned::load()?,
    };
    if ctx.pinned.budget != BUDGET {
        return Err(format!(
            "pinned.txt is for budget {}, the benchmark runs {BUDGET}; re-bless",
            ctx.pinned.budget
        ));
    }
    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload]
    };
    let committed = committed_cache_state();
    let mut outcome = Ok(());
    for name in names {
        let started = Instant::now();
        let result = match (name, trace) {
            (_, true) => traced::run(&ctx, name),
            ("suite_cold", false) => suite::cold(&ctx),
            ("suite_warm", false) => suite::warm(&ctx),
            (_, false) => serve_mix::run(&ctx),
        };
        let mut result = match result {
            Ok(result) => result,
            Err(e) => {
                outcome = Err(format!("{name}: {e}"));
                break;
            }
        };
        if committed_cache_state() != committed {
            result
                .tally
                .fail("the committed crates/bench trace-cache files changed".to_owned());
        }
        print_result(
            &ctx,
            name,
            trace,
            nproc,
            started.elapsed().as_secs_f64(),
            &result,
        );
    }
    let _ = std::fs::remove_dir_all(&ctx.work);
    outcome
}

/// Sizes and modification times of the committed cache files under
/// `crates/bench`, which no run may migrate or rewrite.
fn committed_cache_state() -> Vec<(PathBuf, u64, Option<std::time::SystemTime>)> {
    let dir = Path::new("crates/bench").join(tlat_sim::diskcache::DEFAULT_CACHE_DIR);
    let mut state: Vec<_> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| {
            let meta = e.metadata().ok()?;
            Some((e.path(), meta.len(), meta.modified().ok()))
        })
        .collect();
    state.sort();
    state
}

fn print_result(ctx: &Ctx, workload: &str, trace: bool, nproc: usize, run_s: f64, r: &RunResult) {
    println!("== {workload} (trace {}) ==", u8::from(trace));
    for m in r.metrics.iter().chain(&r.extra) {
        println!("{:<52} {:>16.6} {:<14} n={}", m.name, m.value, m.unit, m.n);
    }
    println!(
        "{:<52} {:>16.6} {:<14} n={}",
        "error_rate",
        r.tally.error_rate(),
        "ratio",
        r.tally.attempted
    );
    for message in &r.tally.messages {
        println!("FAILED: {message}");
    }
    let mut meta = tlat_trace::json::JsonObject::new();
    meta.field("workload", &workload)
        .field("trace", &trace)
        .field("seed", &ctx.seed)
        .field("seconds", &ctx.seconds)
        .field("run_s", &run_s)
        .field("budget", &BUDGET)
        .field("threads", &(ctx.threads as u64))
        .field("nproc", &(nproc as u64))
        .field("cpu", &cpu_model().as_str())
        .field("git_rev", &git_rev().as_str())
        .field("pass_walls_s", &r.pass_walls)
        .field("pass_probes_s", &r.pass_probes);
    println!("meta: {}", meta.finish());
    let mut metrics = String::new();
    for m in &r.metrics {
        let mut value = tlat_trace::json::JsonObject::new();
        value.field("value", &m.value).field("unit", &m.unit);
        if !metrics.is_empty() {
            metrics.push(',');
        }
        tlat_trace::json::write_escaped(&m.name, &mut metrics);
        metrics.push(':');
        value.finish_into(&mut metrics);
    }
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        r.tally.failed == 0,
        r.tally.attempted.max(1),
        r.tally.failed
    );
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a repository.
fn git_rev() -> String {
    let git = Path::new(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_owned();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_owned())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
