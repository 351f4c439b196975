//! One timed pass in a fresh process.
//!
//! Every timed pass of every workload runs in a child process of the
//! benchmark (`--pass <workload> <seed> <index> <cache dir>`), so each
//! pass starts like a user's process does, and its peak resident set
//! (`VmHWM`) covers that pass alone instead of whatever the allocator
//! kept from earlier passes. The child prints `ready` once its set-up
//! is done (the harness or server exists and the timed work is next),
//! then a [`PassReport`] as `key value` lines; the parent parses it
//! back. The parent times spawn to `ready` as the pass's set-up: the
//! start-up of a user's process, from exec to the first sweep.

use crate::check::{Pinned, Tally};
use crate::{host, peak_rss_mb, serve_mix, suite, Ctx};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

/// What one pass measured and checked.
#[derive(Debug, Default)]
pub struct PassReport {
    /// Wall seconds of the measured work.
    pub wall_s: f64,
    /// Seconds from spawning the child to its `ready` line.
    pub setup_s: f64,
    /// The child's peak resident set in MiB.
    pub rss_mb: f64,
    /// Seconds of the host-speed probe around the pass (set by the
    /// parent, see `host`).
    pub probe_s: f64,
    /// Checked operations.
    pub tally: Tally,
    /// Named series of numbers (serve passes: phase walls and request
    /// latencies).
    pub series: Vec<(String, Vec<f64>)>,
}

impl PassReport {
    /// The values of the series `name` (empty when absent).
    pub fn series(&self, name: &str) -> &[f64] {
        self.series
            .iter()
            .find(|(n, _)| n == name)
            .map_or(&[], |(_, v)| v.as_slice())
    }

    fn render(&self) -> String {
        let mut out = String::new();
        let t = &self.tally;
        for (key, value) in [("wall_s", self.wall_s), ("rss_mb", self.rss_mb)] {
            writeln!(out, "{key} {value:?}").expect("writing to a String");
        }
        writeln!(out, "tally {} {}", t.attempted, t.failed).expect("writing to a String");
        for m in &t.messages {
            writeln!(out, "message {}", m.replace('\n', " ")).expect("writing to a String");
        }
        for (name, values) in &self.series {
            write!(out, "series {name}").expect("writing to a String");
            for v in values {
                write!(out, " {v:?}").expect("writing to a String");
            }
            out.push('\n');
        }
        out
    }

    fn parse(text: &str) -> Result<PassReport, String> {
        let mut r = PassReport::default();
        let num = |v: &str| {
            v.parse::<f64>()
                .map_err(|e| format!("pass report {v:?}: {e}"))
        };
        for line in text.lines() {
            let (key, rest) = line.split_once(' ').unwrap_or((line, ""));
            match key {
                "wall_s" => r.wall_s = num(rest)?,
                "rss_mb" => r.rss_mb = num(rest)?,
                "tally" => {
                    let (a, f) = rest.split_once(' ').ok_or("malformed tally line")?;
                    r.tally.attempted = a.parse().map_err(|e| format!("tally: {e}"))?;
                    r.tally.failed = f.parse().map_err(|e| format!("tally: {e}"))?;
                }
                "message" => r.tally.messages.push(rest.to_owned()),
                "series" => {
                    let mut words = rest.split_whitespace();
                    let name = words.next().ok_or("series line without a name")?;
                    let values = words.map(num).collect::<Result<_, _>>()?;
                    r.series.push((name.to_owned(), values));
                }
                _ => return Err(format!("unexpected pass report line {line:?}")),
            }
        }
        Ok(r)
    }
}

/// Timed passes a run makes even when they outlast `--seconds`.
const MIN_PASSES: usize = 3;

/// Runs passes of `workload`, each in a child process over the cache
/// `cache(index)` names, until `--seconds` have passed and at least
/// [`MIN_PASSES`] were timed. Pass 0 warms the page cache and is checked
/// but not timed. The host-speed probe runs before every timed pass and
/// after the last, while no child runs. Returns the timed passes, each
/// with its probe time; every check lands in `tally`.
pub fn run_passes(
    ctx: &Ctx,
    workload: &str,
    tally: &mut Tally,
    mut cache: impl FnMut(usize) -> Result<PathBuf, String>,
) -> Result<Vec<PassReport>, String> {
    let started = Instant::now();
    let mut timed = Vec::new();
    let mut probes = Vec::new();
    let mut index = 0;
    while timed.len() < MIN_PASSES || started.elapsed().as_secs_f64() < ctx.seconds {
        let dir = cache(index)?;
        if index > 0 {
            probes.push(host::probe());
        }
        let mut report = spawn(ctx, workload, index, &dir)?;
        tally.absorb(std::mem::take(&mut report.tally));
        if index > 0 {
            timed.push(report);
        }
        index += 1;
    }
    probes.push(host::probe());
    let around = host::around(&probes, timed.len());
    for (report, probe_s) in timed.iter_mut().zip(around) {
        report.probe_s = probe_s;
    }
    Ok(timed)
}

/// The line a `--pass` child prints when its set-up is done.
const READY: &str = "ready";

/// Tells the parent that set-up is done (called by the `--pass` child
/// right before its timed work).
pub fn ready() {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{READY}");
    let _ = out.flush();
}

/// Runs pass `index` of `workload` in a child process over `cache`,
/// timing spawn to `ready` as the pass's set-up.
pub fn spawn(ctx: &Ctx, workload: &str, index: usize, cache: &Path) -> Result<PassReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let t0 = Instant::now();
    let mut child = Command::new(exe)
        .arg("--pass")
        .arg(workload)
        .arg(ctx.seed.to_string())
        .arg(index.to_string())
        .arg(cache)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("starting pass {index}: {e}"))?;
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut first = String::new();
    let read = stdout.read_line(&mut first);
    let setup_s = t0.elapsed().as_secs_f64();
    let mut rest = String::new();
    let read = read.and_then(|_| stdout.read_to_string(&mut rest));
    let status = child
        .wait()
        .map_err(|e| format!("waiting for pass {index}: {e}"))?;
    read.map_err(|e| format!("reading pass {index}: {e}"))?;
    if !status.success() {
        return Err(format!("pass {index} exited with {status}"));
    }
    if first.trim_end() != READY {
        return Err(format!("pass {index} did not report ready: {first:?}"));
    }
    let mut report = PassReport::parse(&rest)?;
    report.setup_s = setup_s;
    Ok(report)
}

/// The `--pass` child: runs one pass and prints its report.
pub fn run_child(workload: &str, seed: u64, index: usize, cache: PathBuf) -> Result<(), String> {
    let ctx = Ctx {
        seed,
        seconds: 0.0,
        threads: tlat_sim::pool::threads_from_env(),
        work: cache.parent().map(Path::to_path_buf).unwrap_or_default(),
        pinned: Pinned::load()?,
    };
    let mut report = match workload {
        "suite_cold" => suite::pass(&ctx, &cache, index, suite::trace_count()),
        "suite_warm" => suite::pass(&ctx, &cache, index, 0),
        "serve_mix" => serve_mix::pass_report(&ctx, &cache, ready)?,
        other => return Err(format!("no pass for workload {other}")),
    };
    report.rss_mb = peak_rss_mb()?;
    print!("{}", report.render());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pass_reports_round_trip() {
        let mut report = PassReport {
            wall_s: 1.25,
            rss_mb: 201.5,
            series: vec![("sweep.latency_ms".to_owned(), vec![0.125, 17.0])],
            ..PassReport::default()
        };
        report.tally.record(Ok(()));
        report.tally.record(Err(
            "fig5: report digest 1, pinned 2\nsecond line".to_owned()
        ));
        let back = PassReport::parse(&report.render()).expect("parses");
        assert_eq!((back.wall_s, back.rss_mb), (1.25, 201.5));
        assert_eq!((back.tally.attempted, back.tally.failed), (2, 1));
        assert_eq!(
            back.tally.messages,
            ["fig5: report digest 1, pinned 2 second line"]
        );
        assert_eq!(back.series("sweep.latency_ms"), [0.125, 17.0]);
        assert!(back.series("index.latency_ms").is_empty());
        assert!(PassReport::parse("wall_s fast\n").is_err());
        assert!(PassReport::parse("surprise 1\n").is_err());
    }
}
