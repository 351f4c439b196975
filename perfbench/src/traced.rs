//! The traced run: per-layer metrics.
//!
//! The run replays the suites step by step through each layer's public
//! calls, with a span around every call, and reads the program's own
//! counters (`tlat_sim::metrics`) only here:
//!
//! 1. One untraced `suite_warm` pass through `Harness::run_sweep`: the
//!    reference reports.
//! 2. The same suite replayed by hand: cache decode, training
//!    artifacts and the gang walk per program, fanned out on
//!    `pool::run_isolated`, with every cell compared bit for bit to the
//!    reference report through `Report::cell`. The replay runs
//!    alternately with the tracer switched off and on, so the tracing
//!    overhead compares one code path with itself.
//! 3. The cold path's own steps for every trace: interpretation, TLA3
//!    encode, cache store, stream compile, and the decodes back.
//! 4. The gang-walk rows: one registered sweep's lane set per lane
//!    route, per program, split by stream shape, each pinned to its
//!    route by the pack counters and to the suite report by its cells.
//! 5. One `serve_mix` pass for the server's figures.
//!
//! Spans (name, start, end, parent, pass) stay in memory and are written
//! to `.perfbench/spans-<workload>-seed<seed>.jsonl` at the end.

use crate::check::Tally;
use crate::serve_mix;
use crate::stats::median;
use crate::suite::{self, harness, run_suite, sweep_order};
use crate::{Ctx, Metric, RunResult, BUDGET};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use tlat_core::{ProfilePredictor, StaticTraining, StaticTrainingConfig, TrainingProfile};
use tlat_sim::gang::{gang_simulate_compiled, GangLane};
use tlat_sim::metrics::{self, Counter, Snapshot};
use tlat_sim::{
    pool, sweep_spec, DiskCache, Report, SchemeConfig, SimOptions, SimResult, TraceKey,
    TrainingData,
};
use tlat_trace::{packet, CompiledTrace, Trace};
use tlat_workloads::Workload;

/// Mean same-site run from which a stream counts as loop-heavy (the
/// gang planner's own threshold for run replay).
const LOOP_HEAVY_RUN: usize = 3;

/// Repetitions of each gang-row walk (the median is kept).
const ROW_REPS: usize = 3;

/// Pairs of one untraced and one traced replay of the warm suite (the
/// median ratio is kept). Even, so each side runs first equally often.
const REPLAYS: usize = 6;

// ---------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------

/// One closed span.
#[derive(Debug, Clone)]
struct Span {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    pass: u32,
    start_ns: u64,
    end_ns: u64,
}

/// Span pass ids: the traced run's sections.
const PASS_WARM: u32 = 0;
const PASS_COLD: u32 = 1;
const PASS_GANG: u32 = 2;
const PASS_RENDER: u32 = 3;

/// In-memory span recorder.
struct Tracer {
    epoch: Instant,
    /// Switched off, spans read no clock and record nothing.
    enabled: AtomicBool,
    next: AtomicU64,
    /// Pass id stamped on spans opened from now on.
    pass: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closing it records it.
struct Open<'t> {
    tracer: &'t Tracer,
    /// Whether the tracer was on when the span opened.
    live: bool,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    pass: u32,
    start_ns: u64,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            enabled: AtomicBool::new(true),
            next: AtomicU64::new(1),
            pass: AtomicU32::new(PASS_WARM),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Stamps every span opened from now on with `pass`.
    fn begin_pass(&self, pass: u32) {
        self.pass.store(pass, Ordering::Relaxed);
    }

    /// Switches span recording on or off.
    fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    fn open(&self, name: &'static str, parent: Option<u64>) -> Open<'_> {
        let live = self.enabled.load(Ordering::Relaxed);
        Open {
            tracer: self,
            live,
            id: if live {
                self.next.fetch_add(1, Ordering::Relaxed)
            } else {
                0
            },
            parent,
            name,
            pass: self.pass.load(Ordering::Relaxed),
            start_ns: if live { self.now_ns() } else { 0 },
        }
    }

    /// Runs `f` inside a span and returns its result.
    fn time<T>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> T) -> T {
        self.timed(name, parent, f).0
    }

    /// [`time`](Self::time), also returning the span's nanoseconds.
    fn timed<T>(&self, name: &'static str, parent: Option<u64>, f: impl FnOnce() -> T) -> (T, u64) {
        let span = self.open(name, parent);
        let out = f();
        (out, span.close())
    }

    fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Total duration of every span named `name`, in nanoseconds.
    fn total_ns(&self, name: &str) -> u64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }
}

impl Open<'_> {
    fn id(&self) -> Option<u64> {
        Some(self.id)
    }

    /// Closes the span and returns its duration in nanoseconds (0 for
    /// a span opened with the tracer off).
    fn close(self) -> u64 {
        if !self.live {
            return 0;
        }
        let end_ns = self.tracer.now_ns();
        self.tracer
            .spans
            .lock()
            .expect("span list lock")
            .push(Span {
                id: self.id,
                parent: self.parent,
                name: self.name,
                pass: self.pass,
                start_ns: self.start_ns,
                end_ns,
            });
        end_ns - self.start_ns
    }
}

/// Each span's self time: its duration minus the union of its
/// children's intervals.
fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start_ns);
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

fn write_spans(path: &std::path::Path, spans: &[Span]) -> Result<(), String> {
    let mut out = String::new();
    for s in spans {
        let mut o = tlat_trace::json::JsonObject::new();
        o.field("id", &s.id)
            .field("parent", &s.parent)
            .field("name", &s.name)
            .field("pass", &u64::from(s.pass))
            .field("start_ns", &s.start_ns)
            .field("end_ns", &s.end_ns);
        out.push_str(&o.finish());
        out.push('\n');
    }
    std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
}

// ---------------------------------------------------------------------
// The gang walk
// ---------------------------------------------------------------------

/// The one gang call of the benchmark. `records` feeds dyn lanes; a
/// compiled-only walk passes `None`.
fn walk(
    lanes: &mut [GangLane],
    compiled: &CompiledTrace,
    records: Option<&Trace>,
) -> Vec<SimResult> {
    gang_simulate_compiled(lanes, compiled, records, SimOptions::default())
}

/// Whether a configuration's lane runs on the compiled stream alone
/// (mirrors the harness's streaming-path rule).
fn streams(config: &SchemeConfig) -> bool {
    matches!(
        config,
        SchemeConfig::TwoLevel(_)
            | SchemeConfig::LeeSmith(_)
            | SchemeConfig::StaticTraining {
                data: TrainingData::Same,
                ..
            }
            | SchemeConfig::Profile
    )
}

fn is_loop_heavy(compiled: &CompiledTrace) -> bool {
    compiled.len() >= LOOP_HEAVY_RUN * compiled.site_run_count()
}

fn key<'a>(w: &'a Workload, train: bool) -> TraceKey<'a> {
    TraceKey {
        workload: w.name,
        role: if train { "train" } else { "test" },
        input: if train {
            w.train_input().expect("caller checked the training set")
        } else {
            w.test_input()
        },
        budget: BUDGET,
    }
}

/// Bit-exact cell comparison against a report.
fn check_cell(
    report: &Report,
    config: &SchemeConfig,
    w: &Workload,
    got: Option<f64>,
) -> Result<(), String> {
    let want = report.cell(&config.label(), w.name);
    if want.map(f64::to_bits) == got.map(f64::to_bits) {
        Ok(())
    } else {
        Err(format!(
            "{} on {}: {got:?}, report has {want:?}",
            config.label(),
            w.name
        ))
    }
}

// ---------------------------------------------------------------------
// 2. The warm suite, replayed
// ---------------------------------------------------------------------

/// One program's replay memos, like the harness's: the compiled
/// stream, the records, and the training artifacts.
#[derive(Default)]
struct Memo {
    compiled: Option<Arc<CompiledTrace>>,
    records: Option<Arc<Trace>>,
    train: Option<Arc<Trace>>,
    profiles: HashMap<(bool, u8), Arc<TrainingProfile>>,
    profiler: Option<Arc<ProfilePredictor>>,
}

struct Replay<'a> {
    tracer: &'a Tracer,
    disk: DiskCache,
    workloads: Vec<Workload>,
    memos: Vec<Mutex<Memo>>,
    threads: usize,
    /// Per sweep: (wall ns, task ns per program).
    pool: Mutex<Vec<(u64, Vec<u64>)>>,
    lanes: AtomicU64,
}

impl Replay<'_> {
    fn load(&self, parent: Option<u64>, w: &Workload, train: bool) -> Result<Arc<Trace>, String> {
        self.tracer
            .time("sim.diskcache.load", parent, || {
                self.disk.load(&key(w, train))
            })
            .map(Arc::new)
            .ok_or_else(|| format!("{}: warm cache miss", w.name))
    }

    /// One program's share of one sweep: inputs, lanes, walk. Returns
    /// each configuration's cell.
    fn program(
        &self,
        configs: &[SchemeConfig],
        wi: usize,
        parent: Option<u64>,
    ) -> Result<Vec<Option<f64>>, String> {
        let w = &self.workloads[wi];
        let mut memo = self.memos[wi].lock().expect("one task per program");
        let span = self.tracer.open("sweep.program", parent);
        let here = span.id();
        let records = if configs.iter().all(streams) {
            None
        } else {
            if memo.records.is_none() {
                memo.records = Some(self.load(here, w, false)?);
            }
            memo.records.clone()
        };
        if memo.compiled.is_none() {
            memo.compiled = Some(Arc::new(match &records {
                Some(r) => self
                    .tracer
                    .time("trace.compiled.compile", here, || CompiledTrace::compile(r)),
                None => self
                    .tracer
                    .time("sim.diskcache.load_compiled", here, || {
                        self.disk.load_compiled(&key(w, false))
                    })
                    .ok_or_else(|| format!("{}: warm cache miss", w.name))?,
            }));
        }
        let compiled = Arc::clone(memo.compiled.as_ref().expect("set above"));
        let mut lanes = Vec::new();
        let mut lane_of = Vec::new();
        for (ci, config) in configs.iter().enumerate() {
            if let Some(lane) =
                self.lane(config, w, &mut memo, &compiled, records.as_deref(), here)?
            {
                lanes.push(lane);
                lane_of.push(ci);
            }
        }
        self.lanes.fetch_add(lanes.len() as u64, Ordering::Relaxed);
        let results = self.tracer.time("sim.gang.walk", here, || {
            walk(&mut lanes, &compiled, records.as_deref())
        });
        span.close();
        let mut cells = vec![None; configs.len()];
        for (ci, result) in lane_of.into_iter().zip(results) {
            cells[ci] = Some(result.accuracy());
        }
        Ok(cells)
    }

    /// Builds one lane the way the harness does, through memoized
    /// training artifacts. `None` for Diff training without a training
    /// set.
    fn lane(
        &self,
        config: &SchemeConfig,
        w: &Workload,
        memo: &mut Memo,
        compiled: &CompiledTrace,
        records: Option<&Trace>,
        parent: Option<u64>,
    ) -> Result<Option<GangLane>, String> {
        Ok(match config {
            SchemeConfig::StaticTraining {
                history_bits,
                hrt,
                data,
            } => {
                let diff = *data == TrainingData::Diff;
                if diff && w.train_input().is_none() {
                    return Ok(None);
                }
                if diff && memo.train.is_none() {
                    memo.train = Some(self.load(parent, w, true)?);
                }
                let train = memo.train.clone();
                let profile = memo
                    .profiles
                    .entry((diff, *history_bits))
                    .or_insert_with(|| {
                        Arc::new(self.tracer.time("sim.experiment.train", parent, || {
                            match (diff, records) {
                                (true, _) => TrainingProfile::collect(
                                    train.as_deref().expect("loaded above"),
                                    *history_bits,
                                ),
                                (false, Some(r)) => TrainingProfile::collect(r, *history_bits),
                                (false, None) => {
                                    TrainingProfile::collect_compiled(compiled, *history_bits)
                                }
                            }
                        }))
                    });
                let config = StaticTrainingConfig {
                    history_bits: *history_bits,
                    hrt: *hrt,
                    data: data.label().to_owned(),
                };
                Some(GangLane::StaticTraining(StaticTraining::with_profile(
                    config, profile,
                )))
            }
            SchemeConfig::Profile => {
                let profiler = memo.profiler.get_or_insert_with(|| {
                    Arc::new(
                        self.tracer
                            .time("sim.experiment.train", parent, || match records {
                                Some(r) => ProfilePredictor::train(r),
                                None => ProfilePredictor::train_compiled(compiled),
                            }),
                    )
                });
                Some(GangLane::Profile((**profiler).clone()))
            }
            other => Some(GangLane::from_config(other, None)),
        })
    }

    /// Replays one sweep, fanning the programs out on the pool, and
    /// checks every cell against the reference report.
    fn sweep(&self, name: &str, report: &Report, parent: Option<u64>, tally: &mut Tally) {
        let spec = sweep_spec(name).expect("registered sweep");
        let span = self.tracer.open("sweep", parent);
        let here = span.id();
        let outcomes = pool::run_isolated(self.workloads.len(), self.threads, |wi| {
            let t0 = Instant::now();
            let cells = self.program(&spec.configs, wi, here);
            (
                cells,
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            )
        });
        let wall = span.close();
        let mut tasks = Vec::new();
        for (wi, outcome) in outcomes.into_iter().enumerate() {
            let w = &self.workloads[wi];
            let cells = match outcome {
                Ok((Ok(cells), ns)) => {
                    tasks.push(ns);
                    cells
                }
                Ok((Err(e), _)) => {
                    tally.record(Err(e));
                    continue;
                }
                Err(panic) => {
                    tally.record(Err(format!("{name}/{}: {panic}", w.name)));
                    continue;
                }
            };
            for (config, got) in spec.configs.iter().zip(cells) {
                tally.record(check_cell(report, config, w, got));
            }
        }
        self.pool
            .lock()
            .expect("pool stats lock")
            .push((wall, tasks));
    }
}

// ---------------------------------------------------------------------
// 3. The cold path, step by step
// ---------------------------------------------------------------------

/// Per-step nanoseconds and the records they covered.
#[derive(Default)]
struct ColdSteps {
    gen: (u64, u64),
    encode: (u64, u64),
    store: (u64, u64),
    compile: (u64, u64),
    decode: (u64, u64),
    load_compiled: (u64, u64),
    load: (u64, u64),
    bytes: (u64, u64),
}

fn add(slot: &mut (u64, u64), ns: u64, records: u64) {
    slot.0 += ns;
    slot.1 += records;
}

fn per(slot: (u64, u64)) -> f64 {
    slot.0 as f64 / slot.1.max(1) as f64
}

fn cold_steps(ctx: &Ctx, tracer: &Tracer, tally: &mut Tally) -> Result<ColdSteps, String> {
    let disk = DiskCache::new(ctx.cache_dir("traced-cold")?);
    let workloads = tlat_workloads::all();
    let jobs: Vec<(usize, bool)> = (0..workloads.len())
        .flat_map(|wi| [(wi, false), (wi, true)])
        .filter(|&(wi, train)| !train || workloads[wi].train_input().is_some())
        .collect();
    let steps = Mutex::new(ColdSteps::default());
    tracer.begin_pass(PASS_COLD);
    let top = tracer.open("suite_cold.steps", None);
    let parent = top.id();
    let outcomes = pool::run_isolated(jobs.len(), ctx.threads, |j| -> Result<(), String> {
        let (wi, train) = jobs[j];
        let w = &workloads[wi];
        let span = tracer.open("trace", parent);
        let here = span.id();
        let (trace, gen) = tracer.timed("workloads.trace_gen", here, || {
            if train {
                w.trace_train(BUDGET)
                    .map(|t| t.expect("has a training set"))
            } else {
                w.trace_test(BUDGET)
            }
        });
        let trace = trace.map_err(|e| format!("{}: {e}", w.name))?;
        let n = trace.len() as u64;
        let (bytes, encode) = tracer.timed("trace.packet.encode", here, || packet::encode(&trace));
        let k = key(w, train);
        let ((), store) = tracer.timed("sim.diskcache.store", here, || disk.store(&k, &trace));
        let (loaded, load) = tracer.timed("sim.diskcache.load", here, || disk.load(&k));
        if loaded.as_ref() != Some(&trace) {
            return Err(format!(
                "{}: cache load differs from the generated trace",
                w.name
            ));
        }
        let mut s = steps.lock().expect("step totals lock");
        add(&mut s.gen, gen, n);
        add(&mut s.encode, encode, n);
        add(&mut s.store, store, n);
        add(&mut s.load, load, n);
        add(&mut s.bytes, bytes.len() as u64, n);
        drop(s);
        if !train {
            let (compiled, compile) = tracer.timed("trace.compiled.compile", here, || {
                Some(CompiledTrace::compile(&trace))
            });
            let (decoded, decode) = tracer.timed("trace.packet.decode_compiled", here, || {
                packet::decode_compiled(&bytes).ok()
            });
            let (streamed, load_compiled) =
                tracer.timed("sim.diskcache.load_compiled", here, || {
                    disk.load_compiled(&k)
                });
            if decoded != compiled || streamed != compiled {
                return Err(format!(
                    "{}: decoded stream differs from the compiled trace",
                    w.name
                ));
            }
            let mut s = steps.lock().expect("step totals lock");
            add(&mut s.compile, compile, n);
            add(&mut s.decode, decode, n);
            add(&mut s.load_compiled, load_compiled, n);
        }
        span.close();
        Ok(())
    });
    top.close();
    for outcome in outcomes {
        tally.record(outcome.map_err(|p| p.to_string()).and_then(|r| r));
    }
    Ok(steps.into_inner().expect("pool joined"))
}

// ---------------------------------------------------------------------
// 4. Route-pinned gang rows
// ---------------------------------------------------------------------

/// One gang-walk row: a registered sweep's lane set for one route.
struct Row {
    name: &'static str,
    sweep: &'static str,
    keep: fn(&SchemeConfig) -> bool,
}

const ROWS: [Row; 5] = [
    Row {
        name: "scalar",
        sweep: "fig10",
        keep: |c| {
            matches!(
                c,
                SchemeConfig::StaticTraining { .. } | SchemeConfig::Profile
            )
        },
    },
    Row {
        name: "ls_pack",
        sweep: "fig9",
        keep: |c| matches!(c, SchemeConfig::LeeSmith(_)),
    },
    Row {
        name: "at_pack",
        sweep: "fig5",
        keep: |_| true,
    },
    Row {
        name: "at_multimask",
        sweep: "fig7",
        keep: |_| true,
    },
    Row {
        name: "dyn",
        sweep: "taxonomy",
        keep: |c| !matches!(c, SchemeConfig::TwoLevel(_)),
    },
];

/// Whether the pack counters of one walk show the route `row` names.
/// `at_multimask` packs only on loop-heavy streams: on churny ones the
/// planner keeps lanes whose history mask no other lane shares scalar,
/// so there the row pins that scalar plan.
fn took_route(row: &str, loop_heavy: bool, lanes: u64, (packed, at, ls): (u64, u64, u64)) -> bool {
    match (row, loop_heavy) {
        ("ls_pack", _) => packed == lanes && ls > 0 && at == 0,
        ("at_pack", _) | ("at_multimask", true) => packed == lanes && at > 0 && ls == 0,
        _ => packed == 0 && at == 0 && ls == 0,
    }
}

fn class(loop_heavy: bool) -> &'static str {
    if loop_heavy {
        "loop_heavy"
    } else {
        "churny"
    }
}

/// Per (row, class): walk ns, lane events, and whether every walk held.
type RowTotals = HashMap<(&'static str, &'static str), (u64, u64, bool)>;

fn gang_rows(
    disk: &DiskCache,
    reports: &HashMap<&str, Report>,
    tracer: &Tracer,
    tally: &mut Tally,
) -> Result<RowTotals, String> {
    let mut totals = RowTotals::new();
    tracer.begin_pass(PASS_GANG);
    let top = tracer.open("sim.gang.rows", None);
    for w in tlat_workloads::all() {
        let records = disk
            .load(&key(&w, false))
            .ok_or_else(|| format!("{}: warm cache miss", w.name))?;
        let compiled = CompiledTrace::compile(&records);
        let loop_heavy = is_loop_heavy(&compiled);
        for row in &ROWS {
            let spec = sweep_spec(row.sweep).expect("registered sweep");
            let configs: Vec<&SchemeConfig> =
                spec.configs.iter().filter(|c| (row.keep)(c)).collect();
            let mut times = Vec::new();
            let mut held = true;
            for _ in 0..ROW_REPS {
                let mut lanes: Vec<GangLane> = configs
                    .iter()
                    .map(|c| GangLane::from_config(c, Some(&records)))
                    .collect();
                let before = Snapshot::now();
                let span = tracer.open("sim.gang.row", top.id());
                let results = walk(&mut lanes, &compiled, Some(&records));
                times.push(span.close() as f64);
                let delta = Snapshot::now().since(&before);
                let counts = (
                    delta.counter(Counter::LanesPacked),
                    delta.counter(Counter::AtPacksFormed),
                    delta.counter(Counter::LsPacksFormed),
                );
                let route = took_route(row.name, loop_heavy, lanes.len() as u64, counts);
                let mut outcome = if route {
                    Ok(())
                } else {
                    Err(format!(
                        "sim.gang.{} on {}: lanes took another route",
                        row.name, w.name
                    ))
                };
                for (config, result) in configs.iter().zip(&results) {
                    if outcome.is_ok() {
                        outcome =
                            check_cell(&reports[row.sweep], config, &w, Some(result.accuracy()));
                    }
                }
                held &= outcome.is_ok();
                tally.record(outcome);
            }
            let entry = totals
                .entry((row.name, class(loop_heavy)))
                .or_insert((0, 0, true));
            entry.0 += median(&times) as u64;
            entry.1 += configs.len() as u64 * compiled.len() as u64;
            entry.2 &= held;
        }
    }
    top.close();
    Ok(totals)
}

// ---------------------------------------------------------------------
// The run
// ---------------------------------------------------------------------

/// The traced run (the same for every workload name).
pub fn run(ctx: &Ctx, workload: &str) -> Result<RunResult, String> {
    let mut tally = Tally::default();
    let cache = suite::fill_warm_cache(ctx)?;
    let order = sweep_order(ctx.seed, 0);

    // 1. Untraced reference pass, program counters off.
    metrics::set_enabled(false);
    let h = harness(BUDGET, &cache);
    let reports: HashMap<&str, Report> = run_suite(&h, &order, &ctx.pinned, &mut tally)
        .into_iter()
        .collect();
    drop(h);

    // 2. The replay in pairs of one untraced and one traced run, each
    // over fresh memos, alternating which runs first; the pool and lane
    // figures come from the last traced one.
    metrics::set_enabled(true);
    let tracer = Tracer::new();
    let mut ratios = Vec::new();
    let mut last = None;
    for pair in 0..REPLAYS {
        let mut walls = [0.0; 2];
        let traced_first = pair % 2 == 1;
        for traced in [traced_first, !traced_first] {
            tracer.set_enabled(traced);
            let replay = Replay {
                tracer: &tracer,
                disk: DiskCache::new(&cache),
                workloads: tlat_workloads::all(),
                memos: tlat_workloads::all()
                    .iter()
                    .map(|_| Mutex::default())
                    .collect(),
                threads: ctx.threads,
                pool: Mutex::new(Vec::new()),
                lanes: AtomicU64::new(0),
            };
            let before = Snapshot::now();
            let t0 = Instant::now();
            let top = tracer.open("suite_warm.replay", None);
            for spec in &order {
                replay.sweep(spec.name, &reports[spec.name], top.id(), &mut tally);
            }
            top.close();
            walls[usize::from(traced)] = t0.elapsed().as_nanos() as f64;
            if traced {
                let packed = Snapshot::now().since(&before).counter(Counter::LanesPacked);
                last = Some((replay, packed));
            }
        }
        ratios.push(walls[1] / walls[0]);
    }
    tracer.set_enabled(true);
    let (replay, packed) = last.expect("REPLAYS > 0");
    let overhead = median(&ratios) - 1.0;
    tracer.begin_pass(PASS_RENDER);
    for spec in &order {
        let text = tracer.time("sim.report.render", None, || reports[spec.name].to_string());
        tally.record(ctx.pinned.check_report(spec.name, text.as_bytes()));
    }

    // 3.–5.
    let cold = cold_steps(ctx, &tracer, &mut tally)?;
    let rows = gang_rows(&replay.disk, &reports, &tracer, &mut tally)?;
    let plan = serve_mix::plan(ctx.seed, serve_mix::PER_KIND);
    let serve = serve_mix::pass(ctx, &cache, &plan, ctx.threads, || ())?;
    tally.absorb(serve.tally);

    let spans = tracer.spans();
    write_spans(
        &std::path::Path::new(".perfbench")
            .join(format!("spans-{workload}-seed{}.jsonl", ctx.seed)),
        &spans,
    )?;
    let self_ns: u64 = self_times(&spans).iter().sum();
    let capacity: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| {
            // The replays and cold steps fan out on the pool; the
            // gang rows and renders run on this thread alone.
            let threads = if matches!(s.pass, PASS_WARM | PASS_COLD) {
                ctx.threads
            } else {
                1
            };
            (s.end_ns - s.start_ns) as f64 * threads as f64
        })
        .sum();
    let pool_stats = replay.pool.into_inner().expect("replay finished");
    let pool_wall: u64 = pool_stats.iter().map(|(wall, _)| wall).sum();
    let pool_busy: u64 = pool_stats.iter().flat_map(|(_, tasks)| tasks).sum();
    let pool_straggle: u64 = pool_stats
        .iter()
        .map(|(_, tasks)| tasks.iter().max().copied().unwrap_or(0))
        .sum();

    let (traces, tests) = (suite::trace_count() as usize, tlat_workloads::all().len());
    let ns_rec = "ns/record";
    let mut m: Vec<Metric> = [
        (
            "workloads.trace_gen.ns_per_record",
            per(cold.gen),
            ns_rec,
            traces,
        ),
        (
            "trace.packet.encode.ns_per_record",
            per(cold.encode),
            ns_rec,
            traces,
        ),
        (
            "sim.diskcache.store.ns_per_record",
            per(cold.store),
            ns_rec,
            traces,
        ),
        (
            "trace.compiled.compile.ns_per_record",
            per(cold.compile),
            ns_rec,
            tests,
        ),
        (
            "sim.diskcache.load_compiled.ns_per_record",
            per(cold.load_compiled),
            ns_rec,
            tests,
        ),
        (
            "trace.packet.decode_compiled.ns_per_record",
            per(cold.decode),
            ns_rec,
            tests,
        ),
        (
            "sim.diskcache.load.ns_per_record",
            per(cold.load),
            ns_rec,
            traces,
        ),
        (
            "trace.packet.bytes_per_record",
            per(cold.bytes),
            "bytes/record",
            traces,
        ),
    ]
    .into_iter()
    .map(|(name, value, unit, n)| Metric::new(name, value, unit, n))
    .collect();
    for row in &ROWS {
        for loop_heavy in [true, false] {
            let name = format!(
                "sim.gang.{}.{}.ns_per_lane_event",
                row.name,
                class(loop_heavy)
            );
            match rows.get(&(row.name, class(loop_heavy))) {
                Some(&(ns, events, true)) => {
                    let per_event = ns as f64 / events as f64;
                    m.push(Metric::new(name, per_event, "ns/lane_event", ROW_REPS));
                }
                _ => tally.fail(format!(
                    "{name}: no walk held its route and cells; not timed"
                )),
            }
        }
    }
    let lanes = replay.lanes.load(Ordering::Relaxed).max(1);
    let computed: Vec<f64> = serve_mix::computed(&serve.samples)
        .iter()
        .map(|s| s.ms())
        .collect();
    let memo_ms = serve_mix::latencies_ms(&serve.samples, "sweep");
    if computed.is_empty() || memo_ms.is_empty() {
        return Err("the serve pass computed or memoized no sweep".to_owned());
    }
    let (overlapped, coalesced) = serve_mix::twins_coalesced(&serve.samples);
    if overlapped == 0 {
        tally.fail("no opening twin was in flight with its sweep's computation".to_owned());
    }
    let n_pool = pool_stats.len();
    let render_us = tracer.total_ns("sim.report.render") as f64 / 1e3 / order.len() as f64;
    m.extend(
        [
            (
                "sim.gang.lanes_packed_share",
                packed as f64 / lanes as f64,
                "ratio",
                lanes as usize,
            ),
            (
                "sim.experiment.train.ms",
                tracer.total_ns("sim.experiment.train") as f64 / 1e6 / REPLAYS as f64,
                "ms",
                REPLAYS,
            ),
            (
                "sim.pool.busy_share",
                pool_busy as f64 / (pool_wall * ctx.threads as u64) as f64,
                "ratio",
                n_pool,
            ),
            (
                "sim.pool.straggler_share",
                pool_straggle as f64 / pool_wall as f64,
                "ratio",
                n_pool,
            ),
            ("sim.report.render.us", render_us, "us", order.len()),
            (
                "sim.serve.compute_ms",
                computed.iter().sum::<f64>() / computed.len() as f64,
                "ms",
                computed.len(),
            ),
            (
                "sim.serve.memo_us",
                median(&memo_ms) * 1e3,
                "us",
                memo_ms.len(),
            ),
            (
                "sim.serve.coalesced_share",
                coalesced as f64 / overlapped.max(1) as f64,
                "ratio",
                overlapped,
            ),
            (
                "trace.coverage",
                self_ns as f64 / capacity,
                "ratio",
                spans.len(),
            ),
            ("trace.overhead_share", overhead, "ratio", REPLAYS),
        ]
        .into_iter()
        .map(|(name, value, unit, n)| Metric::new(name, value, unit, n)),
    );
    let walls: Vec<(&str, Vec<f64>)> = serve
        .phase_walls
        .iter()
        .map(|&(kind, wall)| (kind, vec![wall]))
        .collect();
    let latencies: Vec<(&str, Vec<f64>)> = serve_mix::KINDS
        .iter()
        .map(|&kind| (kind, serve_mix::latencies_ms(&serve.samples, kind)))
        .collect();
    m.extend(serve_mix::kind_rows("sim.serve.", &walls, &latencies));
    Ok(RunResult {
        tally,
        metrics: m,
        ..RunResult::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "s",
            pass: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Two overlapping children cover 10..40 of a 0..100 parent;
        // a grandchild only reduces its own parent's self time.
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 40),
            span(4, Some(2), 12, 14),
        ];
        assert_eq!(self_times(&spans), vec![70, 18, 20, 2]);
        let total: u64 = self_times(&spans).iter().sum();
        assert_eq!(total, 110, "overlap counts once per thread that ran it");
    }

    #[test]
    fn a_switched_off_tracer_records_nothing() {
        let tracer = Tracer::new();
        tracer.set_enabled(false);
        let top = tracer.open("off", None);
        assert_eq!(tracer.timed("inner", top.id(), || 7), (7, 0));
        assert_eq!(top.close(), 0);
        assert!(tracer.spans().is_empty());
        tracer.set_enabled(true);
        tracer.time("on", None, || ());
        assert_eq!(tracer.spans().len(), 1);
    }

    #[test]
    fn routes_are_read_from_the_pack_counters() {
        assert!(took_route("ls_pack", false, 6, (6, 0, 3)));
        assert!(!took_route("ls_pack", false, 6, (4, 0, 2)));
        assert!(took_route("at_pack", true, 4, (4, 1, 0)));
        assert!(!took_route("at_pack", false, 4, (0, 0, 0)));
        assert!(took_route("at_multimask", true, 4, (4, 1, 0)));
        assert!(took_route("at_multimask", false, 4, (0, 0, 0)));
        assert!(!took_route("scalar", false, 2, (1, 1, 0)));
        assert!(took_route("dyn", true, 6, (0, 0, 0)));
    }
}
