//! The `serve_mix` workload: an in-process sweep server over the warm
//! cache, driven by closed-loop clients.
//!
//! Each pass binds a fresh [`Server`] (empty memos) and sends one seeded
//! request plan in phases. The opening phase sends every registered
//! sweep twice in a row, so the first request computes the sweep while
//! its concurrent twin coalesces onto it. Then each request kind the
//! server answers from memory gets a phase of its own, [`PER_KIND`]
//! requests long: memoized sweeps, streamed memoized sweeps, the
//! `GET /sweeps` index, `GET /metrics` and `GET /healthz`. This follows
//! the repository's serve load bench, which measures each target on its
//! own, so every kind's rate and latency describe that kind alone and
//! depend on no chosen mix of weights. Every client sends its next
//! request only after its previous one completes, and a phase ends when
//! its last request is answered.

use crate::check::{Pinned, Tally};
use crate::pass::{self, PassReport};
use crate::stats::{median, percentile, tail};
use crate::suite;
use crate::{Ctx, Metric, RunResult, BUDGET};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use tlat_sim::{sweep_specs, Server};
use tlat_workloads::SplitMix64;

/// Requests in each memo phase: enough for a p99 with ten samples
/// beyond it.
pub const PER_KIND: usize = 1_000;

/// One request of the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `GET /healthz`.
    Healthz,
    /// `GET /sweeps`.
    Index,
    /// `GET /metrics`.
    Metrics,
    /// `POST /sweep/<name>`.
    Sweep(&'static str),
    /// `POST /sweep/<name>?stream=1`.
    Stream(&'static str),
}

/// The phases answered from memory, by name.
pub const KINDS: [&str; 5] = ["sweep", "stream", "index", "metrics", "healthz"];

/// The name of the opening phase.
pub const OPENING: &str = "opening";

impl Kind {
    fn request_line(self) -> String {
        match self {
            Kind::Healthz => "GET /healthz".to_owned(),
            Kind::Index => "GET /sweeps".to_owned(),
            Kind::Metrics => "GET /metrics".to_owned(),
            Kind::Sweep(name) => format!("POST /sweep/{name}"),
            Kind::Stream(name) => format!("POST /sweep/{name}?stream=1"),
        }
    }
}

/// One phase of the plan: a kind name and its requests.
pub type Phase = (&'static str, Vec<Kind>);

/// The seed's request plan: the opening twins in the seed's sweep
/// order, then the [`KINDS`] phases in a seeded order, `per_kind`
/// requests each, sweep names drawn from the seed.
pub fn plan(seed: u64, per_kind: usize) -> Vec<Phase> {
    let order = suite::sweep_order(seed, 0);
    let names: Vec<&'static str> = order.iter().map(|s| s.name).collect();
    let opening = names.iter().flat_map(|&n| [Kind::Sweep(n); 2]).collect();
    let mut rng = SplitMix64::new(seed ^ 0x5e5e_5e5e_5e5e_5e5e);
    let mut kinds = KINDS;
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, rng.index(i + 1));
    }
    let mut phases = vec![(OPENING, opening)];
    for kind in kinds {
        let requests = (0..per_kind)
            .map(|_| {
                let name = names[rng.index(names.len())];
                match kind {
                    "sweep" => Kind::Sweep(name),
                    "stream" => Kind::Stream(name),
                    "index" => Kind::Index,
                    "metrics" => Kind::Metrics,
                    _ => Kind::Healthz,
                }
            })
            .collect();
        phases.push((kind, requests));
    }
    phases
}

/// One answered request, as the client saw it.
pub struct Sample {
    /// The phase it belongs to.
    pub phase: &'static str,
    /// Position in its phase.
    pub index: usize,
    /// Nanoseconds from the pass start to sending it.
    pub sent_ns: u64,
    /// Nanoseconds from the pass start to its last byte.
    pub done_ns: u64,
    /// Whether the server said the sweep request coalesced.
    pub coalesced: bool,
}

impl Sample {
    /// Send-to-last-byte latency in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.done_ns - self.sent_ns) as f64 / 1e6
    }
}

/// One pass's client-side record.
pub struct Pass {
    /// Wall time of the whole plan.
    pub wall_s: f64,
    /// Wall time of each phase.
    pub phase_walls: Vec<(&'static str, f64)>,
    /// Every answered request.
    pub samples: Vec<Sample>,
    /// Checked requests.
    pub tally: Tally,
}

/// A parsed HTTP response (chunked bodies already joined).
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

fn send(addr: SocketAddr, kind: Kind) -> Result<Response, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("timeout: {e}"))?;
    let head = format!(
        "{} HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n",
        kind.request_line()
    );
    stream
        .write_all(head.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    parse_response(&raw)
}

fn parse_response(raw: &[u8]) -> Result<Response, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("response has no header end")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "non-UTF-8 response head")?;
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or("malformed status line")?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_owned(), v.trim().to_owned()))
        .collect();
    let mut response = Response {
        status,
        headers,
        body: raw[split + 4..].to_vec(),
    };
    if response.header("Transfer-Encoding") == Some("chunked") {
        response.body = dechunk(&response.body)?;
    }
    Ok(response)
}

fn dechunk(mut body: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    loop {
        let line_end = body
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("truncated chunk size")?;
        let size = std::str::from_utf8(&body[..line_end])
            .ok()
            .and_then(|s| usize::from_str_radix(s.trim(), 16).ok())
            .ok_or("malformed chunk size")?;
        body = &body[line_end + 2..];
        if size == 0 {
            return Ok(out);
        }
        if body.len() < size + 2 {
            return Err("truncated chunk".to_owned());
        }
        out.extend_from_slice(&body[..size]);
        body = &body[size + 2..];
    }
}

/// Decodes the JSON string literal at the start of `s` (the escapes
/// the server's JSON writer emits), returning it and the rest.
fn json_string(s: &str) -> Option<(String, &str)> {
    let mut chars = s.strip_prefix('"')?.char_indices();
    let mut out = String::new();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Some((out, &s[i + 2..])),
            '\\' => match chars.next()?.1 {
                'n' => out.push('\n'),
                'r' => out.push('\r'),
                't' => out.push('\t'),
                'u' => {
                    let hex: String = (0..4)
                        .filter_map(|_| chars.next().map(|(_, c)| c))
                        .collect();
                    out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                }
                other => out.push(other),
            },
            c => out.push(c),
        }
    }
    None
}

/// The `GET /sweeps` body the registry implies (SERVING.md).
fn expected_index(workloads: usize) -> String {
    let mut body = String::new();
    for spec in sweep_specs() {
        tlat_trace::json::JsonObject::new()
            .field("name", &spec.name)
            .field("title", &spec.title)
            .field("configs", &(spec.configs.len() as u64))
            .field("cells", &((spec.configs.len() * workloads) as u64))
            .finish_into(&mut body);
        body.push('\n');
    }
    body
}

/// Checks one response; returns whether the server reported it as
/// coalesced.
fn check(kind: Kind, r: &Response, pinned: &Pinned, index: &str) -> Result<bool, String> {
    if r.status != 200 {
        return Err(format!("{}: status {}", kind.request_line(), r.status));
    }
    let body = std::str::from_utf8(&r.body).map_err(|_| "non-UTF-8 body")?;
    let wrong = || Err(format!("{}: wrong body", kind.request_line()));
    match kind {
        Kind::Healthz if body == "ok\n" => Ok(false),
        Kind::Index if body == index => Ok(false),
        Kind::Metrics => tlat_sim::metrics::check(body)
            .map(|_| false)
            .map_err(|e| format!("GET /metrics: {e}")),
        Kind::Sweep(name) => {
            let report = body
                .strip_suffix('\n')
                .ok_or("sweep body lacks its newline")?;
            pinned.check_report(name, report.as_bytes())?;
            Ok(r.header("X-Tlat-Coalesced") == Some("true"))
        }
        Kind::Stream(name) => {
            let lines: Vec<&str> = body.lines().collect();
            let (Some(first), Some(last)) = (lines.first(), lines.last()) else {
                return wrong();
            };
            if !first.starts_with("{\"event\":\"accepted\"") {
                return wrong();
            }
            let report = last
                .strip_prefix("{\"event\":\"done\",\"id\":")
                .and_then(|rest| rest.split_once(",\"report\":"))
                .and_then(|(_, rest)| json_string(rest))
                .filter(|(_, rest)| *rest == "}")
                .map(|(report, _)| report);
            let Some(report) = report else { return wrong() };
            let report = report
                .strip_suffix('\n')
                .ok_or("streamed report lacks its newline")?;
            pinned.check_report(name, report.as_bytes())?;
            Ok(first.contains("\"coalesced\":true"))
        }
        _ => wrong(),
    }
}

/// Runs one pass: bind a fresh server over `cache`, call `ready`, drive
/// the plan's phases with `clients` closed-loop clients each, shut the
/// server down. A pass that computed any sweep other than once fails.
pub fn pass(
    ctx: &Ctx,
    cache: &Path,
    plan: &[Phase],
    clients: usize,
    ready: impl FnOnce(),
) -> Result<Pass, String> {
    let server =
        Server::bind(suite::harness(BUDGET, cache), "127.0.0.1:0").map_err(|e| e.to_string())?;
    ready();
    let addr = server.local_addr();
    let index = expected_index(tlat_workloads::all().len());
    let results = Mutex::new((Vec::new(), Tally::default()));
    let mut phase_walls = Vec::new();
    let t0 = Instant::now();
    let since = |t: Instant| u64::try_from((t - t0).as_nanos()).unwrap_or(u64::MAX);
    std::thread::scope(|scope| {
        let serving = scope.spawn(move || server.run());
        for (phase, requests) in plan {
            let next = AtomicUsize::new(0);
            let started = Instant::now();
            std::thread::scope(|clients_scope| {
                for _ in 0..clients {
                    clients_scope.spawn(|| loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(&kind) = requests.get(i) else { break };
                        let sent = Instant::now();
                        let outcome =
                            send(addr, kind).and_then(|r| check(kind, &r, &ctx.pinned, &index));
                        let done = Instant::now();
                        let mut guard = results.lock().expect("no client panics holding the lock");
                        let (samples, tally) = &mut *guard;
                        match outcome {
                            Ok(coalesced) => {
                                tally.record(Ok(()));
                                samples.push(Sample {
                                    phase,
                                    index: i,
                                    sent_ns: since(sent),
                                    done_ns: since(done),
                                    coalesced,
                                });
                            }
                            Err(e) => tally.record(Err(e)),
                        }
                    });
                }
            });
            phase_walls.push((*phase, started.elapsed().as_secs_f64()));
        }
        let _ = send_shutdown(addr);
        let _ = serving.join();
    });
    let wall_s = phase_walls.iter().map(|(_, s)| s).sum();
    let (samples, mut tally) = results.into_inner().expect("clients are joined");
    let computations = computed(&samples).len();
    if computations != sweep_specs().len() {
        tally.fail(format!(
            "{computations} sweep computations, expected {}",
            sweep_specs().len()
        ));
    }
    Ok(Pass {
        wall_s,
        phase_walls,
        samples,
        tally,
    })
}

fn send_shutdown(addr: SocketAddr) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .write_all(b"POST /shutdown HTTP/1.1\r\nContent-Length: 0\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut sink = Vec::new();
    let _ = stream.read_to_end(&mut sink);
    Ok(())
}

/// Opening requests that started a computation.
pub fn computed(samples: &[Sample]) -> Vec<&Sample> {
    samples
        .iter()
        .filter(|s| s.phase == OPENING && !s.coalesced)
        .collect()
}

/// Latencies of one phase, in milliseconds.
pub fn latencies_ms(samples: &[Sample], phase: &str) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.phase == phase)
        .map(Sample::ms)
        .collect()
}

/// Opening twin pairs whose two requests were in flight together, and
/// how many of those the server answered with one computation (one
/// fresh request, one coalesced). A twin that starts a second
/// computation lowers the second count.
pub fn twins_coalesced(samples: &[Sample]) -> (usize, usize) {
    let mut pairs: Vec<[Option<&Sample>; 2]> = vec![[None; 2]; sweep_specs().len()];
    for s in samples.iter().filter(|s| s.phase == OPENING) {
        pairs[s.index / 2][s.index % 2] = Some(s);
    }
    let mut overlapped = 0;
    let mut coalesced = 0;
    for pair in pairs {
        let [Some(a), Some(b)] = pair else { continue };
        if a.sent_ns.max(b.sent_ns) < a.done_ns.min(b.done_ns) {
            overlapped += 1;
            coalesced += usize::from(a.coalesced != b.coalesced);
        }
    }
    (overlapped, coalesced)
}

/// One serve pass inside a `--pass` child, with the per-phase walls and
/// latencies.
pub fn pass_report(ctx: &Ctx, cache: &Path, ready: impl FnOnce()) -> Result<PassReport, String> {
    let p = pass(ctx, cache, &plan(ctx.seed, PER_KIND), ctx.threads, ready)?;
    let mut series = Vec::new();
    for (phase, wall) in &p.phase_walls {
        series.push((format!("{phase}.wall_s"), vec![*wall]));
        series.push((
            format!("{phase}.latency_ms"),
            latencies_ms(&p.samples, phase),
        ));
    }
    Ok(PassReport {
        wall_s: p.wall_s,
        tally: p.tally,
        series,
        ..PassReport::default()
    })
}

/// Rate and latency rows of each memo phase, named `<kind>.<row>` with
/// `prefix` in front, from per-pass phase walls and pooled latencies.
pub fn kind_rows(
    prefix: &str,
    walls: &[(&str, Vec<f64>)],
    lat: &[(&str, Vec<f64>)],
) -> Vec<Metric> {
    let mut rows = Vec::new();
    for kind in KINDS {
        let find = |v: &[(&str, Vec<f64>)]| -> Vec<f64> {
            v.iter()
                .filter(|(k, _)| *k == kind)
                .flat_map(|(_, x)| x.iter().copied())
                .collect()
        };
        let (w, l) = (find(walls), find(lat));
        if w.is_empty() || l.is_empty() {
            continue;
        }
        let rps: Vec<f64> = w.iter().map(|w| PER_KIND as f64 / w).collect();
        let n = l.len();
        rows.push(Metric::new(
            format!("{prefix}{kind}.rps"),
            median(&rps),
            "1/s",
            w.len(),
        ));
        rows.push(Metric::new(
            format!("{prefix}{kind}.latency_p50_ms"),
            median(&l),
            "ms",
            n,
        ));
        rows.push(Metric::new(
            format!("{prefix}{kind}.latency_p99_ms"),
            percentile(&l, 99.0),
            "ms",
            n,
        ));
    }
    rows
}

/// `serve_mix`.
pub fn run(ctx: &Ctx) -> Result<RunResult, String> {
    let cache = suite::fill_warm_cache(ctx)?;
    let mut tally = Tally::default();
    let timed = pass::run_passes(ctx, "serve_mix", &mut tally, |_| Ok(cache.clone()))?;
    let series = |suffix: &str| -> Vec<(&str, Vec<f64>)> {
        KINDS
            .iter()
            .map(|kind| {
                let key = format!("{kind}.{suffix}");
                let values = timed.iter().flat_map(|p| p.series(&key)).copied().collect();
                (*kind, values)
            })
            .collect()
    };
    let mut extra = kind_rows("", &series("wall_s"), &series("latency_ms"));
    for (kind, lat) in series("latency_ms") {
        // The highest percentile with at least ten samples beyond it,
        // when that is not the p99 row already printed.
        if let Some((pct, ms)) = tail(&lat).filter(|&(pct, _)| pct != 99.0) {
            extra.push(Metric::new(
                format!("{kind}.latency_tail_p{pct}_ms"),
                ms,
                "ms",
                lat.len(),
            ));
        }
    }
    Ok(suite::pass_result(ctx, tally, &timed, extra))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_open_with_twins_and_differ_by_seed() {
        let a = plan(1, 50);
        let b = plan(2, 50);
        assert_ne!(a, b, "two seeds give two request orders");
        assert_eq!(a, plan(1, 50));
        let (opening, twins) = &a[0];
        assert_eq!(*opening, OPENING);
        assert_eq!(twins.len(), 2 * sweep_specs().len());
        for pair in twins.chunks(2) {
            assert_eq!(pair[0], pair[1], "each sweep opens with a twin");
        }
        let mut kinds: Vec<&str> = a[1..].iter().map(|(k, _)| *k).collect();
        assert!(a[1..].iter().all(|(_, r)| r.len() == 50));
        kinds.sort_unstable();
        let mut all = KINDS;
        all.sort_unstable();
        assert_eq!(kinds, all, "one phase per kind");
        let (_, index) = a.iter().find(|(k, _)| *k == "index").unwrap();
        assert!(index.iter().all(|k| *k == Kind::Index));
        let (_, stream) = a.iter().find(|(k, _)| *k == "stream").unwrap();
        assert!(stream.iter().all(|k| matches!(k, Kind::Stream(_))));
    }

    fn sample(index: usize, sent_ns: u64, done_ns: u64, coalesced: bool) -> Sample {
        Sample {
            phase: OPENING,
            index,
            sent_ns,
            done_ns,
            coalesced,
        }
    }

    #[test]
    fn twins_count_only_when_in_flight_together() {
        let samples = [
            // Overlapping pair, one computation: coalesced.
            sample(0, 0, 100, false),
            sample(1, 5, 100, true),
            // Overlapping pair, two computations: coalescing broke.
            sample(2, 100, 200, false),
            sample(3, 101, 210, false),
            // The twin came after the run ended: a memo hit, not counted.
            sample(4, 300, 400, false),
            sample(5, 400, 401, true),
        ];
        assert_eq!(twins_coalesced(&samples), (2, 1));
        assert_eq!(computed(&samples).len(), 4);
    }

    #[test]
    fn a_flipped_byte_or_bad_status_fails_the_response_check() {
        let report = "Figure 0\n  AT  97.00 %\n";
        let pinned = Pinned {
            budget: 1,
            sweeps: vec![crate::check::PinnedSweep {
                name: "fig10".to_owned(),
                digest: crate::check::digest(report.as_bytes()),
                lane_events: 1,
            }],
        };
        let response = |status, body: String| Response {
            status,
            headers: Vec::new(),
            body: body.into_bytes(),
        };
        let good = response(200, format!("{report}\n"));
        assert_eq!(check(Kind::Sweep("fig10"), &good, &pinned, ""), Ok(false));
        let flipped = response(200, format!("{}\n", report.replace("97", "96")));
        assert!(check(Kind::Sweep("fig10"), &flipped, &pinned, "").is_err());
        assert!(check(
            Kind::Sweep("fig10"),
            &response(500, format!("{report}\n")),
            &pinned,
            ""
        )
        .is_err());
        assert!(check(
            Kind::Healthz,
            &response(200, "ko\n".to_owned()),
            &pinned,
            ""
        )
        .is_err());
        let mut escaped = String::new();
        tlat_trace::json::write_escaped(&format!("{report}\n"), &mut escaped);
        let stream = format!(
            "{{\"event\":\"accepted\",\"id\":1,\"coalesced\":true}}\n\
             {{\"event\":\"done\",\"id\":1,\"report\":{escaped}}}\n"
        );
        assert_eq!(
            check(
                Kind::Stream("fig10"),
                &response(200, stream.clone()),
                &pinned,
                ""
            ),
            Ok(true)
        );
        let corrupt = response(200, stream.replace("97", "96"));
        assert!(check(Kind::Stream("fig10"), &corrupt, &pinned, "").is_err());
    }

    #[test]
    fn chunked_bodies_and_json_strings_decode() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nab\n\r\n2\r\ncd\r\n0\r\n\r\n";
        let r = parse_response(raw).unwrap();
        assert_eq!((r.status, r.body.as_slice()), (200, b"ab\ncd".as_slice()));
        let (s, rest) = json_string(r#""a\"b\\c\nd≈\u0001"}"#).unwrap();
        assert_eq!((s.as_str(), rest), ("a\"b\\c\nd≈\u{1}", "}"));
        assert!(json_string(r#""unterminated"#).is_none());
    }
}
