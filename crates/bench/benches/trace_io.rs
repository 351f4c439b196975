//! Trace codec throughput: the TLA3 packet format's encode, record
//! decode, and streaming decode straight into a
//! [`tlat_trace::CompiledTrace`] (the route every warm sweep takes),
//! over one synthetic trace.
//!
//! Run with `cargo bench --bench trace_io`; three BENCHJSON lines are
//! emitted (`encode_tla3`, `decode_tla3`, `stream_decode_compiled`)
//! plus bytes per record and the streaming-vs-record decode ratio.

use tlat_bench::runner::Runner;
use tlat_trace::packet;
use tlat_workloads::SyntheticStream;

fn main() {
    let branches: u64 = if tlat_bench::is_test_pass() {
        tlat_bench::SMOKE_BRANCH_LIMIT
    } else {
        500_000
    };
    println!("[trace_io] encoding/decoding {branches} synthetic branches per iteration");
    let trace = SyntheticStream::mixed(0x10a3, 512).generate(branches);
    let records = trace.len() as u64;

    let v3 = packet::encode(&trace);
    println!(
        "[trace_io] bytes/record: TLA3 {:.2} ({} bytes)",
        v3.len() as f64 / records as f64,
        v3.len()
    );

    let mut group = Runner::new("trace_io");
    group.plan(1, 7);
    group.throughput(records).bench("encode_tla3", || packet::encode(&trace).len());
    group.plan(1, 7);
    let decoded = group
        .throughput(records)
        .bench("decode_tla3", || packet::decode(&v3).unwrap().len());
    group.plan(1, 7);
    let streamed = group.throughput(records).bench("stream_decode_compiled", || {
        packet::decode_compiled(&v3).unwrap().len()
    });
    if streamed.median_ns > 0.0 {
        println!(
            "[trace_io] streaming decode vs record decode: {:.2}x",
            decoded.median_ns / streamed.median_ns
        );
    }
}
