//! Gang inner-loop throughput: the compiled event-stream walk against
//! the per-config engine (each lane alone through
//! [`tlat_sim::simulate_with`] over the record trace), over the same
//! lanes and trace.
//!
//! This isolates the gang walk — site-interned SoA events plus
//! per-site resolved table coordinates, shared probes and packs — from
//! the sweep bench's other effects (trace generation, training, the
//! worker pool). The compiled walk is timed over a stream compiled once
//! up front, matching the harness (which memoizes one
//! [`tlat_trace::CompiledTrace`] per workload); the once-per-workload
//! compile cost is reported separately as `stream_compile`. Run with
//! `cargo bench --bench gang_inner`; eleven BENCHJSON lines are emitted
//! (`inner_solo_engine`, `inner_compiled_walk`, `stream_compile`,
//! `inner_bitsliced_solo`, `inner_bitsliced_walk`,
//! `inner_at_pack_solo`, `inner_at_pack_walk`, `inner_taxonomy_solo`,
//! `inner_taxonomy_walk`, `inner_group_solo`, `inner_group_churny`)
//! plus derived speedup lines, each an in-run ratio of a walk to its
//! solo baseline. The bitsliced
//! pair measures an all-Lee-&-Smith lane set that the gang engine
//! packs into one two-plane [`tlat_core::LanePack`]; the AT-pack pair
//! measures a fig10-shaped variant × history-length Two-Level grid
//! that packs into one [`tlat_core::AtPack`] (shared history walk,
//! pattern-table row planes) — each isolating its plane-stepped walk
//! from the mixed-lane set above. The taxonomy pair measures the
//! taxonomy sweep's lanes (GAg/GAs/PAg/PAs, AT, gshare and the AT +
//! gshare tournament), which the walk runs as grouped scalar lanes on
//! shared level-one sources. The grouped pair adds Figure 7's four
//! history lengths to the taxonomy lanes on the churny synthetic
//! stream, where no AT lane packs (every history mask is a singleton):
//! eleven scalar lanes on one per-address source and one global
//! register.

use tlat_bench::runner::Runner;
use tlat_core::{AutomatonKind, HrtConfig};
use tlat_sim::gang::{gang_simulate_compiled, GangLane};
use tlat_sim::{simulate_with, sweep_spec, taxonomy, SchemeConfig, SimOptions};
use tlat_trace::{CompiledTrace, Trace};
use tlat_workloads::SyntheticStream;

/// The per-config baseline: every configuration alone through the
/// reference engine, one record walk each.
fn solo_walks(configs: &[SchemeConfig], trace: &Trace) -> usize {
    configs
        .iter()
        .map(|c| {
            let mut predictor = c.build(Some(trace));
            simulate_with(predictor.as_mut(), trace, SimOptions::default())
                .conditional
                .predicted as usize
        })
        .sum()
}

/// One gang walk of `configs` over the precompiled `stream`.
fn gang_walk(configs: &[SchemeConfig], trace: &Trace, stream: &CompiledTrace) -> usize {
    let mut lanes: Vec<GangLane> = configs
        .iter()
        .map(|c| GangLane::from_config(c, Some(trace)))
        .collect();
    gang_simulate_compiled(&mut lanes, stream, None, SimOptions::default()).len()
}

fn main() {
    let branches: u64 = if tlat_bench::is_test_pass() {
        tlat_bench::SMOKE_BRANCH_LIMIT
    } else {
        500_000
    };
    println!("[gang_inner] walking {branches} synthetic branches per iteration");
    let trace = SyntheticStream::mixed(0x9a1, 512).generate(branches);

    // The Figure 10 monomorphized lanes: the walk is all fast-path.
    let configs = vec![
        SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
        SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A2),
        SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::LastTime),
        SchemeConfig::at(HrtConfig::hhrt(512), 12, AutomatonKind::A2),
    ];
    let events = trace.conditional_len() as u64 * configs.len() as u64;

    let mut group = Runner::new("gang_inner");
    group.plan(1, 7);
    let solo = group
        .throughput(events)
        .bench("inner_solo_engine", || solo_walks(&configs, &trace));
    let stream = CompiledTrace::compile(&trace);
    group.plan(1, 7);
    let compiled = group.throughput(events).bench("inner_compiled_walk", || {
        gang_walk(&configs, &trace, &stream)
    });
    // The once-per-workload compile cost on its own (per conditional,
    // not per lane-event), so regressions in interning show up directly.
    group.plan(1, 7);
    group
        .throughput(trace.conditional_len())
        .bench("stream_compile", || CompiledTrace::compile(&trace).len());

    if compiled.median_ns > 0.0 {
        println!(
            "[gang_inner] compiled gang walk vs per-config engine: {:.2}x",
            solo.median_ns / compiled.median_ns
        );
    }

    // All five automata as Lee & Smith lanes on one shared geometry:
    // the gang engine packs them into a single LanePack, so the whole
    // walk is one branchless plane step per event (plus run-chunked
    // tails) instead of five scalar automaton steps.
    let bs_configs: Vec<SchemeConfig> = AutomatonKind::ALL
        .iter()
        .map(|&a| SchemeConfig::ls(HrtConfig::ahrt(512), a))
        .collect();
    let bs_events = trace.conditional_len() as u64 * bs_configs.len() as u64;
    group.plan(1, 7);
    let bs_solo = group
        .throughput(bs_events)
        .bench("inner_bitsliced_solo", || solo_walks(&bs_configs, &trace));
    group.plan(1, 7);
    let bitsliced = group
        .throughput(bs_events)
        .bench("inner_bitsliced_walk", || {
            gang_walk(&bs_configs, &trace, &stream)
        });
    if bitsliced.median_ns > 0.0 {
        println!(
            "[gang_inner] bitsliced pack vs per-config engine: {:.2}x",
            bs_solo.median_ns / bitsliced.median_ns
        );
    }

    // A fig10-shaped Two-Level grid — every automaton variant crossed
    // with four history lengths on one shared AHRT organization: the
    // gang engine packs all 20 lanes into a single AtPack, so the
    // whole walk is one shared history shift plus a handful of masked
    // row-plane steps per event instead of 20 scalar fused cycles.
    let at_configs: Vec<SchemeConfig> = AutomatonKind::ALL
        .iter()
        .flat_map(|&a| {
            [6u8, 8, 10, 12]
                .into_iter()
                .map(move |bits| SchemeConfig::at(HrtConfig::ahrt(512), bits, a))
        })
        .collect();
    let at_events = trace.conditional_len() as u64 * at_configs.len() as u64;
    group.plan(1, 7);
    let at_solo = group
        .throughput(at_events)
        .bench("inner_at_pack_solo", || solo_walks(&at_configs, &trace));
    group.plan(1, 7);
    let at_packed = group.throughput(at_events).bench("inner_at_pack_walk", || {
        gang_walk(&at_configs, &trace, &stream)
    });
    if at_packed.median_ns > 0.0 {
        println!(
            "[gang_inner] AT pack vs per-config engine: {:.2}x",
            at_solo.median_ns / at_packed.median_ns
        );
    }

    // The taxonomy sweep's lane set: site-driven scalar lanes with
    // per-address, per-set and global-history level-one tables.
    let tax_configs = taxonomy();
    let tax_events = trace.conditional_len() as u64 * tax_configs.len() as u64;
    group.plan(1, 7);
    let tax_solo = group
        .throughput(tax_events)
        .bench("inner_taxonomy_solo", || solo_walks(&tax_configs, &trace));
    group.plan(1, 7);
    let tax_walk = group
        .throughput(tax_events)
        .bench("inner_taxonomy_walk", || {
            gang_walk(&tax_configs, &trace, &stream)
        });
    if tax_walk.median_ns > 0.0 {
        println!(
            "[gang_inner] taxonomy walk vs per-config engine: {:.2}x",
            tax_solo.median_ns / tax_walk.median_ns
        );
    }

    // Figure 7's four-mask AT grid plus the taxonomy lanes on the
    // churny stream: every lane stays scalar, grouped onto one
    // per-address source (the AHRT(512) AT, PAg, PAs and tournament
    // lanes) and the global register (GAg, GAs, gshare).
    let mut group_configs = sweep_spec("fig7").expect("registered sweep").configs;
    group_configs.extend(taxonomy());
    let churny = stream.len() < 3 * stream.site_run_count();
    println!(
        "[gang_inner] grouped lanes on a {} stream (mean same-site run {:.2})",
        if churny { "churny" } else { "loop-heavy" },
        stream.len() as f64 / stream.site_run_count().max(1) as f64
    );
    let group_events = trace.conditional_len() as u64 * group_configs.len() as u64;
    group.plan(1, 7);
    let group_solo = group
        .throughput(group_events)
        .bench("inner_group_solo", || solo_walks(&group_configs, &trace));
    group.plan(1, 7);
    let group_walk = group
        .throughput(group_events)
        .bench("inner_group_churny", || {
            gang_walk(&group_configs, &trace, &stream)
        });
    if group_walk.median_ns > 0.0 {
        println!(
            "[gang_inner] grouped churny walk vs per-config engine: {:.2}x",
            group_solo.median_ns / group_walk.median_ns
        );
    }
}
