//! Differential property suite for grouped gang walks.
//!
//! Random lane mixes — every automaton, §3.2-cached and two-lookup AT,
//! both init polarities, history lengths 1..=12, reinit-on-replace,
//! Static Training, Lee & Smith, PAg/PAs/GAg/GAs, gshare and the AT +
//! gshare tournament — over an ideal table, a small hashed table and a
//! tiny eviction-heavy 2-way AHRT, on churny and loop-heavy streams.
//! Every lane of one gang walk must equal itself run alone through the
//! reference engine (`simulate_with` over the record trace), table
//! statistics included (the tournament's guesses only: its reference
//! cycle asks its AT component twice per branch).

use tlat_check::{check, gen, prop_assert_eq, Gen};
use tlat_core::{AutomatonKind, GshareConfig, HrtConfig, Predictor, TwoLevelConfig, VariantConfig};
use tlat_sim::gang::{gang_simulate_compiled, GangLane};
use tlat_sim::{simulate_with, SchemeConfig, SimOptions, TrainingData};
use tlat_trace::{BranchRecord, CompiledTrace, Trace};

/// The organizations lanes draw from.
const ORGANIZATIONS: [HrtConfig; 3] = [
    HrtConfig::Ideal,
    HrtConfig::Hashed { entries: 16 },
    HrtConfig::Associative {
        entries: 16,
        ways: 2,
    },
];

/// One lane: (kind, automaton, history bits, flag bits, organization).
type LaneSpec = (u8, u8, u8, u8, u8);

fn lane_config(&(kind, automaton, bits, flags, hrt): &LaneSpec) -> SchemeConfig {
    let automaton = AutomatonKind::ALL[usize::from(automaton) % AutomatonKind::ALL.len()];
    let hrt = ORGANIZATIONS[usize::from(hrt) % ORGANIZATIONS.len()];
    let sets = 2usize << (flags % 3);
    match kind % 9 {
        0 => SchemeConfig::TwoLevel(TwoLevelConfig {
            history_bits: bits,
            automaton,
            hrt,
            cached_prediction: flags & 1 == 0,
            reinit_on_replace: flags & 2 != 0,
            init_not_taken: flags & 4 != 0,
        }),
        1 => SchemeConfig::st(hrt, bits, TrainingData::Same),
        2 => SchemeConfig::ls(hrt, automaton),
        3 => SchemeConfig::Variant(VariantConfig::pag(bits, automaton, hrt)),
        4 => SchemeConfig::Variant(VariantConfig::pas(bits, automaton, hrt, sets)),
        5 => SchemeConfig::Variant(VariantConfig::gag(bits, automaton)),
        6 => SchemeConfig::Variant(VariantConfig::gas(bits, automaton, sets)),
        7 => SchemeConfig::Gshare(GshareConfig {
            history_bits: bits,
            automaton,
        }),
        _ => SchemeConfig::Tournament {
            chooser_entries: 4 << (flags % 3),
        },
    }
}

fn lane_specs() -> Gen<Vec<LaneSpec>> {
    gen::vec_of(
        gen::tuple5(
            gen::u8_in(0, 8),
            gen::u8_in(0, 4),
            gen::u8_in(1, 12),
            gen::u8_in(0, 7),
            gen::u8_in(0, 2),
        ),
        1,
        12,
    )
}

/// One visit to a site: (site, burst, exit).
type Visit = (u32, u8, u8);

/// A stream of visits. A loop-heavy stream emits `burst` consecutive
/// events per visit, taken until `exit` (a loop branch and its exit);
/// a churny one emits one event per visit. 48 sites overflow the tiny
/// AHRT and alias in the hashed table.
fn streams() -> Gen<(bool, Vec<Visit>)> {
    gen::tuple2(
        gen::bools(),
        gen::vec_of(
            gen::tuple3(gen::u32_in(0, 47), gen::u8_in(1, 8), gen::u8_in(0, 8)),
            1,
            400,
        ),
    )
}

fn trace_of(loop_heavy: bool, visits: &[Visit]) -> Trace {
    let mut trace = Trace::new();
    for &(site, burst, exit) in visits {
        let pc = 0x1000 + site * 4;
        if loop_heavy {
            for k in 0..burst {
                trace.push(BranchRecord::conditional(pc, pc - 0x40, k < exit));
            }
        } else {
            trace.push(BranchRecord::conditional(pc, pc + 0x40, exit % 2 == 1));
        }
    }
    trace
}

/// The lane as the reference engine drives it.
fn predictor(lane: &mut GangLane) -> &mut dyn Predictor {
    match lane {
        GangLane::TwoLevel(p) => p,
        GangLane::LeeSmith(p) => p,
        GangLane::StaticTraining(p) => p,
        GangLane::Variant(p) => p,
        GangLane::Gshare(p) => p,
        GangLane::Tournament(p) => p,
        GangLane::Profile(p) => p,
        GangLane::Fixed(p) => p,
        GangLane::Dyn(p) => p.as_mut(),
    }
}

#[test]
fn grouped_walks_match_every_lane_alone() {
    check(
        "grouped_walks_match_every_lane_alone",
        &gen::tuple2(lane_specs(), streams()),
        |(specs, (loop_heavy, visits))| {
            let trace = trace_of(*loop_heavy, visits);
            let configs: Vec<SchemeConfig> = specs.iter().map(lane_config).collect();
            let build = || -> Vec<GangLane> {
                configs
                    .iter()
                    .map(|c| GangLane::from_config(c, Some(&trace)))
                    .collect()
            };
            let options = SimOptions::default();
            let mut gang = build();
            let compiled = CompiledTrace::compile(&trace);
            let ganged = gang_simulate_compiled(&mut gang, &compiled, None, options);
            for ((g, mut solo), got) in gang.iter().zip(build()).zip(&ganged) {
                let name = g.name();
                let want = simulate_with(predictor(&mut solo), &trace, options);
                prop_assert_eq!(got.conditional, want.conditional, "{}", name);
                match (g, &solo) {
                    (GangLane::TwoLevel(a), GangLane::TwoLevel(b)) => {
                        prop_assert_eq!(a.hrt_stats(), b.hrt_stats(), "{}", name);
                    }
                    (GangLane::LeeSmith(a), GangLane::LeeSmith(b)) => {
                        prop_assert_eq!(a.table_stats(), b.table_stats(), "{}", name);
                    }
                    (GangLane::StaticTraining(a), GangLane::StaticTraining(b)) => {
                        prop_assert_eq!(a.hrt_stats(), b.hrt_stats(), "{}", name);
                    }
                    (GangLane::Variant(a), GangLane::Variant(b)) => {
                        prop_assert_eq!(a.hrt_stats(), b.hrt_stats(), "{}", name);
                    }
                    _ => {}
                }
            }
            Ok(())
        },
    );
}
