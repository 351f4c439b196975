//! Single-pass gang simulation: one stream walk feeding many predictors.
//!
//! `engine::simulate` walks the branch stream once per configuration,
//! so an N-configuration sweep pays N full memory-bandwidth passes over
//! the same trace plus a dyn-dispatched call per branch. Sweeps are the
//! harness's hot path (every table/figure is one), and predictors never
//! interact — so the gang engine walks one compiled event stream
//! ([`CompiledTrace`]) *once*, feeding every configuration's predictor
//! in turn from the same hot event.
//!
//! Five further savings fall out:
//!
//! * **Monomorphization** — every [`SchemeConfig`] builds a concrete
//!   enum variant of [`GangLane`] ([`TwoLevelAdaptive`],
//!   [`LeeSmithBtb`], [`StaticTraining`], the [`TwoLevelVariant`]
//!   taxonomy, [`Gshare`], the AT + gshare [`Tournament`],
//!   [`ProfilePredictor`], and the [`FixedRule`]s), so each lane's
//!   per-event cycle is a direct (inlinable) call driven by site id.
//!   Per-address taxonomy lanes search their HRT once per event
//!   through the resolved site keys, per-set lanes read a per-site
//!   table index, and the tournament runs both components' site
//!   cycles under a per-site chooser. Only hand-built predictors take
//!   the boxed [`GangLane::Dyn`] lane, fed the stream's rebuilt
//!   conditional records ([`CompiledTrace::conditional_records`]).
//! * **Stream compilation** — the walk reads a site-interned SoA event
//!   stream ([`CompiledTrace`], compiled or decoded once per workload)
//!   and every lane's table coordinates are resolved per static site up
//!   front ([`SiteResolver`]), so the hot loop does no per-branch
//!   set/tag/hash arithmetic and touches ~5 bytes per event instead of
//!   a 16-byte record (see DESIGN.md's "Hot-loop anatomy").
//! * **Shared probe engines** — associative lanes with the same table
//!   geometry see identical tag/LRU decision sequences, so one
//!   payload-free [`SlotProbe`] per geometry (built only when two or
//!   more lanes share it) pays the way scan and victim search once per
//!   event; each lane applies the replayed slot decision via a direct
//!   indexed entry access, and the engine's access statistics are
//!   folded back into every sharing lane once per walk.
//! * **Bitsliced gang lanes** — same-geometry lanes whose per-event
//!   state fits two-bit automata group into SWAR plane packs. LS
//!   lanes pack per table slot (one automaton each,
//!   [`tlat_core::LanePack`]); Two-Level lanes sharing an
//!   [`HrtConfig`] pack per pattern-table row
//!   ([`tlat_core::AtPack`]), where the level-one history walk is
//!   shared once per pack — history registers depend only on the
//!   outcome stream and HRT geometry, so one per-slot register
//!   drives every lane's masked row index, and the variant ×
//!   history-length grid of a fig10 sweep collapses into a handful
//!   of packs. Both flavors share the slot drivers: ideal, hashed,
//!   and scalar-free associative packs skip the per-event loop
//!   entirely and replay the stream in `(site, outcome)` runs; packs
//!   riding a mixed gang's shared probe engine adapt to the stream
//!   shape — on loop-heavy streams the event loop just logs each
//!   probe's slot (the way scan stays paid once for the whole gang)
//!   and the pack replays the log in `(slot, outcome)` runs
//!   afterwards, while on churny streams it takes one branchless
//!   plane step per event in-loop. In every run-replayed walk a loop
//!   branch's same-outcome tail applies in O(1) once every history
//!   register saturates and every automaton sits at its fixed point.
//! * **Closed-form scoring** — a profile lane's frozen per-site bits
//!   never change during a walk, and neither do Always Taken's,
//!   Always Not Taken's or BTFN's guesses, so their scores are
//!   weighted sums over the compiled stream's per-site taken counts:
//!   per site, not per event, and identical to event-by-event
//!   recording. BTFN reads the target, so each event whose target
//!   differs from its site's ([`CompiledTrace::target_overrides`])
//!   gets an exact correction.
//! * **Shared RAS** — return-address-stack behaviour depends only on
//!   the trace, never on the direction predictor, so the gang simulates
//!   the RAS once and stamps the same stats into every lane's result.
//!
//! Results are bit-identical to driving [`crate::simulate_with`] once
//! per predictor: each lane observes exactly the same predict/update
//! sequence it would alone.

use crate::config::{at_gshare_tournament, SchemeConfig};
use crate::engine::SimOptions;
use crate::metrics::{self, Counter, Phase};
use crate::stats::{PredictionStats, SimResult};
use crate::pool::{catch_cell, CellPanic};
use std::collections::HashMap;
use std::sync::Arc;
use tlat_core::{
    AlwaysNotTaken, AlwaysTaken, AtLaneConfig, AtPack, AutomatonKind, Btfn, Gshare, HrtConfig,
    HrtStats, LanePack, LeeSmithBtb, Predictor, ProbeOutcome, ProfilePredictor, SiteKeys,
    SiteResolver, SlotProbe, StaticTraining, StaticTrainingConfig, Tournament, TwoLevelAdaptive,
    TwoLevelVariant,
};
use tlat_trace::{BranchRecord, CompiledTrace, RasEvent, ReturnAddressStack, SiteId, Trace};

/// One predictor riding a gang walk.
///
/// The concrete variants exist purely so the per-branch inner loop can
/// call them without dynamic dispatch, with site-resolved table
/// coordinates on the compiled stream; every [`SchemeConfig`] builds
/// one. [`GangLane::Dyn`] carries hand-built predictors only.
pub enum GangLane {
    /// The paper's Two-Level Adaptive Training scheme, monomorphized.
    TwoLevel(TwoLevelAdaptive),
    /// The Lee & Smith BTB scheme, monomorphized.
    LeeSmith(LeeSmithBtb),
    /// Lee & Smith's Static Training scheme, monomorphized.
    StaticTraining(StaticTraining),
    /// A two-level taxonomy predictor (GAg/GAs/PAg/PAs),
    /// monomorphized.
    Variant(TwoLevelVariant),
    /// gshare, monomorphized.
    Gshare(Gshare),
    /// The registry's AT + gshare tournament, monomorphized down to
    /// its components.
    Tournament(Tournament<TwoLevelAdaptive, Gshare>),
    /// The §4.2 profiling scheme, monomorphized (its frozen per-branch
    /// bits resolve to a dense per-site table on the compiled stream).
    Profile(ProfilePredictor),
    /// A fixed-rule scheme, scored in closed form per site.
    Fixed(FixedRule),
    /// A hand-built predictor behind the usual trait object, fed the
    /// stream's rebuilt conditional records
    /// ([`CompiledTrace::conditional_records`]).
    Dyn(Box<dyn Predictor>),
}

/// A scheme whose guess is a fixed function of the branch's address
/// and target: it never trains, so a gang walk scores it per site
/// instead of per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FixedRule {
    /// Always taken ([`AlwaysTaken`]).
    AlwaysTaken,
    /// Always not taken ([`AlwaysNotTaken`]).
    AlwaysNotTaken,
    /// Backward taken, forward not taken ([`Btfn`]).
    Btfn,
}

impl FixedRule {
    /// The rule's guess for a conditional branch at `pc` targeting
    /// `target`, as the rule's own predictor answers it.
    fn guess(self, pc: u32, target: u32) -> bool {
        let branch = BranchRecord::conditional(pc, target, false);
        match self {
            FixedRule::AlwaysTaken => AlwaysTaken.predict(&branch),
            FixedRule::AlwaysNotTaken => AlwaysNotTaken.predict(&branch),
            FixedRule::Btfn => Btfn.predict(&branch),
        }
    }
}

impl Predictor for FixedRule {
    fn name(&self) -> String {
        match self {
            FixedRule::AlwaysTaken => AlwaysTaken.name(),
            FixedRule::AlwaysNotTaken => AlwaysNotTaken.name(),
            FixedRule::Btfn => Btfn.name(),
        }
    }

    fn predict(&mut self, branch: &BranchRecord) -> bool {
        self.guess(branch.pc, branch.target)
    }

    fn update(&mut self, _branch: &BranchRecord) {}
}

impl std::fmt::Debug for GangLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("GangLane").field(&self.name()).finish()
    }
}

impl GangLane {
    /// Builds the monomorphized lane for a configuration.
    ///
    /// # Panics
    ///
    /// As [`SchemeConfig::build`]: panics when the scheme needs a
    /// training trace and `training` is `None`.
    pub fn from_config(config: &SchemeConfig, training: Option<&Trace>) -> Self {
        match config {
            SchemeConfig::TwoLevel(c) => GangLane::TwoLevel(TwoLevelAdaptive::new(*c)),
            SchemeConfig::LeeSmith(c) => GangLane::LeeSmith(LeeSmithBtb::new(*c)),
            SchemeConfig::StaticTraining {
                history_bits,
                hrt,
                data,
            } => {
                let trace = training.expect("Static Training requires a training trace");
                GangLane::StaticTraining(StaticTraining::train(
                    StaticTrainingConfig {
                        history_bits: *history_bits,
                        hrt: *hrt,
                        data: data.label().to_owned(),
                    },
                    trace,
                ))
            }
            SchemeConfig::Variant(c) => GangLane::Variant(TwoLevelVariant::new(*c)),
            SchemeConfig::Gshare(c) => GangLane::Gshare(Gshare::new(*c)),
            SchemeConfig::Tournament { chooser_entries } => {
                GangLane::Tournament(at_gshare_tournament(*chooser_entries))
            }
            SchemeConfig::Profile => {
                let trace = training.expect("profiling requires a training trace");
                GangLane::Profile(ProfilePredictor::train(trace))
            }
            SchemeConfig::AlwaysTaken => GangLane::Fixed(FixedRule::AlwaysTaken),
            SchemeConfig::AlwaysNotTaken => GangLane::Fixed(FixedRule::AlwaysNotTaken),
            SchemeConfig::Btfn => GangLane::Fixed(FixedRule::Btfn),
        }
    }

    /// The predictor's configuration string.
    pub fn name(&self) -> String {
        match self {
            GangLane::TwoLevel(p) => p.name(),
            GangLane::LeeSmith(p) => p.name(),
            GangLane::StaticTraining(p) => p.name(),
            GangLane::Variant(p) => p.name(),
            GangLane::Gshare(p) => p.name(),
            GangLane::Tournament(p) => p.name(),
            GangLane::Profile(p) => p.name(),
            GangLane::Fixed(p) => p.name(),
            GangLane::Dyn(p) => p.name(),
        }
    }

    /// The lane's history-table organization, for the lanes that share
    /// probes or pack (`None` for every other lane). Lanes sharing an
    /// associative organization share a [`SlotProbe`] during a
    /// compiled walk.
    fn hrt_config(&self) -> Option<HrtConfig> {
        match self {
            GangLane::TwoLevel(p) => Some(p.config().hrt),
            GangLane::LeeSmith(p) => Some(p.config().hrt),
            GangLane::StaticTraining(p) => Some(p.config().hrt),
            _ => None,
        }
    }
}

/// Lanes per bitsliced pack: one bit of each `u64` plane.
const PACK_WIDTH: usize = 64;

/// Mean same-site run length (in events) from which a mixed gang's
/// shared packs switch from stepping inside the per-event loop to
/// replaying a logged slot stream in run chunks. Below it, runs are
/// too short for chunking to amortize the log's write-and-rescan.
const LOG_REPLAY_MIN_RUN: usize = 3;

/// How many of a geometry's `count` Lee & Smith lanes go into bitsliced
/// packs (the rest take the scalar site/slot path).
///
/// A single lane gains nothing from plane form, so geometries need at
/// least two LS lanes to pack at all, and when chunking by
/// [`PACK_WIDTH`] would strand exactly one lane in the final chunk,
/// that straggler stays scalar instead of becoming a one-lane pack.
fn packed_quota(count: usize) -> usize {
    if count < 2 {
        0
    } else if count % PACK_WIDTH == 1 {
        count - 1
    } else {
        count
    }
}

/// The slot driver of one bitsliced pack: yields the slot every
/// lane's planes are indexed by, mirroring the per-organization
/// bookkeeping of [`tlat_core::AnyHrt`] exactly (statistics
/// included), so folding the driver's [`HrtStats`] back into each
/// packed lane reproduces what per-lane probing would have counted.
enum PackProbe {
    /// Ideal table: slot = site (both are first-appearance order); a
    /// fresh site is exactly the next slot to grow.
    Ideal { next_site: SiteId, stats: HrtStats },
    /// Set-associative geometry in a mixed gang: the pack rides the
    /// geometry's shared per-event [`SlotProbe`] (index into the
    /// engine list) — the way scan is paid once for scalar slot-path
    /// lanes and the pack together. The stepping strategy adapts to
    /// the stream: on loop-heavy streams (mean same-site run ≥
    /// [`LOG_REPLAY_MIN_RUN`]) the event loop only logs the engine's
    /// slot decisions and the pack replays the log afterwards in
    /// (slot, outcome) runs, collapsing a loop branch's same-outcome
    /// tail to O(1); on churny streams the pack takes one branchless
    /// plane step per event in-loop, where a log would only be
    /// rescanned in runs of length one.
    Shared(usize),
    /// Set-associative geometry in a gang with no scalar per-event
    /// consumers: a pack-owned probe engine advanced one real probe
    /// per same-site run plus a fast-forward for the guaranteed
    /// re-hits ([`SlotProbe::step_run`]). Tag/LRU state is a
    /// deterministic function of the access sequence, so the private
    /// engine's decisions and statistics are byte-identical to a
    /// shared engine's.
    Private(SlotProbe),
    /// Tagless hashed table: slot precomputed per site, every access
    /// hits.
    Hashed { keys: Arc<SiteKeys>, stats: HrtStats },
}

/// One bitsliced pack: up to [`PACK_WIDTH`] same-geometry Lee & Smith
/// lanes as two `u64` planes per slot, plus the geometry's slot driver
/// and the lanes to fold results back into.
struct LsPack<'a> {
    planes: LanePack,
    probe: PackProbe,
    lanes: Vec<(&'a mut LeeSmithBtb, &'a mut PredictionStats)>,
}

/// One bitsliced Two-Level pack: up to [`PACK_WIDTH`] AT lanes with
/// the same [`HrtConfig`] riding pattern-table row planes over a
/// shared per-slot history walk ([`tlat_core::AtPack`]), plus the
/// organization's slot driver and the lanes to fold results back
/// into. Lanes may mix automaton variants, history lengths, §3.2
/// caching, and init polarity — only the HRT organization (slot
/// discipline) must match, plus the packability gate of
/// [`tlat_core::TwoLevelConfig::pack_lane`].
struct AtGangPack<'a> {
    planes: AtPack,
    probe: PackProbe,
    lanes: Vec<(&'a mut TwoLevelAdaptive, &'a mut PredictionStats)>,
}

/// The slot discipline shared by both plane-pack flavors, so the
/// run-replay drivers below are written once: a pack re-initializes a
/// slot on a fill, grows one on ideal-table growth, and applies
/// same-outcome runs in O(1) past its convergence depth.
trait RunPack {
    fn fill_slot(&mut self, slot: usize);
    fn push_slot(&mut self) -> usize;
    fn apply_run(&mut self, slot: usize, taken: bool, n: u64);
}

impl RunPack for LanePack {
    fn fill_slot(&mut self, slot: usize) {
        LanePack::fill_slot(self, slot);
    }
    fn push_slot(&mut self) -> usize {
        LanePack::push_slot(self)
    }
    fn apply_run(&mut self, slot: usize, taken: bool, n: u64) {
        LanePack::apply_run(self, slot, taken, n);
    }
}

impl RunPack for AtPack {
    fn fill_slot(&mut self, slot: usize) {
        AtPack::fill_slot(self, slot);
    }
    fn push_slot(&mut self) -> usize {
        AtPack::push_slot(self)
    }
    fn apply_run(&mut self, slot: usize, taken: bool, n: u64) {
        AtPack::apply_run(self, slot, taken, n);
    }
}

/// Replays the whole compiled stream into one non-shared pack in
/// `(site, outcome)` runs, off to the side of the per-event loop. A
/// run of r accesses to one site costs one real probe plus O(1)
/// fast-forward bookkeeping, and within it each same-outcome run
/// beyond the pack's convergence depth is a single shared
/// correct-count — every history register saturates and every
/// automaton sits at its fixed point by then (asserted when the
/// transition tables are derived).
fn replay_site_runs<P: RunPack>(planes: &mut P, probe: &mut PackProbe, compiled: &CompiledTrace) {
    let sites = compiled.cond_sites();
    let outcomes = compiled.outcomes();
    let mut i = 0;
    while i < sites.len() {
        let site = sites[i];
        let mut j = i + 1;
        while j < sites.len() && sites[j] == site {
            j += 1;
        }
        let slot = match probe {
            PackProbe::Private(engine) => {
                let probe = engine.step_run(site, (j - i) as u64);
                if probe.outcome == ProbeOutcome::Filled {
                    planes.fill_slot(probe.slot as usize);
                }
                probe.slot as usize
            }
            PackProbe::Ideal { next_site, stats } => {
                stats.accesses += (j - i) as u64;
                if site == *next_site {
                    stats.misses += 1;
                    *next_site += 1;
                    planes.push_slot();
                }
                site as usize
            }
            PackProbe::Hashed { keys, stats } => {
                stats.accesses += (j - i) as u64;
                let SiteKeys::Hashed { slot } = &**keys else {
                    unreachable!("hashed packs resolve hashed keys")
                };
                slot[site as usize] as usize
            }
            PackProbe::Shared(_) => unreachable!("shared packs replay their slot log"),
        };
        let mut k = i;
        while k < j {
            let taken = outcomes.get(k);
            let run = outcomes.run_len(k, j);
            planes.apply_run(slot, taken, run as u64);
            k += run;
        }
        i = j;
    }
}

/// Replays a shared engine's logged slot decisions into one pack on a
/// loop-heavy stream, with the probing already paid: equal log words
/// group into runs — a filled way is valid by its next probe, so a
/// fill flag can't repeat within one — and the fill applies once, up
/// front.
fn replay_slot_log<P: RunPack>(planes: &mut P, log: &[u32], compiled: &CompiledTrace) {
    let outcomes = compiled.outcomes();
    let mut i = 0;
    while i < log.len() {
        let v = log[i];
        let mut j = i + 1;
        while j < log.len() && log[j] == v {
            j += 1;
        }
        let slot = (v & 0xffff) as usize;
        if v >> 16 != 0 {
            debug_assert_eq!(j - i, 1, "a filled way is valid on its next probe");
            planes.fill_slot(slot);
        }
        let mut k = i;
        while k < j {
            let taken = outcomes.get(k);
            let run = outcomes.run_len(k, j);
            planes.apply_run(slot, taken, run as u64);
            k += run;
        }
        i = j;
    }
}

/// Adds the score of a lane whose guess at every event is its site's
/// bit in `site_bits`: per site, the taken count if the bit says taken,
/// else the not-taken count.
fn score_per_site(site_bits: &[bool], compiled: &CompiledTrace, stat: &mut PredictionStats) {
    for ((&bit, &taken_n), &n) in site_bits
        .iter()
        .zip(compiled.site_taken())
        .zip(compiled.site_counts())
    {
        stat.predicted += n;
        stat.correct += if bit { taken_n } else { n - taken_n };
    }
}

/// Adds a fixed rule's score over the stream: the per-site sum at each
/// site's target, then an exact correction for each event whose target
/// differs from its site's ([`CompiledTrace::target_overrides`]) and
/// flips the rule's guess — only BTFN reads the target, and compiled
/// code gives a pc one target, so the correction is empty on the
/// workloads.
fn score_fixed_rule(rule: FixedRule, compiled: &CompiledTrace, stat: &mut PredictionStats) {
    let pcs = compiled.site_pcs();
    let site_bits: Vec<bool> = pcs
        .iter()
        .zip(compiled.site_targets())
        .map(|(&pc, &target)| rule.guess(pc, target))
        .collect();
    score_per_site(&site_bits, compiled, stat);
    for &(event, target) in compiled.target_overrides() {
        let site = compiled.cond_sites()[event] as usize;
        let guess = rule.guess(pcs[site], target);
        if guess != site_bits[site] {
            // The site sum counted this event as the opposite guess.
            if guess == compiled.outcomes().get(event) {
                stat.correct += 1;
            } else {
                stat.correct -= 1;
            }
        }
    }
}

/// Simulates every lane over `compiled` in a single walk. Returns one
/// [`SimResult`] per lane, in lane order.
///
/// Each conditional event runs the predict → score → update cycle for
/// every lane; the stream's RAS events drive one shared
/// return-address stack whose stats are replicated into every result
/// (RAS behaviour is predictor-independent). Monomorphized lanes read
/// the `(site, taken)` stream with site-resolved table coordinates
/// ([`TwoLevelAdaptive::predict_update_site`],
/// [`LeeSmithBtb::predict_update_site`], and the like) or score per
/// site; dyn lanes read the stream's rebuilt conditional records.
/// Results are bit-identical to running
/// each lane alone through [`crate::simulate_with`] over the trace the
/// stream was compiled from (pinned by tests).
///
/// `dyn_source` is not read: every lane kind, dyn included, is fed from
/// `compiled`. The argument remains so existing callers keep compiling.
pub fn gang_simulate_compiled(
    lanes: &mut [GangLane],
    compiled: &CompiledTrace,
    _dyn_source: Option<&Trace>,
    options: SimOptions,
) -> Vec<SimResult> {
    metrics::bump(Counter::TraceWalks);
    let mut resolver = SiteResolver::new(compiled.site_pcs().to_vec());
    let _span = metrics::span(Phase::GangWalk);
    let mut stats = vec![PredictionStats::default(); lanes.len()];
    // Lanes sharing a set-associative geometry see the same access
    // sequence from the same pre-warmed state, so their tag/LRU
    // decisions are byte-identical on every event: one SlotProbe per
    // such geometry pays the way scan once and replays the decision to
    // the whole group ([`tlat_core::AnyHrt::slot_entry`]). A geometry
    // probed by a single lane keeps the plain site path — sharing
    // saves nothing there.
    // Lee & Smith lanes sharing an exact table geometry, and packable
    // Two-Level lanes, peel off into bitsliced packs. For LS a
    // geometry's lane count alone decides (`packed_quota`); for AT the
    // criterion is finer, so it is decided per lane up front
    // (`at_packed`): an `AtPack`'s row-plane arithmetic is amortized
    // across the lanes that share a history *mask*, not just an HRT
    // organization — lanes at the same history length read and write
    // the same masked row, while every distinct length adds its own
    // row visit per event. On a churny stream a mask-singleton
    // therefore touches sixteen bytes of plane per pattern where the
    // scalar fused cycle touches one, with nothing to amortize it
    // over: such lanes stay scalar, and the LS strand rule applies to
    // the eligible remainder. On a loop-heavy stream every packable
    // lane packs, mask-singletons included: the pack leaves the
    // per-event loop and `apply_run` collapses a same-outcome run to
    // at most `history_bits + 3` plane steps where scalar lanes pay
    // every event — this is what lets Figure 10's lone AT lane ride a
    // pack. The shape signal is the same memoized same-site run count
    // that decides log replay ([`LOG_REPLAY_MIN_RUN`]). Whether a
    // scalar per-event consumer remains (an ST lane, an unpackable or
    // unpacked AT lane, or an unpacked LS lane) decides how
    // associative packs probe: beside scalar consumers they share the
    // per-event engine, alone they replay the stream privately in
    // (site, outcome) runs.
    let loop_heavy = compiled.len() >= LOG_REPLAY_MIN_RUN * compiled.site_run_count();
    let mut ls_geometry: HashMap<HrtConfig, usize> = HashMap::new();
    let mut at_masks: HashMap<(HrtConfig, u8), usize> = HashMap::new();
    for lane in lanes.iter() {
        match lane {
            GangLane::LeeSmith(p) => {
                *ls_geometry.entry(p.config().hrt).or_insert(0) += 1;
            }
            GangLane::TwoLevel(p) => {
                if let Some(spec) = p.config().pack_lane() {
                    *at_masks.entry((p.config().hrt, spec.history_bits)).or_insert(0) += 1;
                }
            }
            _ => {}
        }
    }
    let mut at_eligible: HashMap<HrtConfig, usize> = HashMap::new();
    for (&(cfg, _), &n) in at_masks.iter() {
        if loop_heavy || n >= 2 {
            *at_eligible.entry(cfg).or_insert(0) += n;
        }
    }
    let mut at_seen: HashMap<HrtConfig, usize> = HashMap::new();
    let at_packed: Vec<bool> = lanes
        .iter()
        .map(|lane| {
            let GangLane::TwoLevel(p) = lane else { return false };
            let Some(spec) = p.config().pack_lane() else { return false };
            let cfg = p.config().hrt;
            if !loop_heavy && at_masks[&(cfg, spec.history_bits)] < 2 {
                return false;
            }
            let quota = if loop_heavy {
                at_eligible[&cfg]
            } else {
                packed_quota(at_eligible[&cfg])
            };
            let seen = at_seen.entry(cfg).or_insert(0);
            let packed = *seen < quota;
            *seen += 1;
            packed
        })
        .collect();
    let mut ls_scan: HashMap<HrtConfig, usize> = HashMap::new();
    let mut scalar_consumers = false;
    for (i, lane) in lanes.iter().enumerate() {
        match lane {
            GangLane::StaticTraining(_)
            | GangLane::Variant(_)
            | GangLane::Gshare(_)
            | GangLane::Tournament(_) => scalar_consumers = true,
            GangLane::TwoLevel(_) => {
                if !at_packed[i] {
                    scalar_consumers = true;
                }
            }
            GangLane::LeeSmith(p) => {
                let cfg = p.config().hrt;
                let seen = ls_scan.entry(cfg).or_insert(0);
                if *seen >= packed_quota(ls_geometry[&cfg]) {
                    scalar_consumers = true;
                }
                *seen += 1;
            }
            GangLane::Profile(_) | GangLane::Fixed(_) | GangLane::Dyn(_) => {}
        }
    }
    // Packed LS lanes count toward shared-SlotProbe eligibility: in a
    // mixed gang a pack's >= 2 lanes always justify forming its
    // geometry's engine, which the pack then consumes alongside any
    // scalar sharers.
    let mut geometry_lanes: HashMap<HrtConfig, usize> = HashMap::new();
    for lane in lanes.iter() {
        if let Some(cfg @ HrtConfig::Associative { .. }) = lane.hrt_config() {
            *geometry_lanes.entry(cfg).or_insert(0) += 1;
        }
    }
    let mut engines: Vec<SlotProbe> = Vec::new();
    let mut engine_of: HashMap<HrtConfig, usize> = HashMap::new();
    let mut engine_for = |cfg: Option<HrtConfig>, resolver: &mut SiteResolver| -> Option<usize> {
        let cfg = cfg?;
        if geometry_lanes.get(&cfg).copied().unwrap_or(0) < 2 {
            return None;
        }
        Some(*engine_of.entry(cfg).or_insert_with(|| {
            engines.push(SlotProbe::build(cfg, resolver).expect("geometry is associative"));
            engines.len() - 1
        }))
    };
    // Partition once so the per-event loops are free of lane-kind
    // dispatch: each group's calls are direct and the dyn pass runs
    // only when dyn lanes exist. Slot-path groups carry the index of
    // their geometry's shared probe engine.
    let mut at_lanes: Vec<(&mut TwoLevelAdaptive, &mut PredictionStats)> = Vec::new();
    let mut ls_lanes: Vec<(&mut LeeSmithBtb, &mut PredictionStats)> = Vec::new();
    let mut st_lanes: Vec<(&mut StaticTraining, &mut PredictionStats)> = Vec::new();
    let mut at_slots: Vec<(usize, &mut TwoLevelAdaptive, &mut PredictionStats)> = Vec::new();
    let mut ls_slots: Vec<(usize, &mut LeeSmithBtb, &mut PredictionStats)> = Vec::new();
    let mut st_slots: Vec<(usize, &mut StaticTraining, &mut PredictionStats)> = Vec::new();
    let mut var_lanes: Vec<(&mut TwoLevelVariant, &mut PredictionStats)> = Vec::new();
    let mut gs_lanes: Vec<(&mut Gshare, &mut PredictionStats)> = Vec::new();
    let mut tour_lanes: Vec<(
        &mut Tournament<TwoLevelAdaptive, Gshare>,
        &mut PredictionStats,
    )> = Vec::new();
    let mut prof_lanes: Vec<(&mut ProfilePredictor, &mut PredictionStats)> = Vec::new();
    let mut fixed_lanes: Vec<(FixedRule, &mut PredictionStats)> = Vec::new();
    let mut dyn_lanes: Vec<(&mut Box<dyn Predictor>, &mut PredictionStats)> = Vec::new();
    let mut pack_groups: HashMap<HrtConfig, Vec<(&mut LeeSmithBtb, &mut PredictionStats)>> =
        HashMap::new();
    let mut ls_taken: HashMap<HrtConfig, usize> = HashMap::new();
    let mut at_pack_groups: HashMap<
        HrtConfig,
        Vec<(&mut TwoLevelAdaptive, &mut PredictionStats)>,
    > = HashMap::new();
    for (i, (lane, stat)) in lanes.iter_mut().zip(stats.iter_mut()).enumerate() {
        match lane {
            GangLane::TwoLevel(p) => {
                let cfg = p.config().hrt;
                if at_packed[i] {
                    at_pack_groups.entry(cfg).or_default().push((p, stat));
                } else {
                    match engine_for(Some(cfg), &mut resolver) {
                        Some(ei) => at_slots.push((ei, p, stat)),
                        None => {
                            p.bind_sites(&mut resolver);
                            at_lanes.push((p, stat));
                        }
                    }
                }
            }
            GangLane::LeeSmith(p) => {
                let cfg = p.config().hrt;
                let seen = ls_taken.entry(cfg).or_insert(0);
                let packed = *seen < packed_quota(ls_geometry[&cfg]);
                *seen += 1;
                if packed {
                    pack_groups.entry(cfg).or_default().push((p, stat));
                } else {
                    match engine_for(Some(cfg), &mut resolver) {
                        Some(ei) => ls_slots.push((ei, p, stat)),
                        None => {
                            p.bind_sites(&mut resolver);
                            ls_lanes.push((p, stat));
                        }
                    }
                }
            }
            GangLane::StaticTraining(p) => match engine_for(Some(p.config().hrt), &mut resolver) {
                Some(ei) => st_slots.push((ei, p, stat)),
                None => {
                    p.bind_sites(&mut resolver);
                    st_lanes.push((p, stat));
                }
            },
            GangLane::Variant(p) => {
                p.bind_sites(&mut resolver);
                var_lanes.push((p, stat));
            }
            GangLane::Gshare(p) => {
                p.bind_sites(&resolver);
                gs_lanes.push((p, stat));
            }
            GangLane::Tournament(p) => {
                p.bind_sites(&mut resolver);
                tour_lanes.push((p, stat));
            }
            GangLane::Profile(p) => {
                p.bind_sites(&resolver);
                prof_lanes.push((p, stat));
            }
            GangLane::Fixed(rule) => fixed_lanes.push((*rule, stat)),
            GangLane::Dyn(p) => dyn_lanes.push((p, stat)),
        }
    }
    // Assemble the bitsliced packs: chunk each geometry's packed
    // lanes by PACK_WIDTH (packed_quota guarantees no one-lane LS
    // chunk; AT chunks may be singletons) and give each pack its
    // organization's slot driver. Hashed and associative planes are
    // sized to the table; ideal planes grow a slot per fresh site,
    // like the table they mirror. Both pack flavors share the driver
    // construction.
    let mut pack_driver = |cfg: HrtConfig, resolver: &mut SiteResolver| -> (usize, PackProbe) {
        match cfg {
            HrtConfig::Ideal => (
                0,
                PackProbe::Ideal {
                    next_site: 0,
                    stats: HrtStats::default(),
                },
            ),
            HrtConfig::Associative { entries, .. } => (
                entries,
                // A singleton AT pack alone on its geometry gets no
                // shared engine (nothing in the per-event loop probes
                // the geometry), so it replays privately even when
                // scalar consumers exist elsewhere in the gang.
                match if scalar_consumers {
                    engine_for(Some(cfg), resolver)
                } else {
                    None
                } {
                    Some(ei) => PackProbe::Shared(ei),
                    None => PackProbe::Private(
                        SlotProbe::build(cfg, resolver).expect("geometry is associative"),
                    ),
                },
            ),
            HrtConfig::Hashed { entries } => (
                entries,
                PackProbe::Hashed {
                    keys: resolver.keys(cfg),
                    stats: HrtStats::default(),
                },
            ),
        }
    };
    let mut packs: Vec<LsPack> = Vec::new();
    for (cfg, mut group) in pack_groups {
        while !group.is_empty() {
            let take = group.len().min(PACK_WIDTH);
            let chunk: Vec<_> = group.drain(..take).collect();
            debug_assert!(chunk.len() >= 2, "packed_quota strands no singletons");
            let kinds: Vec<AutomatonKind> =
                chunk.iter().map(|(p, _)| p.config().automaton).collect();
            let (slots, probe) = pack_driver(cfg, &mut resolver);
            packs.push(LsPack {
                planes: LanePack::new(&kinds, slots),
                probe,
                lanes: chunk,
            });
        }
    }
    let mut at_packs: Vec<AtGangPack> = Vec::new();
    for (cfg, mut group) in at_pack_groups {
        while !group.is_empty() {
            let take = group.len().min(PACK_WIDTH);
            let chunk: Vec<_> = group.drain(..take).collect();
            let specs: Vec<AtLaneConfig> = chunk
                .iter()
                .map(|(p, _)| p.config().pack_lane().expect("only packable lanes group"))
                .collect();
            let (slots, probe) = pack_driver(cfg, &mut resolver);
            at_packs.push(AtGangPack {
                planes: AtPack::new(&specs, slots),
                probe,
                lanes: chunk,
            });
        }
    }
    metrics::add(Counter::LsPacksFormed, packs.len() as u64);
    metrics::add(Counter::AtPacksFormed, at_packs.len() as u64);
    metrics::add(
        Counter::LanesPacked,
        (packs.iter().map(|p| p.lanes.len()).sum::<usize>()
            + at_packs.iter().map(|p| p.lanes.len()).sum::<usize>()) as u64,
    );
    // Event-major order: the `(site, taken)` decode and the per-
    // geometry probes are paid once per event and amortized over every
    // lane (the tables of a paper-sized sweep are small enough to stay
    // cache-resident across lanes). Lanes never interact, so any
    // event-vs-lane loop order is observably identical. A gang whose
    // conditional consumers all packed (or score per site, like
    // profile lanes) skips the loop outright.
    // Shared-probe packs pick their stepping strategy off the
    // stream's shape, measured once at compile time. A loop-heavy
    // stream (long same-site runs) has the per-event loop log each
    // riding engine's slot decisions — one word per event — and the
    // pack replays the log afterwards in (slot, outcome) runs, where
    // a loop branch's same-outcome tail applies in O(1). A churny
    // stream (runs of an event or two, nothing for chunking to
    // amortize) steps the pack inside the loop instead, straight off
    // the shared probe, and skips the log entirely.
    let shared_packs: Vec<(usize, usize)> = packs
        .iter()
        .enumerate()
        .filter_map(|(pi, pack)| match pack.probe {
            PackProbe::Shared(ei) => Some((pi, ei)),
            _ => None,
        })
        .collect();
    let shared_at_packs: Vec<(usize, usize)> = at_packs
        .iter()
        .enumerate()
        .filter_map(|(pi, pack)| match pack.probe {
            PackProbe::Shared(ei) => Some((pi, ei)),
            _ => None,
        })
        .collect();
    let log_replay = loop_heavy;
    let (stepped_packs, stepped_at_packs): (Vec<(usize, usize)>, Vec<(usize, usize)>) =
        if log_replay {
            (Vec::new(), Vec::new())
        } else {
            (shared_packs.clone(), shared_at_packs.clone())
        };
    let mut slot_logs: Vec<(usize, Vec<u32>)> = Vec::new();
    if log_replay {
        for &(_, ei) in shared_packs.iter().chain(&shared_at_packs) {
            if !slot_logs.iter().any(|(e, _)| *e == ei) {
                slot_logs.push((ei, Vec::with_capacity(compiled.cond_sites().len())));
            }
        }
    }
    let mut probes = vec![
        tlat_core::Probe {
            slot: 0,
            outcome: tlat_core::ProbeOutcome::Hit,
        };
        engines.len()
    ];
    if scalar_consumers {
        for (site, taken) in compiled.events() {
            for (engine, probe) in engines.iter_mut().zip(probes.iter_mut()) {
                *probe = engine.step(site);
            }
            for (ei, p, stat) in &mut at_slots {
                stat.record(p.predict_update_slot(probes[*ei], taken) == taken);
            }
            for (ei, p, stat) in &mut ls_slots {
                stat.record(p.predict_update_slot(probes[*ei], taken) == taken);
            }
            for (ei, p, stat) in &mut st_slots {
                stat.record(p.predict_update_slot(probes[*ei], taken) == taken);
            }
            for (p, stat) in &mut at_lanes {
                stat.record(p.predict_update_site(site, taken) == taken);
            }
            for (p, stat) in &mut ls_lanes {
                stat.record(p.predict_update_site(site, taken) == taken);
            }
            for (p, stat) in &mut st_lanes {
                stat.record(p.predict_update_site(site, taken) == taken);
            }
            for (p, stat) in &mut var_lanes {
                stat.record(p.predict_update_site(site, taken) == taken);
            }
            for (p, stat) in &mut gs_lanes {
                stat.record(p.predict_update_site(site, taken) == taken);
            }
            for (p, stat) in &mut tour_lanes {
                stat.record(p.predict_update_site(site, taken) == taken);
            }
            // Churny stream: packs advance every lane in one
            // branchless plane step off the probe the slot-path lanes
            // above already consumed.
            for &(pi, ei) in &stepped_packs {
                let probe = probes[ei];
                let pack = &mut packs[pi];
                if probe.outcome == ProbeOutcome::Filled {
                    pack.planes.fill_slot(probe.slot as usize);
                }
                pack.planes.step(probe.slot as usize, taken);
            }
            for &(pi, ei) in &stepped_at_packs {
                let probe = probes[ei];
                let pack = &mut at_packs[pi];
                if probe.outcome == ProbeOutcome::Filled {
                    pack.planes.fill_slot(probe.slot as usize);
                }
                pack.planes.step(probe.slot as usize, taken);
            }
            // Loop-heavy stream: log the probe instead, for the
            // run-chunked replay below — slot in the low half, fill
            // flag above it.
            for (ei, log) in &mut slot_logs {
                let probe = probes[*ei];
                log.push(
                    u32::from(probe.slot)
                        | u32::from(probe.outcome == ProbeOutcome::Filled) << 16,
                );
            }
        }
    }
    // Every other pack replays the stream in (site, outcome) runs,
    // off to the side of the per-event loop ([`replay_site_runs`]).
    for pack in &mut packs {
        if matches!(pack.probe, PackProbe::Shared(_)) {
            continue;
        }
        replay_site_runs(&mut pack.planes, &mut pack.probe, compiled);
    }
    for pack in &mut at_packs {
        if matches!(pack.probe, PackProbe::Shared(_)) {
            continue;
        }
        replay_site_runs(&mut pack.planes, &mut pack.probe, compiled);
    }
    // On a loop-heavy stream, shared packs replay their engine's slot
    // log the same way, with the probing already paid
    // ([`replay_slot_log`]).
    if log_replay {
        let logged = |ei: usize| -> &[u32] {
            &slot_logs
                .iter()
                .find(|(e, _)| *e == ei)
                .expect("every shared pack's engine is logged")
                .1
        };
        for &(pi, ei) in &shared_packs {
            replay_slot_log(&mut packs[pi].planes, logged(ei), compiled);
        }
        for &(pi, ei) in &shared_at_packs {
            replay_slot_log(&mut at_packs[pi].planes, logged(ei), compiled);
        }
    }
    // Prediction and table state evolved exactly as the scalar walk's:
    // a packed lane's own table payload goes stale (the pack owns it
    // for the walk, as on the slot path) and only predicted/correct
    // and the adopted HrtStats are observable — fold them back now.
    for pack in &mut packs {
        let predicted = pack.planes.predicted();
        let correct = pack.planes.correct_counts();
        let probe_stats = match &pack.probe {
            PackProbe::Shared(ei) => engines[*ei].stats(),
            PackProbe::Private(engine) => engine.stats(),
            PackProbe::Ideal { stats, .. } | PackProbe::Hashed { stats, .. } => *stats,
        };
        for (lane, (p, stat)) in pack.lanes.iter_mut().enumerate() {
            stat.predicted += predicted;
            stat.correct += correct[lane];
            p.adopt_probe_stats(probe_stats);
        }
    }
    for pack in &mut at_packs {
        let predicted = pack.planes.predicted();
        let correct = pack.planes.correct_counts();
        let probe_stats = match &pack.probe {
            PackProbe::Shared(ei) => engines[*ei].stats(),
            PackProbe::Private(engine) => engine.stats(),
            PackProbe::Ideal { stats, .. } | PackProbe::Hashed { stats, .. } => *stats,
        };
        for (lane, (p, stat)) in pack.lanes.iter_mut().enumerate() {
            stat.predicted += predicted;
            stat.correct += correct[lane];
            p.adopt_probe_stats(probe_stats);
        }
    }
    // Slot-path lanes skipped their own per-event access accounting;
    // the shared engine counted the group's (identical) statistics
    // once — fold them back so every lane reports what per-lane
    // probing would have.
    for (ei, p, _) in &mut at_slots {
        p.adopt_probe_stats(engines[*ei].stats());
    }
    for (ei, p, _) in &mut ls_slots {
        p.adopt_probe_stats(engines[*ei].stats());
    }
    for (ei, p, _) in &mut st_slots {
        p.adopt_probe_stats(engines[*ei].stats());
    }
    // Profile bits are frozen and fixed rules never train, so their
    // scores over the stream are per-site weighted sums — identical to
    // recording every event, with no per-event work at all.
    for (p, stat) in &mut prof_lanes {
        score_per_site(p.site_bits(), compiled, stat);
    }
    for (rule, stat) in &mut fixed_lanes {
        score_fixed_rule(*rule, compiled, stat);
    }
    // Dyn lanes read the conditional records rebuilt from the stream
    // (pc, exact target, outcome); a lane observes only its own
    // predict/update sequence, so feeding them in a second pass
    // changes nothing for any lane.
    if !dyn_lanes.is_empty() {
        for branch in compiled.conditional_records() {
            for (p, stat) in &mut dyn_lanes {
                stat.record(p.predict_update(&branch) == branch.taken);
            }
        }
    }
    // The RAS is predictor-independent; the compiler carried its
    // push/verify events in record order.
    let mut ras = ReturnAddressStack::new(options.ras_entries.max(1));
    for event in compiled.ras_events() {
        match *event {
            RasEvent::Verify { target } => {
                ras.predict_and_verify(target);
            }
            RasEvent::Push { return_addr } => ras.push(return_addr),
        }
    }
    let ras = ras.stats();
    stats
        .into_iter()
        .map(|conditional| SimResult { conditional, ras })
        .collect()
}

/// The outcome of one lane of an isolated gang walk.
///
/// `None` = the lane was not applicable (the builder returned `None`,
/// e.g. Diff training without a training set); `Some(Ok)` = simulated;
/// `Some(Err)` = the lane's build or simulation panicked and the panic
/// was contained.
pub type IsolatedLane = Option<Result<SimResult, CellPanic>>;

/// [`gang_simulate_compiled`] with per-lane panic isolation: the
/// sweep drivers' one gang entry point.
///
/// `build(i)` constructs lane `i` (or `None` when the configuration is
/// not applicable to this workload — the paper's Table 3 exclusions);
/// it must be pure, because it is called again if the walk has to be
/// retried. The fast path is one shared walk over `compiled`. If any
/// lane panics — during build or mid-walk — the panic is caught and
/// only the offending lane fails:
///
/// * a panic at *build* time fails that lane alone; the others proceed
///   with the shared walk;
/// * a panic *mid-walk* poisons the shared pass (lanes are part-way
///   through the stream), so every built lane is re-run solo under its
///   own `catch_unwind` — predictors are deterministic, so surviving
///   lanes reproduce their shared-walk results bit-for-bit (the
///   identity `gang == solo` is pinned by tests), and the panicking
///   lane fails again, deterministically, in isolation.
pub fn gang_simulate_isolated<F>(
    n_lanes: usize,
    build: F,
    compiled: &CompiledTrace,
) -> Vec<IsolatedLane>
where
    F: Fn(usize) -> Option<GangLane>,
{
    let walk = |lanes: &mut [GangLane]| {
        gang_simulate_compiled(lanes, compiled, None, SimOptions::default())
    };
    let mut outcomes: Vec<IsolatedLane> = Vec::with_capacity(n_lanes);
    let mut lanes: Vec<GangLane> = Vec::new();
    let mut lane_of: Vec<usize> = Vec::new();
    for i in 0..n_lanes {
        match catch_cell(|| build(i)) {
            Ok(Some(lane)) => {
                lanes.push(lane);
                lane_of.push(i);
                outcomes.push(None); // filled in below
            }
            Ok(None) => outcomes.push(None),
            Err(panic) => outcomes.push(Some(Err(panic))),
        }
    }
    match catch_cell(|| walk(&mut lanes)) {
        Ok(results) => {
            for (li, result) in results.into_iter().enumerate() {
                outcomes[lane_of[li]] = Some(Ok(result));
            }
        }
        Err(walk_panic) => {
            eprintln!(
                "warning: gang walk panicked ({}); re-running {} lane(s) in isolation",
                walk_panic.message,
                lane_of.len()
            );
            for &i in &lane_of {
                metrics::bump(Counter::SoloReruns);
                outcomes[i] = match catch_cell(|| {
                    build(i).map(|lane| {
                        let mut solo = [lane];
                        walk(&mut solo)
                            .pop()
                            .expect("one lane in, one result out")
                    })
                }) {
                    Ok(Some(result)) => Some(Ok(result)),
                    Ok(None) => None,
                    Err(panic) => Some(Err(panic)),
                };
            }
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{table2, taxonomy, TrainingData};
    use crate::engine::simulate_with;
    use crate::experiment::sweep_specs;
    use tlat_core::{AutomatonKind, GshareConfig, HrtConfig, VariantConfig};
    use tlat_trace::{BranchClass, BranchRecord};
    use tlat_workloads::SyntheticStream;

    fn sweep() -> Vec<SchemeConfig> {
        vec![
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::LastTime),
            SchemeConfig::st(HrtConfig::Ideal, 12, TrainingData::Same),
            SchemeConfig::Btfn,
            SchemeConfig::Profile,
        ]
    }

    /// One lane per configuration (trained schemes train on `trace`).
    fn lanes(configs: &[SchemeConfig], trace: &Trace) -> Vec<GangLane> {
        configs
            .iter()
            .map(|c| GangLane::from_config(c, Some(trace)))
            .collect()
    }

    /// The lane as the per-config engine drives it.
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

    /// Walks `gang` over `compiled` and asserts each result equals the
    /// matching `solo` lane (a fresh build of the same predictor) run
    /// alone through [`simulate_with`] over `trace` — the reference
    /// oracle. Returns the solo-run lanes so callers can pin table
    /// statistics too.
    fn assert_gang_matches_solo(
        gang: &mut [GangLane],
        mut solo: Vec<GangLane>,
        compiled: &CompiledTrace,
        trace: &Trace,
        options: SimOptions,
    ) -> Vec<GangLane> {
        assert_eq!(gang.len(), solo.len());
        let ganged = gang_simulate_compiled(gang, compiled, None, options);
        for (lane, got) in solo.iter_mut().zip(&ganged) {
            let name = lane.name();
            let want = simulate_with(predictor(lane), trace, options);
            assert_eq!(got.conditional, want.conditional, "{name}");
            assert_eq!(got.ras, want.ras, "{name}");
        }
        solo
    }

    /// [`assert_gang_matches_solo`] for one lane per configuration over
    /// `trace`'s own compilation, also pinning every LS, AT and
    /// taxonomy lane's table statistics against what the solo lane's
    /// own probing counted.
    fn gang_matches_solo(configs: &[SchemeConfig], trace: &Trace, options: SimOptions) {
        let mut gang = lanes(configs, trace);
        let compiled = CompiledTrace::compile(trace);
        let solo =
            assert_gang_matches_solo(&mut gang, lanes(configs, trace), &compiled, trace, options);
        for (g, s) in gang.iter().zip(&solo) {
            match (g, s) {
                (GangLane::LeeSmith(a), GangLane::LeeSmith(b)) => {
                    assert_eq!(a.table_stats(), b.table_stats(), "{}", a.name());
                }
                (GangLane::TwoLevel(a), GangLane::TwoLevel(b)) => {
                    assert_eq!(a.hrt_stats(), b.hrt_stats(), "{}", a.name());
                }
                (GangLane::Variant(a), GangLane::Variant(b)) => {
                    assert_eq!(a.hrt_stats(), b.hrt_stats(), "{}", a.name());
                }
                _ => {}
            }
        }
    }

    /// A hand-written predictor no [`SchemeConfig`] builds, so it rides
    /// a [`GangLane::Dyn`] lane: it guesses BTFN's direction flipped by
    /// the pc's last outcome, so it reads every event's target and
    /// trains on every outcome.
    #[derive(Default)]
    struct BackwardXorLast {
        last: HashMap<u32, bool>,
    }

    impl Predictor for BackwardXorLast {
        fn name(&self) -> String {
            "BackwardXorLast".to_owned()
        }
        fn predict(&mut self, branch: &BranchRecord) -> bool {
            branch.is_backward() ^ self.last.get(&branch.pc).copied().unwrap_or(false)
        }
        fn update(&mut self, branch: &BranchRecord) {
            self.last.insert(branch.pc, branch.taken);
        }
    }

    fn hand_written_lane() -> GangLane {
        GangLane::Dyn(Box::new(BackwardXorLast::default()))
    }

    #[test]
    fn gang_matches_per_config_simulation_exactly() {
        let trace = SyntheticStream::mixed(0x5eed, 48).generate(5_000);
        gang_matches_solo(&sweep(), &trace, SimOptions { ras_entries: 16 });
        let trace = SyntheticStream::mixed(0xc0de, 64).generate(8_000);
        gang_matches_solo(&sweep(), &trace, SimOptions { ras_entries: 8 });
    }

    #[test]
    fn compiled_walk_covers_every_hrt_organization() {
        let trace = SyntheticStream::mixed(0xfeed, 96).generate(6_000);
        let configs = vec![
            SchemeConfig::at(HrtConfig::Ideal, 10, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::ahrt(64), 8, AutomatonKind::A3),
            SchemeConfig::at(HrtConfig::hhrt(32), 6, AutomatonKind::LastTime),
            SchemeConfig::ls(HrtConfig::Ideal, AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::ahrt(32), AutomatonKind::A4),
            SchemeConfig::ls(HrtConfig::hhrt(64), AutomatonKind::LastTime),
        ];
        gang_matches_solo(&configs, &trace, SimOptions::default());
    }

    #[test]
    fn taxonomy_lanes_walk_sites_across_every_organization() {
        // The taxonomy sweep itself, plus every per-address variant on
        // each HRT organization (a tiny 2-way table forces evictions)
        // and both global-history variants at another length, beside
        // AT lanes that pack or share a probe on the same geometries:
        // every lane bit-identical to its solo run, the variants' HRT
        // statistics included, on both stream shapes.
        let small = HrtConfig::Associative {
            entries: 16,
            ways: 2,
        };
        let mut configs = taxonomy();
        for hrt in [HrtConfig::Ideal, small, HrtConfig::hhrt(32)] {
            configs.push(SchemeConfig::Variant(VariantConfig::pag(
                8,
                AutomatonKind::A3,
                hrt,
            )));
            configs.push(SchemeConfig::Variant(VariantConfig::pas(
                6,
                AutomatonKind::LastTime,
                hrt,
                4,
            )));
        }
        configs.push(SchemeConfig::Variant(VariantConfig::gag(
            6,
            AutomatonKind::A4,
        )));
        configs.push(SchemeConfig::Variant(VariantConfig::gas(
            9,
            AutomatonKind::A1,
            8,
        )));
        configs.push(SchemeConfig::Gshare(GshareConfig {
            history_bits: 5,
            automaton: AutomatonKind::A3,
        }));
        configs.push(SchemeConfig::Tournament { chooser_entries: 4 });
        configs.push(SchemeConfig::at(small, 8, AutomatonKind::A2));
        for trace in [
            SyntheticStream::mixed(0x7a40, 96).generate(6_000),
            loop_heavy_trace(6_000),
        ] {
            gang_matches_solo(&configs, &trace, SimOptions { ras_entries: 8 });
        }
    }

    #[test]
    fn dyn_only_gangs_walk_the_stream() {
        let trace = SyntheticStream::mixed(0xd1, 16).generate(2_000);
        let compiled = CompiledTrace::compile(&trace);
        let build = || vec![hand_written_lane(), hand_written_lane()];
        assert_gang_matches_solo(
            &mut build(),
            build(),
            &compiled,
            &trace,
            SimOptions::default(),
        );
    }

    #[test]
    fn fixed_rule_gangs_score_per_site() {
        // No lane needs the per-event loop: the fixed rules and the
        // profile lane are scored from the per-site counts alone.
        let trace = SyntheticStream::mixed(0xd1, 16).generate(2_000);
        let configs = vec![
            SchemeConfig::Btfn,
            SchemeConfig::AlwaysTaken,
            SchemeConfig::AlwaysNotTaken,
            SchemeConfig::Profile,
        ];
        gang_matches_solo(&configs, &trace, SimOptions::default());
    }

    #[test]
    fn dyn_lanes_read_exact_targets_from_the_stream() {
        // One conditional pc flips between a backward and a forward
        // target (BTFN's answer flips with it), and one conditional is
        // also a call (its push reaches the RAS). BTFN's per-site score
        // must correct every overridden event exactly, and the
        // hand-written dyn lane must see every event's own target,
        // whether the stream was compiled from the records or decoded
        // from TLA3 packets.
        let mut trace = Trace::new();
        for i in 0..3_000u32 {
            let target = if i % 5 < 2 { 0x0f00 } else { 0x1400 };
            trace.push(BranchRecord::conditional(0x1000, target, i % 3 != 0));
            let pc = 0x1100 + (i % 7) * 4;
            trace.push(BranchRecord::conditional(pc, 0x1200, i % 4 == 0));
            if i % 9 == 0 {
                trace.push(BranchRecord {
                    pc: 0x1800,
                    target: 0x4000,
                    class: BranchClass::Conditional,
                    taken: true,
                    call: true,
                });
                trace.push(BranchRecord::subroutine_return(0x4010, 0x1804));
            }
        }
        let configs = vec![
            SchemeConfig::Btfn,
            SchemeConfig::AlwaysTaken,
            SchemeConfig::Gshare(GshareConfig::default_12bit()),
            SchemeConfig::Tournament {
                chooser_entries: 1024,
            },
            SchemeConfig::Variant(VariantConfig::pas(
                12,
                AutomatonKind::A2,
                HrtConfig::ahrt(512),
                16,
            )),
        ];
        let build = || {
            let mut gang = lanes(&configs, &trace);
            gang.push(hand_written_lane());
            gang
        };
        let options = SimOptions::default();
        let compiled = CompiledTrace::compile(&trace);
        let decoded = tlat_trace::packet::decode_compiled(&tlat_trace::packet::encode(&trace))
            .expect("round trip");
        for stream in [&compiled, &decoded] {
            assert!(!stream.target_overrides().is_empty());
            let mut gang = build();
            assert!(matches!(gang[0], GangLane::Fixed(FixedRule::Btfn)));
            assert!(matches!(gang[1], GangLane::Fixed(FixedRule::AlwaysTaken)));
            assert!(matches!(gang[2], GangLane::Gshare(_)));
            assert!(matches!(gang[3], GangLane::Tournament(_)));
            assert!(matches!(gang[4], GangLane::Variant(_)));
            assert!(matches!(gang[5], GangLane::Dyn(_)));
            assert_gang_matches_solo(&mut gang, build(), stream, &trace, options);
        }
    }

    #[test]
    fn every_config_builds_a_monomorphized_lane() {
        let training = SyntheticStream::mixed(0x11, 8).generate(500);
        let mut configs = table2();
        configs.extend(taxonomy());
        configs.extend(sweep_specs().into_iter().flat_map(|spec| spec.configs));
        configs.push(SchemeConfig::AlwaysNotTaken);
        for config in &configs {
            let lane = GangLane::from_config(config, Some(&training));
            assert!(
                !matches!(lane, GangLane::Dyn(_)),
                "{} is dyn",
                config.label()
            );
        }
        let lanes = lanes(&sweep(), &training);
        assert!(matches!(lanes[0], GangLane::TwoLevel(_)));
        assert!(matches!(lanes[1], GangLane::LeeSmith(_)));
        assert!(matches!(lanes[2], GangLane::StaticTraining(_)));
        assert!(matches!(lanes[3], GangLane::Fixed(FixedRule::Btfn)));
        assert!(matches!(lanes[4], GangLane::Profile(_)));
        // Lane names still come through for diagnostics.
        assert!(lanes[0].name().starts_with("AT("));
        assert!(format!("{:?}", lanes[1]).contains("LS("));
        assert!(lanes[2].name().starts_with("ST("));
        assert_eq!(lanes[3].name(), "BTFN");
        assert_eq!(lanes[4].name(), "Profile");
    }

    #[test]
    fn empty_gang_walks_without_results() {
        let trace = SyntheticStream::mixed(1, 4).generate(100);
        let compiled = CompiledTrace::compile(&trace);
        assert!(gang_simulate_compiled(&mut [], &compiled, None, SimOptions::default()).is_empty());
    }

    /// A predictor that panics after `fuse` conditional branches —
    /// stands in for a lane with a latent bug.
    struct ShortFuse {
        fuse: usize,
        seen: usize,
    }

    impl Predictor for ShortFuse {
        fn name(&self) -> String {
            "ShortFuse".to_owned()
        }
        fn predict(&mut self, _branch: &BranchRecord) -> bool {
            self.seen += 1;
            assert!(self.seen <= self.fuse, "short fuse blew at {}", self.seen);
            true
        }
        fn update(&mut self, _branch: &BranchRecord) {}
    }

    fn solo_reference(config: &SchemeConfig, trace: &Trace) -> SimResult {
        let mut solo = config.build(Some(trace));
        simulate_with(solo.as_mut(), trace, SimOptions::default())
    }

    #[test]
    fn isolated_walk_contains_a_build_panic() {
        let trace = SyntheticStream::mixed(0xabc, 32).generate(2_000);
        let compiled = CompiledTrace::compile(&trace);
        let configs = sweep();
        let outcomes = gang_simulate_isolated(
            configs.len(),
            |i| {
                if i == 1 {
                    panic!("injected build failure");
                }
                Some(GangLane::from_config(&configs[i], Some(&trace)))
            },
            &compiled,
        );
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 1 {
                let err = outcome.as_ref().unwrap().as_ref().unwrap_err();
                assert!(err.message.contains("injected build failure"));
            } else {
                let got = outcome.as_ref().unwrap().as_ref().unwrap();
                assert_eq!(
                    got.conditional,
                    solo_reference(&configs[i], &trace).conditional,
                    "surviving lane {i} must match its solo run"
                );
            }
        }
    }

    #[test]
    fn isolated_walk_recovers_from_a_mid_walk_panic() {
        let trace = SyntheticStream::mixed(0xdef, 32).generate(2_000);
        let compiled = CompiledTrace::compile(&trace);
        let configs = sweep();
        // Lane 2 blows up after 100 branches *inside the shared walk*;
        // the fallback re-runs every lane solo.
        let outcomes = gang_simulate_isolated(
            configs.len(),
            |i| {
                if i == 2 {
                    Some(GangLane::Dyn(Box::new(ShortFuse { fuse: 100, seen: 0 })))
                } else {
                    Some(GangLane::from_config(&configs[i], Some(&trace)))
                }
            },
            &compiled,
        );
        for (i, outcome) in outcomes.iter().enumerate() {
            if i == 2 {
                let err = outcome.as_ref().unwrap().as_ref().unwrap_err();
                assert!(err.message.contains("short fuse"), "{}", err.message);
            } else {
                let got = outcome.as_ref().unwrap().as_ref().unwrap();
                assert_eq!(
                    got.conditional,
                    solo_reference(&configs[i], &trace).conditional,
                    "lane {i} must survive a neighbour's mid-walk panic bit-for-bit"
                );
            }
        }
    }

    #[test]
    fn isolated_walk_keeps_not_applicable_lanes_blank() {
        let trace = SyntheticStream::mixed(0x11, 8).generate(500);
        let compiled = CompiledTrace::compile(&trace);
        let configs = sweep();
        let outcomes = gang_simulate_isolated(
            3,
            |i| {
                if i == 1 {
                    None // e.g. Diff training without a training set
                } else {
                    Some(GangLane::from_config(&configs[i], Some(&trace)))
                }
            },
            &compiled,
        );
        assert!(outcomes[0].as_ref().unwrap().is_ok());
        assert!(outcomes[1].is_none());
        assert!(outcomes[2].as_ref().unwrap().is_ok());
    }

    /// Asserts the stream is churny (below the log-replay gate), so a
    /// test pins the in-loop stepped-pack path.
    fn assert_churny(trace: &Trace) {
        let c = CompiledTrace::compile(trace);
        assert!(
            c.len() < LOG_REPLAY_MIN_RUN * c.site_run_count(),
            "trace drifted loop-heavy; this test pins the stepped-pack path"
        );
    }

    /// Asserts the stream trips the log-replay gate.
    fn assert_loop_heavy(trace: &Trace) {
        let c = CompiledTrace::compile(trace);
        assert!(
            c.len() >= LOG_REPLAY_MIN_RUN * c.site_run_count(),
            "trace must be loop-heavy enough to trip the log-replay gate (mean run {:.2})",
            c.len() as f64 / c.site_run_count() as f64
        );
    }

    #[test]
    fn bitsliced_packs_match_the_solo_engine_across_organizations() {
        // Packs form wherever ≥2 LS lanes share an exact geometry:
        // five automata on the paper AHRT, pairs on ideal / hashed /
        // a small eviction-heavy associative table, plus a singleton
        // LS straggler and a lone AT lane — both scalar on this
        // churny stream (an AT lane with no mask-group partner packs
        // only on loop-heavy streams) — all bit-identical to the
        // per-config engine, table statistics included. The synthetic
        // stream visits sites at random, so same-site runs barely form
        // and shared packs must take the in-loop plane-stepping
        // strategy here.
        let trace = SyntheticStream::mixed(0xb175, 80).generate(6_000);
        assert_churny(&trace);
        let small = HrtConfig::Associative {
            entries: 16,
            ways: 2,
        };
        let configs = vec![
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::LastTime),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A1),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A3),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A4),
            SchemeConfig::ls(HrtConfig::Ideal, AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::Ideal, AutomatonKind::LastTime),
            SchemeConfig::ls(HrtConfig::hhrt(64), AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::hhrt(64), AutomatonKind::A4),
            SchemeConfig::ls(small, AutomatonKind::A2),
            SchemeConfig::ls(small, AutomatonKind::A3),
            SchemeConfig::ls(HrtConfig::ahrt(256), AutomatonKind::A2), // straggler
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
        ];
        gang_matches_solo(&configs, &trace, SimOptions { ras_entries: 8 });
    }

    /// A trace shaped like nested loops: each visit to a site emits a
    /// short burst of consecutive events there, with the outcome
    /// flipping partway through some bursts (a loop exit) so runs of
    /// both directions straddle word boundaries in the outcome bitvec.
    fn loop_heavy_trace(events: usize) -> Trace {
        let sites = 48u32;
        let mut trace = Trace::with_capacity(events);
        let mut t = 0usize;
        while trace.len() < events {
            let site = ((t * 7 + t / 11) % sites as usize) as u32;
            let pc = 0x2000 + site * 4;
            let burst = 2 + t % 7; // 2..=8 consecutive events, mean ~5
            let exit_at = burst - 1 - t % 2;
            for k in 0..burst {
                let taken = k < exit_at;
                trace.push(BranchRecord::conditional(pc, pc + 0x40, taken));
            }
            t += 1;
        }
        trace
    }

    #[test]
    fn mixed_gangs_on_loop_heavy_streams_replay_the_slot_log() {
        // With scalar consumers present (an AT lane) the shared packs
        // ride the gang's probe engines — and on a loop-heavy stream
        // they must take the log-replay strategy: record each probe's
        // slot during the event loop, then apply whole same-slot
        // same-outcome runs in word-sized chunks afterwards. The tiny
        // 2-way table forces evictions and refills mid-stream, so the
        // fill flag rides the log too. Still bit-identical.
        let trace = loop_heavy_trace(6_000);
        assert_loop_heavy(&trace);
        let small = HrtConfig::Associative {
            entries: 16,
            ways: 2,
        };
        let configs = vec![
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::LastTime),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A1),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A4),
            SchemeConfig::ls(small, AutomatonKind::A2),
            SchemeConfig::ls(small, AutomatonKind::A3),
            SchemeConfig::ls(HrtConfig::Ideal, AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::Ideal, AutomatonKind::A4),
        ];
        gang_matches_solo(&configs, &trace, SimOptions { ras_entries: 8 });
    }

    #[test]
    fn pack_only_gangs_take_the_chunked_run_walk() {
        // With no AT/ST lane and no unpacked LS lane, the per-event
        // loop has no consumers: every pack owns its probe (private
        // engine for associative geometries) and replays the stream in
        // (site, outcome) runs, word-chunked against the outcome
        // bitvec — still bit-identical to the per-config engine.
        let trace = SyntheticStream::mixed(0x517e, 64).generate(6_000);
        let small = HrtConfig::Associative {
            entries: 16,
            ways: 2,
        };
        let configs = vec![
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::LastTime),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A1),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A3),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A4),
            SchemeConfig::ls(HrtConfig::Ideal, AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::Ideal, AutomatonKind::A3),
            SchemeConfig::ls(HrtConfig::hhrt(64), AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::hhrt(64), AutomatonKind::LastTime),
            SchemeConfig::ls(small, AutomatonKind::A2),
            SchemeConfig::ls(small, AutomatonKind::A4),
        ];
        gang_matches_solo(&configs, &trace, SimOptions { ras_entries: 8 });
    }

    #[test]
    fn packs_wider_than_a_word_chunk_and_strand_the_straggler() {
        // 65 same-geometry LS lanes: one full 64-lane pack plus one
        // scalar straggler (packed_quota refuses one-lane packs).
        assert_eq!(packed_quota(0), 0);
        assert_eq!(packed_quota(1), 0);
        assert_eq!(packed_quota(2), 2);
        assert_eq!(packed_quota(64), 64);
        assert_eq!(packed_quota(65), 64);
        assert_eq!(packed_quota(66), 66);
        assert_eq!(packed_quota(129), 128);
        let trace = SyntheticStream::mixed(0x65, 24).generate(2_000);
        let kinds = AutomatonKind::ALL;
        let configs: Vec<SchemeConfig> = (0..65)
            .map(|i| SchemeConfig::ls(HrtConfig::ahrt(512), kinds[i % kinds.len()]))
            .collect();
        gang_matches_solo(&configs, &trace, SimOptions::default());
    }

    /// An AT configuration with the ablation flags spelled out, for
    /// exercising pack-lane mixes the `at` convenience hides.
    fn at_full(
        hrt: HrtConfig,
        history_bits: u8,
        automaton: AutomatonKind,
        cached: bool,
        reinit: bool,
        init_nt: bool,
    ) -> SchemeConfig {
        SchemeConfig::TwoLevel(tlat_core::TwoLevelConfig {
            history_bits,
            automaton,
            hrt,
            cached_prediction: cached,
            reinit_on_replace: reinit,
            init_not_taken: init_nt,
        })
    }

    #[test]
    fn bitsliced_at_packs_match_the_solo_engine_across_organizations() {
        // AT packs form wherever ≥2 packable Two-Level lanes share a
        // history mask on one HRT organization (on a churny stream a
        // mask-singleton has nothing to amortize its row planes over,
        // so it stays scalar). The paper-AHRT pack mixes automaton
        // variants, two history lengths (masked rows of the shared
        // register), §3.2 caching vs pure two-lookup, and init
        // polarity; ideal / hashed / eviction-heavy associative
        // same-mask pairs pack too. A reinit-on-replace lane is
        // unpackable and must take the scalar path (becoming the
        // gang's scalar consumer), a k=8 lane on the packing AHRT and
        // an ahrt(256) lane are mask-singletons pinned scalar by the
        // churny gate, and an LS pack rides alongside — all
        // bit-identical to the per-config engine. Random site visits:
        // shared packs must take the in-loop stepping strategy here
        // (the reinit lane is the scalar consumer keeping the event
        // loop alive).
        let trace = SyntheticStream::mixed(0xa7b1, 80).generate(6_000);
        assert_churny(&trace);
        let small = HrtConfig::Associative {
            entries: 16,
            ways: 2,
        };
        let configs = vec![
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A3),
            SchemeConfig::at(HrtConfig::ahrt(512), 8, AutomatonKind::A3), // mask-singleton
            SchemeConfig::at(HrtConfig::ahrt(512), 6, AutomatonKind::LastTime),
            at_full(HrtConfig::ahrt(512), 6, AutomatonKind::A4, false, false, false),
            at_full(HrtConfig::ahrt(512), 6, AutomatonKind::A1, true, false, true),
            SchemeConfig::at(HrtConfig::Ideal, 10, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::Ideal, 10, AutomatonKind::A3),
            SchemeConfig::at(HrtConfig::hhrt(64), 8, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::hhrt(64), 8, AutomatonKind::A4),
            SchemeConfig::at(small, 8, AutomatonKind::A2),
            SchemeConfig::at(small, 8, AutomatonKind::A3),
            at_full(HrtConfig::ahrt(512), 12, AutomatonKind::A2, true, true, false),
            SchemeConfig::at(HrtConfig::ahrt(256), 12, AutomatonKind::A2), // mask-singleton
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::A2),
            SchemeConfig::ls(HrtConfig::ahrt(512), AutomatonKind::LastTime),
        ];
        gang_matches_solo(&configs, &trace, SimOptions { ras_entries: 8 });
    }

    #[test]
    fn at_packs_replay_ahrt_evictions_from_the_slot_log_byte_for_byte() {
        // The eviction-interplay pin: a tiny 2-way AHRT under a
        // loop-heavy stream churns through fills, hits, and
        // replacements, and the AT pack never sees tags — only the
        // shared engine's slot decisions via the log. A replaced slot
        // must inherit the victim's plane state (non-reinit lanes
        // inherit the victim's entry in the scalar walk) and a filled
        // slot must re-read its cached plane from the *evolved*
        // pattern tables, or predictions drift. The ST lane keeps a
        // scalar consumer in the gang, so the packs ride the shared
        // engine and — on this stream shape — the log-replay path.
        // The stream is loop-heavy, so AT singletons pack too: the
        // lone ahrt(256) lane is alone on its geometry and must fall
        // back to a private probe (no engine to share despite the
        // scalar consumer), and the lone ideal and hashed singletons
        // take their flavor's run replay.
        let trace = loop_heavy_trace(6_000);
        assert_loop_heavy(&trace);
        let small = HrtConfig::Associative {
            entries: 16,
            ways: 2,
        };
        let configs = vec![
            SchemeConfig::st(HrtConfig::Ideal, 12, TrainingData::Same),
            SchemeConfig::at(small, 8, AutomatonKind::A2),
            SchemeConfig::at(small, 6, AutomatonKind::A3),
            at_full(small, 4, AutomatonKind::LastTime, false, false, false),
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::ahrt(512), 10, AutomatonKind::A4),
            SchemeConfig::at(HrtConfig::ahrt(256), 10, AutomatonKind::A3), // lone: private probe
            SchemeConfig::at(HrtConfig::Ideal, 9, AutomatonKind::A2),      // lone: ideal replay
            SchemeConfig::at(HrtConfig::hhrt(32), 7, AutomatonKind::A4),   // lone: hashed replay
            SchemeConfig::ls(small, AutomatonKind::A2),
            SchemeConfig::ls(small, AutomatonKind::A4),
        ];
        gang_matches_solo(&configs, &trace, SimOptions { ras_entries: 8 });
    }

    #[test]
    fn pack_only_at_gangs_take_the_chunked_run_walk() {
        // Every conditional consumer packs: no scalar lane remains, so
        // the per-event loop never runs and the associative AT packs
        // own private probe engines, replaying the stream in (site,
        // outcome) runs — including evictions on the tiny 2-way table.
        // Run on both stream shapes, since the private path chunks
        // same-site runs either way; each geometry's pair shares a
        // history mask so the churny gate packs them too.
        let small = HrtConfig::Associative {
            entries: 16,
            ways: 2,
        };
        let configs = vec![
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A3),
            SchemeConfig::at(small, 8, AutomatonKind::A2),
            SchemeConfig::at(small, 8, AutomatonKind::LastTime),
            SchemeConfig::at(HrtConfig::Ideal, 9, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::Ideal, 9, AutomatonKind::A4),
            SchemeConfig::at(HrtConfig::hhrt(32), 7, AutomatonKind::A2),
            SchemeConfig::at(HrtConfig::hhrt(32), 7, AutomatonKind::A1),
        ];
        for trace in [
            SyntheticStream::mixed(0x9ac7, 64).generate(6_000),
            loop_heavy_trace(6_000),
        ] {
            gang_matches_solo(&configs, &trace, SimOptions { ras_entries: 8 });
        }
    }

    #[test]
    fn at_packs_wider_than_a_word_chunk_and_strand_the_straggler() {
        // 65 same-organization AT lanes on a churny stream, a variant
        // × history-length grid whose every history mask holds ≥ 2
        // lanes: all 65 are pack-eligible, so the LS strand rule
        // applies — one full 64-lane pack plus one scalar straggler
        // (a one-lane final chunk would be pure overhead here).
        let trace = SyntheticStream::mixed(0xa65, 24).generate(2_000);
        let kinds = AutomatonKind::ALL;
        let configs: Vec<SchemeConfig> = (0..65)
            .map(|i| {
                SchemeConfig::at(
                    HrtConfig::ahrt(512),
                    4 + (i % 9) as u8,
                    kinds[i % kinds.len()],
                )
            })
            .collect();
        gang_matches_solo(&configs, &trace, SimOptions::default());
    }
}
