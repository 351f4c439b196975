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
//!   [`ProfilePredictor`], and the [`FixedRule`]s), so the planner
//!   reads each lane's configuration and picks its route up front.
//!   Only hand-built predictors take the boxed [`GangLane::Dyn`] lane,
//!   fed the stream's rebuilt conditional records
//!   ([`CompiledTrace::conditional_records`]).
//! * **Stream compilation** — the walk reads a site-interned SoA event
//!   stream ([`CompiledTrace`], compiled or decoded once per workload)
//!   and every lane's table coordinates are resolved per static site up
//!   front ([`SiteResolver`]), so the hot loop does no per-branch
//!   set/tag/hash arithmetic and touches ~5 bytes per event instead of
//!   a 16-byte record (see DESIGN.md's "Hot-loop anatomy").
//! * **Level-one sources** — a two-level predictor's first level
//!   depends only on the branch stream and the table organization, so
//!   every scalar lane rides a shared source: one per `(HrtConfig,
//!   reinit_on_replace)` for per-address history (AT of any shape, ST,
//!   PAg, PAs, the tournament's AT, and Lee & Smith buffers, which read
//!   only the slot discipline) and one global register (GAg, GAs,
//!   gshare, the tournament's gshare). Each source pays one probe and
//!   one history shift per event, as wide as its longest lane; each
//!   lane then runs only its level-two step on dense `u8` state codes,
//!   a block of events at a time (`grouped`). The sources' statistics
//!   fold back into every lane that owns an HRT.
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
//!   and associative packs on an organization no grouped lane probes
//!   skip the block loop entirely and replay the stream in `(site,
//!   outcome)` runs; an associative pack beside grouped lanes on its
//!   organization rides their level-one source (the way scan stays
//!   paid once) and replays each block's slot records in `(slot,
//!   outcome)` runs. In every run-replayed walk a loop branch's
//!   same-outcome tail applies in O(1) once every history register
//!   saturates and every automaton sits at its fixed point.
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
use grouped::{AddressSource, Block, GlobalSource, GroupedLane, Level1, BLOCK};
use std::collections::HashMap;
use std::sync::Arc;
use tlat_core::{
    AlwaysNotTaken, AlwaysTaken, AtLaneConfig, AtPack, AutomatonKind, Btfn, Gshare, HistoryScope,
    HrtConfig, HrtStats, LanePack, LeeSmithBtb, Predictor, ProbeOutcome, ProfilePredictor,
    SiteKeys, SiteResolver, SlotProbe, StaticTraining, StaticTrainingConfig, Tournament,
    TwoLevelAdaptive, TwoLevelVariant,
};
use tlat_trace::{BranchRecord, CompiledTrace, RasEvent, ReturnAddressStack, SiteId, Trace};

mod grouped;

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
}

/// Lanes per bitsliced pack: one bit of each `u64` plane.
const PACK_WIDTH: usize = 64;

/// Mean same-site run length (in events) from which a stream counts
/// as loop-heavy: there every packable Two-Level lane packs, since a
/// pack applies a same-outcome run in O(1) past its convergence depth
/// while a scalar lane pays every event.
const LOOP_HEAVY_MIN_RUN: usize = 3;

/// How many of a geometry's `count` Lee & Smith lanes go into bitsliced
/// packs (the rest ride the level-one sources as grouped scalar
/// lanes).
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
    /// Set-associative geometry that grouped scalar lanes also probe:
    /// the pack rides their level-one source (index into the address
    /// sources), so the way scan is paid once for both, and replays
    /// each block's slot records in (slot, outcome) runs
    /// ([`replay_block`]).
    Shared(usize),
    /// Set-associative geometry no grouped lane probes: a pack-owned
    /// probe engine advanced one real probe per same-site run plus a
    /// fast-forward for the guaranteed re-hits
    /// ([`SlotProbe::step_run`]). Tag/LRU state is a deterministic
    /// function of the access sequence, so the private engine's
    /// decisions and statistics are byte-identical to a shared
    /// source's.
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
/// `(site, outcome)` runs, off to the side of the block loop. A
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
            PackProbe::Shared(_) => unreachable!("shared packs replay their source's blocks"),
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

/// Replays one block of a shared level-one source's slot records into
/// a pack, with the probing already paid: consecutive events on one
/// slot group into a run — a fill can only open one, since a filled
/// way is valid by its next probe — and each same-outcome stretch of a
/// run applies in O(1) past the pack's convergence depth. A run cut by
/// a block boundary continues exactly in the next block: every
/// explicit step is exact, and the O(1) tail only starts once a
/// stretch has converged.
fn replay_block<P: RunPack>(planes: &mut P, source: &AddressSource, taken: &[bool]) {
    let n = taken.len();
    let (slot, fresh) = (&source.slot[..n], &source.fresh[..n]);
    let mut i = 0;
    while i < n {
        let s = slot[i];
        if fresh[i] {
            planes.fill_slot(s as usize);
        }
        let mut j = i + 1;
        while j < n && slot[j] == s && !fresh[j] {
            j += 1;
        }
        let mut k = i;
        while k < j {
            let t = taken[k];
            let mut r = k + 1;
            while r < j && taken[r] == t {
                r += 1;
            }
            planes.apply_run(s as usize, t, (r - k) as u64);
            k = r;
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

/// Where one lane rides a gang walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Route {
    /// A bitsliced plane pack.
    Pack,
    /// A grouped scalar lane on the per-address level-one source at
    /// this index (a tournament also reads the global source).
    Address(usize),
    /// A grouped scalar lane on the global level-one source.
    Global,
    /// Closed-form scoring (profile, fixed rules) or the dyn pass.
    Other,
}

/// The level-one sources one walk forms: a per-address source per
/// `(HrtConfig, reinit_on_replace)` organization, each as wide as its
/// longest-history lane, and the global register's width if any lane
/// reads global history.
#[derive(Debug, Default)]
struct SourcePlan {
    address: Vec<(HrtConfig, bool, u8)>,
    global: Option<u8>,
}

impl SourcePlan {
    /// The per-address source for `hrt`, widened to `history_bits`.
    fn address(&mut self, hrt: HrtConfig, reinit: bool, history_bits: u8) -> usize {
        match self.find(hrt, reinit) {
            Some(i) => {
                self.address[i].2 = self.address[i].2.max(history_bits);
                i
            }
            None => {
                self.address.push((hrt, reinit, history_bits));
                self.address.len() - 1
            }
        }
    }

    /// The global source, widened to `history_bits`.
    fn global(&mut self, history_bits: u8) {
        self.global = Some(self.global.map_or(history_bits, |w| w.max(history_bits)));
    }

    fn find(&self, hrt: HrtConfig, reinit: bool) -> Option<usize> {
        self.address
            .iter()
            .position(|&(h, r, _)| h == hrt && r == reinit)
    }
}

/// Picks every lane's route through one walk, and the level-one
/// sources its grouped lanes need. `loop_heavy` is the stream's shape
/// (mean same-site run ≥ [`LOOP_HEAVY_MIN_RUN`]).
fn plan_routes(lanes: &[GangLane], loop_heavy: bool) -> (Vec<Route>, SourcePlan) {
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
    // grouped scalar step touches one, with nothing to amortize it
    // over: such lanes stay scalar, and the LS strand rule applies to
    // the eligible remainder. On a loop-heavy stream every packable
    // lane packs, mask-singletons included: the pack replays
    // same-outcome runs, collapsing each to at most `history_bits + 3`
    // plane steps where scalar lanes pay every event — this is what
    // lets Figure 10's lone AT lane ride a pack. The shape signal is
    // the stream's memoized same-site run count
    // ([`LOOP_HEAVY_MIN_RUN`]).
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
    let mut at_packed = |p: &TwoLevelAdaptive| -> bool {
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
    };
    // Every lane that does not pack rides the level-one sources: the
    // plan groups lanes whose level-one evolution is provably
    // identical — same organization and replacement rule for
    // per-address history (any automaton, history length, caching mode
    // or init polarity; Lee & Smith buffers read only the slot
    // discipline), one register for every global-history lane.
    let mut plan = SourcePlan::default();
    let mut ls_seen: HashMap<HrtConfig, usize> = HashMap::new();
    let routes = lanes
        .iter()
        .map(|lane| match lane {
            GangLane::TwoLevel(p) => {
                if at_packed(p) {
                    Route::Pack
                } else {
                    let c = p.config();
                    Route::Address(plan.address(c.hrt, c.reinit_on_replace, c.history_bits))
                }
            }
            GangLane::LeeSmith(p) => {
                let cfg = p.config().hrt;
                let seen = ls_seen.entry(cfg).or_insert(0);
                let packed = *seen < packed_quota(ls_geometry[&cfg]);
                *seen += 1;
                if packed {
                    Route::Pack
                } else {
                    Route::Address(plan.address(cfg, false, 0))
                }
            }
            GangLane::StaticTraining(p) => {
                let c = p.config();
                Route::Address(plan.address(c.hrt, false, c.history_bits))
            }
            GangLane::Variant(p) => {
                let c = p.config();
                match c.history {
                    HistoryScope::PerAddress(hrt) => {
                        Route::Address(plan.address(hrt, false, c.history_bits))
                    }
                    HistoryScope::Global => {
                        plan.global(c.history_bits);
                        Route::Global
                    }
                }
            }
            GangLane::Gshare(p) => {
                plan.global(p.config().history_bits);
                Route::Global
            }
            GangLane::Tournament(p) => {
                let (first, second) = p.components();
                plan.global(second.config().history_bits);
                let c = first.config();
                Route::Address(plan.address(c.hrt, c.reinit_on_replace, c.history_bits))
            }
            GangLane::Profile(_) | GangLane::Fixed(_) | GangLane::Dyn(_) => Route::Other,
        })
        .collect();
    (routes, plan)
}

/// Simulates every lane over `compiled` in a single walk. Returns one
/// [`SimResult`] per lane, in lane order.
///
/// Each conditional event runs the predict → score → update cycle for
/// every lane; the stream's RAS events drive one shared
/// return-address stack whose stats are replicated into every result
/// (RAS behaviour is predictor-independent). Two-level and buffer
/// lanes either pack into bitsliced planes or ride the level-one
/// sources as grouped scalar lanes; profile and fixed-rule lanes score
/// per site; dyn lanes read the stream's rebuilt conditional records.
/// Results are bit-identical to running each lane alone through
/// [`crate::simulate_with`] over the trace the stream was compiled
/// from (pinned by tests). Lanes must arrive fresh, as
/// [`GangLane::from_config`] builds them: packed and grouped lanes
/// start from their configuration's initial tables.
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
    let loop_heavy = compiled.len() >= LOOP_HEAVY_MIN_RUN * compiled.site_run_count();
    let (routes, plan) = plan_routes(lanes, loop_heavy);
    let mut address: Vec<AddressSource> = plan
        .address
        .iter()
        .map(|&(hrt, reinit, bits)| AddressSource::new(hrt, reinit, bits, compiled, &mut resolver))
        .collect();
    let mut global = plan.global.map(GlobalSource::new);
    // Partition once so the walk is free of per-event lane-kind
    // dispatch: grouped lanes run their level-two kernel a block at a
    // time, packs step their planes, and the dyn pass runs only when
    // dyn lanes exist. Grouped lanes that own an HRT remember their
    // source, to adopt its statistics afterwards.
    let mut grouped: Vec<GroupedLane> = Vec::new();
    let mut adopters: Vec<(usize, &mut GangLane)> = Vec::new();
    let mut prof_lanes: Vec<(&mut ProfilePredictor, &mut PredictionStats)> = Vec::new();
    let mut fixed_lanes: Vec<(FixedRule, &mut PredictionStats)> = Vec::new();
    let mut dyn_lanes: Vec<(&mut Box<dyn Predictor>, &mut PredictionStats)> = Vec::new();
    let mut pack_groups: HashMap<HrtConfig, Vec<(&mut LeeSmithBtb, &mut PredictionStats)>> =
        HashMap::new();
    let mut at_pack_groups: HashMap<
        HrtConfig,
        Vec<(&mut TwoLevelAdaptive, &mut PredictionStats)>,
    > = HashMap::new();
    for ((lane, stat), &route) in lanes.iter_mut().zip(stats.iter_mut()).zip(&routes) {
        match (route, lane) {
            (Route::Pack, GangLane::TwoLevel(p)) => {
                at_pack_groups
                    .entry(p.config().hrt)
                    .or_default()
                    .push((p, stat));
            }
            (Route::Pack, GangLane::LeeSmith(p)) => {
                pack_groups
                    .entry(p.config().hrt)
                    .or_default()
                    .push((p, stat));
            }
            (Route::Address(si), lane) => {
                grouped.push(match &*lane {
                    GangLane::TwoLevel(p) => GroupedLane::two_level(p, si, compiled, stat),
                    GangLane::LeeSmith(p) => GroupedLane::lee_smith(p, si, compiled, stat),
                    GangLane::StaticTraining(p) => GroupedLane::static_training(p, si, stat),
                    GangLane::Variant(p) => {
                        GroupedLane::variant(p, Level1::Address(si), compiled, stat)
                    }
                    GangLane::Tournament(p) => GroupedLane::tournament(p, si, compiled, stat),
                    _ => unreachable!("only per-address lanes route to an address source"),
                });
                // The tournament's HRT is its AT component's, counted
                // twice per event by the two-phase reference cycle; its
                // guesses are what a walk reproduces.
                if !matches!(lane, GangLane::Tournament(_)) {
                    adopters.push((si, lane));
                }
            }
            (Route::Global, GangLane::Variant(p)) => {
                grouped.push(GroupedLane::variant(p, Level1::Global, compiled, stat));
            }
            (Route::Global, GangLane::Gshare(p)) => {
                grouped.push(GroupedLane::gshare(p, compiled, stat));
            }
            (_, GangLane::Profile(p)) => {
                p.bind_sites(&resolver);
                prof_lanes.push((p, stat));
            }
            (_, GangLane::Fixed(rule)) => fixed_lanes.push((*rule, stat)),
            (_, GangLane::Dyn(p)) => dyn_lanes.push((p, stat)),
            (route, lane) => unreachable!("{} cannot take route {route:?}", lane.name()),
        }
    }
    // Assemble the bitsliced packs: chunk each geometry's packed
    // lanes by PACK_WIDTH (packed_quota guarantees no one-lane LS
    // chunk; AT chunks may be singletons) and give each pack its
    // organization's slot driver. Hashed and associative planes are
    // sized to the table; ideal planes grow a slot per fresh site,
    // like the table they mirror. An associative pack rides the
    // grouped lanes' source on its organization when there is one —
    // the probe is paid once for both — and otherwise replays the
    // stream privately.
    let pack_driver = |cfg: HrtConfig, resolver: &mut SiteResolver| -> (usize, PackProbe) {
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
                match plan.find(cfg, false) {
                    Some(si) => PackProbe::Shared(si),
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
    metrics::add(Counter::LanesGrouped, grouped.len() as u64);
    metrics::add(
        Counter::Level1Sources,
        (address.len() + usize::from(global.is_some())) as u64,
    );
    let shared = |probe: &PackProbe| match probe {
        PackProbe::Shared(si) => Some(*si),
        _ => None,
    };
    let shared_packs: Vec<(usize, usize)> = packs
        .iter()
        .enumerate()
        .filter_map(|(pi, pack)| Some((pi, shared(&pack.probe)?)))
        .collect();
    let shared_at_packs: Vec<(usize, usize)> = at_packs
        .iter()
        .enumerate()
        .filter_map(|(pi, pack)| Some((pi, shared(&pack.probe)?)))
        .collect();
    // Event-major in blocks: each source steps once per event — one
    // probe and one history shift, amortized over every lane it
    // serves — recording the block's slots and pre-shift histories;
    // then every grouped lane runs its level-two kernel over the block
    // and every pack riding a source replays the block's slot records
    // in (slot, outcome) runs. Lanes never interact, so any event-vs-
    // lane loop order is observably identical. A gang with no grouped
    // lane (everything packed, or scored per site) skips the loop.
    let events = compiled.len();
    if !grouped.is_empty() {
        let sites = compiled.cond_sites();
        let outcomes = compiled.outcomes();
        let mut taken_buf = vec![false; BLOCK.min(events)];
        for start in (0..events).step_by(BLOCK) {
            let end = (start + BLOCK).min(events);
            let taken = &mut taken_buf[..end - start];
            for (k, t) in taken.iter_mut().enumerate() {
                *t = outcomes.get(start + k);
            }
            let taken = &*taken;
            let sites = &sites[start..end];
            for source in &mut address {
                source.fill_block(sites, taken);
            }
            if let Some(global) = &mut global {
                global.fill_block(taken);
            }
            let block = Block {
                sites,
                taken,
                address: &address,
                global: global.as_ref(),
            };
            for lane in &mut grouped {
                lane.walk(&block);
            }
            for &(pi, si) in &shared_packs {
                replay_block(&mut packs[pi].planes, &address[si], taken);
            }
            for &(pi, si) in &shared_at_packs {
                replay_block(&mut at_packs[pi].planes, &address[si], taken);
            }
        }
    }
    // Every other pack replays the stream in (site, outcome) runs,
    // off to the side of the block loop ([`replay_site_runs`]).
    for pack in &mut packs {
        if shared(&pack.probe).is_none() {
            replay_site_runs(&mut pack.planes, &mut pack.probe, compiled);
        }
    }
    for pack in &mut at_packs {
        if shared(&pack.probe).is_none() {
            replay_site_runs(&mut pack.planes, &mut pack.probe, compiled);
        }
    }
    // Prediction and table state evolved exactly as each lane's own
    // walk would: a packed or grouped lane's own table payload goes
    // stale (the walk owns it) and only predicted/correct and the
    // adopted HrtStats are observable — fold them back now.
    let probe_stats = |probe: &PackProbe| match probe {
        PackProbe::Shared(si) => address[*si].stats(),
        PackProbe::Private(engine) => engine.stats(),
        PackProbe::Ideal { stats, .. } | PackProbe::Hashed { stats, .. } => *stats,
    };
    for pack in &mut packs {
        let predicted = pack.planes.predicted();
        let correct = pack.planes.correct_counts();
        let probe_stats = probe_stats(&pack.probe);
        for (lane, (p, stat)) in pack.lanes.iter_mut().enumerate() {
            stat.predicted += predicted;
            stat.correct += correct[lane];
            p.adopt_probe_stats(probe_stats);
        }
    }
    for pack in &mut at_packs {
        let predicted = pack.planes.predicted();
        let correct = pack.planes.correct_counts();
        let probe_stats = probe_stats(&pack.probe);
        for (lane, (p, stat)) in pack.lanes.iter_mut().enumerate() {
            stat.predicted += predicted;
            stat.correct += correct[lane];
            p.adopt_probe_stats(probe_stats);
        }
    }
    for lane in grouped {
        lane.finish(events as u64);
    }
    for (si, lane) in adopters {
        let probe_stats = address[si].stats();
        match lane {
            GangLane::TwoLevel(p) => p.adopt_probe_stats(probe_stats),
            GangLane::LeeSmith(p) => p.adopt_probe_stats(probe_stats),
            GangLane::StaticTraining(p) => p.adopt_probe_stats(probe_stats),
            GangLane::Variant(p) => p.adopt_probe_stats(probe_stats),
            _ => unreachable!("only HRT-owning lanes adopt"),
        }
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
        // No lane needs the block loop: the fixed rules and the
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

    /// Asserts the stream is churny (below the loop-heavy gate), so a
    /// test pins the planner's churny routes.
    fn assert_churny(trace: &Trace) {
        let c = CompiledTrace::compile(trace);
        assert!(
            c.len() < LOOP_HEAVY_MIN_RUN * c.site_run_count(),
            "trace drifted loop-heavy; this test pins the churny routes"
        );
    }

    /// Asserts the stream trips the loop-heavy gate.
    fn assert_loop_heavy(trace: &Trace) {
        let c = CompiledTrace::compile(trace);
        assert!(
            c.len() >= LOOP_HEAVY_MIN_RUN * c.site_run_count(),
            "trace must be loop-heavy enough to trip the gate (mean run {:.2})",
            c.len() as f64 / c.site_run_count() as f64
        );
    }

    #[test]
    fn bitsliced_packs_match_the_solo_engine_across_organizations() {
        // Packs form wherever ≥2 LS lanes share an exact geometry:
        // five automata on the paper AHRT, pairs on ideal / hashed /
        // a small eviction-heavy associative table, plus a singleton
        // LS straggler and a lone AT lane — both grouped scalar lanes
        // on this churny stream (an AT lane with no mask-group partner
        // packs only on loop-heavy streams) — all bit-identical to the
        // per-config engine, table statistics included. The AT lane's
        // source on the paper AHRT carries the five-automaton LS pack
        // too, whose slot records replay in runs of about one event
        // here: the synthetic stream visits sites at random.
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
    fn mixed_gangs_on_loop_heavy_streams_replay_source_blocks() {
        // With grouped lanes on their organizations (ST lanes on the
        // paper AHRT and the tiny 2-way table) the associative packs
        // ride those lanes' level-one sources and replay each block's
        // slot records in same-slot same-outcome runs, which cross
        // block boundaries on this loop-heavy stream. The tiny table
        // forces evictions and refills mid-stream, so fills open runs
        // too. The AT lane packs (every packable lane does on a
        // loop-heavy stream) and rides the same source. Still
        // bit-identical.
        let trace = loop_heavy_trace(6_000);
        assert_loop_heavy(&trace);
        let small = HrtConfig::Associative {
            entries: 16,
            ways: 2,
        };
        let configs = vec![
            SchemeConfig::at(HrtConfig::ahrt(512), 12, AutomatonKind::A2),
            SchemeConfig::st(HrtConfig::ahrt(512), 10, TrainingData::Same),
            SchemeConfig::st(small, 8, TrainingData::Same),
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
        // With no AT/ST lane and no unpacked LS lane there is no
        // level-one source: every pack owns its probe (private
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
        // unpackable and rides a source of its own (replacements
        // re-initialize there), a k=8 lane on the packing AHRT and an
        // ahrt(256) lane are mask-singletons kept scalar by the churny
        // gate, and an LS pack rides alongside — all bit-identical to
        // the per-config engine. The k=8 lane's source on the paper
        // AHRT also carries that organization's AT and LS packs.
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
    fn at_packs_replay_ahrt_evictions_from_source_blocks_byte_for_byte() {
        // The eviction-interplay pin: a tiny 2-way AHRT under a
        // loop-heavy stream churns through fills, hits, and
        // replacements, and the AT pack never sees tags — only the
        // slot records of the ST lane's level-one source on that
        // table. A replaced slot must inherit the victim's plane state
        // (non-reinit lanes inherit the victim's entry in the scalar
        // walk) and a filled slot must re-read its cached plane from
        // the *evolved* pattern tables, or predictions drift. The
        // stream is loop-heavy, so AT singletons pack too: the paper
        // AHRT pair and the lone ahrt(256) lane have no grouped lane
        // on their organization and replay through private probes,
        // and the lone ideal and hashed singletons take their
        // flavor's run replay.
        let trace = loop_heavy_trace(6_000);
        assert_loop_heavy(&trace);
        let small = HrtConfig::Associative {
            entries: 16,
            ways: 2,
        };
        let configs = vec![
            SchemeConfig::st(small, 12, TrainingData::Same),
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
        // Every conditional consumer packs: no grouped lane remains, so
        // the block loop never runs and the associative AT packs
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
