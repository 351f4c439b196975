//! Grouped scalar lanes: level-one sources and level-two kernels.
//!
//! A two-level predictor's first level — which history register (or
//! buffer entry) an event reaches, and how that register evolves —
//! depends only on the branch stream and the table organization, never
//! on the second level. Lanes whose level-one evolution is provably
//! identical therefore share one *source*, stepped once per event:
//!
//! * an [`AddressSource`] per `(HrtConfig, reinit_on_replace)` pair
//!   serves every per-address lane on that organization — AT with any
//!   automaton, history length, caching mode or init polarity, Static
//!   Training, PAg, PAs, the tournament's AT component, and Lee & Smith
//!   buffers (which read the slot discipline and ignore the history).
//!   It pays one probe and keeps one history register per slot, as
//!   wide as the longest lane's; a `k`-bit lane reads the low `k` bits,
//!   since every register shifts left from all-ones under a length mask
//!   (the same argument [`tlat_core::AtPack`] rests on).
//! * one [`GlobalSource`] serves GAg, GAs, gshare and the tournament's
//!   gshare component: a single register, again as wide as the longest
//!   lane's.
//!
//! The walk goes in blocks of [`BLOCK`] events: each source records
//! every event's slot, pre-shift history and fill flag into its block
//! arrays, then each lane runs only its level-two step over the block —
//! dense `u8` automaton state codes stepped through the variant's λ/δ
//! ([`tlat_core::SliceTables::derive`]) in one tight loop, with no
//! per-event dispatch on the lane's kind. Every lane observes exactly
//! the predict/update sequence it would alone: a fresh lane's initial
//! table state is set up at the start and only predicted/correct counts
//! (and the source's HRT statistics) come back out.

use crate::stats::PredictionStats;
use std::sync::Arc;
use tlat_core::{
    AutomatonKind, Gshare, HrtConfig, HrtStats, LeeSmithBtb, PatternTable, ProbeOutcome, SiteKeys,
    SiteResolver, SliceTables, SlotProbe, StaticTraining, Tournament, TwoLevelAdaptive,
    TwoLevelVariant,
};
use tlat_trace::{CompiledTrace, SiteId};

/// Events per block: each source fills its block arrays (a few KB),
/// then every lane walks them while they are cache-resident.
pub(super) const BLOCK: usize = 1024;

/// λ/δ of one automaton variant over its 2-bit state codes, unpacked
/// from the plane masks of [`SliceTables`] so a scalar lane steps by
/// table lookup.
#[derive(Debug, Clone, Copy)]
struct Dfa {
    /// `next[s << 1 | taken]`: δ(s, taken).
    next: [u8; 8],
    /// Bit `s`: λ(s).
    predict: u8,
}

impl Dfa {
    fn new(kind: AutomatonKind) -> Self {
        let t = SliceTables::derive(kind);
        let mut next = [0u8; 8];
        for s in 0..4 {
            for taken in 0..2 {
                next[s << 1 | taken] = (t.next_hi[taken] >> s & 1) << 1 | t.next_lo[taken] >> s & 1;
            }
        }
        Dfa {
            next,
            predict: t.predict,
        }
    }

    #[inline(always)]
    fn predicts(self, state: u8) -> bool {
        self.predict >> state & 1 != 0
    }

    #[inline(always)]
    fn step(self, state: u8, taken: bool) -> u8 {
        self.next[usize::from(state) << 1 | usize::from(taken)]
    }
}

/// History-table slots an organization holds over `compiled`: one per
/// site for the ideal table, one per entry otherwise.
fn slot_count(hrt: HrtConfig, compiled: &CompiledTrace) -> usize {
    match hrt {
        HrtConfig::Ideal => compiled.num_sites(),
        HrtConfig::Associative { entries, .. } | HrtConfig::Hashed { entries } => entries,
    }
}

/// All-ones mask of a `bits`-wide register (0 for no history).
fn ones(bits: u8) -> u16 {
    ((1u32 << bits) - 1) as u16
}

// ---------------------------------------------------------------------
// Level one
// ---------------------------------------------------------------------

/// How an [`AddressSource`] finds an event's slot, mirroring the
/// bookkeeping of [`tlat_core::AnyHrt`] exactly (statistics included).
enum Slots {
    /// Ideal table: slot = site (both are first-appearance order); a
    /// fresh site is exactly the next slot to allocate.
    Ideal { next_site: SiteId },
    /// Set-associative table: a payload-free probe engine makes the
    /// tag/LRU decisions every lane's own table would.
    Associative(SlotProbe),
    /// Tagless hashed table: slot precomputed per site; every access
    /// hits and no entry is ever re-initialized.
    Hashed(Arc<SiteKeys>),
}

/// One per-address level-one source: the slot discipline and per-slot
/// history registers shared by every lane on one `(HrtConfig,
/// reinit_on_replace)` organization.
pub(super) struct AddressSource {
    slots: Slots,
    /// Whether a replaced entry re-initializes (the reinit ablation);
    /// a fill always does.
    reinit: bool,
    /// All-ones mask of the register width: the longest history any
    /// lane reads (0 when only Lee & Smith buffers ride the source).
    ones: u16,
    /// Per-slot history register.
    hist: Vec<u16>,
    /// Access statistics of the ideal and hashed drivers (the
    /// associative engine counts its own).
    stats: HrtStats,
    /// Per block event: the slot reached.
    pub(super) slot: Vec<u32>,
    /// Per block event: the slot's history *before* the event shifts
    /// in (all-ones right after a fill).
    pub(super) old: Vec<u16>,
    /// Per block event: whether the entry was (re)initialized.
    pub(super) fresh: Vec<bool>,
}

impl AddressSource {
    /// A source for `hrt` with `history_bits`-wide registers.
    pub(super) fn new(
        hrt: HrtConfig,
        reinit: bool,
        history_bits: u8,
        compiled: &CompiledTrace,
        resolver: &mut SiteResolver,
    ) -> Self {
        let slots = match hrt {
            HrtConfig::Ideal => Slots::Ideal { next_site: 0 },
            HrtConfig::Associative { .. } => Slots::Associative(
                SlotProbe::build(hrt, resolver).expect("geometry is associative"),
            ),
            HrtConfig::Hashed { .. } => Slots::Hashed(resolver.keys(hrt)),
        };
        let ones = ones(history_bits);
        AddressSource {
            slots,
            reinit,
            ones,
            // Pre-warmed registers: all-ones history, as every
            // organization's fill value.
            hist: vec![ones; slot_count(hrt, compiled)],
            stats: HrtStats::default(),
            slot: vec![0; BLOCK],
            old: vec![0; BLOCK],
            fresh: vec![false; BLOCK],
        }
    }

    /// Steps the source over one block of events.
    pub(super) fn fill_block(&mut self, sites: &[SiteId], taken: &[bool]) {
        let AddressSource {
            slots,
            reinit,
            ones,
            hist,
            stats,
            slot,
            old,
            fresh,
        } = self;
        let ones = *ones;
        let mut record = |e: usize, s: usize, is_fresh: bool| {
            let h = if is_fresh { ones } else { hist[s] };
            hist[s] = (h << 1 | u16::from(taken[e])) & ones;
            slot[e] = s as u32;
            old[e] = h;
            fresh[e] = is_fresh;
        };
        match slots {
            Slots::Ideal { next_site } => {
                for (e, &site) in sites.iter().enumerate() {
                    let is_fresh = site == *next_site;
                    if is_fresh {
                        *next_site += 1;
                        stats.misses += 1;
                    }
                    record(e, site as usize, is_fresh);
                }
                stats.accesses += sites.len() as u64;
            }
            Slots::Associative(engine) => {
                for (e, &site) in sites.iter().enumerate() {
                    let probe = engine.step(site);
                    let is_fresh = match probe.outcome {
                        ProbeOutcome::Hit => false,
                        ProbeOutcome::Filled => true,
                        ProbeOutcome::Replaced => *reinit,
                    };
                    record(e, probe.slot as usize, is_fresh);
                }
            }
            Slots::Hashed(keys) => {
                let SiteKeys::Hashed { slot: of_site } = &**keys else {
                    unreachable!("hashed sources resolve hashed keys")
                };
                for (e, &site) in sites.iter().enumerate() {
                    record(e, of_site[site as usize] as usize, false);
                }
                stats.accesses += sites.len() as u64;
            }
        }
    }

    /// Access statistics so far — what each lane's own table would
    /// have counted probing alone.
    pub(super) fn stats(&self) -> HrtStats {
        match &self.slots {
            Slots::Associative(engine) => engine.stats(),
            Slots::Ideal { .. } | Slots::Hashed(_) => self.stats,
        }
    }
}

/// The global level-one source: one history register shared by every
/// global-history lane.
pub(super) struct GlobalSource {
    ones: u16,
    register: u16,
    /// Per block event: the register before the event shifts in.
    pub(super) old: Vec<u16>,
}

impl GlobalSource {
    /// A source with a `history_bits`-wide register, all ones as
    /// [`tlat_core::HistoryRegister::new`] starts it.
    pub(super) fn new(history_bits: u8) -> Self {
        let ones = ones(history_bits);
        GlobalSource {
            ones,
            register: ones,
            old: vec![0; BLOCK],
        }
    }

    /// Steps the register over one block of events.
    pub(super) fn fill_block(&mut self, taken: &[bool]) {
        for (old, &t) in self.old.iter_mut().zip(taken) {
            *old = self.register;
            self.register = (self.register << 1 | u16::from(t)) & self.ones;
        }
    }
}

/// Which source a lane reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Level1 {
    /// The per-address source at this index.
    Address(usize),
    /// The global source.
    Global,
}

/// One block of the stream and every source's records for it.
pub(super) struct Block<'b> {
    pub(super) sites: &'b [SiteId],
    pub(super) taken: &'b [bool],
    pub(super) address: &'b [AddressSource],
    pub(super) global: Option<&'b GlobalSource>,
}

// ---------------------------------------------------------------------
// Level two
// ---------------------------------------------------------------------

/// A pattern-table lane's level-two state: AT (§3.2 cached or pure
/// two-lookup), PAg/PAs, GAg/GAs and gshare are all "index a table of
/// automata by the history pattern, optionally XORed with a per-site
/// key".
struct PatternTables {
    source: Level1,
    mask: u16,
    dfa: Dfa,
    /// State codes, `2^k` per pattern set.
    table: Vec<u8>,
    /// `SiteId → row key`, XORed into the masked pattern: the set
    /// offset (`set << k`) of PAs/GAs, or gshare's address bits. Empty
    /// when the row is the pattern itself.
    keys: Vec<u32>,
    /// Per-slot §3.2 cached prediction bit; empty for two-lookup lanes.
    cached: Vec<bool>,
}

impl PatternTables {
    /// Level-two state for a fresh lane whose pattern tables are
    /// `tables`: every row starts in the tables' initial state (the
    /// variant's init, or strongly-not-taken under the init ablation),
    /// so one state code fills them all.
    fn new(source: Level1, history_bits: u8, tables: &[PatternTable]) -> Self {
        let init = tables[0].entry(0).state_bits();
        PatternTables {
            source,
            mask: ones(history_bits),
            dfa: Dfa::new(tables[0].kind()),
            table: vec![init; tables.len() << history_bits],
            keys: Vec::new(),
            cached: Vec::new(),
        }
    }

    /// Walks one block, reporting each event's guess to `emit`.
    #[inline]
    fn walk(&mut self, block: &Block, emit: impl FnMut(usize, bool)) {
        match self.source {
            Level1::Address(i) => {
                let src = &block.address[i];
                let n = block.sites.len();
                let (old, slot, fresh) = (&src.old[..n], &src.slot[..n], &src.fresh[..n]);
                match (self.cached.is_empty(), self.keys.is_empty()) {
                    (true, true) => self.steps::<false, false>(old, slot, fresh, block, emit),
                    (true, false) => self.steps::<false, true>(old, slot, fresh, block, emit),
                    (false, true) => self.steps::<true, false>(old, slot, fresh, block, emit),
                    (false, false) => unreachable!("cached lanes index by pattern alone"),
                }
            }
            Level1::Global => {
                let src = block.global.expect("global lanes have a global source");
                let old = &src.old[..block.sites.len()];
                if self.keys.is_empty() {
                    self.steps::<false, false>(old, &[], &[], block, emit);
                } else {
                    self.steps::<false, true>(old, &[], &[], block, emit);
                }
            }
        }
    }

    /// The fused predict → resolve → train cycle over one block: the
    /// guess is the cached bit (reset from the row of the all-ones
    /// pattern on a fresh entry) or λ of the indexed row read before
    /// it trains; δ folds the outcome in; a cached lane re-reads its
    /// bit from the new pattern's row after the write.
    #[inline(always)]
    fn steps<const CACHED: bool, const KEYED: bool>(
        &mut self,
        old: &[u16],
        slot: &[u32],
        fresh: &[bool],
        block: &Block,
        mut emit: impl FnMut(usize, bool),
    ) {
        let mask = usize::from(self.mask);
        let dfa = self.dfa;
        let keys = &self.keys[..];
        let table = &mut self.table[..];
        let cached = &mut self.cached[..];
        for (e, (&h, &taken)) in old.iter().zip(block.taken).enumerate() {
            let mut row = usize::from(h) & mask;
            if KEYED {
                row ^= keys[block.sites[e] as usize] as usize;
            }
            let state = table[row];
            let guess = if CACHED {
                let s = slot[e] as usize;
                if fresh[e] {
                    cached[s] = dfa.predicts(table[mask]);
                }
                cached[s]
            } else {
                dfa.predicts(state)
            };
            table[row] = dfa.step(state, taken);
            if CACHED {
                let new = (row << 1 | usize::from(taken)) & mask;
                cached[slot[e] as usize] = dfa.predicts(table[new]);
            }
            emit(e, guess);
        }
    }
}

/// The grouped-lane kernels, one per lane kind.
enum Kernel {
    /// AT, the taxonomy variants and gshare.
    Pattern(PatternTables),
    /// Static Training: preset bits indexed by the masked history.
    Static {
        source: usize,
        mask: u16,
        preset: Vec<bool>,
    },
    /// Lee & Smith: one automaton per buffer slot, re-initialized on
    /// a fill.
    Buffer {
        source: usize,
        dfa: Dfa,
        init: u8,
        states: Vec<u8>,
    },
    /// The AT + gshare tournament: both components' kernels, then the
    /// per-site chooser.
    Tournament(Box<TournamentTables>),
}

/// Level-two state of an AT + gshare tournament.
struct TournamentTables {
    first: PatternTables,
    second: PatternTables,
    dfa: Dfa,
    chooser: Vec<u8>,
    /// `SiteId → chooser entry`.
    chooser_of: Vec<u32>,
    /// Per block event: each component's guess.
    guesses: [Vec<bool>; 2],
}

/// One scalar lane riding the level-one sources.
pub(super) struct GroupedLane<'a> {
    kernel: Kernel,
    correct: u64,
    stat: &'a mut PredictionStats,
}

impl<'a> GroupedLane<'a> {
    /// An AT lane over the per-address source `source`.
    pub(super) fn two_level(
        p: &TwoLevelAdaptive,
        source: usize,
        compiled: &CompiledTrace,
        stat: &'a mut PredictionStats,
    ) -> Self {
        Self::new(Kernel::Pattern(at_tables(p, source, compiled)), stat)
    }

    /// A Static Training lane over the per-address source `source`.
    pub(super) fn static_training(
        p: &StaticTraining,
        source: usize,
        stat: &'a mut PredictionStats,
    ) -> Self {
        let bits = p.config().history_bits;
        Self::new(
            Kernel::Static {
                source,
                mask: ones(bits),
                preset: (0..1usize << bits)
                    .map(|pattern| p.preset(pattern))
                    .collect(),
            },
            stat,
        )
    }

    /// A Lee & Smith lane over the per-address source `source`: one
    /// automaton per slot, pre-warmed in its initial state.
    pub(super) fn lee_smith(
        p: &LeeSmithBtb,
        source: usize,
        compiled: &CompiledTrace,
        stat: &'a mut PredictionStats,
    ) -> Self {
        let config = p.config();
        let init = SliceTables::derive(config.automaton).init;
        Self::new(
            Kernel::Buffer {
                source,
                dfa: Dfa::new(config.automaton),
                init,
                states: vec![init; slot_count(config.hrt, compiled)],
            },
            stat,
        )
    }

    /// A taxonomy lane over `source` (per-address or global, as its
    /// history scope says).
    pub(super) fn variant(
        p: &TwoLevelVariant,
        source: Level1,
        compiled: &CompiledTrace,
        stat: &'a mut PredictionStats,
    ) -> Self {
        let bits = p.config().history_bits;
        let mut tables = PatternTables::new(source, bits, p.pattern_tables());
        if p.pattern_tables().len() > 1 {
            tables.keys = compiled
                .site_pcs()
                .iter()
                .map(|&pc| (p.pattern_set(pc) << bits) as u32)
                .collect();
        }
        Self::new(Kernel::Pattern(tables), stat)
    }

    /// A gshare lane over the global source.
    pub(super) fn gshare(
        p: &Gshare,
        compiled: &CompiledTrace,
        stat: &'a mut PredictionStats,
    ) -> Self {
        Self::new(Kernel::Pattern(gshare_tables(p, compiled)), stat)
    }

    /// An AT + gshare tournament lane: the AT component over the
    /// per-address source `source`, gshare over the global source.
    pub(super) fn tournament(
        p: &Tournament<TwoLevelAdaptive, Gshare>,
        source: usize,
        compiled: &CompiledTrace,
        stat: &'a mut PredictionStats,
    ) -> Self {
        let (first, second) = p.components();
        let (kind, chooser) = p.chooser_state_bits();
        Self::new(
            Kernel::Tournament(Box::new(TournamentTables {
                first: at_tables(first, source, compiled),
                second: gshare_tables(second, compiled),
                dfa: Dfa::new(kind),
                chooser,
                chooser_of: compiled
                    .site_pcs()
                    .iter()
                    .map(|&pc| p.chooser_index(pc) as u32)
                    .collect(),
                guesses: [vec![false; BLOCK], vec![false; BLOCK]],
            })),
            stat,
        )
    }

    fn new(kernel: Kernel, stat: &'a mut PredictionStats) -> Self {
        GroupedLane {
            kernel,
            correct: 0,
            stat,
        }
    }

    /// Runs the lane's level-two step over one block.
    pub(super) fn walk(&mut self, block: &Block) {
        let taken = block.taken;
        let correct = &mut self.correct;
        let mut count = |e: usize, guess: bool| *correct += u64::from(guess == taken[e]);
        match &mut self.kernel {
            Kernel::Pattern(tables) => tables.walk(block, count),
            Kernel::Static {
                source,
                mask,
                preset,
            } => {
                let old = &block.address[*source].old[..taken.len()];
                for (e, &h) in old.iter().enumerate() {
                    count(e, preset[usize::from(h & *mask)]);
                }
            }
            Kernel::Buffer {
                source,
                dfa,
                init,
                states,
            } => {
                let src = &block.address[*source];
                let n = taken.len();
                for (e, (&s, &is_fresh)) in src.slot[..n].iter().zip(&src.fresh[..n]).enumerate() {
                    let entry = &mut states[s as usize];
                    let state = if is_fresh { *init } else { *entry };
                    *entry = dfa.step(state, taken[e]);
                    count(e, dfa.predicts(state));
                }
            }
            Kernel::Tournament(t) => {
                let [a, b] = &mut t.guesses;
                t.first.walk(block, |e, g| a[e] = g);
                t.second.walk(block, |e, g| b[e] = g);
                for (e, &site) in block.sites.iter().enumerate() {
                    let entry = &mut t.chooser[t.chooser_of[site as usize] as usize];
                    let (a, b) = (a[e], b[e]);
                    let guess = if t.dfa.predicts(*entry) { b } else { a };
                    if a != b {
                        *entry = t.dfa.step(*entry, b == taken[e]);
                    }
                    count(e, guess);
                }
            }
        }
    }

    /// Folds the lane's score over `events` walked events into its
    /// result.
    pub(super) fn finish(self, events: u64) {
        self.stat.predicted += events;
        self.stat.correct += self.correct;
    }
}

/// An AT lane's level-two state: its pattern table, plus a per-slot
/// cached bit for §3.2 lanes, pre-warmed as every organization's fill
/// value (λ of the all-ones pattern's row).
fn at_tables(p: &TwoLevelAdaptive, source: usize, compiled: &CompiledTrace) -> PatternTables {
    let config = p.config();
    let mut tables = PatternTables::new(
        Level1::Address(source),
        config.history_bits,
        std::slice::from_ref(p.pattern_table()),
    );
    if config.cached_prediction {
        let fill = tables.dfa.predicts(tables.table[usize::from(tables.mask)]);
        tables.cached = vec![fill; slot_count(config.hrt, compiled)];
    }
    tables
}

/// A gshare lane's level-two state: the row is the global pattern
/// XORed with the site's address bits.
fn gshare_tables(p: &Gshare, compiled: &CompiledTrace) -> PatternTables {
    let mut tables = PatternTables::new(
        Level1::Global,
        p.config().history_bits,
        std::slice::from_ref(p.pattern_table()),
    );
    tables.keys = compiled
        .site_pcs()
        .iter()
        .map(|&pc| p.pc_key(pc) as u32)
        .collect();
    tables
}
