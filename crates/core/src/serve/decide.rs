//! The cold path of one decision: the decision-cache entry that carries it
//! from lookup to report, and the one place entries are written.
//!
//! [`OracleService::decide`] finds the entry of a matrix's key — among the
//! decisions or, for a matrix `tune` switched earlier, the aliases — or has
//! the tuner [answer](OracleService::answer) and stores that.
//! [`OracleService::realize`] converts the matrix as the entry says and
//! hands the entry back realized; the plan is acquired from it
//! ([`OracleService::acquire_plan`]) and the report built from it
//! ([`Decided::report`]). Every write of an entry — a miss's answer, the
//! realized replacement, an alias, an alias a registration promotes, an
//! open horizon priced, an import — is [`OracleService::store`].

use super::OracleService;
use crate::cache::CacheKey;
use crate::features::FeatureVector;
use crate::obs::{Stage, TraceId};
use crate::tune::{PlanStatus, TuneReport};
use crate::tuner::{row_parameterized, FormatTuner, TuneDecision, TuningCost};
use crate::Result;
use morpheus::format::FormatId;
use morpheus::{
    Analysis, ConvertOptions, ConvertOutcome, ConvertPath, DynamicMatrix, ExecPlan, FormatParams, Scalar,
};
use morpheus_machine::{assemble, MatrixAnalysis, Op, Payback};
use std::any::Any;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Where a decision-cache entry keeps its execution plan: empty until the
/// first registration or execution under the decision builds one. The plan
/// is an `ExecPlan<V>`, `V` being the scalar of the entry's key — erased
/// because the scalar is part of the key, not of the cache's type.
type PlanSlot = parking_lot::Mutex<Option<Arc<dyn Any + Send + Sync>>>;

/// A decision-cache entry: the decision, the diagonals a DIA or HDC
/// realization stored and the plan of the keyed structure realized in that
/// format. What a hit needs comes with the lookup: no analysis, no
/// second cache, and — the layout being known — no walk to find diagonals.
#[derive(Debug, Clone)]
pub(super) struct CachedDecision {
    pub(super) decision: TuneDecision,
    /// [`DynamicMatrix::diagonal_layout`] of the matrix the miss realized,
    /// which a hit converts into ([`DynamicMatrix::convert_to_diagonals`]);
    /// `None` for the other formats, until the entry's conversion is known
    /// to hold, and for an imported decision (never written to a decisions
    /// file), whose hit finds the diagonals in a walk.
    layout: Option<Arc<[isize]>>,
    /// Shared by the copies of one entry (the one inserted when the tuner
    /// answered, the one that replaces it once the conversion is known to
    /// hold, the re-tune alias), so a plan built under any of them serves
    /// all; dropped with the last of them — on eviction,
    /// [`OracleService::clear_cache`] and a model hot-swap.
    pub(super) plan: Arc<PlanSlot>,
    /// What converting into the decided format repays at a horizon of one,
    /// priced on the view the tuner answered on: what a per-call tune gates
    /// its conversion on, hit or miss, without a view. `None` for an
    /// imported decision, a CSR fallback and a view that could not price it:
    /// the per-call path then converts.
    pub(super) horizon: Option<Horizon>,
    /// Set once a `tune` that kept its switched matrix aliased the decision
    /// under the switched structure; shared by the copies of one entry, so
    /// the switched structure is hashed at most once per entry.
    aliased: Arc<AtomicBool>,
}

impl CachedDecision {
    pub(super) fn new(decision: TuneDecision, horizon: Option<Horizon>) -> Self {
        CachedDecision { decision, layout: None, plan: Arc::default(), horizon, aliased: Arc::default() }
    }

    /// This entry once its matrix is converted, into `chosen` — the decided
    /// format, or CSR when that proved non-viable — and stored as `m`.
    fn realized<V: Scalar>(&mut self, chosen: FormatId, m: &DynamicMatrix<V>) {
        if chosen != self.decision.format {
            // CSR has no parameters and no diagonals, and the horizon was
            // priced for the prediction.
            self.decision = TuneDecision { format: chosen, params: FormatParams::default(), ..self.decision };
            (self.layout, self.horizon) = (None, None);
        }
        if self.layout.is_none() {
            self.layout = m.diagonal_layout().map(Arc::from);
        }
    }
}

/// Eq. 2 at N = 1 for one decision: the engine's [`Payback`] of converting
/// out of `source`, the format the decided matrix was in — the conversion's
/// predicted cost `c` and the per-execution ratio `r`, both in executions of
/// `source` for the decision's op. Exact, or — decided without the entry
/// walk — floors: whose sum is at least one (the conversion cannot pay), or
/// below one, `open`, when a registration or `tune`, which converts
/// whatever the horizon, left it for the first per-call tune to price
/// ([`OracleService::price_open_horizon`]).
#[derive(Debug, Clone, Copy)]
pub(super) struct Horizon {
    source: FormatId,
    payback: Payback,
    open: bool,
}

impl Horizon {
    /// A matrix already in the decided format: nothing to convert, `c = 0`
    /// and `r = 1`.
    fn stay(source: FormatId) -> Self {
        Horizon { source, payback: Payback { convert: 0.0, ratio: 1.0 }, open: false }
    }

    /// `true` when a per-call tune of a matrix in `format` keeps it there:
    /// the horizon was priced from that format, the decision names another,
    /// and one execution does not repay converting to it.
    pub(super) fn keeps(&self, format: FormatId, decided: FormatId) -> bool {
        self.source == format && decided != format && !self.payback.repays_one()
    }
}

/// What the cold path knows about one matrix before converting it: the
/// structure hash it is keyed by and, once computed, the shared analysis
/// and the machine model's view of it. Each fact is computed at most once
/// per registration and handed from stage to stage (decide → realize →
/// plan) instead of being re-derived from the matrix.
pub(super) struct Facts {
    pub(super) hash: u64,
    pub(super) analysis: Option<Analysis>,
    pub(super) view: Option<MatrixAnalysis>,
    /// The caller's format and the seconds the front door took to move the
    /// matrix into CSR, when it did: the report's `previous` and `convert`.
    pub(super) moved: Option<(FormatId, f64)>,
}

impl Facts {
    /// Only the structure hash (one index traversal) of `m`.
    pub(super) fn hashed<V: Scalar>(m: &DynamicMatrix<V>) -> Facts {
        Facts { hash: m.structure_hash(), analysis: None, view: None, moved: None }
    }

    /// Takes the pricing walks (block counts, HDC remainder) the view lacks,
    /// each in a walk of `m`.
    fn take_pricing_walks<V: Scalar>(&mut self, m: &DynamicMatrix<V>) {
        let (Some(analysis), Some(view)) = (self.analysis.as_mut(), self.view.as_mut()) else {
            panic!("pricing walks are taken for a view that exists");
        };
        view.take_pricing_walks(m, analysis);
    }
}

/// Who asks for a decision: what it is used for decides what it pays for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Asker {
    /// `register*`: converts whatever the horizon, and consumes its matrix.
    Register,
    /// `tune`: converts whatever the horizon, and keeps the switched matrix.
    Tune,
    /// `tune_and_*`: serves one execution, gated on the horizon.
    PerCall,
}

/// The two tables an entry lives in: the decisions, and the re-tune
/// aliases (see [`OracleService::aliases`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Table {
    Decisions,
    Aliases,
}

/// One decision for one matrix, from [`OracleService::decide`] on: its
/// entry — as found or answered, and once [realized](OracleService::realize)
/// as realized — with what the matrix's facts, its key and the lookup were.
pub(super) struct Decided {
    pub(super) entry: CachedDecision,
    pub(super) facts: Facts,
    key: CacheKey,
    /// The table the entry was found in; `None` on a miss.
    hit: Option<Table>,
    /// Generations of the decision cache and of the alias table the entry
    /// was found or the tuner consulted under: they gate every write of it.
    generation: [u64; 2],
    asker: Asker,
}

impl Decided {
    /// The report of this decision for a matrix hashed in `source` that
    /// ended in `chosen` through `convert` (the identity outcome when it
    /// stayed): the front door's move counts as part of the conversion. Its
    /// plan is the caller's to set.
    pub(super) fn report(
        &self,
        op: Op,
        source: FormatId,
        chosen: FormatId,
        convert: ConvertOutcome,
    ) -> TuneReport {
        let (previous, moved) = self.facts.moved.unwrap_or((source, 0.0));
        TuneReport {
            chosen,
            previous,
            predicted: self.entry.decision.format,
            cost: self.entry.decision.cost,
            converted: chosen != previous,
            op,
            cache_hit: self.hit.is_some(),
            plan: PlanStatus::Unplanned,
            serial_fallback: false,
            // After a move, CSR→chosen is direct or nothing: the whole is direct.
            convert: ConvertOutcome {
                path: if previous == source { convert.path } else { ConvertPath::Direct },
                seconds: moved + convert.seconds,
            },
            shards: 1,
        }
    }
}

impl<T> OracleService<T> {
    /// The one write of a decision-cache or alias entry: `entry` under `key`
    /// in `table`, unless the table was cleared since `generation` was read
    /// ([`Self::generations`]) — a model hot-swap clears it, and a decision
    /// taken before must not resurrect the superseded model's choice — or,
    /// unless `replace`, the table holds the key already. Returns whether
    /// the entry was stored.
    pub(super) fn store(
        &self,
        table: Table,
        key: CacheKey,
        entry: CachedDecision,
        generation: [u64; 2],
        replace: bool,
    ) -> bool {
        let (lru, generation) = match table {
            Table::Decisions => (&self.decisions, generation[0]),
            Table::Aliases => (&self.aliases, generation[1]),
        };
        lru.insert_if_generation(key, entry, generation, replace)
    }

    /// Stores `decided`'s entry over the one it was found as, in the table
    /// it was found in (a miss's, among the decisions).
    fn restore(&self, decided: &Decided) {
        let table = decided.hit.unwrap_or(Table::Decisions);
        self.store(table, decided.key, decided.entry.clone(), decided.generation, true);
    }

    /// The generations of the decision cache and of the alias table.
    pub(super) fn generations(&self) -> [u64; 2] {
        [self.decisions.generation(), self.aliases.generation()]
    }

    /// `m`'s shared analysis, `hash` being its structure hash — with the BSR
    /// block counts only when `blocks` (two thirds of the walk, read by
    /// nothing but BSR pricing). The walk without them runs on the
    /// [cold pool](Self::cold_pool).
    fn analyse<V: Scalar>(&self, m: &DynamicMatrix<V>, hash: u64, blocks: bool) -> Analysis {
        if blocks {
            Analysis::of_auto_with_hash(m, self.opts.true_diag_alpha, hash)
        } else {
            Analysis::without_block_counts(m, self.opts.true_diag_alpha, hash, self.cold_pool())
        }
    }

    /// The machine model's view of `m`, computed — with the analysis it
    /// derives from — on first use and kept in `facts`: with both pricing
    /// walks when `walks`, else from the analysis alone.
    fn view_of<'f, V: Scalar>(
        &self,
        m: &DynamicMatrix<V>,
        facts: &'f mut Facts,
        walks: bool,
    ) -> &'f MatrixAnalysis {
        if facts.view.is_none() {
            let analysis = facts.analysis.get_or_insert_with(|| self.analyse(m, facts.hash, walks));
            facts.view = Some(assemble(analysis, std::mem::size_of::<V>()));
            if walks {
                facts.take_pricing_walks(m);
            }
        }
        facts.view.as_ref().expect("view computed above")
    }

    /// The key of `structure` for `op` at `V`, and the entry it finds with
    /// its table: among the decisions or, for a matrix `tune` switched
    /// earlier, the aliases. A registration that finds an alias stores it
    /// among the decisions too, under `generation`, and has it from there:
    /// a registered source's decision is one of the decisions, and exported
    /// with them.
    fn lookup<V>(
        &self,
        structure: u64,
        op: Op,
        asker: Asker,
        generation: [u64; 2],
    ) -> (CacheKey, Option<(CachedDecision, Table)>) {
        let key = CacheKey {
            structure,
            scalar_bytes: std::mem::size_of::<V>(),
            engine: self.engine_fingerprint,
            op,
        };
        let found = match self.decisions.probe(&key) {
            Some(entry) => Some((entry, Table::Decisions)),
            None => self.aliases.probe(&key).map(|alias| {
                if asker != Asker::Register {
                    return (alias, Table::Aliases);
                }
                self.store(Table::Decisions, key, alias.clone(), generation, true);
                (alias, Table::Decisions)
            }),
        };
        (key, found)
    }

    /// The tuner's decision for `m`, with its horizon: on the machine view
    /// (computed first, unless held), and again should that view not price
    /// the answer. Nothing is converted; `m` is only read.
    ///
    /// It pays for what the decision reads: a tuner that does not price
    /// formats from the view ([`FormatTuner::prices_formats`]) gets one
    /// without the pricing walks (unless the source is BSR, whose extraction
    /// is priced from block counts), and only a BSR or HDC answer has them
    /// taken, each in a walk of its own, before its parameters are proposed:
    /// the layout [`Self::realize`] converts with.
    ///
    /// A CSR source under such a tuner, with no collector attached, is first
    /// decided on the row side alone ([`Self::answer_unwalked`]); only a
    /// decision that needs the entry walk pays for it.
    fn answer<V>(&self, m: &DynamicMatrix<V>, op: Op, facts: &mut Facts, asker: Asker) -> CachedDecision
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        if let Some((decision, horizon)) = self.answer_unwalked(m, op, facts, asker) {
            return CachedDecision::new(decision, Some(horizon));
        }
        let walks = self.tuner.prices_formats() || m.format_id() == FormatId::Bsr;
        let mut decision = self.tuner.select(m, self.view_of(m, facts, walks), &self.engine, op);
        if !self.view_of(m, facts, walks).prices(decision.format) {
            // Answered on a view that cannot price the answer: again, now
            // that it and its parameters can be.
            facts.take_pricing_walks(m);
            decision = self.tuner.select(m, self.view_of(m, facts, walks), &self.engine, op);
        }
        let horizon = self.horizon(op, m.format_id(), decision.format, self.view_of(m, facts, walks));
        CachedDecision::new(decision, horizon)
    }

    /// The horizon of converting out of `source` into `decided`, priced on
    /// `view` — `None` when the view cannot price both.
    fn horizon(&self, op: Op, source: FormatId, decided: FormatId, view: &MatrixAnalysis) -> Option<Horizon> {
        if source == decided {
            return Some(Horizon::stay(source));
        }
        (view.prices(source) && view.prices(decided)).then(|| Horizon {
            source,
            payback: self.engine.payback(op, source, decided, view),
            open: false,
        })
    }

    /// The tuner's decision for a CSR `m` from the row side of its analysis
    /// alone ([`Analysis::of_rows`]) and the walk features' bounds
    /// ([`FormatTuner::select_unwalked`]): the format and parameters the
    /// walked view gives, on COO, CSR, ELL, HYB or BELL, without walking the
    /// entries. Its horizon is the engine's floor over what the walk would
    /// tell ([`morpheus_machine::VirtualEngine::payback_floor`]). When that
    /// floor cannot rule the conversion out, a per-call tune takes the walk
    /// after all and prices the horizon exactly; a registration or `tune`,
    /// which converts whatever the horizon, stores the floor marked open for
    /// the first per-call tune to price. `None` — the artifact and the view
    /// then completed by the walk, for the tuner to answer as usual — when
    /// the tuner prices formats, a collector is attached (it notes every
    /// feature), or the bounds do not settle the answer on one of those
    /// formats. `facts` keeps the artifact either way.
    fn answer_unwalked<V>(
        &self,
        m: &DynamicMatrix<V>,
        op: Op,
        facts: &mut Facts,
        asker: Asker,
    ) -> Option<(TuneDecision, Horizon)>
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        let DynamicMatrix::Csr(csr) = m else { return None };
        if self.tuner.prices_formats() || self.collector.is_some() {
            return None;
        }
        let mut rows = Analysis::of_rows(csr, self.opts.true_diag_alpha, facts.hash);
        let mut view = assemble(&rows, std::mem::size_of::<V>());
        let walk = rows.walk_bounds(csr);
        let decision = self.tuner.select_unwalked(m, &view, &walk, &self.engine, op);
        let Some(decision) = decision.filter(|d| row_parameterized(d.format)) else {
            // Unsettled: the walk completes the artifact and the view.
            rows.take_entry_walk(csr, self.cold_pool());
            view.complete_walk(&rows);
            (facts.analysis, facts.view) = (Some(rows), Some(view));
            return None;
        };
        let source = FormatId::Csr;
        let mut horizon = Horizon::stay(source);
        if decision.format != source {
            horizon.payback = self.engine.payback_floor(op, source, decision.format, &view);
            // The floor leaves the conversion open: price it on the walk, or
            // leave it open for a per-call tune to.
            horizon.open = horizon.payback.repays_one();
            if horizon.open && asker == Asker::PerCall {
                rows.take_entry_walk(csr, self.cold_pool());
                view.complete_walk(&rows);
                horizon = Horizon {
                    payback: self.engine.payback(op, source, decision.format, &view),
                    open: false,
                    ..horizon
                };
            }
        }
        facts.analysis = Some(rows);
        Some((decision, horizon))
    }

    /// Prices a hit's open horizon exactly, for a per-call tune of `m` — the
    /// CSR source its floor was priced from: walks `m` (the analysis is kept
    /// for the conversion) and stores the exact horizon in the decision's
    /// entry, so the next per-call tune of the structure walks nothing.
    pub(super) fn price_open_horizon<V: Scalar>(&self, m: &DynamicMatrix<V>, op: Op, decided: &mut Decided) {
        let Some(horizon) = decided.entry.horizon.filter(|h| h.open && h.source == m.format_id()) else {
            return;
        };
        let analysis =
            decided.facts.analysis.get_or_insert_with(|| self.analyse(m, decided.facts.hash, false));
        let view = assemble(analysis, std::mem::size_of::<V>());
        let payback = self.engine.payback(op, horizon.source, decided.entry.decision.format, &view);
        decided.entry.horizon = Some(Horizon { payback, open: false, ..horizon });
        self.restore(decided);
    }

    /// First half of a tune: decision-cache lookup under the facts' hash →
    /// (on a miss) the tuner's [answer](Self::answer), for `asker`, stored
    /// and its features noted for adaptive sampling. Facts the caller holds
    /// are used, never recomputed.
    pub(super) fn decide<V>(&self, m: &DynamicMatrix<V>, op: Op, mut facts: Facts, asker: Asker) -> Decided
    where
        V: Scalar,
        T: FormatTuner<V>,
    {
        // One question, one counted lookup. The generations are read before
        // the tuner is consulted: if a model hot-swap clears the caches
        // while this decision is in flight, its writes are dropped.
        let generation = self.generations();
        let (key, found) = self.lookup::<V>(facts.hash, op, asker, generation);
        self.decisions.count(found.is_some());
        let (entry, hit) = match found {
            Some((mut entry, table)) => {
                // Same structure, scalar, engine and op: the tuner would
                // reproduce this decision, so charge nothing for it.
                entry.decision.cost = TuningCost::cached();
                (entry, Some(table))
            }
            None => {
                let entry = self.answer(m, op, &mut facts, asker);
                self.store(Table::Decisions, key, entry.clone(), generation, true);
                self.note_features(facts.hash, facts.analysis.as_ref());
                (entry, None)
            }
        };
        Decided { entry, facts, key, hit, generation, asker }
    }

    /// Second half of a tune: converts `m` to the decided format with the
    /// decision's parameters (a BELL, ELL or HYB fill on the
    /// [cold pool](Self::cold_pool); CSR when that proves non-viable) and
    /// hands back the report and `decided`, its entry realized. A miss
    /// stores the realized entry over its answer, and so does a hit that
    /// fell back, in the table it was found in: later hits must not re-pay
    /// the failing conversion attempt. A caller that keeps the switched
    /// matrix (`tune`/`tune_and_*`) hashes the converted structure — on a
    /// miss or a hit, at most once per entry — to alias the entry under it,
    /// so tuning the switched matrix again is a hit. A registration
    /// consumes its matrix, and nothing of it can come back to be tuned; a
    /// matrix switched into COO comes back through the front door's CSR
    /// copy, under the key it already has, so it is not aliased either.
    pub(super) fn realize<V: Scalar>(
        &self,
        m: &mut DynamicMatrix<V>,
        mut decided: Decided,
        op: Op,
    ) -> Result<(TuneReport, Decided)> {
        let hashed = m.format_id();
        let (decision, analysis) = (decided.entry.decision, decided.facts.analysis.as_ref());
        // The layout is the decision's; the guards are the service's. A hit
        // whose entry knows the diagonals converts into them.
        let opts = ConvertOptions { params: decision.params, ..self.opts };
        let converted = match &decided.entry.layout {
            Some(offsets) => m.convert_to_diagonals(decision.format, &opts, offsets),
            None => m.convert_on(decision.format, &opts, analysis, self.cold_pool()),
        };
        let (chosen, convert) = match converted {
            Ok(outcome) => (decision.format, outcome),
            // Mispredicted into a non-viable format: fall back to CSR.
            Err(_) => (FormatId::Csr, m.convert_to_with(FormatId::Csr, &self.opts, analysis)?),
        };
        let report = decided.report(op, hashed, chosen, convert);
        decided.entry.realized(chosen, m);
        if decided.asker != Asker::Register
            && chosen != hashed
            && chosen != FormatId::Coo
            && !decided.entry.aliased.swap(true, Ordering::Relaxed)
        {
            // Alias the decision under the matrix's *post-conversion*
            // structure too, so re-tuning the same (already switched) matrix
            // — the repeated-execution loop of §VII-E — is a hit: the one
            // reason left to hash what was just written.
            let switched = m.structure_hash();
            let alias = CacheKey { structure: switched, ..decided.key };
            self.store(Table::Aliases, alias, decided.entry.clone(), decided.generation, true);
            if let Some(col) = &self.collector {
                // Executions of the switched matrix are keyed by its own
                // hash when it comes back: the same population.
                col.alias(switched, decided.facts.hash);
            }
        }
        if decided.hit.is_none() || chosen != decision.format {
            self.restore(&decided);
        }
        Ok((report, decided))
    }

    /// Adaptive sampling, off the execution hot path: notes the Table-I
    /// features of a miss's analysis under the hash the tuner saw (features
    /// are format-invariant) — the hash every execution under its decision
    /// is attributed to. A service with a collector always walks, so the
    /// analysis is complete.
    fn note_features(&self, hash: u64, analysis: Option<&Analysis>) {
        if let (Some(col), Some(a)) = (&self.collector, analysis) {
            col.note_features(hash, &FeatureVector::from_analysis(a));
        }
    }

    /// The execution plan for `m` in its realized format: the one its
    /// decision entry holds, or — when it holds none yet, one for another
    /// worker count, or one `m` does not match (two sources of one key can
    /// realize differently in DIA/HDC, where an explicit zero is padding) —
    /// one built now and left in the entry. The single plan path of
    /// `tune_and_*`, registration and shards. Concurrent builders each
    /// store theirs and the last wins: plans for one structure and worker
    /// count are interchangeable. With caching disabled the slot dies with
    /// the call and every call builds — still the planned kernels.
    ///
    /// A COO or HYB plan reads an analysis: a miss's, or — for a hit that
    /// found its entry without a plan (a decision imported, never executed
    /// or served per call from its source, a plan for another worker
    /// count) — one of the realized `m`, hashed and walked here.
    ///
    /// With `trace` and tracing on, the acquisition is a `serve.plan_ns`
    /// sample and a [`Stage::Plan`] span (`detail` = 1 when reused, 0 when
    /// built); [`TraceId::NONE`] outside a request (e.g. registration) gets
    /// the sample without a span.
    pub(super) fn acquire_plan<V: Scalar>(
        &self,
        m: &DynamicMatrix<V>,
        decided: &mut Decided,
        threads: usize,
        trace: Option<TraceId>,
    ) -> (Arc<ExecPlan<V>>, PlanStatus) {
        let t0 = trace.filter(|_| self.obs.enabled()).map(|_| Instant::now());
        let held = decided.entry.plan.lock().clone();
        let held = held
            .and_then(|p| p.downcast::<ExecPlan<V>>().ok())
            .filter(|p| p.threads() == threads.max(1) && p.matches(m));
        let caching = u64::from(self.decisions.capacity() > 0);
        let (plan, status) = match held {
            Some(plan) => {
                self.plan_hits.fetch_add(caching, Ordering::Relaxed);
                (plan, PlanStatus::Reused)
            }
            None => {
                // Only COO and HYB plans read an analysis (their entry ranges
                // from its row histogram); every other plan reads the arrays.
                let reads = matches!(m.format_id(), FormatId::Coo | FormatId::Hyb);
                let analysis = reads.then(|| {
                    &*decided.facts.analysis.get_or_insert_with(|| self.analyse(m, m.structure_hash(), false))
                });
                let plan = Arc::new(ExecPlan::build(m, threads, analysis));
                *decided.entry.plan.lock() = Some(plan.clone() as Arc<dyn Any + Send + Sync>);
                self.plan_misses.fetch_add(caching, Ordering::Relaxed);
                (plan, PlanStatus::Built)
            }
        };
        if let (Some(t0), Some(trace)) = (t0, trace) {
            let dur = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            self.plan_hist.record_ns(dur);
            let hit = u64::from(status == PlanStatus::Reused);
            self.obs.span(trace, Stage::Plan, self.obs.instant_ns(t0), dur, hit);
        }
        (plan, status)
    }
}
