//! Interactive exploration sessions: the state machine of Fig. 3 and the
//! query translation of §IV-A.
//!
//! A session tracks the user's current *focus* — the node set of the bar
//! they last clicked — as an accumulated conjunction of triple patterns
//! plus a focus variable. Each [`Expansion`] translates into an
//! [`ExplorationQuery`] of the Fig. 4 form (with the subclass closure
//! materialized as a raw relation joined at run time, per the §IV-A
//! remark); selecting a bar of the resulting chart folds the chosen
//! category back into the pattern set.

use kgoa_core::{
    supervise, Degraded, EpochGuard, EpochManager, SupervisedResult, SupervisorConfig,
    SupervisorError,
};
use kgoa_engine::{CountEngine, EngineError};
use kgoa_index::IndexedGraph;
use kgoa_query::{ExplorationQuery, TriplePattern, Var};
use kgoa_rdf::TermId;

use crate::chart::{Chart, ChartKind};
use crate::error::ExploreError;
use crate::history::History;

/// A chart produced under the supervisor's degradation ladder, together
/// with how it was obtained. Exactly one of the three shapes holds:
/// exact (`provenance` and `error` both `None`), degraded estimates
/// (`provenance` set), or empty-with-error (`error` set, empty chart).
#[derive(Debug, Clone)]
pub struct GovernedChart {
    /// The chart to render; bars carry confidence intervals when degraded.
    pub chart: Chart,
    /// Degradation provenance — `None` means the chart is exact.
    pub provenance: Option<Degraded>,
    /// Set when even the degraded rungs failed; the chart is then empty.
    pub error: Option<SupervisorError>,
}

impl GovernedChart {
    /// True if the chart holds exact counts.
    pub fn is_exact(&self) -> bool {
        self.provenance.is_none() && self.error.is_none()
    }
}

/// The five bar expansions of the exploration model (§III).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expansion {
    /// Class bar → chart of its direct subclasses.
    Subclass,
    /// Class bar → chart of outgoing properties of its members.
    OutProperty,
    /// Class bar → chart of incoming properties of its members.
    InProperty,
    /// Out-property bar → chart of the classes of the objects.
    Object,
    /// In-property bar → chart of the classes of the subjects.
    Subject,
}

impl Expansion {
    /// All five expansions.
    pub const ALL: [Expansion; 5] = [
        Expansion::Subclass,
        Expansion::OutProperty,
        Expansion::InProperty,
        Expansion::Object,
        Expansion::Subject,
    ];

    /// The chart kind this expansion produces.
    pub fn produces(self) -> ChartKind {
        match self {
            Expansion::Subclass | Expansion::Object | Expansion::Subject => ChartKind::Class,
            Expansion::OutProperty => ChartKind::OutProperty,
            Expansion::InProperty => ChartKind::InProperty,
        }
    }
}

/// What kind of bar the session is currently focused on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BarState {
    /// A class bar: the focus variable is constrained by the closure
    /// pattern at `closure_idx`, currently set to `class`.
    Class { closure_idx: usize, class: TermId },
    /// An out-property bar: the focus variable is the subject of the
    /// property pattern at `pattern_idx`.
    OutProp { pattern_idx: usize },
    /// An in-property bar: the focus variable is the object of the
    /// property pattern at `pattern_idx`.
    InProp { pattern_idx: usize },
}

/// A pending expansion: the chart has been produced, selection not yet made.
#[derive(Debug, Clone, Copy)]
enum Pending {
    Subclass { closure_idx: usize },
    OutProperty,
    InProperty,
    Object { obj_var: Var },
    Subject { subj_var: Var },
}

/// The graph a session reads: either a caller-owned borrow (static
/// graphs, the historical mode) or a pinned MVCC epoch (live graphs
/// under concurrent updates).
enum GraphRef<'g> {
    Borrowed(&'g IndexedGraph),
    Pinned(EpochGuard),
}

impl GraphRef<'_> {
    fn get(&self) -> &IndexedGraph {
        match self {
            GraphRef::Borrowed(ig) => ig,
            GraphRef::Pinned(guard) => guard,
        }
    }
}

/// An interactive exploration session over an indexed graph.
pub struct Session<'g> {
    graph: GraphRef<'g>,
    patterns: Vec<TriplePattern>,
    focus: Var,
    next_var: u16,
    state: BarState,
    pending: Option<Pending>,
    history: History,
    /// Whether expansion queries count distinct members (the system always
    /// does; disable only for experiments).
    pub distinct: bool,
}

impl<'g> Session<'g> {
    /// Start a session focused on the instances of `owl:Thing` — the
    /// top-level class bar the paper's exploration begins from.
    pub fn root(ig: &'g IndexedGraph) -> Self {
        Self::at_class(ig, ig.vocab().owl_thing)
    }

    /// Start a session focused on the (closure) instances of a class.
    pub fn at_class(ig: &'g IndexedGraph, class: TermId) -> Self {
        Self::with_graph(GraphRef::Borrowed(ig), class)
    }

    /// Start a root session pinned to the manager's current epoch: every
    /// expansion and selection reads that one consistent snapshot while
    /// writers keep appending. Call [`Session::repin`] between
    /// interactions to observe newer epochs.
    pub fn root_pinned(mgr: &EpochManager) -> Session<'static> {
        let guard = mgr.pin();
        let class = guard.vocab().owl_thing;
        Session::with_graph(GraphRef::Pinned(guard), class)
    }

    fn with_graph(graph: GraphRef<'g>, class: TermId) -> Session<'g> {
        let vocab = graph.get().vocab();
        let focus = Var(0);
        let tvar = Var(1);
        let patterns = vec![
            TriplePattern::new(focus, vocab.rdf_type, tvar),
            TriplePattern::new(tvar, vocab.subclass_of_trans, class),
        ];
        Session {
            graph,
            patterns,
            focus,
            next_var: 2,
            state: BarState::Class { closure_idx: 1, class },
            pending: None,
            history: History::new(),
            distinct: true,
        }
    }

    /// The graph snapshot this session reads.
    pub fn graph(&self) -> &IndexedGraph {
        self.graph.get()
    }

    /// The pinned epoch id, or `None` for a borrowed (static) graph.
    pub fn epoch(&self) -> Option<u64> {
        match &self.graph {
            GraphRef::Borrowed(_) => None,
            GraphRef::Pinned(guard) => Some(guard.epoch()),
        }
    }

    /// Re-pin the session to the manager's current epoch (interaction
    /// boundaries are the natural place: mid-expansion reads stay on one
    /// snapshot, but the next chart reflects the latest data). The
    /// session's accumulated focus constraints carry over — term ids are
    /// stable across epochs. Returns the newly pinned epoch id.
    pub fn repin(&mut self, mgr: &EpochManager) -> u64 {
        let guard = mgr.pin();
        let epoch = guard.epoch();
        self.graph = GraphRef::Pinned(guard);
        epoch
    }

    /// The patterns constraining the current focus set.
    pub fn patterns(&self) -> &[TriplePattern] {
        &self.patterns
    }

    /// The focus variable.
    pub fn focus(&self) -> Var {
        self.focus
    }

    /// The breadcrumb trail of this session.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The expansions valid for the current bar (the out-edges of the
    /// current state in Fig. 3).
    pub fn valid_expansions(&self) -> &'static [Expansion] {
        match self.state {
            BarState::Class { .. } => {
                &[Expansion::Subclass, Expansion::OutProperty, Expansion::InProperty]
            }
            BarState::OutProp { .. } => &[Expansion::Object],
            BarState::InProp { .. } => &[Expansion::Subject],
        }
    }

    fn fresh(&mut self) -> Var {
        let v = Var(self.next_var);
        self.next_var += 1;
        v
    }

    /// Translate an expansion into its exploration query (§IV-A) without
    /// changing session state. The query's α is the next chart's category
    /// variable; β is the focus set counted per bar.
    pub fn expansion_query(&mut self, exp: Expansion) -> Result<ExplorationQuery, ExploreError> {
        let saved_next = self.next_var;
        let result = self.build_query(exp);
        if result.is_err() {
            self.next_var = saved_next;
        }
        result
    }

    fn build_query(
        &mut self,
        exp: Expansion,
    ) -> Result<ExplorationQuery, ExploreError> {
        if !self.valid_expansions().contains(&exp) {
            return Err(ExploreError::InvalidExpansion(exp));
        }
        let vocab = self.graph().vocab();
        let (patterns, alpha, beta, pending) = match (exp, self.state) {
            (Expansion::Subclass, BarState::Class { closure_idx, class }) => {
                let cvar = self.fresh();
                let tvar = self.patterns[closure_idx]
                    .s
                    .as_var()
                    .expect("closure pattern subject is the type variable");
                let mut ps = self.patterns.clone();
                ps[closure_idx] = TriplePattern::new(tvar, vocab.subclass_of_trans, cvar);
                ps.push(TriplePattern::new(cvar, vocab.subclass_of, class));
                (ps, cvar, self.focus, Pending::Subclass { closure_idx })
            }
            (Expansion::OutProperty, BarState::Class { .. }) => {
                let pvar = self.fresh();
                let xvar = self.fresh();
                let mut ps = self.patterns.clone();
                ps.push(TriplePattern::new(self.focus, pvar, xvar));
                (ps, pvar, self.focus, Pending::OutProperty)
            }
            (Expansion::InProperty, BarState::Class { .. }) => {
                let pvar = self.fresh();
                let xvar = self.fresh();
                let mut ps = self.patterns.clone();
                ps.push(TriplePattern::new(xvar, pvar, self.focus));
                (ps, pvar, self.focus, Pending::InProperty)
            }
            (Expansion::Object, BarState::OutProp { pattern_idx }) => {
                let obj = self.patterns[pattern_idx]
                    .o
                    .as_var()
                    .expect("out-property pattern object is a variable");
                let cvar = self.fresh();
                let mut ps = self.patterns.clone();
                ps.push(TriplePattern::new(obj, vocab.rdf_type, cvar));
                (ps, cvar, obj, Pending::Object { obj_var: obj })
            }
            (Expansion::Subject, BarState::InProp { pattern_idx }) => {
                let subj = self.patterns[pattern_idx]
                    .s
                    .as_var()
                    .expect("in-property pattern subject is a variable");
                let cvar = self.fresh();
                let mut ps = self.patterns.clone();
                ps.push(TriplePattern::new(subj, vocab.rdf_type, cvar));
                (ps, cvar, subj, Pending::Subject { subj_var: subj })
            }
            _ => return Err(ExploreError::InvalidExpansion(exp)),
        };
        let query = ExplorationQuery::new(patterns, alpha, beta, self.distinct)
            .map_err(ExploreError::Query)?;
        self.pending = Some(pending);
        Ok(query)
    }

    /// Expand and evaluate with an exact engine, producing the next chart.
    pub fn expand(
        &mut self,
        exp: Expansion,
        engine: &dyn CountEngine,
    ) -> Result<Chart, ExploreError> {
        let _span = kgoa_obs::profile::span("explore.expand");
        let query = self.expansion_query(exp)?;
        let counts = engine.evaluate(self.graph(), &query).map_err(ExploreError::Engine)?;
        self.history.expanded(exp);
        Ok(Chart::from_counts(exp.produces(), &counts))
    }

    /// Expand and evaluate under the resource-governed supervisor
    /// ([`kgoa_core::supervise`]): exact within the deadline when
    /// possible, Audit/Wander Join estimates with a [`Degraded`]
    /// provenance record otherwise. A chart is *always* rendered — even
    /// when every execution rung fails, the session gets an empty chart
    /// with the failure recorded in [`GovernedChart::error`] rather than
    /// losing its interaction state. The exact rung is sequential CTJ on
    /// the calling thread.
    pub fn expand_governed(
        &mut self,
        exp: Expansion,
        config: &SupervisorConfig,
    ) -> Result<GovernedChart, ExploreError> {
        let _span = kgoa_obs::profile::span("explore.expand");
        let query = self.expansion_query(exp)?;
        let kind = exp.produces();
        let outcome = match supervise(self.graph(), &query, config) {
            Ok(SupervisedResult::Exact { counts, .. }) => GovernedChart {
                chart: Chart::from_counts(kind, &counts),
                provenance: None,
                error: None,
            },
            Ok(SupervisedResult::Degraded { estimates, provenance }) => GovernedChart {
                chart: Chart::from_estimates(kind, &estimates),
                provenance: Some(provenance),
                error: None,
            },
            Err(SupervisorError::Query(e)) => return Err(ExploreError::Query(e)),
            Err(e @ SupervisorError::Exhausted { .. }) => GovernedChart {
                chart: Chart { kind, bars: Vec::new() },
                provenance: None,
                error: Some(e),
            },
        };
        self.history.expanded(exp);
        Ok(outcome)
    }

    /// [`Self::expand_governed`] under a per-query profile scope: the
    /// `explore.expand` → `supervisor.supervise` → `supervisor.rung.*`
    /// spine that names the rung which served the click, and operator
    /// attribution emitted anywhere below it — LFTJ per-variable
    /// seek/probe counts, CTJ per-step cache traffic, walk
    /// accept/reject tallies — are collected into a
    /// [`kgoa_obs::ProfileReport`] and returned alongside the chart.
    pub fn expand_profiled(
        &mut self,
        exp: Expansion,
        config: &SupervisorConfig,
    ) -> Result<(GovernedChart, kgoa_obs::ProfileReport), ExploreError> {
        let profile = kgoa_obs::QueryProfile::begin(format!("expand:{exp:?}"));
        let result = {
            let _attach = profile.handle().attach("main");
            self.expand_governed(exp, config)
        };
        let report = profile.finish();
        result.map(|chart| (chart, report))
    }

    /// Select (click) a bar of the chart produced by the last expansion,
    /// folding the chosen category into the focus constraints.
    pub fn select(&mut self, category: TermId) -> Result<(), ExploreError> {
        let vocab = self.graph().vocab();
        let pending = self.pending.take().ok_or(ExploreError::NothingPending)?;
        self.history.selected(category);
        match pending {
            Pending::Subclass { closure_idx } => {
                let tvar = self.patterns[closure_idx]
                    .s
                    .as_var()
                    .expect("closure pattern subject is the type variable");
                self.patterns[closure_idx] =
                    TriplePattern::new(tvar, vocab.subclass_of_trans, category);
                self.state = BarState::Class { closure_idx, class: category };
            }
            Pending::OutProperty => {
                let xvar = self.fresh();
                self.patterns.push(TriplePattern::new(self.focus, category, xvar));
                self.state = BarState::OutProp { pattern_idx: self.patterns.len() - 1 };
            }
            Pending::InProperty => {
                let xvar = self.fresh();
                self.patterns.push(TriplePattern::new(xvar, category, self.focus));
                self.state = BarState::InProp { pattern_idx: self.patterns.len() - 1 };
            }
            Pending::Object { obj_var } => {
                let tvar = self.fresh();
                self.patterns.push(TriplePattern::new(obj_var, vocab.rdf_type, tvar));
                self.patterns.push(TriplePattern::new(tvar, vocab.subclass_of_trans, category));
                self.focus = obj_var;
                self.state =
                    BarState::Class { closure_idx: self.patterns.len() - 1, class: category };
            }
            Pending::Subject { subj_var } => {
                let tvar = self.fresh();
                self.patterns.push(TriplePattern::new(subj_var, vocab.rdf_type, tvar));
                self.patterns.push(TriplePattern::new(tvar, vocab.subclass_of_trans, category));
                self.focus = subj_var;
                self.state =
                    BarState::Class { closure_idx: self.patterns.len() - 1, class: category };
            }
        }
        Ok(())
    }

    /// Exact size of the current focus set (distinct members), computed by
    /// semi-join reduction. Useful for showing the focus size in a UI.
    pub fn focus_size(&self) -> Result<u64, EngineError> {
        let var_count = self
            .patterns
            .iter()
            .flat_map(|p| p.vars())
            .map(|(v, _)| v.index() + 1)
            .max()
            .unwrap_or(0);
        kgoa_engine::count_distinct_values(self.graph(), &self.patterns, var_count, self.focus)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_datagen::{generate, KgConfig, Scale};
    use kgoa_engine::YannakakisEngine;

    fn ig() -> IndexedGraph {
        IndexedGraph::build(generate(&KgConfig::dbpedia_like(Scale::Tiny)))
    }

    #[test]
    fn root_subclass_expansion_shows_top_classes() {
        let ig = ig();
        let mut s = Session::root(&ig);
        let chart = s.expand(Expansion::Subclass, &YannakakisEngine).unwrap();
        assert!(!chart.is_empty(), "root must have subclasses");
        assert_eq!(chart.kind, ChartKind::Class);
    }

    #[test]
    fn full_exploration_path() {
        let ig = ig();
        let mut s = Session::root(&ig);
        // Subclass → select top class.
        let chart = s.expand(Expansion::Subclass, &YannakakisEngine).unwrap();
        let top = chart.bars[0].category;
        s.select(top).unwrap();
        // Out-property → select top property.
        let chart = s.expand(Expansion::OutProperty, &YannakakisEngine).unwrap();
        assert_eq!(chart.kind, ChartKind::OutProperty);
        assert!(!chart.is_empty());
        let prop = chart.bars[0].category;
        s.select(prop).unwrap();
        // Only object expansion is valid now.
        assert_eq!(s.valid_expansions(), &[Expansion::Object]);
        let chart = s.expand(Expansion::Object, &YannakakisEngine).unwrap();
        assert_eq!(chart.kind, ChartKind::Class);
        if let Some(bar) = chart.bars.first() {
            s.select(bar.category).unwrap();
            assert_eq!(
                s.valid_expansions(),
                &[Expansion::Subclass, Expansion::OutProperty, Expansion::InProperty]
            );
        }
    }

    #[test]
    fn invalid_expansion_rejected() {
        let ig = ig();
        let mut s = Session::root(&ig);
        let err = s.expansion_query(Expansion::Object).unwrap_err();
        assert!(matches!(err, ExploreError::InvalidExpansion(Expansion::Object)));
    }

    #[test]
    fn select_without_pending_rejected() {
        let ig = ig();
        let mut s = Session::root(&ig);
        assert!(matches!(
            s.select(TermId(1)),
            Err(ExploreError::NothingPending)
        ));
    }

    #[test]
    fn queries_grow_with_path() {
        let ig = ig();
        let mut s = Session::root(&ig);
        let q1 = s.expansion_query(Expansion::OutProperty).unwrap();
        assert_eq!(q1.patterns().len(), 3); // type + closure + property
        let chart = s.expand(Expansion::OutProperty, &YannakakisEngine).unwrap();
        s.select(chart.bars[0].category).unwrap();
        let q2 = s.expansion_query(Expansion::Object).unwrap();
        assert_eq!(q2.patterns().len(), 4); // + selected property + type of object
    }

    #[test]
    fn focus_size_counts_instances() {
        let ig = ig();
        let s = Session::root(&ig);
        let size = s.focus_size().unwrap();
        assert!(size > 0, "every generated entity is a Thing instance");
    }

    #[test]
    fn governed_expansion_with_generous_deadline_is_exact() {
        let ig = ig();
        let mut s = Session::root(&ig);
        let exact = Session::root(&ig).expand(Expansion::Subclass, &YannakakisEngine).unwrap();
        let config = SupervisorConfig::with_deadline(std::time::Duration::from_secs(30));
        let out = s.expand_governed(Expansion::Subclass, &config).unwrap();
        assert!(out.is_exact());
        assert_eq!(out.chart.bars.len(), exact.bars.len());
        // The session can keep interacting off a governed chart.
        s.select(out.chart.bars[0].category).unwrap();
    }

    #[test]
    fn profiled_expansion_attributes_engine_work() {
        let ig = ig();
        let mut s = Session::root(&ig);
        let config = SupervisorConfig::with_deadline(std::time::Duration::from_secs(30));
        let (out, report) = s.expand_profiled(Expansion::Subclass, &config).unwrap();
        assert!(out.is_exact());
        assert!(report.query.starts_with("expand:"));
        assert!(!report.spans.is_empty());
        // The exact rung runs CTJ under the profile scope, so per-step
        // cache attribution must show up in the span tree.
        assert!(
            report.spans.iter().any(|n| n.name.starts_with("ctj.step")),
            "expected ctj.step* leaves, got {:?}",
            report.spans.iter().map(|n| n.name.as_str()).collect::<Vec<_>>()
        );
        // The tree says which rung served the click: the exact rung sits
        // under the supervisor, under the expansion.
        let parent_name = |name: &str| {
            let node = report.spans.iter().find(|n| n.name == name)?;
            let parent = report.spans.iter().find(|n| Some(n.id) == node.parent)?;
            Some(parent.name.as_str())
        };
        assert_eq!(parent_name("supervisor.rung.exact"), Some("supervisor.supervise"));
        assert_eq!(parent_name("supervisor.supervise"), Some("explore.expand"));
        // Outside the scope, spans go back to being inert.
        assert_eq!(kgoa_obs::profile::open_depth(), 0);
    }

    #[test]
    fn governed_expansion_renders_a_chart_even_when_exact_is_starved() {
        let ig = ig();
        let mut s = Session::root(&ig);
        // Zero exact slice: the supervisor must degrade, and the session
        // still gets a renderable chart with provenance.
        let config = SupervisorConfig {
            deadline: std::time::Duration::from_millis(50),
            exact_fraction: 0.0,
            ..SupervisorConfig::default()
        };
        let out = s.expand_governed(Expansion::Subclass, &config).unwrap();
        let provenance = out.provenance.as_ref().expect("degraded");
        assert!(provenance.walks > 0);
        assert!(out.error.is_none());
        assert!(!out.chart.is_empty(), "a chart must always render something");
        for bar in &out.chart.bars {
            assert!(bar.count.is_finite() && bar.count >= 0.0);
            assert!(!bar.half_width.is_nan(), "CIs must never be NaN");
        }
        s.select(out.chart.bars[0].category).unwrap();
    }

    #[test]
    fn pinned_session_is_isolated_from_writers() {
        use kgoa_core::{EpochConfig, EpochManager};
        use kgoa_engine::ExecBudget;
        use kgoa_index::UpdateBatch;
        let ig = ig();
        let victim = *ig.graph().triples().first().unwrap();
        let mgr = EpochManager::new(ig, EpochConfig::default());
        let budget = ExecBudget::unlimited();

        let mut s = Session::root_pinned(&mgr);
        assert_eq!(s.epoch(), Some(0));
        let chart = s.expand(Expansion::Subclass, &YannakakisEngine).unwrap();
        assert!(!chart.is_empty());

        // A writer deletes a triple; the pinned session must not see it.
        mgr.append(&UpdateBatch::deleting(vec![victim]), &budget).unwrap();
        assert!(s.graph().contains(victim), "pinned epoch must be immutable");
        assert_eq!(s.epoch(), Some(0));

        // Re-pinning at an interaction boundary observes the new epoch,
        // with the session's focus constraints intact.
        let epoch = s.repin(&mgr);
        assert_eq!(epoch, 1);
        assert!(!s.graph().contains(victim));
        s.select(chart.bars[0].category).unwrap();
        assert!(s.focus_size().is_ok());
    }

    #[test]
    fn subclass_selection_narrows_focus() {
        let ig = ig();
        let mut s = Session::root(&ig);
        let before = s.focus_size().unwrap();
        let chart = s.expand(Expansion::Subclass, &YannakakisEngine).unwrap();
        let top = chart.bars[0].category;
        s.select(top).unwrap();
        let after = s.focus_size().unwrap();
        assert!(after <= before);
        assert_eq!(after as f64, chart.bars[0].count);
    }
}
