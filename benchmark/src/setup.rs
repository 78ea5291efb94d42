//! Shared set-up: the two medium graphs, their indexes, the recorded
//! exploration sessions and the ground truth of every chart. All of it is
//! timed as `setup_s`; the phases are layer metrics of the traced run.

use std::time::Instant;

use crate::adapter::{
    self, Expansion, ExplorationQuery, GroupedCounts, IndexedGraph, KgConfig, Scale, TermId,
};
use crate::stats::{digest, SplitMix};

/// Seed of the session recorder. The recorded sessions are part of the
/// workload definition, like the graphs' own generator seeds: chart costs
/// span two orders of magnitude (exact CTJ 10 ms … 270 ms here), so a
/// chart set drawn per `--seed` would move every metric by more than any
/// bound. `--seed` drives what may vary without changing the difficulty
/// of the work: estimator seeds, replay order, hold-out choice, probe keys.
pub const RECORDER_SEED: u64 = 1;

/// Sessions per graph and clicks per session (the paper's generator does
/// 25 × 4; 8 × 4 keeps one replay pass near ten seconds).
const SESSIONS_PER_GRAPH: usize = 8;
const STEPS_PER_SESSION: usize = 4;

/// How large the graphs are. `Smoke` exists for `--smoke` only.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Medium,
    Smoke,
}

impl Size {
    fn scale(self) -> Scale {
        match self {
            Size::Medium => Scale::Medium,
            Size::Smoke => Scale::Tiny,
        }
    }
}

pub struct NamedGraph {
    pub name: &'static str,
    pub ig: IndexedGraph,
}

/// One unique chart: its query, where it was first met, and its truth.
pub struct ChartCase {
    pub graph: usize,
    pub query: ExplorationQuery,
    pub expansion: Expansion,
    /// Smallest session depth (1-based) the chart was recorded at.
    pub depth: usize,
    /// Exact distinct counts (Yannakakis).
    pub truth: GroupedCounts,
    /// The ten largest bars by exact count, largest first.
    pub top10: Vec<(TermId, u64)>,
}

/// One recorded click: expand, then select `category` of the chart.
pub struct Step {
    pub expansion: Expansion,
    pub chart: usize,
    pub category: TermId,
}

pub struct RecordedSession {
    pub graph: usize,
    pub steps: Vec<Step>,
}

/// Wall time of each set-up phase, seconds.
#[derive(Debug, Default, Clone, Copy)]
pub struct Phases {
    pub generate_s: f64,
    pub build_s: f64,
    pub record_s: f64,
}

pub struct World {
    pub graphs: Vec<NamedGraph>,
    pub triples: usize,
    pub charts: Vec<ChartCase>,
    pub sessions: Vec<RecordedSession>,
    pub phases: Phases,
    /// Wall time of each Yannakakis evaluation during recording, ms.
    pub yannakakis_ms: Vec<f64>,
    /// Resident-set growth across the index builds, bytes.
    pub build_rss_growth: u64,
}

impl World {
    /// Hash of every chart's printed query: two runs with different
    /// digests ran different inputs.
    pub fn workload_digest(&self) -> String {
        let printed: Vec<String> = self.charts.iter().map(|c| c.query.to_string()).collect();
        digest(printed.iter().map(String::as_str))
    }

    pub fn expansions(&self) -> usize {
        self.sessions.iter().map(|s| s.steps.len()).sum()
    }

    pub fn ig(&self, chart: &ChartCase) -> &IndexedGraph {
        &self.graphs[chart.graph].ig
    }
}

pub fn graph_configs(size: Size) -> [(&'static str, KgConfig); 2] {
    [
        ("dbpedia-like", KgConfig::dbpedia_like(size.scale())),
        ("lgd-like", KgConfig::lgd_like(size.scale())),
    ]
}

/// Generate, index, record, and compute truth.
pub fn build_world(size: Size) -> World {
    let mut phases = Phases::default();
    let mut graphs = Vec::new();
    let mut triples = 0;
    let rss_before = crate::report::rss_bytes();
    for (name, config) in graph_configs(size) {
        let t = Instant::now();
        let graph = adapter::generate(&config);
        phases.generate_s += t.elapsed().as_secs_f64();
        triples += graph.len();
        let t = Instant::now();
        let ig = adapter::build_index(graph);
        phases.build_s += t.elapsed().as_secs_f64();
        graphs.push(NamedGraph { name, ig });
    }
    let build_rss_growth = crate::report::rss_bytes().saturating_sub(rss_before);

    let t = Instant::now();
    let mut charts: Vec<ChartCase> = Vec::new();
    let mut sessions = Vec::new();
    let mut yannakakis_ms = Vec::new();
    for (gi, g) in graphs.iter().enumerate() {
        let mut rng = SplitMix::new(RECORDER_SEED, gi as u64);
        for _ in 0..SESSIONS_PER_GRAPH {
            let steps = record_session(gi, &g.ig, &mut rng, &mut charts, &mut yannakakis_ms);
            if !steps.is_empty() {
                sessions.push(RecordedSession { graph: gi, steps });
            }
        }
    }
    phases.record_s = t.elapsed().as_secs_f64();
    World {
        graphs,
        triples,
        charts,
        sessions,
        phases,
        yannakakis_ms,
        build_rss_growth,
    }
}

/// The loop of `explore::generator`, keeping each step's expansion and
/// selected bar so the session can be replayed click for click.
fn record_session(
    graph: usize,
    ig: &IndexedGraph,
    rng: &mut SplitMix,
    charts: &mut Vec<ChartCase>,
    yannakakis_ms: &mut Vec<f64>,
) -> Vec<Step> {
    let mut session = adapter::session_root(ig);
    let mut steps = Vec::new();
    for depth in 1..=STEPS_PER_SESSION {
        let valid = adapter::valid_expansions(&session);
        let expansion = valid[rng.below(valid.len() as u64) as usize];
        let query = adapter::expansion_query(&mut session, expansion);
        let known = charts
            .iter()
            .position(|c| c.graph == graph && c.query == query);
        let chart = match known {
            Some(i) => {
                charts[i].depth = charts[i].depth.min(depth);
                i
            }
            None => {
                let t = Instant::now();
                let truth = adapter::yannakakis(ig, &query);
                yannakakis_ms.push(t.elapsed().as_secs_f64() * 1e3);
                if truth.is_empty() {
                    break; // an empty chart ends the path and is not part of it
                }
                let top10 = truth.sorted_desc().into_iter().take(10).collect();
                charts.push(ChartCase {
                    graph,
                    query,
                    expansion,
                    depth,
                    truth,
                    top10,
                });
                charts.len() - 1
            }
        };
        // Pick a bar weighted by its size, as the paper's generator does.
        let bars = charts[chart].truth.sorted_desc();
        let mut pick = rng.below(charts[chart].truth.total());
        let mut category = bars[0].0;
        for (cat, count) in bars {
            if pick < count {
                category = cat;
                break;
            }
            pick -= count;
        }
        adapter::select(&mut session, category);
        steps.push(Step {
            expansion,
            chart,
            category,
        });
    }
    steps
}
