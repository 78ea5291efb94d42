//! End-to-end pipeline tests: dataset generation → N-Triples round trip →
//! indexing → exploration → query generation → online aggregation →
//! benchmark reports, exercised through the public facade crate.

use std::time::Duration;

use kgoa::explore::generate_explorations;
use kgoa::online::run_timed;
use kgoa::prelude::*;
use kgoa::rdf::ntriples::{read_ntriples_str, write_ntriples};

fn small_ig() -> IndexedGraph {
    IndexedGraph::build(kgoa::datagen::generate(&KgConfig::dbpedia_like(Scale::Tiny)))
}

#[test]
fn ntriples_round_trip_of_generated_graph() {
    let graph = kgoa::datagen::generate(&KgConfig::lgd_like(Scale::Tiny));
    let mut text = Vec::new();
    write_ntriples(&mut text, &graph).expect("serialize");
    let text = String::from_utf8(text).expect("utf8");
    let mut builder = GraphBuilder::new();
    let n = read_ntriples_str(&text, &mut builder).expect("parse back");
    assert_eq!(n, graph.len());
    let reparsed = builder.build();
    assert_eq!(reparsed.len(), graph.len());
    // Same triple multiset under the (new) dictionary: spot-check a few
    // round-tripped triples by lexical form.
    for t in graph.triples().iter().take(20) {
        let s = graph.dict().term(t.s).unwrap();
        let p = graph.dict().term(t.p).unwrap();
        let o = graph.dict().term(t.o).unwrap();
        let s2 = reparsed.dict().lookup_iri(s.lexical).expect("subject survives");
        let p2 = reparsed.dict().lookup_iri(p.lexical).expect("predicate survives");
        let o2 = match o.kind {
            kgoa::rdf::TermKind::Iri => reparsed.dict().lookup_iri(o.lexical),
            kgoa::rdf::TermKind::Literal => reparsed.dict().lookup_literal(o.lexical),
        }
        .expect("object survives");
        assert!(reparsed.contains(Triple::new(s2, p2, o2)));
    }
}

#[test]
fn exploration_chart_counts_match_online_estimates() {
    let ig = small_ig();
    let mut session = Session::root(&ig);
    let chart = session.expand(Expansion::Subclass, &CtjEngine).expect("chart");
    assert!(!chart.is_empty());

    // Estimate the same chart online and compare the biggest bars.
    let query = {
        let mut s = Session::root(&ig);
        s.expansion_query(Expansion::Subclass).expect("query")
    };
    let mut aj = AuditJoin::new(&ig, &query, AuditJoinConfig::default()).expect("aj");
    run_walks(&mut aj, 30_000);
    let est = aj.estimates();
    for bar in chart.bars.iter().take(3) {
        let e = est.get(bar.category);
        let rel = (e - bar.count).abs() / bar.count;
        assert!(rel < 0.1, "bar {:?}: exact {} vs est {e}", bar.category, bar.count);
    }
}

#[test]
fn generated_workload_is_answerable_by_all_engines() {
    let ig = small_ig();
    let queries = generate_explorations(
        &ig,
        &YannakakisEngine,
        kgoa::explore::GeneratorConfig { runs: 4, max_steps: 3, seed: 1 },
    )
    .expect("generator");
    assert!(!queries.is_empty());
    for g in &queries {
        let a = CtjEngine.evaluate(&ig, &g.query).expect("ctj");
        let b = LftjEngine.evaluate(&ig, &g.query).expect("lftj");
        let c = YannakakisEngine.evaluate(&ig, &g.query).expect("yannakakis");
        assert_eq!(a, b, "on {}", g.query);
        assert_eq!(a, c, "on {}", g.query);
    }
}

#[test]
fn timed_runs_do_not_regress_error() {
    // Over longer runs the AJ estimate of a fixed query must not drift
    // away: compare MAE after a short and a 4x longer run.
    let ig = small_ig();
    let mut s = Session::root(&ig);
    let query = s.expansion_query(Expansion::OutProperty).expect("query");
    let exact = YannakakisEngine.evaluate(&ig, &query).expect("exact");
    let mut aj = AuditJoin::new(&ig, &query, AuditJoinConfig::default()).expect("aj");
    let snaps = run_timed(&mut aj, 4, Duration::from_millis(60));
    let early = kgoa::engine::mean_absolute_error(&exact, &snaps[0].estimates);
    let late = kgoa::engine::mean_absolute_error(&exact, &snaps[3].estimates);
    assert!(
        late <= early * 1.5 + 0.01,
        "error should not grow: early {early} late {late}"
    );
}

#[test]
fn bench_reports_render_at_tiny_scale() {
    use kgoa_bench::{fig9_10, load_datasets, prepare_workload, table1, BenchConfig};
    let cfg = BenchConfig {
        scale: Scale::Tiny,
        ticks: 2,
        tick: Duration::from_millis(10),
        runs: 2,
        max_steps: 2,
        ..BenchConfig::default()
    };
    let datasets = load_datasets(cfg.scale);
    let workload = prepare_workload(&datasets, &cfg);
    assert!(table1(&datasets).contains("Triples"));
    let r = fig9_10(&datasets, &workload, &cfg, true);
    assert!(r.contains("med"));
}

#[test]
fn real_world_style_nt_ingestion() {
    // A hand-written N-Triples snippet with a class hierarchy, literals
    // and a language tag — the shapes found in real DBpedia dumps.
    let nt = r#"
<http://ex.org/Alice> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/Philosopher> .
<http://ex.org/Bob> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex.org/Person> .
<http://ex.org/Philosopher> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://ex.org/Person> .
<http://ex.org/Person> <http://www.w3.org/2000/01/rdf-schema#subClassOf> <http://www.w3.org/2002/07/owl#Thing> .
<http://ex.org/Alice> <http://ex.org/influencedBy> <http://ex.org/Bob> .
<http://ex.org/Alice> <http://ex.org/name> "Alice"@en .
"#;
    let mut b = GraphBuilder::new();
    read_ntriples_str(nt, &mut b).expect("parse");
    b.materialize_subclass_closure();
    let ig = IndexedGraph::build(b.build());

    // Explore: Person instances (via closure) must include Alice.
    let person = ig.dict().lookup_iri("http://ex.org/Person").unwrap();
    let session = kgoa::explore::Session::at_class(&ig, person);
    assert_eq!(session.focus_size().unwrap(), 2, "Alice (via subclass) + Bob");

    let mut session = kgoa::explore::Session::at_class(&ig, person);
    let chart = session.expand(Expansion::OutProperty, &CtjEngine).expect("chart");
    let influenced = ig.dict().lookup_iri("http://ex.org/influencedBy").unwrap();
    assert_eq!(chart.bar(influenced).map(|b| b.count), Some(1.0));
}
