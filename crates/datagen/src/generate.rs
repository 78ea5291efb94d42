//! The knowledge-graph generator.

use kgoa_rdf::{root_orphan_classes, Graph, GraphBuilder, TermId, Triple};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::KgConfig;
use crate::zipf::Zipf;

/// Summary of a generated graph, for Table-I-style reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DatasetInfo {
    /// Dataset name from the config.
    pub name: String,
    /// Total triples (including type, subclass and closure triples).
    pub triples: usize,
    /// Number of classes (including the root).
    pub classes: usize,
    /// Number of relation properties (excluding vocabulary predicates).
    pub properties: usize,
    /// Approximate serialized size in bytes (N-Triples).
    pub approx_bytes: usize,
}

/// Generate a graph from a configuration. Deterministic in the config.
pub fn generate(config: &KgConfig) -> Graph {
    generate_with_info(config).0
}

/// Generate a graph and its [`DatasetInfo`].
pub fn generate_with_info(config: &KgConfig) -> (Graph, DatasetInfo) {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let mut b = GraphBuilder::new();
    let vocab = b.vocab();

    // --- Classes: a tree of the requested depth under owl:Thing. ---
    // Class i picks a parent among earlier classes, biased toward recent
    // (deep) ones when hierarchy_depth is large and toward the root when
    // small.
    let classes: Vec<TermId> = (0..config.num_classes)
        .map(|i| b.dict_mut().intern_iri(format!("http://kgoa.dev/class/C{i}")))
        .collect();
    let mut depth_of = vec![0usize; config.num_classes];
    for i in 0..config.num_classes {
        let parent = if i == 0 {
            vocab.owl_thing
        } else {
            // Candidate parent: the root itself or any earlier class;
            // retry until the depth budget allows it. Sampling the root as
            // candidate 0 keeps shallow hierarchies (LGD-like) broad at
            // the top instead of funnelling everything under one class.
            let mut tries = 0;
            loop {
                let j = rng.gen_range(0..=i); // i ⇒ the root
                let new_depth = if j == i { 0 } else { depth_of[j] + 1 };
                if new_depth < config.hierarchy_depth || tries > 8 {
                    depth_of[i] = new_depth.min(config.hierarchy_depth);
                    break if j == i { vocab.owl_thing } else { classes[j] };
                }
                tries += 1;
            }
        };
        b.add(Triple::new(classes[i], vocab.subclass_of, parent));
    }

    // --- Properties with Zipf popularity and a domain/range class. ---
    let properties: Vec<TermId> = (0..config.num_properties)
        .map(|i| b.dict_mut().intern_iri(format!("http://kgoa.dev/prop/p{i}")))
        .collect();
    let class_zipf = Zipf::new(config.num_classes, config.zipf_exponent);
    let prop_domain: Vec<usize> =
        (0..config.num_properties).map(|_| class_zipf.sample(&mut rng)).collect();
    let prop_range: Vec<usize> =
        (0..config.num_properties).map(|_| class_zipf.sample(&mut rng)).collect();

    // --- Entities: primary class buckets + explicit types. ---
    let entities: Vec<TermId> = (0..config.num_entities)
        .map(|i| b.dict_mut().intern_iri(format!("http://kgoa.dev/entity/e{i}")))
        .collect();
    let mut class_bucket: Vec<Vec<u32>> = vec![Vec::new(); config.num_classes];
    let (tmin, tmax) = config.types_per_entity;
    for (ei, e) in entities.iter().enumerate() {
        let primary = class_zipf.sample(&mut rng);
        class_bucket[primary].push(ei as u32);
        b.add(Triple::new(*e, vocab.rdf_type, classes[primary]));
        let extra = rng.gen_range(tmin..=tmax).saturating_sub(1);
        for _ in 0..extra {
            let c = class_zipf.sample(&mut rng);
            b.add(Triple::new(*e, vocab.rdf_type, classes[c]));
        }
    }

    // --- Relation edges. ---
    let prop_zipf = Zipf::new(config.num_properties, config.zipf_exponent);
    let entity_zipf = Zipf::new(config.num_entities, config.zipf_exponent * 0.7);
    let total_edges = (config.num_entities as f64 * config.avg_edges_per_entity) as usize;
    // A modest pool of shared literal values (tags, units, years) plus
    // unique literals (names, coordinates).
    let shared_literals: Vec<TermId> = (0..256)
        .map(|i| b.dict_mut().intern_literal(format!("lit-{i}")))
        .collect();
    let mut unique_literal = 0u64;
    for _ in 0..total_edges {
        let p = prop_zipf.sample(&mut rng);
        // Subject: conforming (from the property's domain bucket) or noise.
        let s = if rng.gen_bool(config.domain_conformance)
            && !class_bucket[prop_domain[p]].is_empty()
        {
            let bucket = &class_bucket[prop_domain[p]];
            entities[bucket[rng.gen_range(0..bucket.len())] as usize]
        } else {
            entities[entity_zipf.sample(&mut rng)]
        };
        // Object: literal or entity (conforming to the range or noise).
        let o = if rng.gen_bool(config.literal_ratio) {
            if rng.gen_bool(0.5) {
                shared_literals[rng.gen_range(0..shared_literals.len())]
            } else if rng.gen_bool(0.5) {
                // Numeric literals (populations, coordinates, years), as
                // real graphs have; the term ids depend on these draws.
                let v: u32 = rng.gen_range(1..1_000_000);
                b.dict_mut().intern_literal(format!("{v}"))
            } else {
                unique_literal += 1;
                b.dict_mut().intern_literal(format!("val-{unique_literal}"))
            }
        } else if rng.gen_bool(config.domain_conformance)
            && !class_bucket[prop_range[p]].is_empty()
        {
            let bucket = &class_bucket[prop_range[p]];
            entities[bucket[rng.gen_range(0..bucket.len())] as usize]
        } else {
            entities[entity_zipf.sample(&mut rng)]
        };
        b.add(Triple::new(s, properties[p], o));
    }

    // Root orphan classes (per the paper's LGD treatment) and materialize
    // the closure (§IV-A).
    root_orphan_classes(&mut b);
    b.materialize_subclass_closure();
    let graph = b.build();
    let info = DatasetInfo {
        name: config.name.clone(),
        triples: graph.len(),
        classes: config.num_classes + 1,
        properties: config.num_properties,
        approx_bytes: graph.len() * 120,
    };
    (graph, info)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Scale;
    use kgoa_index::IndexedGraph;

    #[test]
    fn generation_is_deterministic() {
        let cfg = KgConfig::dbpedia_like(Scale::Tiny);
        let g1 = generate(&cfg);
        let g2 = generate(&cfg);
        assert_eq!(g1.len(), g2.len());
        assert_eq!(g1.triples(), g2.triples());
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = KgConfig::dbpedia_like(Scale::Tiny);
        let g1 = generate(&cfg);
        cfg.seed += 1;
        let g2 = generate(&cfg);
        assert_ne!(g1.triples(), g2.triples());
    }

    #[test]
    fn every_entity_has_a_type() {
        let cfg = KgConfig::dbpedia_like(Scale::Tiny);
        let g = generate(&cfg);
        let vocab = g.vocab();
        let typed: std::collections::HashSet<_> = g
            .triples()
            .iter()
            .filter(|t| t.p == vocab.rdf_type)
            .map(|t| t.s)
            .collect();
        for i in 0..cfg.num_entities {
            let e = g.dict().lookup_iri(&format!("http://kgoa.dev/entity/e{i}")).unwrap();
            assert!(typed.contains(&e), "entity e{i} untyped");
        }
    }

    #[test]
    fn closure_is_materialized_and_rooted() {
        let cfg = KgConfig::lgd_like(Scale::Tiny);
        let g = generate(&cfg);
        let vocab = g.vocab();
        // Every class reaches owl:Thing through the closure.
        let c0 = g.dict().lookup_iri("http://kgoa.dev/class/C0").unwrap();
        assert!(g.contains(Triple::new(c0, vocab.subclass_of_trans, vocab.owl_thing)));
        // Reflexive pairs exist.
        assert!(g.contains(Triple::new(c0, vocab.subclass_of_trans, c0)));
    }

    #[test]
    fn info_matches_graph() {
        let cfg = KgConfig::dbpedia_like(Scale::Tiny);
        let (g, info) = generate_with_info(&cfg);
        assert_eq!(info.triples, g.len());
        assert!(info.triples > 5_000, "tiny graph still non-trivial: {}", info.triples);
        assert_eq!(info.classes, cfg.num_classes + 1);
    }

    #[test]
    fn indexes_build_over_generated_graph() {
        let cfg = KgConfig::lgd_like(Scale::Tiny);
        let g = generate(&cfg);
        let ig = IndexedGraph::build(g);
        assert!(ig.stats().triples > 0);
        assert!(ig.stats().predicate_count() > cfg.num_properties / 2);
    }

    #[test]
    fn hierarchy_depth_is_respected() {
        let cfg = KgConfig::dbpedia_like(Scale::Tiny);
        let g = generate(&cfg);
        let vocab = g.vocab();
        // Follow parents from every class; depth must not exceed config+1.
        let mut parent = std::collections::HashMap::new();
        for t in g.triples() {
            if t.p == vocab.subclass_of {
                parent.insert(t.s, t.o);
            }
        }
        for (&c, _) in parent.iter() {
            let mut depth = 0;
            let mut cur = c;
            while let Some(&p) = parent.get(&cur) {
                cur = p;
                depth += 1;
                assert!(depth <= cfg.hierarchy_depth + 2, "hierarchy too deep");
            }
        }
    }
}
