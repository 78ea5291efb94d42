//! Property tests of the exploration session over seeded random
//! interaction scripts: every expansion query validates, chart counts
//! agree with the post-selection focus, and the Fig. 3 transition system
//! is respected.
//!
//! Each test is a deterministic fuzz loop: script `i` derives from
//! `SmallRng::seed_from_u64(BASE + i)`, so a failure report's case number
//! reproduces exactly.

use kgoa::prelude::*;
use kgoa_explore::ChartKind;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 10;

fn ig() -> IndexedGraph {
    IndexedGraph::build(kgoa::datagen::generate(&KgConfig::dbpedia_like(Scale::Tiny)))
}

/// An interaction: which valid expansion to take (modulo the number of
/// valid ones) and which bar to click (modulo chart size).
type Script = Vec<(u8, u8)>;

fn script(rng: &mut SmallRng) -> Script {
    let n = rng.gen_range(1usize..6);
    (0..n).map(|_| (rng.gen_range(0u8..8), rng.gen_range(0u8..8))).collect()
}

#[test]
fn arbitrary_interactions_keep_invariants() {
    let ig = ig();
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5E55_0000 + case);
        let mut session = Session::root(&ig);
        for (exp_pick, bar_pick) in script(&mut rng) {
            let valid = session.valid_expansions().to_vec();
            assert!(!valid.is_empty(), "case {case}");
            let exp = valid[exp_pick as usize % valid.len()];
            // The query must validate and be evaluable.
            let chart = session.expand(exp, &CtjEngine).expect("expansion evaluates");
            assert_eq!(chart.kind, exp.produces(), "case {case}");
            if chart.is_empty() {
                break; // dead end, like the generator
            }
            // Bars are sorted descending.
            for w in chart.bars.windows(2) {
                assert!(w[0].count >= w[1].count, "case {case}");
            }
            let bar = &chart.bars[bar_pick as usize % chart.len()];
            let clicked_count = bar.count;
            let clicked_kind = chart.kind;
            session.select(bar.category).expect("selection folds");
            let focus = session.focus_size().expect("focus size") as f64;
            match (clicked_kind, exp) {
                // Class bars from subclass expansions and property bars
                // count exactly the focus members.
                (ChartKind::Class, Expansion::Subclass)
                | (ChartKind::OutProperty, _)
                | (ChartKind::InProperty, _) => {
                    assert!(
                        (focus - clicked_count).abs() < 0.5,
                        "case {case}: focus {focus} vs bar {clicked_count}"
                    );
                }
                // Object/subject charts group by *explicit* type but
                // selection applies the subclass closure (§IV-A remark), so
                // the focus can only be at least the bar.
                (ChartKind::Class, _) => {
                    assert!(
                        focus + 0.5 >= clicked_count,
                        "case {case}: closure focus {focus} smaller than bar {clicked_count}"
                    );
                }
            }
        }
    }
}
