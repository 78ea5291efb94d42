//! Evaluation metrics: selectivity (§V-B) and Tukey box-plot statistics
//! (Figs. 9–10).

use kgoa_engine::{CtjEngine, CountEngine, EngineError};
use kgoa_index::IndexedGraph;
use kgoa_query::ExplorationQuery;

/// Five-number summary used for the paper's Tukey plots: the interquartile
/// box, the median, and whiskers at the most extreme values within 1.5×IQR.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tukey {
    /// Lower whisker.
    pub lo: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Upper whisker.
    pub hi: f64,
}

/// Compute Tukey statistics. NaN values are filtered out (they have no
/// order and would silently corrupt the sort); returns `None` for an
/// empty or all-NaN sample.
pub(crate) fn tukey(values: &[f64]) -> Option<Tukey> {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return None;
    }
    v.sort_by(f64::total_cmp);
    let q = |p: f64| -> f64 {
        // Linear interpolation between closest ranks (type-7 quantile).
        let h = p * (v.len() as f64 - 1.0);
        let lo = h.floor() as usize;
        let hi = h.ceil() as usize;
        v[lo] + (h - lo as f64) * (v[hi] - v[lo])
    };
    let (q1, median, q3) = (q(0.25), q(0.5), q(0.75));
    let iqr = q3 - q1;
    let lo_fence = q1 - 1.5 * iqr;
    let hi_fence = q3 + 1.5 * iqr;
    let lo = v.iter().copied().find(|x| *x >= lo_fence).unwrap_or(v[0]);
    let hi = v
        .iter()
        .rev()
        .copied()
        .find(|x| *x <= hi_fence)
        .unwrap_or(v[v.len() - 1]);
    Some(Tukey { lo, q1, median, q3, hi })
}

/// Query selectivity per the paper's definition (§V-B):
/// `1 − (join size including filters) / (join size without filters)`,
/// computed per group (each group's filter pins α) and averaged.
pub(crate) fn selectivity(ig: &IndexedGraph, query: &ExplorationQuery) -> Result<f64, EngineError> {
    let unfiltered = query.strip_filters().with_distinct(false);
    let total = kgoa_engine::ctj_count(ig, &unfiltered)? as f64;
    if total == 0.0 {
        return Ok(0.0);
    }
    let per_group = CtjEngine.evaluate(ig, &query.with_distinct(false))?;
    if per_group.is_empty() {
        return Ok(1.0);
    }
    let mut acc = 0.0;
    for (_, c) in per_group.iter() {
        acc += 1.0 - (c as f64 / total).min(1.0);
    }
    Ok(acc / per_group.len() as f64)
}

/// Format a duration in a compact human unit.
pub(crate) fn fmt_duration(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 60.0 {
        format!("{:.1}min", s / 60.0)
    } else if s >= 1.0 {
        format!("{s:.2}s")
    } else if s >= 1e-3 {
        format!("{:.1}ms", s * 1e3)
    } else {
        format!("{:.1}µs", s * 1e6)
    }
}

/// Format a fraction as a percentage.
pub(crate) fn fmt_pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tukey_of_known_sample() {
        let vals = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let t = tukey(&vals).unwrap();
        assert_eq!(t.median, 3.0);
        assert_eq!(t.q1, 2.0);
        assert_eq!(t.q3, 4.0);
        assert_eq!(t.lo, 1.0);
        assert_eq!(t.hi, 5.0);
    }

    #[test]
    fn tukey_whiskers_exclude_outliers() {
        let vals = vec![1.0, 2.0, 2.5, 3.0, 100.0];
        let t = tukey(&vals).unwrap();
        assert!(t.hi < 100.0, "outlier must be outside the whisker: {t:?}");
    }

    #[test]
    fn tukey_empty_is_none() {
        assert!(tukey(&[]).is_none());
    }

    #[test]
    fn tukey_singleton() {
        let t = tukey(&[7.0]).unwrap();
        assert_eq!(t.median, 7.0);
        assert_eq!(t.lo, 7.0);
        assert_eq!(t.hi, 7.0);
    }

    #[test]
    fn tukey_all_equal_collapses() {
        let t = tukey(&[4.0; 8]).unwrap();
        assert_eq!(t, Tukey { lo: 4.0, q1: 4.0, median: 4.0, q3: 4.0, hi: 4.0 });
    }

    #[test]
    fn tukey_filters_nan() {
        // NaNs must not poison the sort order or the quantiles: the result
        // equals the NaN-free computation.
        let with_nan = [f64::NAN, 1.0, f64::NAN, 2.0, 3.0, 4.0, 5.0, f64::NAN];
        let t = tukey(&with_nan).unwrap();
        let clean = tukey(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(t, clean);
        assert!(!t.median.is_nan() && !t.lo.is_nan() && !t.hi.is_nan());
    }

    #[test]
    fn tukey_all_nan_is_none() {
        assert!(tukey(&[f64::NAN, f64::NAN]).is_none());
    }

    #[test]
    fn tukey_handles_infinities() {
        // total_cmp orders ±inf correctly; they are legitimate values.
        let t = tukey(&[f64::NEG_INFINITY, 1.0, 2.0, 3.0, f64::INFINITY]).unwrap();
        assert_eq!(t.median, 2.0);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_pct(0.123), "12.3%");
        assert!(fmt_duration(std::time::Duration::from_micros(3)).contains("µs"));
        assert!(fmt_duration(std::time::Duration::from_millis(3)).contains("ms"));
        assert!(fmt_duration(std::time::Duration::from_secs(3)).contains('s'));
        assert!(fmt_duration(std::time::Duration::from_secs(120)).contains("min"));
    }

    #[test]
    fn selectivity_of_filtered_query() {
        use kgoa_query::{TriplePattern, Var};
        use kgoa_rdf::{GraphBuilder, Triple};
        // 4 p-edges, 1 q-edge: unfiltered 2-step join over variable
        // predicates is larger than the filtered one.
        let mut b = GraphBuilder::new();
        let p = b.dict_mut().intern_iri("u:p");
        let q = b.dict_mut().intern_iri("u:q");
        let a = b.dict_mut().intern_iri("u:a");
        let x = b.dict_mut().intern_iri("u:x");
        let y = b.dict_mut().intern_iri("u:y");
        let c = b.dict_mut().intern_iri("u:c");
        for t in [
            Triple::new(a, p, x),
            Triple::new(a, p, y),
            Triple::new(x, q, c),
            Triple::new(y, q, c),
        ] {
            b.add(t);
        }
        let ig = IndexedGraph::build(b.build());
        let query = ExplorationQuery::new(
            vec![
                TriplePattern::new(Var(0), p, Var(1)),
                TriplePattern::new(Var(1), q, Var(2)),
            ],
            Var(2),
            Var(1),
            true,
        )
        .unwrap();
        let sel = selectivity(&ig, &query).unwrap();
        assert!((0.0..=1.0).contains(&sel));
        // Filtered join = 2 paths; unfiltered (?0 ?p1 ?1)(?1 ?p2 ?2): paths
        // a->x->c, a->y->c only as well... plus none others ⇒ selectivity 0.
        // Group c has count 2, total 2 ⇒ sel = 0.
        assert!(sel.abs() < 1e-12, "sel = {sel}");
    }
}
