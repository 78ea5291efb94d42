//! Shared structure-of-arrays scratch state for the batched walk runners.
//!
//! Both [`crate::wander::WanderJoin`] and [`crate::audit::AuditJoin`] advance
//! a batch of walks one plan step at a time. Per-walk state lives in parallel
//! vectors indexed by walk slot so a step pass streams over contiguous
//! memory; each live walk's range for the step is then one index lookup,
//! O(1) at level 0.

use kgoa_index::{LiveRange, TrieIndex};
use kgoa_query::{WalkPlan, WalkStep};
use rand::RngCore;

/// Reusable per-batch walk state. Owned by the aggregator and recycled
/// across batches; `reset` reinitializes for a batch of `n` walks.
#[derive(Debug, Default)]
pub(crate) struct BatchScratch {
    /// Walk slot still advancing (not yet rejected/tipped/completed).
    pub alive: Vec<bool>,
    /// Current step's live range per walk slot.
    pub ranges: Vec<LiveRange>,
    /// Next step's live range per walk slot (Audit Join only, which sizes
    /// it; filled by `resolve_step_ranges`).
    pub next_ranges: Vec<LiveRange>,
    /// Flattened assignments: walk `w` owns `[w * var_count .. (w + 1) * var_count)`.
    pub assignments: Vec<u32>,
    /// Running Horvitz-Thompson weight per walk slot.
    pub weights: Vec<f64>,
    /// RNG words for the current step, one per surviving walk, refilled in
    /// bulk with a single `fill_u64` call.
    pub raw: Vec<u64>,
}

impl BatchScratch {
    /// Prepare for a batch of `n` walks over a plan with `var_count`
    /// variables: all walks alive, unit weights. Ranges and assignments are
    /// only sized — a walk reads a range or a variable after the step that
    /// wrote it, so what an earlier batch left in a slot is never seen.
    pub fn reset(&mut self, n: usize, var_count: usize) {
        self.alive.clear();
        self.alive.resize(n, true);
        self.weights.clear();
        self.weights.resize(n, 1.0);
        self.ranges.resize(n, LiveRange::EMPTY);
        self.assignments.resize(n * var_count, 0);
    }

    /// Sample plan step `si` for every live walk from its current range:
    /// walks whose range is empty die (one sample attempt each), then one
    /// bulk RNG refill draws a word per survivor and the survivors, in
    /// walk order, pick a position, multiply their weight by the fan-out
    /// and bind the step's variables. Returns the number of dead ends.
    pub fn sample_step(
        &mut self,
        plan: &WalkPlan,
        si: usize,
        index: &TrieIndex,
        rng: &mut impl RngCore,
    ) -> u64 {
        let mut dead = 0u64;
        let mut survivors = 0usize;
        for (alive, range) in self.alive.iter_mut().zip(&self.ranges) {
            if *alive && range.is_empty() {
                *alive = false;
                dead += 1;
            } else {
                survivors += usize::from(*alive);
            }
        }
        self.raw.clear();
        self.raw.resize(survivors, 0);
        rng.fill_u64(&mut self.raw);
        let vc = plan.var_count();
        let mut words = self.raw.iter();
        for (w, &alive) in self.alive.iter().enumerate() {
            if alive {
                let range = self.ranges[w];
                let pos = index.pick_live_keyed(range, *words.next().expect("one word each"));
                self.weights[w] *= range.len() as f64;
                plan.extract_at(index, si, pos, &mut self.assignments[w * vc..(w + 1) * vc]);
            }
        }
        dead
    }
}

/// Resolve the live range of `step` for every live walk into
/// `out[walk slot]`.
///
/// `fixed` short-circuits steps whose prefix is all-constant (the range was
/// resolved once at plan time). Otherwise each live walk's inbound binding
/// is read from `assignments` and resolved on its own with
/// `step.access.resolve_live`: level-0 entry is O(1) through the index's
/// rank directory, which measured faster than sorting the batch's probes
/// for a galloping sweep.
pub(crate) fn resolve_step_ranges(
    index: &TrieIndex,
    step: &WalkStep,
    fixed: Option<LiveRange>,
    assignments: &[u32],
    var_count: usize,
    alive: &[bool],
    out: &mut [LiveRange],
) {
    if let Some(r) = fixed {
        for (w, &live) in alive.iter().enumerate() {
            if live {
                out[w] = r;
            }
        }
        return;
    }
    let (in_var, _) = step
        .in_var
        .expect("non-fixed batched step must have an inbound variable");
    let iv = in_var.index();
    for (w, &live) in alive.iter().enumerate() {
        if live {
            let in_value = assignments[w * var_count + iv];
            out[w] = step.access.resolve_live(index, Some(in_value));
        }
    }
}
