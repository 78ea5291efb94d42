//! Exploration history: the breadcrumb trail of a session, as shown at
//! the top of the paper's UI (Fig. 2: "Person > influencedBy > Person >
//! outgoing properties").

use kgoa_rdf::TermId;

use crate::session::Expansion;

/// One recorded interaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HistoryStep {
    /// An expansion was applied (a chart was shown).
    Expanded(Expansion),
    /// A bar was clicked.
    Selected {
        /// The chosen category.
        category: TermId,
    },
}

/// A breadcrumb trail of expansions and selections.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct History {
    steps: Vec<HistoryStep>,
}

impl History {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an expansion.
    pub fn expanded(&mut self, exp: Expansion) {
        self.steps.push(HistoryStep::Expanded(exp));
    }

    /// Record a selection.
    pub fn selected(&mut self, category: TermId) {
        self.steps.push(HistoryStep::Selected { category });
    }

    /// The recorded steps.
    pub fn steps(&self) -> &[HistoryStep] {
        &self.steps
    }

    /// Number of *exploration steps* (expansions), the depth measure used
    /// by the paper's evaluation buckets.
    pub fn depth(&self) -> usize {
        self.steps.iter().filter(|s| matches!(s, HistoryStep::Expanded(_))).count()
    }

    /// Drop the trail back to a given number of steps (the UI's "back"
    /// button). A no-op if the history is already shorter.
    pub fn truncate(&mut self, steps: usize) {
        self.steps.truncate(steps);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kgoa_rdf::GraphBuilder;

    #[test]
    fn records_steps() {
        let mut b = GraphBuilder::new();
        let person = b.dict_mut().intern_iri("http://x/Person");
        let bp = b.dict_mut().intern_iri("http://x/birthPlace");
        let mut h = History::new();
        h.expanded(Expansion::Subclass);
        h.selected(person);
        h.expanded(Expansion::OutProperty);
        h.selected(bp);
        assert_eq!(h.depth(), 2);
    }

    #[test]
    fn truncate_acts_as_back_button() {
        let mut h = History::new();
        h.expanded(Expansion::Subclass);
        h.selected(TermId(1));
        h.expanded(Expansion::InProperty);
        h.truncate(2);
        assert_eq!(h.depth(), 1);
        assert_eq!(h.steps().len(), 2);
        h.truncate(10); // no-op
        assert_eq!(h.steps().len(), 2);
    }

    #[test]
    fn empty_history() {
        let h = History::new();
        assert_eq!(h.depth(), 0);
    }
}
