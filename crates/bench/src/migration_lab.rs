//! Shared machinery for the migration experiments (Figures 12–15).
//!
//! The paper evaluates the four Minimum Cost Migration selectors (DP, GR, SI,
//! RA) on one overloaded worker: it measures (i) the running time of the cell
//! selection itself, (ii) the size of the migrated data and the time needed
//! to migrate it, and (iii) the impact on tuple latency when the selector is
//! used inside the running system. This module builds the overloaded-worker
//! state those experiments operate on.

use ps2stream::prelude::*;
use ps2stream_balance::{MigrationCell, MigrationSelection, MigrationSelector};
use ps2stream_index::{Gi2Config, Gi2Index, MatchScratch};
use std::time::{Duration, Instant};

/// An "overloaded worker" laboratory: a populated GI² index plus the per-cell
/// load/size statistics the selectors consume.
pub struct MigrationLab {
    /// The populated worker index.
    pub index: Gi2Index,
    /// Per-cell migration candidates (load `L_g`, size `S_g`).
    pub cells: Vec<MigrationCell>,
}

impl MigrationLab {
    /// Builds a lab worker holding `num_queries` STS-US-Q1 queries and having
    /// observed `num_objects` recent objects.
    pub fn build(num_queries: usize, num_objects: usize, seed: u64) -> Self {
        let spec = DatasetSpec::tweets_us();
        let mut corpus = CorpusGenerator::new(spec.clone(), seed);
        let sample = corpus.generate(num_objects.max(1_000));
        let mut generator = QueryGenerator::from_corpus(
            &corpus,
            &sample,
            QueryGeneratorConfig::new(QueryClass::Q1),
            seed.wrapping_add(1),
        );
        let mut index = Gi2Index::new(Gi2Config::new(spec.bounds));
        for q in generator.generate(num_queries) {
            index.insert(q);
        }
        index.match_batch(
            sample.iter().take(num_objects),
            &mut MatchScratch::new(),
            |_, _, _| {},
        );
        let cells = index
            .cell_loads()
            .into_iter()
            .filter(|c| c.queries > 0)
            .map(|c| MigrationCell::new(c.cell, c.load().max(1.0), c.bytes as u64))
            .collect();
        Self { index, cells }
    }

    /// Total load across all candidate cells.
    pub fn total_load(&self) -> f64 {
        self.cells.iter().map(|c| c.load).sum()
    }

    /// Times the selector on this worker for the given load requirement.
    /// Returns the selection and the elapsed wall-clock time.
    pub fn time_selection(
        &self,
        selector: &dyn MigrationSelector,
        tau: f64,
    ) -> (MigrationSelection, Duration) {
        let start = Instant::now();
        let selection = selector.select(&self.cells, tau);
        (selection, start.elapsed())
    }

    /// Executes a migration: extracts the selected cells from a clone of the
    /// worker index and re-indexes them on a fresh target worker, returning
    /// the number of queries moved, the bytes moved and the wall-clock time.
    pub fn execute_migration(&self, selection: &MigrationSelection) -> MigrationOutcome {
        let mut source = self.index.clone();
        let mut target = Gi2Index::new(Gi2Config::new(source.grid().bounds()));
        let start = Instant::now();
        let mut queries_moved = 0usize;
        let mut bytes_moved = 0u64;
        for &cell in &selection.cells {
            for q in source.extract_cell(cell) {
                bytes_moved += q.memory_usage() as u64;
                queries_moved += 1;
                target.insert(q);
            }
        }
        MigrationOutcome {
            queries_moved,
            bytes_moved,
            elapsed: start.elapsed(),
        }
    }
}

/// Result of executing one migration.
#[derive(Debug, Clone, Copy)]
pub struct MigrationOutcome {
    /// Number of STS queries moved to the target worker.
    pub queries_moved: usize,
    /// Total bytes of query state moved.
    pub bytes_moved: u64,
    /// Wall-clock time of the extract + re-index.
    pub elapsed: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;
    use ps2stream_balance::GreedySelector;

    #[test]
    fn lab_builds_and_migrates() {
        let lab = MigrationLab::build(500, 1_000, 3);
        assert!(!lab.cells.is_empty());
        assert!(lab.total_load() > 0.0);
        let tau = lab.total_load() * 0.3;
        let (selection, elapsed) = lab.time_selection(&GreedySelector, tau);
        assert!(selection.satisfies(tau));
        assert!(elapsed.as_nanos() > 0);
        let outcome = lab.execute_migration(&selection);
        assert!(outcome.queries_moved > 0);
        assert!(outcome.bytes_moved > 0);
    }
}
