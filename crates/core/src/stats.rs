//! Unified work counters for all evaluation strategies.
//!
//! Each strategy fills the counters that are meaningful for it and leaves
//! the rest at zero, and [`crate::QueryOutput`] carries one [`EvalStats`] no
//! matter which strategy ran — no downstream table has to know which
//! machine it is talking to.

use std::ops::{Add, AddAssign};
use xpeval_obs::{Field, FieldValue, MetricSource};

/// Work counters of one evaluation, uniform across strategies.
///
/// | Field | DP (context-value table) | Naive | Linear Core XPath | Singleton-Success | Parallel |
/// |---|---|---|---|---|---|
/// | `evaluations` | computed table entries | every (re-)evaluation | set-at-a-time expression evaluations | decisions computed | Σ worker decisions |
/// | `cache_hits` | memo-table hits | 0 | 0 | memo-table hits | Σ worker memo hits |
/// | `step_context_evaluations` | `(step, node)` applications | `(step, node occurrence)` applications | step applications (all contexts at once) | `(step, node)` candidate enumerations | Σ worker enumerations |
/// | `max_intermediate_list` | 0 | largest intermediate node list | 0 | 0 | 0 |
/// | `table_entries` | final context-value-table size | 0 | 0 | 0 | 0 |
/// | `work` | nodes and list entries its `sat` sets scanned | 0 | nodes and list entries its set functions scanned | 0 | 0 |
///
/// Every strategy counts its work, so the `EvalStats` in
/// [`crate::QueryOutput`] is never all-zero for a non-trivial query: the
/// paper's polynomial-vs-exponential separations are observable through
/// these counters without wall-clock timing.  The parallel evaluator
/// reports the sum over its worker checkers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of expression-evaluation events.  For the DP evaluator this is
    /// the number of `(subexpression, context)` pairs actually computed
    /// (= total size of all context-value tables); for the naive evaluator
    /// it counts every re-evaluation, with no sharing.
    pub evaluations: u64,
    /// Number of times a previously computed context-value-table entry was
    /// reused (DP evaluator only).
    pub cache_hits: u64,
    /// Number of `(step, context node)` applications of a location step.
    pub step_context_evaluations: u64,
    /// Largest intermediate node-list length observed (naive evaluator only;
    /// this is the quantity that explodes exponentially on the pathological
    /// query families).
    pub max_intermediate_list: usize,
    /// Context-value-table entries held when evaluation finished (DP
    /// evaluator only).
    pub table_entries: usize,
    /// Arena nodes resident in the document the query ran against, when the
    /// storage backend materializes lazily (0 for eager backends).  A gauge,
    /// not a counter: [`EvalStats::merged`] takes the maximum.
    pub nodes_materialized: u64,
    /// Nodes and list entries the set-at-a-time functions scanned: axis
    /// images and pre-images, node-test sets, `sat` comparisons.  Unlike
    /// `step_context_evaluations`, which counts one per step whatever the
    /// step visits, this grows with what a step reads, so a test can tell
    /// an O(|D|) sweep from an O(|L|) tag-list read without a clock.
    /// Bitset-wide operations (union, complement, allocation) are not
    /// counted.
    pub work: u64,
}

impl EvalStats {
    /// Sums the counters of two evaluations (max-type counters take the
    /// maximum); useful when aggregating over a batch.
    pub fn merged(self, other: EvalStats) -> EvalStats {
        EvalStats {
            evaluations: self.evaluations + other.evaluations,
            cache_hits: self.cache_hits + other.cache_hits,
            step_context_evaluations: self.step_context_evaluations
                + other.step_context_evaluations,
            max_intermediate_list: self.max_intermediate_list.max(other.max_intermediate_list),
            table_entries: self.table_entries.max(other.table_entries),
            nodes_materialized: self.nodes_materialized.max(other.nodes_materialized),
            work: self.work + other.work,
        }
    }
}

impl MetricSource for EvalStats {
    fn source_name(&self) -> &'static str {
        "eval"
    }

    fn fields(&self) -> Vec<Field> {
        vec![
            Field::new("evaluations", FieldValue::Counter(self.evaluations)),
            Field::new("cache_hits", FieldValue::Counter(self.cache_hits)),
            Field::new(
                "step_contexts",
                FieldValue::Counter(self.step_context_evaluations),
            ),
            Field::new(
                "max_list",
                FieldValue::Gauge(self.max_intermediate_list as i64),
            ),
            Field::new(
                "table_entries",
                FieldValue::Gauge(self.table_entries as i64),
            ),
            Field::new(
                "nodes_materialized",
                FieldValue::Gauge(self.nodes_materialized as i64),
            ),
            Field::new("work", FieldValue::Counter(self.work)),
        ]
    }
}

impl std::fmt::Display for EvalStats {
    /// One-line summary shared with [`MetricSource::summary_line`], e.g.
    /// `evaluations 41, cache_hits 12, step_contexts 80, max_list 0,
    /// table_entries 41, nodes_materialized 0, work 0`.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary_line())
    }
}

impl Add for EvalStats {
    type Output = EvalStats;
    fn add(self, rhs: EvalStats) -> EvalStats {
        self.merged(rhs)
    }
}

impl AddAssign for EvalStats {
    fn add_assign(&mut self, rhs: EvalStats) {
        *self = self.merged(rhs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_counts_and_maxes_watermarks() {
        let a = EvalStats {
            evaluations: 3,
            cache_hits: 1,
            step_context_evaluations: 10,
            max_intermediate_list: 7,
            table_entries: 4,
            nodes_materialized: 100,
            work: 40,
        };
        let b = EvalStats {
            evaluations: 2,
            cache_hits: 0,
            step_context_evaluations: 5,
            max_intermediate_list: 3,
            table_entries: 9,
            nodes_materialized: 60,
            work: 2,
        };
        let m = a + b;
        assert_eq!(m.evaluations, 5);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.step_context_evaluations, 15);
        assert_eq!(m.max_intermediate_list, 7);
        assert_eq!(m.table_entries, 9);
        assert_eq!(m.nodes_materialized, 100);
        assert_eq!(m.work, 42);
        let mut c = a;
        c += b;
        assert_eq!(c, m);
    }
}
