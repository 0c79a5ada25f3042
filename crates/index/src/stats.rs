//! Shared query-result and accounting types for all index structures.

use std::cmp::Ordering;
use std::fmt;

/// Work counters for one query, the basis of every speedup figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryStats {
    /// Tuples whose attributes were read and scored.
    pub tuples_examined: u64,
    /// Index nodes / layers visited.
    pub nodes_visited: u64,
    /// Pairwise comparisons (sorting / heap operations).
    pub comparisons: u64,
}

impl QueryStats {
    /// Zeroed counters.
    pub fn new() -> Self {
        QueryStats::default()
    }

    /// Speedup in tuples examined relative to `baseline` (`baseline/self`).
    /// `None` when this query examined nothing.
    pub fn speedup_vs(&self, baseline: &QueryStats) -> Option<f64> {
        if self.tuples_examined == 0 {
            return None;
        }
        Some(baseline.tuples_examined as f64 / self.tuples_examined as f64)
    }
}

impl fmt::Display for QueryStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} tuples, {} nodes, {} comparisons",
            self.tuples_examined, self.nodes_visited, self.comparisons
        )
    }
}

/// One scored item in a top-K result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScoredItem {
    /// Index of the tuple in the indexed collection.
    pub index: usize,
    /// Model score of the tuple.
    pub score: f64,
}

/// A top-K answer plus the work that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct TopKResult {
    /// Results in descending score order (ties broken by ascending index).
    pub results: Vec<ScoredItem>,
    /// Work counters.
    pub stats: QueryStats,
}

impl TopKResult {
    /// The result indexes in rank order.
    #[cfg(test)]
    pub(crate) fn indexes(&self) -> Vec<usize> {
        self.results.iter().map(|r| r.index).collect()
    }

    /// Whether two results agree on the returned *scores* (rank-equivalent:
    /// permutations within score ties are allowed).
    pub fn score_equivalent(&self, other: &TopKResult, tolerance: f64) -> bool {
        self.results.len() == other.results.len()
            && self
                .results
                .iter()
                .zip(&other.results)
                .all(|(a, b)| (a.score - b.score).abs() <= tolerance)
    }
}

/// The canonical total order on scored items: descending score
/// (`total_cmp`), ties broken by ascending index. `Ordering::Less` means
/// `a` ranks *better* than `b`. Every top-K structure — result sorting,
/// the heap's eviction order, and offer-time comparisons — must route
/// through this one function so the order can never drift apart again
/// (the PR-2 tie-eviction bug was exactly such a divergence).
#[inline]
pub fn rank_cmp(a: &ScoredItem, b: &ScoredItem) -> Ordering {
    b.score.total_cmp(&a.score).then(a.index.cmp(&b.index))
}

/// Canonical ordering for scored items: descending score, ascending index.
pub fn sort_desc(items: &mut [ScoredItem]) {
    items.sort_by(rank_cmp);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_math() {
        let scan = QueryStats {
            tuples_examined: 1_000_000,
            ..QueryStats::new()
        };
        let onion = QueryStats {
            tuples_examined: 77,
            ..QueryStats::new()
        };
        let s = onion.speedup_vs(&scan).unwrap();
        assert!((s - 1_000_000.0 / 77.0).abs() < 1e-9);
        assert!(QueryStats::new().speedup_vs(&scan).is_none());
    }

    #[test]
    fn sort_is_stable_total_order() {
        let mut items = vec![
            ScoredItem {
                index: 5,
                score: 1.0,
            },
            ScoredItem {
                index: 2,
                score: 3.0,
            },
            ScoredItem {
                index: 1,
                score: 1.0,
            },
            ScoredItem {
                index: 9,
                score: f64::NEG_INFINITY,
            },
        ];
        sort_desc(&mut items);
        assert_eq!(
            items.iter().map(|i| i.index).collect::<Vec<_>>(),
            vec![2, 1, 5, 9]
        );
    }

    #[test]
    fn score_equivalence_tolerates_tie_permutations() {
        let a = TopKResult {
            results: vec![
                ScoredItem {
                    index: 0,
                    score: 2.0,
                },
                ScoredItem {
                    index: 1,
                    score: 1.0,
                },
            ],
            stats: QueryStats::new(),
        };
        let b = TopKResult {
            results: vec![
                ScoredItem {
                    index: 7,
                    score: 2.0,
                },
                ScoredItem {
                    index: 8,
                    score: 1.0,
                },
            ],
            stats: QueryStats::new(),
        };
        assert!(a.score_equivalent(&b, 1e-12));
        let c = TopKResult {
            results: vec![ScoredItem {
                index: 7,
                score: 2.0,
            }],
            stats: QueryStats::new(),
        };
        assert!(!a.score_equivalent(&c, 1e-12));
    }
}
