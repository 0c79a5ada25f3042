//! SPROC: Sequential Processing of Fuzzy Cartesian Queries (paper §3.2,
//! references \[15\] and \[16\]).
//!
//! A composite (Cartesian) query assembles one object per component: with
//! `M` components over a database of `L` objects there are `L^M` candidate
//! assemblies. Each component `m` assigns every object a fuzzy score
//! `s_m(l)`, and chain-adjacent components may carry a pairwise
//! compatibility score `c_m(l_prev, l)` (spatial adjacency, ordering, ...).
//! The assembly score is `Σ_m s_m(o_m) + Σ_m c_m(o_{m-1}, o_m)`.
//!
//! Three evaluation strategies, matching the complexities the paper quotes:
//!
//! * [`SprocIndex::brute_force`] — enumerate `O(L^M)`.
//! * [`SprocIndex::top_k_dp`] — SPROC dynamic programming `O(M K L^2)`
//!   (reference \[15\]).
//! * [`SprocIndex::top_k_independent`] — for queries with no pairwise term:
//!   sort the component lists and walk a frontier heap, the
//!   `O(M L log L + ...)` improvement of reference \[16\].

use crate::stats::QueryStats;
use mbir_models::error::ModelError;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// A scored assembly: one chosen object index per component.
#[derive(Debug, Clone, PartialEq)]
pub struct Assembly {
    /// Chosen object per component.
    pub choice: Vec<usize>,
    /// Total fuzzy score.
    pub score: f64,
}

/// A composite-query answer.
#[derive(Debug, Clone, PartialEq)]
pub struct CompositeResult {
    /// Best assemblies, descending score.
    pub assemblies: Vec<Assembly>,
    /// Work counters (`tuples_examined` counts score-table reads).
    pub stats: QueryStats,
}

impl CompositeResult {
    /// Whether two results carry the same scores (tie permutations allowed).
    pub fn score_equivalent(&self, other: &CompositeResult, tolerance: f64) -> bool {
        self.assemblies.len() == other.assemblies.len()
            && self
                .assemblies
                .iter()
                .zip(&other.assemblies)
                .all(|(a, b)| (a.score - b.score).abs() <= tolerance)
    }
}

/// Pairwise compatibility between chain-adjacent component choices:
/// `compat(m, l_prev, l_cur)` scores placing `l_prev` at component `m-1`
/// next to `l_cur` at component `m`.
pub type Compat<'a> = &'a dyn Fn(usize, usize, usize) -> f64;

/// The SPROC evaluator over per-component fuzzy score lists.
///
/// # Examples
///
/// ```
/// use mbir_index::sproc::SprocIndex;
///
/// // Two components over three objects.
/// let index = SprocIndex::new(vec![
///     vec![0.9, 0.1, 0.5],
///     vec![0.2, 0.8, 0.3],
/// ]).unwrap();
/// let top = index.top_k_independent(1).unwrap();
/// assert_eq!(top.assemblies[0].choice, vec![0, 1]);
/// assert!((top.assemblies[0].score - 1.7).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct SprocIndex {
    /// `scores[m][l]` — fuzzy degree of object `l` for component `m`.
    scores: Vec<Vec<f64>>,
}

impl SprocIndex {
    /// Creates an evaluator.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Empty`] with no components / objects and
    /// [`ModelError::ArityMismatch`] for ragged score lists.
    pub fn new(scores: Vec<Vec<f64>>) -> Result<Self, ModelError> {
        let first = scores.first().ok_or(ModelError::Empty)?;
        let l = first.len();
        if l == 0 {
            return Err(ModelError::Empty);
        }
        for s in &scores {
            if s.len() != l {
                return Err(ModelError::ArityMismatch {
                    expected: l,
                    actual: s.len(),
                });
            }
        }
        Ok(SprocIndex { scores })
    }

    /// Number of components `M`.
    pub fn components(&self) -> usize {
        self.scores.len()
    }

    /// Number of objects `L`.
    pub fn objects(&self) -> usize {
        self.scores[0].len()
    }

    /// Exhaustive `O(L^M)` enumeration — the baseline SPROC is measured
    /// against. Refuses instances beyond `limit` assemblies so tests cannot
    /// accidentally run forever.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidValue`] when `k == 0` or `L^M > limit`.
    pub fn brute_force(
        &self,
        k: usize,
        compat: Option<Compat<'_>>,
        limit: u64,
    ) -> Result<CompositeResult, ModelError> {
        if k == 0 {
            return Err(ModelError::InvalidValue("k must be >= 1".into()));
        }
        let l = self.objects() as u64;
        let m = self.components() as u32;
        let total = l.checked_pow(m).filter(|t| *t <= limit).ok_or_else(|| {
            ModelError::InvalidValue(format!("L^M exceeds brute-force limit {limit}"))
        })?;
        let mut stats = QueryStats::new();
        let mut best: Vec<Assembly> = Vec::new();
        let mut choice = vec![0usize; self.components()];
        for code in 0..total {
            let mut c = code;
            for slot in choice.iter_mut() {
                *slot = (c % l) as usize;
                c /= l;
            }
            let mut score = 0.0;
            for (comp, &obj) in choice.iter().enumerate() {
                stats.tuples_examined += 1;
                score += self.scores[comp][obj];
                if comp > 0 {
                    if let Some(f) = compat {
                        score += f(comp, choice[comp - 1], obj);
                    }
                }
            }
            stats.comparisons += 1;
            insert_top(
                &mut best,
                Assembly {
                    choice: choice.clone(),
                    score,
                },
                k,
            );
        }
        Ok(CompositeResult {
            assemblies: best,
            stats,
        })
    }

    /// SPROC dynamic programming (reference \[15\]): processes components
    /// sequentially, keeping the top-K partial assemblies per trailing
    /// object — `O(M K L^2)` table operations instead of `O(L^M)`.
    ///
    /// Exact for chain-structured compatibility (each `c_m` couples only
    /// adjacent components), which is the composite-object structure SPROC
    /// targets.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidValue`] when `k == 0`.
    pub fn top_k_dp(
        &self,
        k: usize,
        compat: Option<Compat<'_>>,
    ) -> Result<CompositeResult, ModelError> {
        if k == 0 {
            return Err(ModelError::InvalidValue("k must be >= 1".into()));
        }
        let l = self.objects();
        let m = self.components();
        let mut stats = QueryStats::new();
        // dp[obj] = top-K partial assemblies ending with `obj` at the
        // current component.
        let mut dp: Vec<Vec<Assembly>> = (0..l)
            .map(|obj| {
                stats.tuples_examined += 1;
                vec![Assembly {
                    choice: vec![obj],
                    score: self.scores[0][obj],
                }]
            })
            .collect();
        for comp in 1..m {
            let mut next: Vec<Vec<Assembly>> = Vec::with_capacity(l);
            for obj in 0..l {
                stats.tuples_examined += 1;
                let own = self.scores[comp][obj];
                let mut cell: Vec<Assembly> = Vec::new();
                for (prev_obj, partials) in dp.iter().enumerate() {
                    let link = compat.map(|f| f(comp, prev_obj, obj)).unwrap_or(0.0);
                    for p in partials {
                        stats.comparisons += 1;
                        let mut choice = p.choice.clone();
                        choice.push(obj);
                        insert_top(
                            &mut cell,
                            Assembly {
                                choice,
                                score: p.score + link + own,
                            },
                            k,
                        );
                    }
                }
                next.push(cell);
            }
            dp = next;
        }
        let mut best: Vec<Assembly> = Vec::new();
        for cell in dp {
            for a in cell {
                stats.comparisons += 1;
                insert_top(&mut best, a, k);
            }
        }
        Ok(CompositeResult {
            assemblies: best,
            stats,
        })
    }

    /// The sorted-list frontier walk for independent components (no
    /// pairwise term), per reference \[16\]: sort each component list
    /// (`O(M L log L)`), then expand assemblies best-first from the all-max
    /// corner; each of the `K` pops expands at most `M` successors.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidValue`] when `k == 0`.
    pub fn top_k_independent(&self, k: usize) -> Result<CompositeResult, ModelError> {
        if k == 0 {
            return Err(ModelError::InvalidValue("k must be >= 1".into()));
        }
        let l = self.objects();
        let m = self.components();
        let mut stats = QueryStats::new();
        // Sort each component's objects by descending score.
        let mut order: Vec<Vec<usize>> = Vec::with_capacity(m);
        for comp in 0..m {
            let mut idx: Vec<usize> = (0..l).collect();
            idx.sort_by(|&a, &b| self.scores[comp][b].total_cmp(&self.scores[comp][a]));
            stats.tuples_examined += l as u64;
            stats.comparisons += (l as f64 * (l as f64).log2().max(1.0)) as u64;
            order.push(idx);
        }

        #[derive(Debug)]
        struct Frontier {
            score: f64,
            ranks: Vec<usize>,
        }
        impl PartialEq for Frontier {
            fn eq(&self, other: &Self) -> bool {
                self.score == other.score && self.ranks == other.ranks
            }
        }
        impl Eq for Frontier {}
        impl PartialOrd for Frontier {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Frontier {
            fn cmp(&self, other: &Self) -> Ordering {
                self.score
                    .total_cmp(&other.score)
                    .then_with(|| other.ranks.cmp(&self.ranks))
            }
        }

        let score_of = |ranks: &[usize]| -> f64 {
            ranks
                .iter()
                .enumerate()
                .map(|(comp, &r)| self.scores[comp][order[comp][r]])
                .sum()
        };
        let mut heap = BinaryHeap::new();
        let mut seen: HashSet<Vec<usize>> = HashSet::new();
        let corner = vec![0usize; m];
        heap.push(Frontier {
            score: score_of(&corner),
            ranks: corner.clone(),
        });
        seen.insert(corner);
        let mut assemblies = Vec::with_capacity(k);
        while assemblies.len() < k {
            let Some(Frontier { score, ranks }) = heap.pop() else {
                break;
            };
            stats.comparisons += 1;
            assemblies.push(Assembly {
                choice: ranks
                    .iter()
                    .enumerate()
                    .map(|(comp, &r)| order[comp][r])
                    .collect(),
                score,
            });
            for comp in 0..m {
                if ranks[comp] + 1 >= l {
                    continue;
                }
                let mut next = ranks.clone();
                next[comp] += 1;
                if seen.insert(next.clone()) {
                    stats.tuples_examined += 1;
                    heap.push(Frontier {
                        score: score_of(&next),
                        ranks: next,
                    });
                }
            }
        }
        Ok(CompositeResult { assemblies, stats })
    }
}

/// Inserts into a descending top-K list (ties by lexicographic choice for
/// determinism).
fn insert_top(best: &mut Vec<Assembly>, candidate: Assembly, k: usize) {
    let pos = best
        .binary_search_by(|probe| {
            candidate
                .score
                .total_cmp(&probe.score)
                .then_with(|| probe.choice.cmp(&candidate.choice))
        })
        .unwrap_or_else(|p| p);
    if pos < k {
        best.insert(pos, candidate);
        best.truncate(k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pseudo_scores(seed: u64, m: usize, l: usize) -> Vec<Vec<f64>> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(77);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..m).map(|_| (0..l).map(|_| next()).collect()).collect()
    }

    #[test]
    fn new_validates() {
        assert!(matches!(SprocIndex::new(vec![]), Err(ModelError::Empty)));
        assert!(SprocIndex::new(vec![vec![]]).is_err());
        assert!(SprocIndex::new(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn dp_matches_brute_force_independent() {
        let index = SprocIndex::new(pseudo_scores(1, 3, 8)).unwrap();
        for k in [1usize, 4, 10] {
            let brute = index.brute_force(k, None, 1_000_000).unwrap();
            let dp = index.top_k_dp(k, None).unwrap();
            let fast = index.top_k_independent(k).unwrap();
            assert!(dp.score_equivalent(&brute, 1e-9), "k={k} dp");
            assert!(fast.score_equivalent(&brute, 1e-9), "k={k} fast");
        }
    }

    #[test]
    fn dp_matches_brute_force_with_chain_compat() {
        let index = SprocIndex::new(pseudo_scores(2, 3, 7)).unwrap();
        // Compatibility: prefer ascending object ids with gap <= 2 (a toy
        // "adjacent, < 10 ft" relation).
        let compat = |_m: usize, prev: usize, cur: usize| -> f64 {
            if cur > prev && cur - prev <= 2 {
                0.5
            } else {
                -0.25
            }
        };
        for k in [1usize, 5] {
            let brute = index.brute_force(k, Some(&compat), 1_000_000).unwrap();
            let dp = index.top_k_dp(k, Some(&compat)).unwrap();
            assert!(dp.score_equivalent(&brute, 1e-9), "k={k}");
        }
    }

    #[test]
    fn dp_does_less_work_than_brute_force() {
        let index = SprocIndex::new(pseudo_scores(3, 4, 12)).unwrap();
        let brute = index.brute_force(5, None, 10_000_000).unwrap();
        let dp = index.top_k_dp(5, None).unwrap();
        assert!(
            dp.stats.comparisons < brute.stats.comparisons / 4,
            "dp {} vs brute {}",
            dp.stats.comparisons,
            brute.stats.comparisons
        );
        let fast = index.top_k_independent(5).unwrap();
        assert!(fast.stats.comparisons < dp.stats.comparisons);
    }

    #[test]
    fn brute_force_guards_explosion() {
        let index = SprocIndex::new(pseudo_scores(4, 6, 50)).unwrap();
        assert!(matches!(
            index.brute_force(1, None, 1_000_000),
            Err(ModelError::InvalidValue(_))
        ));
    }

    #[test]
    fn k_zero_rejected_everywhere() {
        let index = SprocIndex::new(vec![vec![1.0]]).unwrap();
        assert!(index.brute_force(0, None, 10).is_err());
        assert!(index.top_k_dp(0, None).is_err());
        assert!(index.top_k_independent(0).is_err());
    }

    #[test]
    fn k_exceeding_assembly_count_returns_all() {
        let index = SprocIndex::new(vec![vec![0.1, 0.9]]).unwrap();
        let fast = index.top_k_independent(10).unwrap();
        assert_eq!(fast.assemblies.len(), 2);
        assert_eq!(fast.assemblies[0].choice, vec![1]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(40))]
        #[test]
        fn prop_all_strategies_agree(
            seed in 0u64..500,
            m in 1usize..4,
            l in 1usize..8,
            k in 1usize..6,
        ) {
            let index = SprocIndex::new(pseudo_scores(seed, m, l)).unwrap();
            let brute = index.brute_force(k, None, 10_000_000).unwrap();
            let dp = index.top_k_dp(k, None).unwrap();
            let fast = index.top_k_independent(k).unwrap();
            prop_assert!(dp.score_equivalent(&brute, 1e-9));
            prop_assert!(fast.score_equivalent(&brute, 1e-9));
        }

        #[test]
        fn prop_dp_agrees_with_brute_under_compat(
            seed in 0u64..200,
            m in 2usize..4,
            l in 2usize..6,
            k in 1usize..4,
        ) {
            let index = SprocIndex::new(pseudo_scores(seed, m, l)).unwrap();
            let compat = |m: usize, a: usize, b: usize| -> f64 {
                ((a * 31 + b * 17 + m * 7) % 11) as f64 / 11.0 - 0.3
            };
            let brute = index.brute_force(k, Some(&compat), 10_000_000).unwrap();
            let dp = index.top_k_dp(k, Some(&compat)).unwrap();
            prop_assert!(dp.score_equivalent(&brute, 1e-9));
        }
    }
}
