//! R*-tree over d-dimensional points — the spatial-index baseline.
//!
//! Paper §3.2: "Most of the high-dimensional indexing techniques such as
//! R*-tree are optimized for spatial range queries ... However these
//! techniques are sub-optimal for model-based queries, as these indices do
//! not indicate where to find data points that will maximize the model."
//!
//! This implementation provides both faces used by the experiments: spatial
//! range queries (what the structure is good at) and best-first top-K over
//! a linear score using MBR upper bounds (what it is merely adequate at —
//! experiment E7 measures exactly that gap against Onion).
//!
//! The insertion path follows Beckmann et al.: choose-subtree by minimum
//! overlap enlargement at the leaf level and minimum area enlargement above
//! it, R* split (margin-minimizing axis, overlap-minimizing distribution),
//! and forced reinsertion of the 30% most-distant leaf entries on first
//! overflow.

use crate::kernels;
use crate::scan::TopKHeap;
use crate::stats::{QueryStats, ScoredItem, TopKResult};
use crate::store::PointStore;
use mbir_models::error::ModelError;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

const MAX_ENTRIES: usize = 16;
const MIN_ENTRIES: usize = 6;
const REINSERT_COUNT: usize = 5; // ~30% of MAX_ENTRIES

/// An axis-aligned d-dimensional rectangle.
#[derive(Debug, Clone, PartialEq)]
pub struct Rect {
    lo: Vec<f64>,
    hi: Vec<f64>,
}

impl Rect {
    /// The degenerate rectangle of a point.
    pub fn point(p: &[f64]) -> Self {
        Rect {
            lo: p.to_vec(),
            hi: p.to_vec(),
        }
    }

    /// A rectangle from corner vectors (element-wise normalized).
    ///
    /// # Panics
    ///
    /// Panics if the corners have different lengths or are empty.
    pub fn new(a: &[f64], b: &[f64]) -> Self {
        assert!(
            !a.is_empty() && a.len() == b.len(),
            "corner dimension mismatch"
        );
        let lo = a.iter().zip(b).map(|(x, y)| x.min(*y)).collect();
        let hi = a.iter().zip(b).map(|(x, y)| x.max(*y)).collect();
        Rect { lo, hi }
    }

    /// Dimensionality.
    pub fn dims(&self) -> usize {
        self.lo.len()
    }

    fn area(&self) -> f64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| (h - l).max(0.0))
            .product()
    }

    fn margin(&self) -> f64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| (h - l).max(0.0))
            .sum()
    }

    fn union(&self, other: &Rect) -> Rect {
        Rect {
            lo: self
                .lo
                .iter()
                .zip(&other.lo)
                .map(|(a, b)| a.min(*b))
                .collect(),
            hi: self
                .hi
                .iter()
                .zip(&other.hi)
                .map(|(a, b)| a.max(*b))
                .collect(),
        }
    }

    fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    fn overlap(&self, other: &Rect) -> f64 {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .map(|((al, ah), (bl, bh))| (ah.min(*bh) - al.max(*bl)).max(0.0))
            .product()
    }

    /// Whether the rectangles intersect (closed).
    pub fn intersects(&self, other: &Rect) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(other.lo.iter().zip(&other.hi))
            .all(|((al, ah), (bl, bh))| al <= bh && bl <= ah)
    }

    /// Whether the rectangle contains a point.
    pub fn contains(&self, p: &[f64]) -> bool {
        self.lo
            .iter()
            .zip(&self.hi)
            .zip(p)
            .all(|((l, h), v)| l <= v && v <= h)
    }

    fn center(&self) -> Vec<f64> {
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| (l + h) / 2.0)
            .collect()
    }

    /// Max of `direction . x` over the rectangle — the best-first bound.
    pub fn upper_bound(&self, direction: &[f64]) -> f64 {
        direction
            .iter()
            .zip(self.lo.iter().zip(&self.hi))
            .map(|(a, (l, h))| if *a >= 0.0 { a * h } else { a * l })
            .sum()
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        rects: Vec<Rect>,
        items: Vec<usize>,
    },
    Internal {
        rects: Vec<Rect>,
        children: Vec<Node>,
    },
}

impl Node {
    fn mbr(&self) -> Rect {
        let rects = match self {
            Node::Leaf { rects, .. } | Node::Internal { rects, .. } => rects,
        };
        rects
            .iter()
            .cloned()
            .reduce(|a, b| a.union(&b))
            .expect("nodes are non-empty")
    }
}

/// An R*-tree over d-dimensional points.
///
/// # Examples
///
/// ```
/// use mbir_index::rstar::{Rect, RStarTree};
///
/// let points = vec![vec![0.0, 0.0], vec![5.0, 5.0], vec![9.0, 1.0]];
/// let tree = RStarTree::bulk(points).unwrap();
/// let hits = tree.range(&Rect::new(&[4.0, 4.0], &[6.0, 6.0]));
/// assert_eq!(hits.results, vec![1]);
/// ```
#[derive(Debug, Clone)]
pub struct RStarTree {
    points: PointStore,
    dims: usize,
    root: Node,
}

/// A range-query answer.
#[derive(Debug, Clone, PartialEq)]
pub struct RangeResult {
    /// Matching point indexes in ascending order.
    pub results: Vec<usize>,
    /// Work counters.
    pub stats: QueryStats,
}

impl RStarTree {
    /// Builds a tree by inserting every point (R* heuristics throughout).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Empty`] for no points and
    /// [`ModelError::ArityMismatch`] for ragged dimensions.
    pub fn bulk(points: Vec<Vec<f64>>) -> Result<Self, ModelError> {
        let first = points.first().ok_or(ModelError::Empty)?;
        let dims = first.len();
        if dims == 0 {
            return Err(ModelError::Empty);
        }
        for p in &points {
            if p.len() != dims {
                return Err(ModelError::ArityMismatch {
                    expected: dims,
                    actual: p.len(),
                });
            }
        }
        let mut tree = RStarTree {
            points: PointStore::new(dims),
            dims,
            root: Node::Leaf {
                rects: Vec::new(),
                items: Vec::new(),
            },
        };
        for p in points {
            tree.insert_point(p);
        }
        Ok(tree)
    }

    /// Inserts one point, returning its index.
    fn insert_point(&mut self, p: Vec<f64>) -> usize {
        assert_eq!(p.len(), self.dims, "point dimension mismatch");
        let rect = Rect::point(&p);
        let idx = self.points.push_row(&p).expect("dimension checked above");
        // Forced reinsertion: collect evicted leaf entries once, then insert
        // them without further reinsertion.
        let mut pending: Vec<(Rect, usize)> = vec![(rect, idx)];
        let mut allow_reinsert = true;
        while let Some((r, item)) = pending.pop() {
            let evicted = self.insert_entry(r, item, allow_reinsert);
            if !evicted.is_empty() {
                allow_reinsert = false;
                pending.extend(evicted);
            }
        }
        idx
    }

    fn insert_entry(
        &mut self,
        rect: Rect,
        item: usize,
        allow_reinsert: bool,
    ) -> Vec<(Rect, usize)> {
        let mut evicted = Vec::new();
        if let Some((r1, n1, r2, n2)) =
            insert_rec(&mut self.root, rect, item, allow_reinsert, &mut evicted)
        {
            // Root split.
            self.root = Node::Internal {
                rects: vec![r1, r2],
                children: vec![n1, n2],
            };
        }
        evicted
    }

    /// All point indexes inside `query` (ascending), with work accounting.
    pub fn range(&self, query: &Rect) -> RangeResult {
        let mut results = Vec::new();
        let mut stats = QueryStats::new();
        let mut stack = vec![&self.root];
        while let Some(node) = stack.pop() {
            stats.nodes_visited += 1;
            match node {
                Node::Leaf { rects, items } => {
                    for (r, i) in rects.iter().zip(items) {
                        stats.tuples_examined += 1;
                        if query.intersects(r) {
                            results.push(*i);
                        }
                    }
                }
                Node::Internal { rects, children } => {
                    for (r, c) in rects.iter().zip(children) {
                        stats.comparisons += 1;
                        if query.intersects(r) {
                            stack.push(c);
                        }
                    }
                }
            }
        }
        results.sort_unstable();
        RangeResult { results, stats }
    }

    /// Top-K maximizers of `direction . x` by best-first search with MBR
    /// upper bounds. Exact, but examines far more tuples than Onion on the
    /// same query (experiment E7).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ArityMismatch`] for a wrong-length direction
    /// and [`ModelError::InvalidValue`] for `k == 0`.
    pub fn top_k_max(&self, direction: &[f64], k: usize) -> Result<TopKResult, ModelError> {
        if direction.len() != self.dims {
            return Err(ModelError::ArityMismatch {
                expected: self.dims,
                actual: direction.len(),
            });
        }
        if k == 0 {
            return Err(ModelError::InvalidValue("k must be >= 1".into()));
        }
        #[derive(Debug)]
        struct Frontier<'a> {
            bound: f64,
            node: &'a Node,
        }
        impl PartialEq for Frontier<'_> {
            fn eq(&self, other: &Self) -> bool {
                self.bound == other.bound
            }
        }
        impl Eq for Frontier<'_> {}
        impl PartialOrd for Frontier<'_> {
            fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Frontier<'_> {
            fn cmp(&self, other: &Self) -> Ordering {
                self.bound.total_cmp(&other.bound)
            }
        }

        let mut heap = TopKHeap::new(k);
        let mut stats = QueryStats::new();
        let mut frontier = BinaryHeap::new();
        frontier.push(Frontier {
            bound: self.root.mbr().upper_bound(direction),
            node: &self.root,
        });
        while let Some(Frontier { bound, node }) = frontier.pop() {
            if let Some(floor) = heap.floor() {
                if floor >= bound {
                    break; // nothing in the frontier can improve the top-K
                }
            }
            stats.nodes_visited += 1;
            match node {
                Node::Leaf { items, .. } => {
                    for &i in items {
                        stats.tuples_examined += 1;
                        heap.offer(ScoredItem {
                            index: i,
                            // Same left-to-right fold as before, now over a
                            // flat row — bit-identical scores.
                            score: kernels::dot(direction, self.points.row(i)),
                        });
                    }
                }
                Node::Internal { rects, children } => {
                    for (r, c) in rects.iter().zip(children) {
                        stats.comparisons += 1;
                        frontier.push(Frontier {
                            bound: r.upper_bound(direction),
                            node: c,
                        });
                    }
                }
            }
        }
        stats.comparisons += heap.comparisons();
        Ok(TopKResult {
            results: heap.into_sorted(),
            stats,
        })
    }
}

/// Recursive insert; returns `Some((r1, n1, r2, n2))` when this level split.
fn insert_rec(
    node: &mut Node,
    rect: Rect,
    item: usize,
    allow_reinsert: bool,
    evicted: &mut Vec<(Rect, usize)>,
) -> Option<(Rect, Node, Rect, Node)> {
    match node {
        Node::Leaf { rects, items } => {
            rects.push(rect);
            items.push(item);
            if rects.len() <= MAX_ENTRIES {
                return None;
            }
            if allow_reinsert {
                // Forced reinsert: evict entries farthest from the node
                // center instead of splitting.
                let mbr = node_mbr(rects);
                let center = mbr.center();
                let mut order: Vec<usize> = (0..rects.len()).collect();
                order.sort_by(|&a, &b| {
                    dist2(&rects[b].center(), &center)
                        .total_cmp(&dist2(&rects[a].center(), &center))
                });
                let evict: Vec<usize> = order.into_iter().take(REINSERT_COUNT).collect();
                let mut evict_sorted = evict;
                evict_sorted.sort_unstable_by(|a, b| b.cmp(a));
                for pos in evict_sorted {
                    evicted.push((rects.remove(pos), items.remove(pos)));
                }
                return None;
            }
            // R* split.
            let (first, second) = split_entries(std::mem::take(rects), std::mem::take(items));
            let (r1, n1) = first;
            let (r2, n2) = second;
            *node = n1;
            let old = std::mem::replace(
                node,
                Node::Leaf {
                    rects: Vec::new(),
                    items: Vec::new(),
                },
            );
            Some((r1, old, r2, n2))
        }
        Node::Internal { rects, children } => {
            let leaf_level = matches!(children[0], Node::Leaf { .. });
            let chosen = choose_subtree(rects, &rect, leaf_level);
            let split = insert_rec(&mut children[chosen], rect, item, allow_reinsert, evicted);
            if split.is_none() {
                rects[chosen] = children[chosen].mbr();
            }
            if let Some((r1, n1, r2, n2)) = split {
                rects[chosen] = r1;
                children[chosen] = n1;
                rects.push(r2);
                children.push(n2);
                if rects.len() > MAX_ENTRIES {
                    let (rs, cs) = (std::mem::take(rects), std::mem::take(children));
                    let ((ra, na), (rb, nb)) = split_internal(rs, cs);
                    *node = na;
                    let old = std::mem::replace(
                        node,
                        Node::Leaf {
                            rects: Vec::new(),
                            items: Vec::new(),
                        },
                    );
                    return Some((ra, old, rb, nb));
                }
            }
            None
        }
    }
}

fn node_mbr(rects: &[Rect]) -> Rect {
    rects
        .iter()
        .cloned()
        .reduce(|a, b| a.union(&b))
        .expect("non-empty")
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// R* choose-subtree: minimum overlap enlargement at the level above
/// leaves, minimum area enlargement higher up; ties by smaller area.
fn choose_subtree(rects: &[Rect], new: &Rect, leaf_level: bool) -> usize {
    let mut best = 0usize;
    let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for (i, r) in rects.iter().enumerate() {
        let enlarged = r.union(new);
        let primary = if leaf_level {
            // Overlap enlargement against siblings.
            let mut before = 0.0;
            let mut after = 0.0;
            for (j, s) in rects.iter().enumerate() {
                if i == j {
                    continue;
                }
                before += r.overlap(s);
                after += enlarged.overlap(s);
            }
            after - before
        } else {
            r.enlargement(new)
        };
        let key = (primary, r.enlargement(new), r.area());
        if key < best_key {
            best_key = key;
            best = i;
        }
    }
    best
}

/// R* split for leaf entries: margin-minimizing axis, overlap-minimizing
/// distribution.
fn split_entries(rects: Vec<Rect>, items: Vec<usize>) -> ((Rect, Node), (Rect, Node)) {
    let idx = rstar_split_order(&rects);
    let (left, right) = idx;
    let gather = |ids: &[usize]| {
        let rs: Vec<Rect> = ids.iter().map(|&i| rects[i].clone()).collect();
        let it: Vec<usize> = ids.iter().map(|&i| items[i]).collect();
        let mbr = node_mbr(&rs);
        (
            mbr,
            Node::Leaf {
                rects: rs,
                items: it,
            },
        )
    };
    (gather(&left), gather(&right))
}

fn split_internal(rects: Vec<Rect>, children: Vec<Node>) -> ((Rect, Node), (Rect, Node)) {
    let (left, right) = rstar_split_order(&rects);
    let mut children: Vec<Option<Node>> = children.into_iter().map(Some).collect();
    let mut gather = |ids: &[usize]| {
        let rs: Vec<Rect> = ids.iter().map(|&i| rects[i].clone()).collect();
        let cs: Vec<Node> = ids
            .iter()
            .map(|&i| children[i].take().expect("each child used once"))
            .collect();
        let mbr = node_mbr(&rs);
        (
            mbr,
            Node::Internal {
                rects: rs,
                children: cs,
            },
        )
    };
    let l = gather(&left);
    let r = gather(&right);
    (l, r)
}

/// Chooses the R* split axis and distribution; returns (left ids, right
/// ids).
fn rstar_split_order(rects: &[Rect]) -> (Vec<usize>, Vec<usize>) {
    let dims = rects[0].dims();
    let n = rects.len();
    let mut best: Option<(f64, f64, Vec<usize>, usize)> = None; // (overlap, area, order, split_at)
    for axis in 0..dims {
        for lo_side in [true, false] {
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by(|&a, &b| {
                let ka = if lo_side {
                    rects[a].lo[axis]
                } else {
                    rects[a].hi[axis]
                };
                let kb = if lo_side {
                    rects[b].lo[axis]
                } else {
                    rects[b].hi[axis]
                };
                ka.total_cmp(&kb)
            });
            // Candidate distributions: first k in left, rest right.
            for k in MIN_ENTRIES..=(n - MIN_ENTRIES) {
                let left_mbr = node_mbr(
                    &order[..k]
                        .iter()
                        .map(|&i| rects[i].clone())
                        .collect::<Vec<_>>(),
                );
                let right_mbr = node_mbr(
                    &order[k..]
                        .iter()
                        .map(|&i| rects[i].clone())
                        .collect::<Vec<_>>(),
                );
                let overlap = left_mbr.overlap(&right_mbr);
                let area = left_mbr.area() + right_mbr.area();
                let margin = left_mbr.margin() + right_mbr.margin();
                // Rank primarily by overlap then area then margin.
                let key = (overlap, area + margin * 1e-9);
                if best
                    .as_ref()
                    .map(|(bo, ba, _, _)| key < (*bo, *ba))
                    .unwrap_or(true)
                {
                    best = Some((key.0, key.1, order.clone(), k));
                }
            }
        }
    }
    let (_, _, order, k) = best.expect("n > MAX_ENTRIES >= 2 * MIN_ENTRIES");
    (order[..k].to_vec(), order[k..].to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::scan_top_k;
    use proptest::prelude::*;

    fn grid_points(n_side: usize) -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for r in 0..n_side {
            for c in 0..n_side {
                pts.push(vec![r as f64, c as f64]);
            }
        }
        pts
    }

    fn pseudo_points(seed: u64, n: usize, d: usize) -> Vec<Vec<f64>> {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| (0..d).map(|_| next() * 100.0).collect())
            .collect()
    }

    #[test]
    fn build_validates() {
        assert!(matches!(RStarTree::bulk(vec![]), Err(ModelError::Empty)));
        assert!(RStarTree::bulk(vec![vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn range_on_grid() {
        let tree = RStarTree::bulk(grid_points(10)).unwrap();
        assert_eq!(tree.points.len(), 100);
        assert!(
            matches!(tree.root, Node::Internal { .. }),
            "100 points must split"
        );
        let hits = tree.range(&Rect::new(&[2.0, 2.0], &[4.0, 4.0]));
        assert_eq!(hits.results.len(), 9);
        let all = tree.range(&Rect::new(&[-1.0, -1.0], &[100.0, 100.0]));
        assert_eq!(all.results.len(), 100);
        let none = tree.range(&Rect::new(&[50.0, 50.0], &[60.0, 60.0]));
        assert!(none.results.is_empty());
    }

    #[test]
    fn range_prunes_nodes() {
        let tree = RStarTree::bulk(pseudo_points(1, 2000, 2)).unwrap();
        let small = tree.range(&Rect::new(&[10.0, 10.0], &[12.0, 12.0]));
        let full = tree.range(&Rect::new(&[0.0, 0.0], &[100.0, 100.0]));
        assert!(
            small.stats.tuples_examined < full.stats.tuples_examined / 4,
            "selective query should prune: {} vs {}",
            small.stats.tuples_examined,
            full.stats.tuples_examined
        );
    }

    #[test]
    fn top_k_matches_scan() {
        let points = pseudo_points(3, 1500, 3);
        let tree = RStarTree::bulk(points.clone()).unwrap();
        for k in [1usize, 10] {
            let dir = vec![1.0, -0.5, 0.2];
            let fast = tree.top_k_max(&dir, k).unwrap();
            let slow = scan_top_k(&points, k, |p| dir.iter().zip(p).map(|(a, v)| a * v).sum());
            assert!(fast.score_equivalent(&slow, 1e-9), "k={k}");
            assert!(fast.stats.tuples_examined < slow.stats.tuples_examined);
        }
    }

    #[test]
    fn top_k_validates() {
        let tree = RStarTree::bulk(vec![vec![0.0, 0.0]]).unwrap();
        assert!(tree.top_k_max(&[1.0], 1).is_err());
        assert!(tree.top_k_max(&[1.0, 0.0], 0).is_err());
    }

    #[test]
    fn duplicates_and_single_point() {
        let tree = RStarTree::bulk(vec![vec![5.0, 5.0]; 40]).unwrap();
        let hits = tree.range(&Rect::new(&[5.0, 5.0], &[5.0, 5.0]));
        assert_eq!(hits.results.len(), 40);
        let top = tree.top_k_max(&[1.0, 1.0], 3).unwrap();
        assert_eq!(top.results.len(), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(30))]
        #[test]
        fn prop_range_matches_brute_force(
            seed in 0u64..500,
            n in 1usize..400,
            qx in 0.0f64..100.0,
            qy in 0.0f64..100.0,
            w in 0.0f64..50.0,
            h in 0.0f64..50.0,
        ) {
            let points = pseudo_points(seed, n, 2);
            let tree = RStarTree::bulk(points.clone()).unwrap();
            let query = Rect::new(&[qx, qy], &[qx + w, qy + h]);
            let got = tree.range(&query).results;
            let expected: Vec<usize> = points
                .iter()
                .enumerate()
                .filter(|(_, p)| query.contains(p))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(got, expected);
        }

        #[test]
        fn prop_top_k_matches_scan(
            seed in 0u64..300,
            n in 1usize..300,
            d in 1usize..4,
            k in 1usize..8,
        ) {
            let points = pseudo_points(seed, n, d);
            let tree = RStarTree::bulk(points.clone()).unwrap();
            let dir: Vec<f64> = (0..d).map(|i| if i % 2 == 0 { 1.0 } else { -0.7 }).collect();
            let fast = tree.top_k_max(&dir, k).unwrap();
            let slow = scan_top_k(&points, k, |p| dir.iter().zip(p).map(|(a, v)| a * v).sum());
            prop_assert!(fast.score_equivalent(&slow, 1e-9));
        }
    }
}
