//! Bayesian networks over binary variables (paper §2.3).
//!
//! "A Bayesian network is a graphical model for probabilistic relationships
//! among a set of variables ... Bayesian networks can readily handle
//! incomplete data sets ... and has become a popular representation for
//! encoding expert knowledge in expert systems. Recently, methods have been
//! developed to learn Bayesian networks from data."
//!
//! All the paper's knowledge-model examples are propositional (house,
//! bushes, wet season, ...), so variables here are binary. Inference is
//! exact: [`BayesNet::query`] runs variable elimination, cross-checked in
//! tests against brute-force enumeration. CPTs are written out or built
//! from noisy-AND gates ([`noisy_and_cpt`]).

pub mod hps_net;

use crate::error::ModelError;
use std::collections::{HashMap, HashSet};

/// Identifier of a node within a [`BayesNet`].
pub type NodeId = usize;

/// A Bayesian network over binary variables.
///
/// Nodes must be added parents-first (a node's parents must already exist),
/// which guarantees acyclicity by construction.
///
/// # Examples
///
/// ```
/// use mbir_models::bayes::BayesNet;
///
/// let mut net = BayesNet::new();
/// let rain = net.add_node("rain", &[], vec![0.3]).unwrap();
/// // P(wet | rain) = 0.9, P(wet | !rain) = 0.1
/// let wet = net.add_node("wet", &[rain], vec![0.1, 0.9]).unwrap();
/// let p = net.query(wet, &[]).unwrap();
/// assert!((p - (0.3 * 0.9 + 0.7 * 0.1)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct BayesNet {
    names: Vec<String>,
    parents: Vec<Vec<NodeId>>,
    /// `cpts[n][config]` = P(node n = true | parents in `config`), where
    /// `config` encodes parent values with parent `j` (in declaration
    /// order) contributing bit `j`.
    cpts: Vec<Vec<f64>>,
}

impl BayesNet {
    /// Creates an empty network.
    pub fn new() -> Self {
        BayesNet {
            names: Vec::new(),
            parents: Vec::new(),
            cpts: Vec::new(),
        }
    }

    /// Adds a node with the given parents and CPT.
    ///
    /// The CPT must have `2^parents.len()` entries, each a probability of
    /// the node being *true* for the corresponding parent configuration
    /// (parent `j` contributes bit `j`; e.g. with parents `[a, b]`, entry
    /// `0b10` is `P(node | !a, b)`).
    ///
    /// # Errors
    ///
    /// * [`ModelError::Unknown`] — a parent id does not exist yet (adding
    ///   parents-first is what keeps the graph acyclic).
    /// * [`ModelError::ArityMismatch`] — CPT size is not `2^|parents|`.
    /// * [`ModelError::InvalidValue`] — a CPT entry is outside `[0, 1]`.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        parents: &[NodeId],
        cpt: Vec<f64>,
    ) -> Result<NodeId, ModelError> {
        let id = self.names.len();
        for p in parents {
            if *p >= id {
                return Err(ModelError::Unknown(format!(
                    "parent {p} must be added before its child"
                )));
            }
        }
        let expected = 1usize << parents.len();
        if cpt.len() != expected {
            return Err(ModelError::ArityMismatch {
                expected,
                actual: cpt.len(),
            });
        }
        if cpt
            .iter()
            .any(|p| !p.is_finite() || !(0.0..=1.0).contains(p))
        {
            return Err(ModelError::InvalidValue(
                "CPT entries must be probabilities".into(),
            ));
        }
        self.names.push(name.into());
        self.parents.push(parents.to_vec());
        self.cpts.push(cpt);
        Ok(id)
    }

    /// Number of nodes.
    fn node_count(&self) -> usize {
        self.names.len()
    }

    /// P(node = true | its parents' values in `assignment`).
    #[cfg(test)]
    fn conditional(&self, node: NodeId, assignment: &[bool]) -> f64 {
        let mut config = 0usize;
        for (j, p) in self.parents[node].iter().enumerate() {
            if assignment[*p] {
                config |= 1 << j;
            }
        }
        self.cpts[node][config]
    }

    /// Joint probability of a full assignment.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ArityMismatch`] unless exactly one value per
    /// node is given.
    #[cfg(test)]
    fn joint(&self, assignment: &[bool]) -> Result<f64, ModelError> {
        if assignment.len() != self.node_count() {
            return Err(ModelError::ArityMismatch {
                expected: self.node_count(),
                actual: assignment.len(),
            });
        }
        let mut p = 1.0;
        for node in 0..self.node_count() {
            let c = self.conditional(node, assignment);
            p *= if assignment[node] { c } else { 1.0 - c };
        }
        Ok(p)
    }

    /// Exact posterior `P(target = true | evidence)` by variable
    /// elimination.
    ///
    /// # Errors
    ///
    /// * [`ModelError::Empty`] — empty network.
    /// * [`ModelError::Unknown`] — invalid node ids.
    /// * [`ModelError::InvalidValue`] — evidence has probability zero, or
    ///   duplicate/conflicting evidence entries.
    pub fn query(&self, target: NodeId, evidence: &[(NodeId, bool)]) -> Result<f64, ModelError> {
        if self.node_count() == 0 {
            return Err(ModelError::Empty);
        }
        if target >= self.node_count() {
            return Err(ModelError::Unknown(format!("node {target}")));
        }
        let mut seen = HashSet::new();
        for (n, _) in evidence {
            if *n >= self.node_count() {
                return Err(ModelError::Unknown(format!("node {n}")));
            }
            if !seen.insert(*n) {
                return Err(ModelError::InvalidValue(format!(
                    "duplicate evidence for node {n}"
                )));
            }
        }
        let ev: HashMap<NodeId, bool> = evidence.iter().copied().collect();

        // Build one factor per node: scope = {node} ∪ parents, reduced by
        // evidence.
        let mut factors: Vec<Factor> = Vec::new();
        for node in 0..self.node_count() {
            factors.push(self.node_factor(node, &ev));
        }

        // Eliminate hidden variables (not target, not evidence), lowest
        // degree first (min-fill is overkill for these nets).
        let mut hidden: Vec<NodeId> = (0..self.node_count())
            .filter(|n| *n != target && !ev.contains_key(n))
            .collect();
        hidden.sort_by_key(|n| {
            factors
                .iter()
                .filter(|f| f.scope.contains(n))
                .map(|f| f.scope.len())
                .sum::<usize>()
        });
        for var in hidden {
            let (with, without): (Vec<Factor>, Vec<Factor>) =
                factors.into_iter().partition(|f| f.scope.contains(&var));
            let mut product = with
                .into_iter()
                .reduce(|a, b| a.multiply(&b))
                .unwrap_or_else(Factor::unit);
            product = product.sum_out(var);
            factors = without;
            factors.push(product);
        }
        let joint = factors
            .into_iter()
            .reduce(|a, b| a.multiply(&b))
            .unwrap_or_else(Factor::unit);

        // joint now has scope ⊆ {target}.
        let p_true = joint.value_for(target, true);
        let p_false = joint.value_for(target, false);
        let total = p_true + p_false;
        if total <= 0.0 {
            return Err(ModelError::InvalidValue(
                "evidence has probability zero".into(),
            ));
        }
        Ok(p_true / total)
    }

    /// The factor for one node's CPT with evidence substituted.
    fn node_factor(&self, node: NodeId, ev: &HashMap<NodeId, bool>) -> Factor {
        let mut scope: Vec<NodeId> = Vec::new();
        scope.push(node);
        scope.extend(self.parents[node].iter().copied());
        let free: Vec<NodeId> = scope
            .iter()
            .copied()
            .filter(|v| !ev.contains_key(v))
            .collect();
        let mut values = vec![0.0; 1 << free.len()];
        for (idx, slot) in values.iter_mut().enumerate() {
            // Assignment over scope from free bits + evidence.
            let value_of = |v: NodeId| -> bool {
                if let Some(b) = ev.get(&v) {
                    *b
                } else {
                    let pos = free.iter().position(|f| *f == v).expect("free var");
                    idx & (1 << pos) != 0
                }
            };
            let mut config = 0usize;
            for (j, p) in self.parents[node].iter().enumerate() {
                if value_of(*p) {
                    config |= 1 << j;
                }
            }
            let c = self.cpts[node][config];
            *slot = if value_of(node) { c } else { 1.0 - c };
        }
        Factor {
            scope: free,
            values,
        }
    }
}

impl Default for BayesNet {
    fn default() -> Self {
        BayesNet::new()
    }
}

/// A factor over binary variables (internal to variable elimination, but
/// exposed for tests).
#[derive(Debug, Clone)]
struct Factor {
    /// Variables in this factor, in index order of the value table bits.
    scope: Vec<NodeId>,
    /// `values[bits]` where bit `i` is the value of `scope[i]`.
    values: Vec<f64>,
}

impl Factor {
    fn unit() -> Self {
        Factor {
            scope: Vec::new(),
            values: vec![1.0],
        }
    }

    fn multiply(&self, other: &Factor) -> Factor {
        let mut scope = self.scope.clone();
        for v in &other.scope {
            if !scope.contains(v) {
                scope.push(*v);
            }
        }
        let mut values = vec![0.0; 1 << scope.len()];
        for (idx, slot) in values.iter_mut().enumerate() {
            let bit = |vars: &[NodeId]| -> usize {
                let mut sub = 0usize;
                for (j, v) in vars.iter().enumerate() {
                    let pos = scope.iter().position(|s| s == v).expect("in scope");
                    if idx & (1 << pos) != 0 {
                        sub |= 1 << j;
                    }
                }
                sub
            };
            *slot = self.values[bit(&self.scope)] * other.values[bit(&other.scope)];
        }
        Factor { scope, values }
    }

    fn sum_out(&self, var: NodeId) -> Factor {
        let pos = match self.scope.iter().position(|v| *v == var) {
            Some(p) => p,
            None => return self.clone(),
        };
        let mut scope = self.scope.clone();
        scope.remove(pos);
        let mut values = vec![0.0; 1 << scope.len()];
        for (idx, v) in self.values.iter().enumerate() {
            // Remove bit `pos` from idx.
            let low = idx & ((1 << pos) - 1);
            let high = (idx >> (pos + 1)) << pos;
            values[low | high] += v;
        }
        Factor { scope, values }
    }

    /// Value for `var = value`, summing out any other remaining scope and
    /// treating an absent `var` as a constant factor.
    fn value_for(&self, var: NodeId, value: bool) -> f64 {
        let mut f = self.clone();
        let others: Vec<NodeId> = f.scope.iter().copied().filter(|v| *v != var).collect();
        for o in others {
            f = f.sum_out(o);
        }
        match f.scope.iter().position(|v| *v == var) {
            Some(_) => f.values[usize::from(value)],
            // Scope empty: the target was evidence-free but eliminated —
            // cannot happen for query()'s target; treat as symmetric.
            None => f.values[0] / 2.0,
        }
    }
}

/// A noisy-AND CPT: the child fires only when all parents are active (each
/// active parent enables with its strength; any inactive parent caps the
/// probability at `inhibit`).
///
/// # Panics
///
/// Panics unless every probability is in `[0, 1]`.
pub fn noisy_and_cpt(parent_strengths: &[f64], inhibit: f64) -> Vec<f64> {
    assert!(
        parent_strengths
            .iter()
            .chain(std::iter::once(&inhibit))
            .all(|p| (0.0..=1.0).contains(p)),
        "probabilities must be in [0,1]"
    );
    let n = parent_strengths.len();
    (0..(1 << n))
        .map(|config| {
            if config == (1 << n) - 1 {
                parent_strengths.iter().product()
            } else {
                inhibit
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force posterior by enumeration, the reference for VE.
    fn enumerate_query(net: &BayesNet, target: NodeId, evidence: &[(NodeId, bool)]) -> f64 {
        let n = net.node_count();
        let ev: HashMap<NodeId, bool> = evidence.iter().copied().collect();
        let mut p_true = 0.0;
        let mut p_total = 0.0;
        for bits in 0..(1usize << n) {
            let assignment: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
            if ev.iter().any(|(k, v)| assignment[*k] != *v) {
                continue;
            }
            let p = net.joint(&assignment).unwrap();
            p_total += p;
            if assignment[target] {
                p_true += p;
            }
        }
        p_true / p_total
    }

    fn sprinkler_net() -> (BayesNet, NodeId, NodeId, NodeId, NodeId) {
        // The classic rain/sprinkler/wet-grass net.
        let mut net = BayesNet::new();
        let cloudy = net.add_node("cloudy", &[], vec![0.5]).unwrap();
        let sprinkler = net
            .add_node("sprinkler", &[cloudy], vec![0.5, 0.1])
            .unwrap();
        let rain = net.add_node("rain", &[cloudy], vec![0.2, 0.8]).unwrap();
        let wet = net
            .add_node("wet", &[sprinkler, rain], vec![0.0, 0.9, 0.9, 0.99])
            .unwrap();
        (net, cloudy, sprinkler, rain, wet)
    }

    #[test]
    fn add_node_validates() {
        let mut net = BayesNet::new();
        assert!(net.add_node("a", &[5], vec![0.5]).is_err());
        assert!(matches!(
            net.add_node("a", &[], vec![0.5, 0.5]),
            Err(ModelError::ArityMismatch { .. })
        ));
        assert!(matches!(
            net.add_node("a", &[], vec![1.5]),
            Err(ModelError::InvalidValue(_))
        ));
        assert!(net.add_node("a", &[], vec![0.5]).is_ok());
    }

    #[test]
    fn joint_sums_to_one() {
        let (net, ..) = sprinkler_net();
        let n = net.node_count();
        let total: f64 = (0..(1usize << n))
            .map(|bits| {
                let a: Vec<bool> = (0..n).map(|i| bits & (1 << i) != 0).collect();
                net.joint(&a).unwrap()
            })
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn query_prior_matches_hand_computation() {
        let (net, _, _, rain, _) = sprinkler_net();
        // P(rain) = 0.5*0.8 + 0.5*0.2 = 0.5.
        let p = net.query(rain, &[]).unwrap();
        assert!((p - 0.5).abs() < 1e-12);
    }

    #[test]
    fn query_matches_enumeration_everywhere() {
        let (net, cloudy, sprinkler, rain, wet) = sprinkler_net();
        let cases: Vec<Vec<(NodeId, bool)>> = vec![
            vec![],
            vec![(wet, true)],
            vec![(wet, true), (sprinkler, false)],
            vec![(cloudy, true), (wet, false)],
            vec![(rain, true), (sprinkler, true), (cloudy, false)],
        ];
        for evidence in &cases {
            for target in [cloudy, sprinkler, rain, wet] {
                if evidence.iter().any(|(n, _)| *n == target) {
                    continue;
                }
                let ve = net.query(target, evidence).unwrap();
                let brute = enumerate_query(&net, target, evidence);
                assert!(
                    (ve - brute).abs() < 1e-9,
                    "target {target} evidence {evidence:?}: VE {ve} vs brute {brute}"
                );
            }
        }
    }

    #[test]
    fn explaining_away() {
        let (net, _, sprinkler, rain, wet) = sprinkler_net();
        let p_rain_wet = net.query(rain, &[(wet, true)]).unwrap();
        let p_rain_wet_sprinkler = net.query(rain, &[(wet, true), (sprinkler, true)]).unwrap();
        assert!(
            p_rain_wet_sprinkler < p_rain_wet,
            "sprinkler explains the wet grass away"
        );
    }

    #[test]
    fn query_rejects_bad_input() {
        let (net, cloudy, ..) = sprinkler_net();
        assert!(net.query(99, &[]).is_err());
        assert!(net.query(cloudy, &[(99, true)]).is_err());
        assert!(matches!(
            net.query(cloudy, &[(1, true), (1, false)]),
            Err(ModelError::InvalidValue(_))
        ));
        assert!(BayesNet::new().query(0, &[]).is_err());
    }

    #[test]
    fn impossible_evidence_is_an_error() {
        let mut net = BayesNet::new();
        let a = net.add_node("a", &[], vec![1.0]).unwrap();
        let b = net.add_node("b", &[a], vec![0.0, 1.0]).unwrap();
        // a is always true and forces b: evidence b=false is impossible.
        assert!(matches!(
            net.query(a, &[(b, false)]),
            Err(ModelError::InvalidValue(_))
        ));
    }

    #[test]
    fn noisy_and_properties() {
        let cpt = noisy_and_cpt(&[0.9, 0.8], 0.02);
        assert_eq!(cpt.len(), 4);
        assert_eq!(cpt[0], 0.02);
        assert_eq!(cpt[1], 0.02);
        assert_eq!(cpt[2], 0.02);
        assert!((cpt[3] - 0.72).abs() < 1e-12);
    }
}
