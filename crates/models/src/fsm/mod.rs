//! Finite-state models (paper §2.2).
//!
//! A deterministic finite-state machine over an application-defined symbol
//! alphabet. The paper's finite-state models describe "complex behaviour"
//! of environmental phenomena — the canonical instance is the fire-ants
//! machine of Fig. 1 ([`fire_ants`]). Retrieval with an FSM model means
//! finding the data series (or locations) whose event streams drive the
//! machine into an accepting state.

pub mod fire_ants;

use crate::error::ModelError;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::fmt;
use std::hash::Hash;

/// Identifier of a state within an [`Fsm`].
pub type StateId = usize;

/// A deterministic finite-state machine over symbols of type `S`.
///
/// Running with a symbol that has no transition from the current state is
/// an error, which keeps silent model mis-specification from producing
/// wrong retrievals.
///
/// # Examples
///
/// ```
/// use mbir_models::fsm::Fsm;
///
/// let mut fsm: Fsm<char> = Fsm::new();
/// let s0 = fsm.add_state("even");
/// let s1 = fsm.add_state("odd");
/// fsm.set_start(s0).unwrap();
/// fsm.set_accepting(s1, true).unwrap();
/// fsm.add_transition(s0, 'a', s1).unwrap();
/// fsm.add_transition(s1, 'a', s0).unwrap();
/// // Accepting states are entered after the first and third 'a'.
/// assert_eq!(fsm.acceptance_events(&['a', 'a', 'a']).unwrap(), vec![0, 2]);
/// ```
#[derive(Debug, Clone)]
pub struct Fsm<S> {
    names: Vec<String>,
    transitions: HashMap<(StateId, S), StateId>,
    start: Option<StateId>,
    accepting: HashSet<StateId>,
}

impl<S: Copy + Eq + Hash> Fsm<S> {
    /// Creates an empty machine.
    pub fn new() -> Self {
        Fsm {
            names: Vec::new(),
            transitions: HashMap::new(),
            start: None,
            accepting: HashSet::new(),
        }
    }

    /// Adds a state, returning its id.
    pub fn add_state(&mut self, name: impl Into<String>) -> StateId {
        self.names.push(name.into());
        self.names.len() - 1
    }

    /// Sets the start state.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unknown`] for an invalid id.
    pub fn set_start(&mut self, state: StateId) -> Result<(), ModelError> {
        self.check_state(state)?;
        self.start = Some(state);
        Ok(())
    }

    /// Marks / unmarks a state accepting.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unknown`] for an invalid id.
    pub fn set_accepting(&mut self, state: StateId, accepting: bool) -> Result<(), ModelError> {
        self.check_state(state)?;
        if accepting {
            self.accepting.insert(state);
        } else {
            self.accepting.remove(&state);
        }
        Ok(())
    }

    /// Whether a state is accepting.
    pub fn is_accepting(&self, state: StateId) -> bool {
        self.accepting.contains(&state)
    }

    /// The start state, if set.
    pub fn start(&self) -> Option<StateId> {
        self.start
    }

    /// Adds a transition `from --sym--> to`, replacing any existing one for
    /// `(from, sym)`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unknown`] for invalid state ids.
    pub fn add_transition(&mut self, from: StateId, sym: S, to: StateId) -> Result<(), ModelError> {
        self.check_state(from)?;
        self.check_state(to)?;
        self.transitions.insert((from, sym), to);
        Ok(())
    }

    /// One deterministic step; `None` when no transition is defined.
    pub fn step(&self, state: StateId, sym: S) -> Option<StateId> {
        self.transitions.get(&(state, sym)).copied()
    }

    /// Runs the machine over `input`, returning the state after each symbol.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Unknown`] when the start state is unset or a
    /// transition is missing.
    pub fn run(&self, input: &[S]) -> Result<Vec<StateId>, ModelError>
    where
        S: fmt::Debug,
    {
        let mut state = self
            .start
            .ok_or_else(|| ModelError::Unknown("start state not set".into()))?;
        let mut trace = Vec::with_capacity(input.len());
        for sym in input {
            state = self.step(state, *sym).ok_or_else(|| {
                ModelError::Unknown(format!(
                    "missing transition from '{}' on {sym:?}",
                    self.names[state]
                ))
            })?;
            trace.push(state);
        }
        Ok(trace)
    }

    /// Indexes of input positions at which the machine *enters* an accepting
    /// state (event detection semantics: position `i` means after consuming
    /// `input[i]`).
    ///
    /// # Errors
    ///
    /// Propagates [`Fsm::run`] errors.
    pub fn acceptance_events(&self, input: &[S]) -> Result<Vec<usize>, ModelError>
    where
        S: fmt::Debug,
    {
        let trace = self.run(input)?;
        let mut events = Vec::new();
        let mut prev_accepting = self.start.map(|s| self.is_accepting(s)).unwrap_or(false);
        for (i, state) in trace.iter().enumerate() {
            let now = self.is_accepting(*state);
            if now && !prev_accepting {
                events.push(i);
            }
            prev_accepting = now;
        }
        Ok(events)
    }

    /// Coarsens the machine by merging states into groups (`partition[s]` =
    /// group of state `s`), producing an NFA that **over-approximates** this
    /// machine's behaviour: every run of the DFA maps to a run of the NFA,
    /// so if the DFA can accept, the NFA can accept. Screening with the
    /// coarse machine therefore never causes false dismissals — the paper's
    /// progressive-model property.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ArityMismatch`] when `partition.len()` differs
    /// from the state count, or [`ModelError::Unknown`] when the start state
    /// is unset.
    pub fn coarsen(&self, partition: &[usize]) -> Result<CoarseFsm<S>, ModelError> {
        if partition.len() != self.names.len() {
            return Err(ModelError::ArityMismatch {
                expected: self.names.len(),
                actual: partition.len(),
            });
        }
        let start = self
            .start
            .ok_or_else(|| ModelError::Unknown("start state not set".into()))?;
        let mut transitions: HashMap<(usize, S), BTreeSet<usize>> = HashMap::new();
        for ((from, sym), to) in &self.transitions {
            transitions
                .entry((partition[*from], *sym))
                .or_default()
                .insert(partition[*to]);
        }
        let accepting: HashSet<usize> = self.accepting.iter().map(|s| partition[*s]).collect();
        Ok(CoarseFsm {
            transitions,
            start: partition[start],
            accepting,
        })
    }

    fn check_state(&self, state: StateId) -> Result<(), ModelError> {
        if state >= self.names.len() {
            return Err(ModelError::Unknown(format!("state {state}")));
        }
        Ok(())
    }
}

impl<S: Copy + Eq + Hash> Default for Fsm<S> {
    fn default() -> Self {
        Fsm::new()
    }
}

/// The nondeterministic coarsening of an [`Fsm`] (see [`Fsm::coarsen`]).
#[derive(Debug, Clone)]
pub struct CoarseFsm<S> {
    transitions: HashMap<(usize, S), BTreeSet<usize>>,
    start: usize,
    accepting: HashSet<usize>,
}

impl<S: Copy + Eq + Hash> CoarseFsm<S> {
    /// Whether any prefix of `input` drives the coarse machine into an
    /// accepting group — the screening predicate for event detection.
    pub fn may_reach_accepting(&self, input: &[S]) -> bool {
        let mut current: BTreeSet<usize> = BTreeSet::from([self.start]);
        if current.iter().any(|g| self.accepting.contains(g)) {
            return true;
        }
        for sym in input {
            let mut next = BTreeSet::new();
            for g in &current {
                if let Some(tos) = self.transitions.get(&(*g, *sym)) {
                    next.extend(tos.iter().copied());
                }
            }
            if next.is_empty() {
                return false;
            }
            if next.iter().any(|g| self.accepting.contains(g)) {
                return true;
            }
            current = next;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Machine accepting strings with an odd number of 'a's (alphabet a, b).
    fn odd_a() -> Fsm<char> {
        let mut fsm = Fsm::new();
        let even = fsm.add_state("even");
        let odd = fsm.add_state("odd");
        fsm.set_start(even).unwrap();
        fsm.set_accepting(odd, true).unwrap();
        fsm.add_transition(even, 'a', odd).unwrap();
        fsm.add_transition(odd, 'a', even).unwrap();
        fsm.add_transition(even, 'b', even).unwrap();
        fsm.add_transition(odd, 'b', odd).unwrap();
        fsm
    }

    #[test]
    fn run_and_accept() {
        let fsm = odd_a();
        let ends_accepting =
            |input: &[char]| fsm.is_accepting(*fsm.run(input).unwrap().last().unwrap());
        assert!(ends_accepting(&['a']));
        assert!(ends_accepting(&['a', 'b', 'b']));
        assert!(!ends_accepting(&['a', 'a']));
        assert!(fsm.run(&[]).unwrap().is_empty());
        assert!(!fsm.is_accepting(fsm.start().unwrap()));
        assert!(fsm.run(&['z']).is_err());
    }

    #[test]
    fn acceptance_events_fire_on_entry_only() {
        let fsm = odd_a();
        // States after each symbol: a->odd(0), b->odd, a->even, a->odd(3).
        let events = fsm.acceptance_events(&['a', 'b', 'a', 'a']).unwrap();
        assert_eq!(events, vec![0, 3]);
    }

    #[test]
    fn invalid_ids_are_rejected() {
        let mut fsm: Fsm<char> = Fsm::new();
        let s = fsm.add_state("s");
        assert!(fsm.set_start(7).is_err());
        assert!(fsm.set_accepting(7, true).is_err());
        assert!(fsm.add_transition(s, 'a', 9).is_err());
    }

    #[test]
    fn coarsening_over_approximates() {
        let fsm = odd_a();
        // Merge both states into one group: the coarse machine may reach
        // acceptance on input no prefix of which the DFA accepts.
        let coarse = fsm.coarsen(&[0, 0]).unwrap();
        assert!(fsm.acceptance_events(&['b', 'b']).unwrap().is_empty());
        assert!(
            coarse.may_reach_accepting(&['b', 'b']),
            "over-approximation"
        );
        assert!(coarse.may_reach_accepting(&['b', 'a']));
        // Identity partition is exact.
        let exact = fsm.coarsen(&[0, 1]).unwrap();
        assert!(exact.may_reach_accepting(&['b', 'a']));
        assert!(!exact.may_reach_accepting(&['b', 'b']));
    }

    #[test]
    fn coarsen_validates_partition() {
        let fsm = odd_a();
        assert!(fsm.coarsen(&[0]).is_err());
    }

    proptest! {
        #[test]
        fn prop_coarse_never_misses(input in proptest::collection::vec(prop::sample::select(vec!['a','b']), 0..30)) {
            let fsm = odd_a();
            // Every partition of 2 states into <=2 groups.
            for partition in [[0usize, 0], [0, 1]] {
                let coarse = fsm.coarsen(&partition).unwrap();
                let events = fsm.acceptance_events(&input).unwrap();
                if !events.is_empty() {
                    prop_assert!(coarse.may_reach_accepting(&input));
                }
            }
        }
    }
}
