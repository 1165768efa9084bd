//! Finite counter-example verification and (tiny-scale) search.
//!
//! A **finite counter-example** to "`Q` finitely determines `Q0`" is, in the
//! two-colored formulation (CQfDP.3), a finite structure `D` over `Σ̄` with
//! `D |= T_Q` and a tuple `ā` where one color of `Q0` holds and the other
//! does not.
//!
//! Verification ([`is_counterexample`]) is cheap and is what the
//! paper-scale constructions use (the Section VIII.E counter-models are
//! *verified*, not searched). The brute-force [`search_counterexample`] is a
//! deliberately tiny-scale tool: it enumerates all colored structures over a
//! few nodes, which is only feasible for signatures with a handful of
//! low-arity predicates — exactly the "toy instance" regime of the tests
//! and benchmarks.

use crate::coloring::GreenRed;
use crate::oracle::DeterminacyOracle;
use cqfd_core::{CancelToken, Cq, Node, Structure};
use std::sync::Arc;
use std::time::Instant;

/// Outcome of verifying a candidate counter-example.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterexampleReport {
    /// Did the structure satisfy `T_Q` (Lemma 4's condition ¶)?
    pub satisfies_tq: bool,
    /// A tuple where the two colors of `Q0` disagree, if any.
    pub witness: Option<Vec<Node>>,
    /// Is the structure a genuine counter-example (both of the above)?
    pub is_counterexample: bool,
}

/// Verifies whether `d` (over `Σ̄`) witnesses that `Q` does not finitely
/// determine `Q0`.
pub fn is_counterexample(
    oracle: &DeterminacyOracle,
    views: &[Cq],
    q0: &Cq,
    d: &Structure,
) -> CounterexampleReport {
    let (green, red) = oracle.colored_answers(q0, d);
    let witness = green.symmetric_difference(&red).next().cloned();
    if witness.is_none() {
        return CounterexampleReport {
            satisfies_tq: oracle.satisfies_tq(views, d),
            witness: None,
            is_counterexample: false,
        };
    }
    let satisfies_tq = oracle.satisfies_tq(views, d);
    CounterexampleReport {
        satisfies_tq,
        witness: witness.clone(),
        is_counterexample: satisfies_tq,
    }
}

/// Brute-force search for a finite counter-example over at most `max_nodes`
/// nodes. Returns the first one found (smallest domain, then enumeration
/// order) together with its witness tuple, or `None`.
///
/// A returned structure is verified exactly as [`is_counterexample`]
/// verifies one (colored answers, then `T_Q`), and the tuple is the
/// witness that function would report, so callers need not check it
/// again.
///
/// Only signatures whose colored atom space over the domain fits in 24 bits
/// are searched (larger spaces would take > 16M structures); beyond that the
/// function returns `None` without searching and sets `truncated` in debug
/// logs — callers treating `None` as "no counter-example up to n" must keep
/// this limit in mind.
pub fn search_counterexample(
    oracle: &DeterminacyOracle,
    views: &[Cq],
    q0: &Cq,
    max_nodes: usize,
) -> Option<(Structure, Vec<Node>)> {
    search_counterexample_until(oracle, views, q0, max_nodes, &CancelToken::inert(), None)
        .expect("an inert token with no deadline never stops the search")
}

/// The search was stopped — its cancel token fired or its deadline
/// passed — before it found a counter-example or exhausted the node cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchStopped;

/// [`search_counterexample`] with a cooperative stop: `cancel` and
/// `deadline` are polled once per candidate structure, and either one
/// ends the search with [`SearchStopped`]. The service runs the search
/// this way so that `timeout-ms=` and a dropped connection bound it.
pub fn search_counterexample_until(
    oracle: &DeterminacyOracle,
    views: &[Cq],
    q0: &Cq,
    max_nodes: usize,
    cancel: &CancelToken,
    deadline: Option<Instant>,
) -> Result<Option<(Structure, Vec<Node>)>, SearchStopped> {
    let gr: &GreenRed = oracle.greenred();
    let sig = Arc::clone(gr.colored());
    let n_consts = sig.const_count();
    for n in 1..=max_nodes {
        if n < n_consts {
            continue;
        }
        // Enumerate all possible ground atoms over an n-node domain.
        let mut slots: Vec<(cqfd_core::PredId, Vec<Node>)> = Vec::new();
        for p in sig.predicates() {
            let arity = sig.arity(p);
            let mut tuple = vec![0usize; arity];
            loop {
                slots.push((p, tuple.iter().map(|&i| Node(i as u32)).collect()));
                // increment the mixed-radix counter
                let mut k = 0;
                loop {
                    if k == arity {
                        break;
                    }
                    tuple[k] += 1;
                    if tuple[k] < n {
                        break;
                    }
                    tuple[k] = 0;
                    k += 1;
                }
                if k == arity {
                    break;
                }
                if arity == 0 {
                    break;
                }
            }
        }
        if slots.len() > 24 {
            return Ok(None); // atom space too large for exhaustive search
        }
        let total: u64 = 1u64 << slots.len();
        for mask in 1..total {
            if cancel.is_cancelled() || deadline.is_some_and(|t| Instant::now() >= t) {
                return Err(SearchStopped);
            }
            let mut d = Structure::new(Arc::clone(&sig));
            // Constants first (deterministic ids), then plain nodes.
            for c in sig.constants() {
                d.node_for_const(c);
            }
            while (d.node_count() as usize) < n {
                d.fresh_node();
            }
            for (i, (p, args)) in slots.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    d.add(*p, args);
                }
            }
            // Cheap check first: do the colored answers differ?
            let (green, red) = oracle.colored_answers(q0, &d);
            let Some(witness) = green.symmetric_difference(&red).next() else {
                continue;
            };
            if oracle.satisfies_tq(views, &d) {
                let witness = witness.clone();
                return Ok(Some((d, witness)));
            }
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cqfd_core::Signature;

    fn sig_r() -> Signature {
        let mut s = Signature::new();
        s.add_predicate("R", 2);
        s
    }

    #[test]
    fn projection_counterexample_is_found_and_verified() {
        // V(x) = ∃y R(x,y) does not determine Q0(x,y) = R(x,y):
        // D = { G:R(a,b), R:R(a,c) } is a counter-example.
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        let (found, witness) = search_counterexample(&oracle, std::slice::from_ref(&v), &q0, 3)
            .expect("search must find the classic projection counter-example");
        let report = is_counterexample(&oracle, &[v], &q0, &found);
        assert!(report.is_counterexample);
        assert!(report.satisfies_tq);
        assert_eq!(report.witness, Some(witness));
    }

    #[test]
    fn determined_instance_has_no_small_counterexample() {
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x,y) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        assert!(search_counterexample(&oracle, &[v], &q0, 2).is_none());
    }

    #[test]
    fn hand_built_counterexample_verifies() {
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        let gr = oracle.greenred();
        let r = gr.base().predicate("R").unwrap();
        let mut d = Structure::new(Arc::clone(gr.colored()));
        let a = d.fresh_node();
        let b = d.fresh_node();
        let c = d.fresh_node();
        d.add(gr.green(r), &[a, b]);
        d.add(gr.red(r), &[a, c]);
        let report = is_counterexample(&oracle, &[v], &q0, &d);
        assert!(report.is_counterexample);
    }

    #[test]
    fn tq_violation_disqualifies_candidate() {
        // Only a green atom: answers differ but T_Q fails.
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        let gr = oracle.greenred();
        let r = gr.base().predicate("R").unwrap();
        let mut d = Structure::new(Arc::clone(gr.colored()));
        let a = d.fresh_node();
        let b = d.fresh_node();
        d.add(gr.green(r), &[a, b]);
        let report = is_counterexample(&oracle, &[v], &q0, &d);
        assert!(!report.is_counterexample);
        assert!(!report.satisfies_tq);
        assert!(report.witness.is_some());
    }
}
