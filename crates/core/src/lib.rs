//! # cqfd-core — relational substrate
//!
//! The relational-structure substrate underneath the whole `cqfd` workspace:
//! signatures, terms, atoms, finite relational structures, homomorphism
//! search, and conjunctive queries.
//!
//! Everything in the paper — Level 0 spider structures, Level 1 swarms,
//! Level 2 green graphs, the two-colored instances of Section IV — is a
//! finite relational structure over some signature, and every dynamic step
//! (conjunctive-query evaluation, TGD triggers, the chase) reduces to
//! homomorphism search. This crate implements that once, with indexes, and
//! the rest of the workspace reuses it.
//!
//! ## Vocabulary (paper §II.A)
//!
//! * A **structure** [`Structure`] is a set of positive relational atoms
//!   over elements ([`Node`]s); constants of the signature are pinned to
//!   dedicated nodes.
//! * A **homomorphism** maps elements to elements preserving atoms and
//!   fixing constants; see [`hom`].
//! * A **conjunctive query** [`Cq`] is an existentially quantified
//!   conjunction of atoms; its **canonical structure** `A[Ψ]` is the
//!   structure whose elements are the variables and constants of `Ψ`.
//!
//! ```
//! use cqfd_core::{Cq, Signature, Structure};
//! use std::sync::Arc;
//!
//! let mut sig = Signature::new();
//! let r = sig.add_predicate("R", 2);
//! let sig = Arc::new(sig);
//!
//! // A small structure: a 2-path.
//! let mut d = Structure::new(Arc::clone(&sig));
//! let (a, b, c) = (d.fresh_node(), d.fresh_node(), d.fresh_node());
//! d.add(r, &[a, b]);
//! d.add(r, &[b, c]);
//!
//! // Evaluate a conjunctive query over it.
//! let q = Cq::parse(&sig, "Q(x,z) :- R(x,y), R(y,z)").unwrap();
//! let answers = q.eval(&d);
//! assert_eq!(answers.len(), 1);
//! assert!(answers.contains(&vec![a, c]));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod atom;
pub mod cancel;
pub mod core_of;
pub mod cq;
pub mod error;
mod fasthash;
pub mod hom;
pub mod iso;
pub mod parse;
pub mod signature;
pub mod structure;
pub mod term;

pub use atom::{Atom, AtomRef, GroundAtom};
pub use cancel::CancelToken;
pub use core_of::{compact, core_of, hom_equivalent, is_core};
pub use cq::{AnswerSet, Cq};
pub use error::CoreError;
pub use hom::{
    add_hom_nodes_explored, all_homomorphisms, exists_homomorphism, find_homomorphism,
    for_each_homomorphism, hom_nodes_explored, publish_hom_metrics, reset_hom_nodes_explored,
    structure_homomorphism, Binding, HomPlan, VarMap, WcoPlan,
};
pub use iso::isomorphic;
pub use signature::{ConstId, PredId, Signature};
pub use structure::{Atoms, Node, Structure};
pub use term::{Term, Var};
