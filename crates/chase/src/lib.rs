//! # cqfd-chase — tuple-generating dependencies and the lazy chase
//!
//! Implements §II.B–C of the paper:
//!
//! * [`Tgd`] — a tuple-generating dependency
//!   `∀x̄,ȳ [Φ(x̄,ȳ) ⇒ ∃z̄ Ψ(z̄,ȳ)]`, viewed (as the paper insists) as a
//!   *procedure* acting on a structure;
//! * [`ChaseEngine`] — the stage-indexed **lazy** chase
//!   `chase₀ ⊆ chase₁ ⊆ …` with the paper's exact stage semantics: at stage
//!   `i+1`, triggers are enumerated over the atoms of stage `i` (a frozen
//!   snapshot), while the "already satisfied" check (condition ­) runs
//!   against the live, growing structure;
//! * fixpoint detection, budgets, per-stage accounting, and model checking
//!   (`D |= T` ⇔ no active trigger).
//!
//! The chase's universality (the textbook fact \[JK82\] used in §VII Step 2 —
//! every model of `T` containing `D` receives a homomorphism from
//! `chase(T, D)`) is exercised through
//! [`cqfd_core::structure_homomorphism`]; see the tests.
//!
//! ```
//! use cqfd_chase::{ChaseBudget, ChaseEngine, Tgd};
//! use cqfd_core::{Atom, Signature, Structure, Term, Var};
//! use std::sync::Arc;
//!
//! let mut sig = Signature::new();
//! let r = sig.add_predicate("R", 2);
//! let s = sig.add_predicate("S", 2);
//! let sig = Arc::new(sig);
//!
//! // R(x, y) ⇒ ∃z S(y, z)
//! let v = |i| Term::Var(Var(i));
//! let tgd = Tgd::new_unchecked(
//!     "t",
//!     vec![Atom::new(r, vec![v(0), v(1)])],
//!     vec![Atom::new(s, vec![v(1), v(2)])],
//! );
//! let engine = ChaseEngine::new(vec![tgd]);
//!
//! let mut d = Structure::new(Arc::clone(&sig));
//! let (a, b) = (d.fresh_node(), d.fresh_node());
//! d.add(r, &[a, b]);
//! assert!(!engine.is_model(&d));
//!
//! let run = engine.chase(&d, &ChaseBudget::default());
//! assert!(run.reached_fixpoint());
//! assert!(engine.is_model(&run.structure));
//! assert_eq!(run.structure.atom_count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod termination;
pub mod tgd;

pub use engine::{
    ChaseBudget, ChaseEngine, ChaseHooks, ChaseOutcome, ChaseRun, CheckpointFn, Firing,
    ResumePoint, StageInfo,
};
pub use termination::{PredPos, Termination};
pub use tgd::Tgd;
