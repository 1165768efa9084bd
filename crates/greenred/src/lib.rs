//! # cqfd-greenred — the two-colored restatement of determinacy (paper §IV)
//!
//! The paper's first move (§IV) replaces the two database instances
//! `D1, D2` of the determinacy definition by **one** structure over a
//! two-colored signature `Σ̄ = Σ_G ∪ Σ_R`:
//!
//! * [`GreenRed`] builds `Σ̄` from `Σ` and provides the coloring maps
//!   `G(·)`, `R(·)` and the color-erasing `dalt(·)` ("daltonisation"), on
//!   formulas and on structures;
//! * [`tq`](greenred_tgds) implements Definition 3: every view query `Q`
//!   generates the pair of TGDs `Q^{G→R}`, `Q^{R→G}`, and `T_Q` is the set
//!   of all of them. Lemma 4 (condition ¶ ⇔ `D |= T_Q`) is a tested law;
//! * [`DeterminacyOracle`] is the CQfDP.3 semi-decision procedure: `Q`
//!   determines `Q0` (in the unrestricted sense) **iff**
//!   `chase(T_Q, green(Q0)) |= red(Q0)` — and since unrestricted determinacy
//!   implies finite determinacy, a chase certificate settles both;
//! * [`search`] verifies and (for tiny signatures) brute-forces finite
//!   counter-examples: structures `D |= T_Q` where `G(Q0)` holds at a tuple
//!   but `R(Q0)` does not.
//!
//! Observation 6 ("daltonisation of the chase maps back into the original")
//! is also exposed and tested: see [`coloring::GreenRed::dalt_structure`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coloring;
pub mod instances;
pub mod oracle;
pub mod rewriting;
pub mod search;
pub mod tq;

pub use coloring::{Color, GreenRed};
pub use oracle::{CertifiedRun, DeterminacyOracle, Verdict};
pub use rewriting::{cq_rewriting, Rewriting};
pub use search::{
    is_counterexample, search_counterexample, search_counterexample_until, CounterexampleReport,
    SearchStopped,
};
pub use tq::greenred_tgds;
