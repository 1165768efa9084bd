//! The dispatch mode and the fragment-routing decisions behind it.
//!
//! Every determinacy-shaped job (`determine`, `counterexample`) is
//! statically classified into the `A3xx` fragment lattice
//! ([`cqfd_analysis::classify`]); the **dispatch mode** says what the
//! executor may do with that verdict:
//!
//! * [`Dispatch::Semi`] — ignore it: run the budgeted semi-decision
//!   pipeline exactly as before this mode existed. The differential
//!   baseline.
//! * [`Dispatch::Auto`] (the default) — route decidable fragments to
//!   complete procedures: lift the stage cap where termination is
//!   guaranteed, cross-check the chase verdict against the independent
//!   deciders ([`cqfd_analysis::psv`] on `A300`, path divisibility on
//!   `A302`), and extract finite counter-models from the chase fixpoint
//!   instead of brute-force enumeration.
//! * [`Dispatch::Forced`] — like `Auto` for one expected fragment, but
//!   *fail* (before execution) if the classifier disagrees. A test and
//!   CI affordance: `dispatch=forced:A300` asserts the input really is
//!   project-select.
//!
//! The mode is **answer-relevant** — `auto` can turn an `unknown` or
//! `no-counterexample` into a definite verdict — so unlike `threads=` it
//! enters the canonical job hash (see `exec::job_key`).

use cqfd_analysis::{classify, Classification, Fragment};
use cqfd_core::Cq;
use cqfd_greenred::{greenred_tgds, DeterminacyOracle};
use std::fmt;

/// How the executor consults the fragment classification. See the module
/// docs for the three modes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Dispatch {
    /// The plain semi-decision pipeline; classification is stamped but
    /// never acted on.
    Semi,
    /// Route decidable fragments to their complete procedures.
    #[default]
    Auto,
    /// `Auto`, but reject the job up front unless the classifier assigns
    /// exactly this fragment.
    Forced(Fragment),
}

impl Dispatch {
    /// The wire rendering: `semi`, `auto`, or `forced:A3xx`.
    pub fn wire(self) -> String {
        match self {
            Dispatch::Semi => "semi".into(),
            Dispatch::Auto => "auto".into(),
            Dispatch::Forced(f) => format!("forced:{}", f.as_str()),
        }
    }

    /// Parses the wire rendering back. `None` for anything outside the
    /// closed set (protocol callers turn that into a named error).
    pub fn parse(s: &str) -> Option<Dispatch> {
        match s {
            "semi" => Some(Dispatch::Semi),
            "auto" => Some(Dispatch::Auto),
            _ => {
                let code = s.strip_prefix("forced:")?;
                Fragment::parse(code).map(Dispatch::Forced)
            }
        }
    }

    /// Is routing enabled (anything but `semi`)?
    pub fn routes(self) -> bool {
        !matches!(self, Dispatch::Semi)
    }
}

impl fmt::Display for Dispatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.wire())
    }
}

/// The complete procedure a job was routed to, stamped as `route=` on the
/// result line. A closed set, like `termination=`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// The budgeted semi-decision pipeline (the `A399` fallback, and
    /// everything under `dispatch=semi`).
    Semi,
    /// `A300`: total chase cross-checked by the independent project-select
    /// decision procedure.
    Psv,
    /// `A301`: total chase of the weakly acyclic `T_Q` — exact answer.
    TotalChase,
    /// `A302`: uncapped-stage chase cross-checked by the path
    /// divisibility criterion.
    Spider,
    /// Counter-model extracted from the chase fixpoint instead of
    /// brute-force enumeration (counterexample jobs in decidable
    /// fragments).
    ChaseModel,
}

impl Route {
    /// The stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Route::Semi => "semi",
            Route::Psv => "psv",
            Route::TotalChase => "total-chase",
            Route::Spider => "spider",
            Route::ChaseModel => "chase-model",
        }
    }

    /// Closed-set validation for the result-line parser.
    pub fn parse(s: &str) -> Option<Route> {
        [
            Route::Semi,
            Route::Psv,
            Route::TotalChase,
            Route::Spider,
            Route::ChaseModel,
        ]
        .into_iter()
        .find(|r| r.as_str() == s)
    }

    /// The route `dispatch=auto` picks for a `determine` job in the given
    /// fragment.
    pub fn for_fragment(fragment: Fragment) -> Route {
        match fragment {
            Fragment::ProjectSelect => Route::Psv,
            Fragment::WeaklyAcyclic => Route::TotalChase,
            Fragment::SpiderPath => Route::Spider,
            Fragment::General => Route::Semi,
        }
    }
}

/// Classifies a determinacy input against the exact green–red rule set
/// the oracle would chase. One classification per job execution; the
/// `cqfd_dispatch_classified_total{fragment}` counter tracks the volume.
pub fn classify_for(oracle: &DeterminacyOracle, views: &[Cq], q0: &Cq) -> Classification {
    let gr = oracle.greenred();
    let tgds = greenred_tgds(gr, views);
    let class = classify(gr.base(), views, q0, gr.colored(), &tgds);
    cqfd_obs::global()
        .counter(
            "cqfd_dispatch_classified_total",
            "Jobs classified into the A3xx fragment lattice, by fragment.",
            &[("fragment", class.fragment.as_str())],
        )
        .inc();
    class
}

/// Bumps `cqfd_dispatch_routed_total{fragment}` — called once per job the
/// dispatcher actually routes to a complete procedure.
pub fn note_routed(fragment: Fragment) {
    cqfd_obs::global()
        .counter(
            "cqfd_dispatch_routed_total",
            "Jobs routed to a complete decision procedure, by fragment.",
            &[("fragment", fragment.as_str())],
        )
        .inc();
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
    fn dispatch_wire_round_trips() {
        for d in [
            Dispatch::Semi,
            Dispatch::Auto,
            Dispatch::Forced(Fragment::ProjectSelect),
            Dispatch::Forced(Fragment::SpiderPath),
            Dispatch::Forced(Fragment::WeaklyAcyclic),
            Dispatch::Forced(Fragment::General),
        ] {
            assert_eq!(Dispatch::parse(&d.wire()), Some(d), "{}", d.wire());
        }
        assert_eq!(Dispatch::parse("forced:A123"), None);
        assert_eq!(Dispatch::parse("eager"), None);
        assert_eq!(Dispatch::parse("forced:"), None);
    }

    #[test]
    fn route_wire_round_trips() {
        for r in [
            Route::Semi,
            Route::Psv,
            Route::TotalChase,
            Route::Spider,
            Route::ChaseModel,
        ] {
            assert_eq!(Route::parse(r.as_str()), Some(r));
        }
        assert_eq!(Route::parse("quantum"), None);
    }

    #[test]
    fn builtin_families_classify_deterministically() {
        use cqfd_greenred::instances::{
            composed_path_instance, mismatched_path_instance, projection_instance,
        };
        let cases = [
            (projection_instance(), Fragment::ProjectSelect),
            (composed_path_instance(1, 3), Fragment::ProjectSelect),
            (composed_path_instance(2, 3), Fragment::SpiderPath),
            (mismatched_path_instance(2, 3), Fragment::SpiderPath),
            (mismatched_path_instance(3, 4), Fragment::SpiderPath),
        ];
        for (inst, expected) in cases {
            let oracle = DeterminacyOracle::new(inst.sig.clone());
            let a = classify_for(&oracle, &inst.views, &inst.q0);
            let b = classify_for(&oracle, &inst.views, &inst.q0);
            assert_eq!(a.fragment, expected, "{}", inst.name);
            assert_eq!(a.fragment, b.fragment, "deterministic: {}", inst.name);
            assert_eq!(
                a.witness.render_line(),
                b.witness.render_line(),
                "witness deterministic: {}",
                inst.name
            );
        }
    }

    #[test]
    fn spider_classification_carries_path_lengths() {
        use cqfd_greenred::instances::mismatched_path_instance;
        let inst = mismatched_path_instance(2, 5);
        let oracle = DeterminacyOracle::new(inst.sig.clone());
        let class = classify_for(&oracle, &inst.views, &inst.q0);
        assert_eq!(class.fragment, Fragment::SpiderPath);
        assert_eq!(class.path_lengths, Some((2, 5)));
        assert!(
            class.witness.message.contains("does not divide"),
            "{}",
            class.witness.message
        );
    }

    #[test]
    fn general_inputs_get_a399_with_a_cycle_witness() {
        let sig = sig_r();
        // A join view: not project-select, not a path of m >= 2 vs path
        // query... it is a 2-path view actually — use a triangle view.
        let v = cqfd_core::Cq::parse(&sig, "V(x) :- R(x,y), R(y,x)").unwrap();
        let q0 = cqfd_core::Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        let class = classify_for(&oracle, &[v], &q0);
        assert_eq!(class.fragment, Fragment::General);
        assert!(
            class.witness.message.contains("~>"),
            "cycle witness expected: {}",
            class.witness.message
        );
    }
}
