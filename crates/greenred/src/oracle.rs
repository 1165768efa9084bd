//! The CQfDP.3 determinacy oracle (paper §IV.B).
//!
//! Determinacy (unrestricted) holds iff `red(Q0)` is true — at the original
//! free-variable tuple — in the single universal structure
//! `chase(T_Q, green(A[Q0]))`. The oracle runs that chase, checking
//! `red(Q0)` after every stage:
//!
//! * success ⇒ **determined**, in the unrestricted *and* (a fortiori) the
//!   finite sense, with the stage number as certificate;
//! * budget exhaustion ⇒ **unknown** — and this is fundamental, not an
//!   implementation weakness: by Theorem 1 no procedure decides the
//!   question, and by Theorem 14 there are instances (built in
//!   `cqfd-separating`) where the chase *never* certifies although finite
//!   determinacy holds.

use crate::coloring::{Color, GreenRed};
use crate::tq::greenred_tgds;
use cqfd_cert::{convert, Certificate};
use cqfd_chase::{ChaseBudget, ChaseEngine, ChaseHooks, ChaseOutcome, ChaseRun};
use cqfd_core::{exists_homomorphism, find_homomorphism, Cq, Node, Signature, VarMap};
use cqfd_obs::span;
use std::sync::Arc;

/// Outcome of a determinacy oracle run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// `Q` determines `Q0`; `red(Q0)` appeared at chase stage `stage`.
    /// This implies finite determinacy too.
    Determined {
        /// The first chase stage at which `red(Q0)` held.
        stage: usize,
    },
    /// The chase reached a fixpoint without `red(Q0)`: `Q` does **not**
    /// determine `Q0` — and since the fixpoint is a *finite* model of
    /// `T_Q` in which `green(Q0)` holds where `red(Q0)` does not, it is a
    /// finite counter-example: **finite determinacy fails too**. (The
    /// Theorem 14 separation between the two notions can only occur when
    /// the chase is infinite; see
    /// [`DeterminacyOracle::refutation_witness`].)
    NotDeterminedUnrestricted {
        /// Number of stages to the fixpoint.
        stages: usize,
    },
    /// Budget exhausted; nothing can be concluded.
    Unknown {
        /// Stages run before giving up.
        stages: usize,
    },
}

impl Verdict {
    /// True if determinacy was certified.
    pub fn is_determined(&self) -> bool {
        matches!(self, Verdict::Determined { .. })
    }

    /// A stable lowercase name, used as the `verdict` metric label on
    /// `cqfd_oracle_verdicts_total`.
    pub fn name(&self) -> &'static str {
        match self {
            Verdict::Determined { .. } => "determined",
            Verdict::NotDeterminedUnrestricted { .. } => "not_determined",
            Verdict::Unknown { .. } => "unknown",
        }
    }
}

/// A verdict together with the chase run that produced it and a
/// machine-checkable [`Certificate`] for it:
///
/// * [`Verdict::Determined`] → a [`Certificate::ChaseTrace`] whose replay
///   re-derives the chase and whose goal claim is `red(Q0)` at the
///   canonical tuple, with an explicit witness homomorphism;
/// * [`Verdict::NotDeterminedUnrestricted`] → a
///   [`Certificate::FiniteModel`]: the fixpoint models `T_Q`, satisfies
///   `green(Q0)` (witnessed) and falsifies `red(Q0)` at the tuple — the
///   finite counter-example, independently re-checkable;
/// * [`Verdict::Unknown`] → a [`Certificate::NonHomRefutation`]
///   attestation recording the exhausted stage budget.
///
/// `cqfd_cert::check` validates all three without touching this crate's
/// search code.
#[derive(Debug, Clone)]
pub struct CertifiedRun {
    /// The oracle's verdict.
    pub verdict: Verdict,
    /// The underlying chase run (stages, metrics, final structure).
    pub run: ChaseRun,
    /// The proof artifact for the verdict.
    pub certificate: Certificate,
}

/// Chase-based semi-decision procedure for conjunctive-query determinacy.
#[derive(Debug, Clone)]
pub struct DeterminacyOracle {
    gr: GreenRed,
}

impl DeterminacyOracle {
    /// Creates an oracle over the base signature `Σ`.
    pub fn new(base: Signature) -> Self {
        DeterminacyOracle {
            gr: GreenRed::new(Arc::new(base)),
        }
    }

    /// Creates an oracle from an existing green–red context.
    pub fn from_greenred(gr: GreenRed) -> Self {
        DeterminacyOracle { gr }
    }

    /// The green–red context in use.
    pub fn greenred(&self) -> &GreenRed {
        &self.gr
    }

    /// Runs the oracle for at most `max_stages` chase stages.
    ///
    /// Returns [`Verdict::Determined`] with the certifying stage,
    /// [`Verdict::NotDeterminedUnrestricted`] if the chase terminated
    /// without certifying, or [`Verdict::Unknown`] on budget exhaustion.
    pub fn try_certify(
        &self,
        views: &[Cq],
        q0: &Cq,
        max_stages: usize,
    ) -> Result<Verdict, cqfd_core::CoreError> {
        let certified = self.certify_run(views, q0, &ChaseBudget::stages(max_stages));
        Ok(certified.verdict)
    }

    /// Runs the oracle under an arbitrary [`ChaseBudget`] — including its
    /// cancellation token and deadline — and returns the verdict, the full
    /// [`ChaseRun`] (so callers like the `cqfd-service` job pool and the
    /// CLI can report stage/trigger/hom-node metrics), and a
    /// machine-checkable [`Certificate`] for the verdict (see
    /// [`CertifiedRun`] for the per-verdict certificate shapes).
    ///
    /// A cancelled or budget-exhausted run yields [`Verdict::Unknown`]: by
    /// Theorem 1 nothing else can be concluded.
    pub fn certify_run(&self, views: &[Cq], q0: &Cq, budget: &ChaseBudget) -> CertifiedRun {
        self.certify_run_with(views, q0, budget, ChaseHooks::default())
    }

    /// The chase setup [`certify_run`](Self::certify_run) works over: the
    /// recording [`ChaseEngine`] for `T_Q`, the start structure
    /// `green(A[Q0])`, and the canonical tuple. Exposed so `cqfd-store`'s
    /// write-ahead stage log can render/verify the same signature, rules
    /// and start structure the oracle chases, and replay a logged prefix
    /// through [`ChaseEngine::replay`].
    pub fn chase_setup(&self, views: &[Cq], q0: &Cq) -> (ChaseEngine, Structure2, Vec<Node>) {
        let tgds = greenred_tgds(&self.gr, views);
        let engine = ChaseEngine::new(tgds).with_recording(true);
        let (start, tuple) = self.green_canonical(q0);
        (engine, start, tuple)
    }

    /// [`certify_run`](Self::certify_run) with chase side channels: resume
    /// the oracle chase from a stage-boundary snapshot and/or observe each
    /// committed stage (see [`ChaseHooks`]). The verdict and certificate
    /// of a resumed run are byte-identical to the uninterrupted run's.
    pub fn certify_run_with(
        &self,
        views: &[Cq],
        q0: &Cq,
        budget: &ChaseBudget,
        hooks: ChaseHooks<'_>,
    ) -> CertifiedRun {
        let _oracle_span = span!("oracle.certify_run", q0 = &q0.name, views = views.len());
        let (engine, start, tuple, red_q0) = {
            let _build = span!("oracle.build");
            let (engine, start, tuple) = self.chase_setup(views, q0);
            let red_q0 = self.colored_query(Color::Red, q0);
            (engine, start, tuple, red_q0)
        };
        // Pre-size the stage budget from the static termination verdict:
        // when T_Q is certified weakly acyclic its chase reaches a fixpoint,
        // so a tight caller-supplied stage cap must not turn a decidable
        // answer into `Unknown`. Non-weakly-acyclic sets keep the caller's
        // cap unchanged.
        let budget = budget.clone().presized_for(engine.termination());
        let run = {
            let _chase = span!("oracle.chase", max_stages = budget.max_stages);
            // The per-stage monitor is the oracle's final hom check.
            let monitor_fixed: VarMap = red_q0
                .head_vars
                .iter()
                .copied()
                .zip(tuple.iter().copied())
                .collect();
            engine.chase_with_hooks(
                &start,
                &budget,
                |d, _stage| exists_homomorphism(&red_q0.body, d, &monitor_fixed),
                hooks,
            )
        };
        let verdict = match run.outcome {
            ChaseOutcome::MonitorStopped => {
                // The monitor fired at the first stage where red(Q0) held.
                Verdict::Determined {
                    stage: run.stage_count(),
                }
            }
            ChaseOutcome::Fixpoint => {
                // Double-check on the fixpoint (monitor already covered it,
                // but the final check keeps this robust to monitor ordering).
                if red_q0.holds(&run.structure, &tuple) {
                    Verdict::Determined {
                        stage: run.stage_count(),
                    }
                } else {
                    Verdict::NotDeterminedUnrestricted {
                        stages: run.stage_count(),
                    }
                }
            }
            _ => Verdict::Unknown {
                stages: run.stage_count(),
            },
        };
        cqfd_obs::global()
            .counter(
                "cqfd_oracle_verdicts_total",
                "Determinacy oracle runs, by verdict.",
                &[("verdict", verdict.name())],
            )
            .inc();
        let _emit = span!("oracle.emit_certificate", verdict = verdict.name());
        let fixed: VarMap = red_q0
            .head_vars
            .iter()
            .copied()
            .zip(tuple.iter().copied())
            .collect();
        let sig = self.gr.colored();
        let certificate = match &verdict {
            Verdict::Determined { .. } => {
                // The witness search runs on the producer side only; the
                // checker re-validates it by pure substitution.
                let witness = find_homomorphism(&red_q0.body, &run.structure, &fixed)
                    .expect("Determined verdicts have a red(Q0) witness");
                let goal = convert::holds_claim(&red_q0, &tuple, &witness);
                convert::chase_trace(sig, engine.tgds(), &start, &run, Some(goal))
            }
            Verdict::NotDeterminedUnrestricted { .. } => {
                let green_q0 = self.colored_query(Color::Green, q0);
                let witness = find_homomorphism(&green_q0.body, &run.structure, &fixed)
                    .expect("green(Q0) holds in its own chase");
                Certificate::FiniteModel {
                    sig: convert::sig_spec(sig),
                    rules: engine.tgds().iter().map(convert::rule_spec).collect(),
                    structure: convert::struct_spec(&run.structure),
                    holds: vec![convert::holds_claim(&green_q0, &tuple, &witness)],
                    fails: vec![convert::fails_claim(&red_q0, &tuple)],
                }
            }
            Verdict::Unknown { stages } => Certificate::NonHomRefutation {
                sig: convert::sig_spec(sig),
                what: format!(
                    "chase of T_Q from green(A[{}]) exhausted without certifying red({})",
                    q0.name, q0.name
                ),
                bound: (*stages as u64).max(1),
                explored: run.hom_nodes,
            },
        };
        CertifiedRun {
            verdict,
            run,
            certificate,
        }
    }

    /// Runs the chase of `T_Q` from `green(A[Q0])` with the given budget,
    /// stopping as soon as `red(Q0)` holds at the canonical tuple. Returns
    /// the run and the canonical tuple (images of `Q0`'s free variables).
    ///
    /// Exposed so the experiments can inspect stage structures directly.
    pub fn chase_instance(
        &self,
        views: &[Cq],
        q0: &Cq,
        budget: &ChaseBudget,
    ) -> (ChaseRun, Vec<Node>) {
        let tgds = greenred_tgds(&self.gr, views);
        let engine = ChaseEngine::new(tgds);
        let start = self.green_canonical(q0);
        let (start_structure, tuple) = start;
        let red_q0 = self.colored_query(Color::Red, q0);
        let monitor_fixed: VarMap = red_q0
            .head_vars
            .iter()
            .copied()
            .zip(tuple.iter().copied())
            .collect();
        let run = engine.chase_with_monitor(&start_structure, budget, |d, _stage| {
            exists_homomorphism(&red_q0.body, d, &monitor_fixed)
        });
        (run, tuple)
    }

    /// `green(A[Q0])` over `Σ̄`, together with the canonical tuple `ā`
    /// (the nodes of `Q0`'s free variables).
    pub fn green_canonical(&self, q0: &Cq) -> (Structure2, Vec<Node>) {
        let green_q0 = self.colored_query(Color::Green, q0);
        let (canon, var2node) = green_q0.canonical_structure(Arc::clone(self.gr.colored()));
        let tuple: Vec<Node> = q0.head_vars.iter().map(|v| var2node[v]).collect();
        (canon, tuple)
    }

    /// The query `Q0` with its body painted in `color`, over `Σ̄`.
    pub fn colored_query(&self, color: Color, q0: &Cq) -> Cq {
        Cq::new_unchecked(
            format!("{:?}:{}", color, q0.name),
            q0.head_vars.clone(),
            self.gr.color_formula(color, &q0.body),
            q0.var_names.clone(),
        )
    }

    /// Does the (colored) structure `d` satisfy `T_Q`?
    pub fn satisfies_tq(&self, views: &[Cq], d: &Structure2) -> bool {
        ChaseEngine::new(greenred_tgds(&self.gr, views)).is_model(d)
    }

    /// When the chase of `T_Q` from `green(A[Q0])` terminates without
    /// certifying, its fixpoint is a **finite refutation witness**: a
    /// finite model of `T_Q` where `green(Q0)` holds at the canonical
    /// tuple but `red(Q0)` does not — disproving finite determinacy
    /// directly, with no brute-force search. Returns it, or `None` if the
    /// chase certified or exhausted the budget.
    pub fn refutation_witness(
        &self,
        views: &[Cq],
        q0: &Cq,
        max_stages: usize,
    ) -> Option<Structure2> {
        let (run, tuple) = self.chase_instance(views, q0, &ChaseBudget::stages(max_stages));
        if run.outcome != cqfd_chase::ChaseOutcome::Fixpoint {
            return None;
        }
        let red = self.colored_query(Color::Red, q0);
        if red.holds(&run.structure, &tuple) {
            return None;
        }
        Some(run.structure)
    }

    /// Evaluates `G(Q0)` and `R(Q0)` over a colored structure, as a pair.
    pub fn colored_answers(
        &self,
        q0: &Cq,
        d: &Structure2,
    ) -> (cqfd_core::AnswerSet, cqfd_core::AnswerSet) {
        let g = self.colored_query(Color::Green, q0).eval(d);
        let r = self.colored_query(Color::Red, q0).eval(d);
        (g, r)
    }
}

/// Alias so the signatures above stay readable.
pub type Structure2 = cqfd_core::Structure;

/// Convenience: is `red(Q0)` true at `tuple` in `d`?
pub fn red_q0_holds(gr: &GreenRed, q0: &Cq, d: &Structure2, tuple: &[Node]) -> bool {
    let red = Cq::new_unchecked(
        "red",
        q0.head_vars.clone(),
        gr.color_formula(Color::Red, &q0.body),
        q0.var_names.clone(),
    );
    let fixed: VarMap = q0
        .head_vars
        .iter()
        .copied()
        .zip(tuple.iter().copied())
        .collect();
    cqfd_core::find_homomorphism(&red.body, d, &fixed).is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig_r() -> Signature {
        let mut s = Signature::new();
        s.add_predicate("R", 2);
        s.add_predicate("S", 2);
        s
    }

    #[test]
    fn identity_view_determines() {
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x,y) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        let verdict = oracle.try_certify(&[v], &q0, 8).unwrap();
        assert_eq!(verdict, Verdict::Determined { stage: 1 });
    }

    #[test]
    fn join_of_views_determines_composed_query() {
        // V1 = R, V2 = S determine Q0(x,z) = ∃y R(x,y) ∧ S(y,z).
        let sig = sig_r();
        let v1 = Cq::parse(&sig, "V1(x,y) :- R(x,y)").unwrap();
        let v2 = Cq::parse(&sig, "V2(x,y) :- S(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,z) :- R(x,y), S(y,z)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        let verdict = oracle.try_certify(&[v1, v2], &q0, 8).unwrap();
        assert!(verdict.is_determined());
    }

    #[test]
    fn projection_does_not_determine_base_relation() {
        // V(x) = ∃y R(x,y) does not determine Q0(x,y) = R(x,y).
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        let verdict = oracle.try_certify(&[v], &q0, 16).unwrap();
        assert!(matches!(verdict, Verdict::NotDeterminedUnrestricted { .. }));
    }

    #[test]
    fn composed_view_does_not_determine_component() {
        // V(x,z) = ∃y R(x,y) ∧ R(y,z) does not determine Q0(x,y) = R(x,y).
        // Here the chase does not terminate; the verdict must be Unknown
        // rather than a wrong answer.
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x,z) :- R(x,y), R(y,z)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        let verdict = oracle.try_certify(&[v], &q0, 6).unwrap();
        assert!(!verdict.is_determined());
    }

    #[test]
    fn q0_among_views_is_determined_with_extras() {
        let sig = sig_r();
        let v1 = Cq::parse(&sig, "V1(x,z) :- R(x,y), R(y,z)").unwrap();
        let v2 = Cq::parse(&sig, "V2(x,y) :- S(x,y), R(x,x)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(a,b) :- R(a,c), R(c,b)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        let verdict = oracle.try_certify(&[v1, v2], &q0, 8).unwrap();
        assert!(verdict.is_determined(), "Q0 is equivalent to V1");
    }

    #[test]
    fn boolean_query_determinacy() {
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x,y) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0() :- R(x,y), R(y,x)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        let verdict = oracle.try_certify(&[v], &q0, 8).unwrap();
        assert!(verdict.is_determined());
    }

    #[test]
    fn chase_instance_exposes_stages() {
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x,y) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        let (run, tuple) = oracle.chase_instance(&[v], &q0, &ChaseBudget::stages(8));
        assert_eq!(tuple.len(), 2);
        // The start structure is green(A[Q0]): one green atom.
        assert_eq!(run.stage_structure(0).atom_count(), 1);
    }
}

#[cfg(test)]
mod certificate_tests {
    use super::*;
    use cqfd_cert::check;

    fn sig_r() -> Signature {
        let mut s = Signature::new();
        s.add_predicate("R", 2);
        s
    }

    #[test]
    fn determined_yields_a_checkable_chase_trace() {
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x,y) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        let cr = oracle.certify_run(&[v], &q0, &ChaseBudget::stages(8));
        assert!(cr.verdict.is_determined());
        assert_eq!(cr.certificate.kind(), "chase-trace");
        let report = check(&cr.certificate).unwrap();
        assert!(report.summary.contains("goal holds"), "{}", report.summary);
    }

    #[test]
    fn refuted_yields_a_checkable_finite_model() {
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        let cr = oracle.certify_run(&[v], &q0, &ChaseBudget::stages(16));
        assert!(matches!(
            cr.verdict,
            Verdict::NotDeterminedUnrestricted { .. }
        ));
        assert_eq!(cr.certificate.kind(), "finite-model");
        // The fixpoint models T_Q, satisfies green(Q0), falsifies red(Q0) —
        // all re-verified by the independent checker.
        assert!(check(&cr.certificate).is_ok());
    }

    #[test]
    fn unknown_yields_an_attestation() {
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x,z) :- R(x,y), R(y,z)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        // A cancelled run can conclude nothing (Theorem 1); the certificate
        // degrades to an attestation of the exhausted search.
        let cancel = cqfd_core::CancelToken::new();
        cancel.cancel();
        let budget = ChaseBudget::stages(8).with_cancel(cancel);
        let cr = oracle.certify_run(&[v], &q0, &budget);
        assert!(matches!(cr.verdict, Verdict::Unknown { .. }));
        assert_eq!(cr.certificate.kind(), "non-hom-refutation");
        let report = check(&cr.certificate).unwrap();
        assert!(report.attestation);
    }

    #[test]
    fn tampering_with_an_oracle_certificate_is_caught() {
        let sig = sig_r();
        let v = Cq::parse(&sig, "V(x,y) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        let cr = oracle.certify_run(&[v], &q0, &ChaseBudget::stages(8));
        let Certificate::ChaseTrace {
            sig,
            rules,
            start,
            firings,
            final_atoms,
            final_nodes,
            goal,
        } = cr.certificate
        else {
            panic!("expected a chase trace")
        };
        let forged = Certificate::ChaseTrace {
            sig,
            rules,
            start,
            firings,
            final_atoms,
            final_nodes,
            goal: goal.map(|mut g| {
                // Claim red(Q0) at a different tuple than was proven.
                for n in &mut g.tuple {
                    *n += 1;
                }
                g
            }),
        };
        assert!(check(&forged).is_err());
    }
}

#[cfg(test)]
mod witness_tests {
    use super::*;
    use crate::search::is_counterexample;

    #[test]
    fn refutation_witness_is_a_verified_counterexample() {
        let mut sig = Signature::new();
        sig.add_predicate("R", 2);
        let v = Cq::parse(&sig, "V(x) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        let oracle = DeterminacyOracle::new(sig);
        let w = oracle
            .refutation_witness(std::slice::from_ref(&v), &q0, 16)
            .expect("projection refutes finitely");
        let report = is_counterexample(&oracle, &[v], &q0, &w);
        assert!(report.is_counterexample, "the chase fixpoint refutes");
        assert!(report.satisfies_tq);
    }

    #[test]
    fn no_witness_when_determined_or_diverging() {
        let mut sig = Signature::new();
        sig.add_predicate("R", 2);
        let oracle = DeterminacyOracle::new(sig.clone());
        // Determined: identity view.
        let v = Cq::parse(&sig, "V(x,y) :- R(x,y)").unwrap();
        let q0 = Cq::parse(&sig, "Q0(x,y) :- R(x,y)").unwrap();
        assert!(oracle.refutation_witness(&[v], &q0, 16).is_none());
    }
}
