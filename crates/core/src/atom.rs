//! Atoms, generic over their argument type.
//!
//! The same atom shape is used for formulas (`Atom<Term>`, arguments are
//! variables/constants) and for facts in a structure (`Atom<Node>` =
//! [`GroundAtom`]).

use crate::signature::{PredId, Signature};
use crate::structure::Node;
use crate::term::{Term, Var};
use std::fmt;

/// A relational atom `P(t1, …, tk)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Atom<T> {
    /// The predicate symbol.
    pub pred: PredId,
    /// Argument list; its length must equal the predicate's arity.
    pub args: Vec<T>,
}

/// A ground atom: a fact of a structure.
pub type GroundAtom = Atom<Node>;

impl<T> Atom<T> {
    /// Creates an atom. The arity is *not* checked here — structures and
    /// queries check it at insertion time, where the signature is known.
    pub fn new(pred: PredId, args: Vec<T>) -> Self {
        Atom { pred, args }
    }
}

impl Atom<Term> {
    /// Iterates over the variables occurring in this atom (with repeats).
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        self.args.iter().filter_map(|t| t.as_var())
    }

    /// Applies a variable renaming, leaving constants untouched.
    pub fn rename(&self, f: impl Fn(Var) -> Var) -> Atom<Term> {
        Atom {
            pred: self.pred,
            args: self
                .args
                .iter()
                .map(|t| match t {
                    Term::Var(v) => Term::Var(f(*v)),
                    c => *c,
                })
                .collect(),
        }
    }

    /// Renders the atom using the given signature and a variable namer.
    pub fn display_with<'a>(
        &'a self,
        sig: &'a Signature,
        namer: &'a dyn Fn(Var) -> String,
    ) -> impl fmt::Display + 'a {
        struct D<'a> {
            atom: &'a Atom<Term>,
            sig: &'a Signature,
            namer: &'a dyn Fn(Var) -> String,
        }
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}(", self.sig.pred_name(self.atom.pred))?;
                for (i, t) in self.atom.args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    match t {
                        Term::Var(v) => write!(f, "{}", (self.namer)(*v))?,
                        Term::Const(c) => write!(f, "#{}", self.sig.const_name(*c))?,
                    }
                }
                write!(f, ")")
            }
        }
        D {
            atom: self,
            sig,
            namer,
        }
    }
}

/// A fact of a [`Structure`](crate::Structure), borrowed from its
/// argument table: the shape of a [`GroundAtom`] without owning the
/// argument list. Structures hand these out; an owned [`GroundAtom`] is
/// built only where one has to outlive the structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtomRef<'a> {
    /// The predicate symbol.
    pub pred: PredId,
    /// The argument tuple.
    pub args: &'a [Node],
}

impl<'a> AtomRef<'a> {
    /// An owned copy.
    pub fn to_ground(self) -> GroundAtom {
        GroundAtom::new(self.pred, self.args.to_vec())
    }

    /// Renders the atom using the given signature.
    pub fn display_with(self, sig: &'a Signature) -> impl fmt::Display + 'a {
        struct D<'a> {
            atom: AtomRef<'a>,
            sig: &'a Signature,
        }
        impl fmt::Display for D<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}(", self.sig.pred_name(self.atom.pred))?;
                for (i, n) in self.atom.args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "n{}", n.0)?;
                }
                write!(f, ")")
            }
        }
        D { atom: self, sig }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::ConstId;

    #[test]
    fn vars_skips_constants() {
        let a = Atom::new(
            PredId(0),
            vec![
                Term::Var(Var(0)),
                Term::Const(ConstId(0)),
                Term::Var(Var(2)),
            ],
        );
        let vs: Vec<_> = a.vars().collect();
        assert_eq!(vs, vec![Var(0), Var(2)]);
    }

    #[test]
    fn rename_preserves_constants() {
        let a = Atom::new(PredId(0), vec![Term::Var(Var(0)), Term::Const(ConstId(5))]);
        let b = a.rename(|v| Var(v.0 + 10));
        assert_eq!(b.args, vec![Term::Var(Var(10)), Term::Const(ConstId(5))]);
    }

    #[test]
    fn display_formats() {
        let mut sig = Signature::new();
        let p = sig.add_predicate("P", 2);
        let c = sig.add_constant("c0");
        let a = Atom::new(p, vec![Term::Var(Var(0)), Term::Const(c)]);
        let namer = |v: Var| format!("x{}", v.0);
        assert_eq!(format!("{}", a.display_with(&sig, &namer)), "P(x0,#c0)");
    }
}
