//! Equivalence verification between a codelet specification and a
//! synthesized atom configuration.
//!
//! SKETCH proves candidate configurations equivalent to the specification
//! over all inputs of a bounded bit-width. We use the testing analogue:
//! a deterministic suite of *corner-case* vectors (zeros, ±1, extreme
//! values, every constant appearing in either side ± 1 — the values where
//! wrapping/boundary bugs live) plus a large batch of seeded random
//! vectors. A configuration produced by an *unsound* rewrite is caught
//! here, keeping the all-or-nothing guarantee honest.

use crate::sym::CodeletSpec;
use banzai::atom::{GuardOperand, StatefulConfig, Tree, Update};
use domino_ir::{Operand, Packet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// Number of random vectors checked in addition to the corner-case grid.
const RANDOM_VECTORS: usize = 512;

/// A failed verification: the input vector and the two disagreeing values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Counterexample {
    /// State variable index that disagreed.
    pub var: usize,
    /// Pre-update state values used.
    pub olds: Vec<i32>,
    /// Packet fields used.
    pub packet: Packet,
    /// Value computed by the specification (the codelet).
    pub expected: i32,
    /// Value computed by the configuration (the atom).
    pub got: i32,
}

impl std::fmt::Display for Counterexample {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "configuration diverges from codelet on state[{}]: \
             olds={:?}, packet={}, codelet says {}, atom says {}",
            self.var, self.olds, self.packet, self.expected, self.got
        )
    }
}

/// Verifies that `config` computes the same state updates as `spec` on the
/// corner-case grid and `RANDOM_VECTORS` seeded random vectors.
pub fn verify(spec: &CodeletSpec, config: &StatefulConfig) -> Result<(), Counterexample> {
    let fields = collect_fields(spec, config);
    let interesting = interesting_values(spec, config);

    // Corner grid: for small field counts, exercise combinations of
    // interesting values; otherwise sample the grid diagonally.
    let mut rng = StdRng::seed_from_u64(0x5eed_ca11);
    let n_vars = spec.num_vars();

    // Every vector below sets every field, so one packet carrying all of
    // them is overwritten in place (no per-vector packet or key
    // allocation; the vectors are the same).
    let mut pkt: Packet = fields.iter().map(|f| (f.clone(), 0)).collect();

    let check = |olds: &[i32], pkt: &Packet| -> Result<(), Counterexample> {
        for (i, update) in spec.updates.iter().enumerate() {
            let expected = update.eval(olds, pkt);
            let got = config.trees[i].eval(i, olds, pkt);
            if expected != got {
                return Err(Counterexample {
                    var: i,
                    olds: olds.to_vec(),
                    packet: pkt.clone(),
                    expected,
                    got,
                });
            }
        }
        Ok(())
    };

    // Diagonal corner sweep: every interesting value in every slot while
    // others cycle through the list too (bounded work, hits boundaries).
    for (k, &v) in interesting.iter().enumerate() {
        for slot in 0..(n_vars + fields.len()) {
            let mut olds: Vec<i32> = (0..n_vars)
                .map(|i| interesting[(k + i) % interesting.len()])
                .collect();
            for (j, f) in fields.iter().enumerate() {
                pkt.set(f, interesting[(k + n_vars + j) % interesting.len()]);
            }
            if slot < n_vars {
                olds[slot] = v;
            } else {
                pkt.set(&fields[slot - n_vars], v);
            }
            check(&olds, &pkt)?;
        }
    }

    // Correlated corners: guards and updates often misbehave only when
    // *several* operands take boundary values together (e.g. two guard
    // fields both zero), which no per-slot sweep hits. Enumerate the full
    // cartesian grid over the small-magnitude corner values when feasible,
    // otherwise sample corner combinations.
    let slots = n_vars + fields.len();
    let mut small: Vec<i32> = interesting.clone();
    small.sort_by_key(|v| v.unsigned_abs());
    small.truncate(8);
    let grid_size = (small.len() as u64).checked_pow(slots as u32);
    if let Some(size) = grid_size.filter(|&s| s <= 65_536) {
        let mut vals = Vec::with_capacity(slots);
        for mut idx in 0..size {
            vals.clear();
            for _ in 0..slots {
                vals.push(small[(idx % small.len() as u64) as usize]);
                idx /= small.len() as u64;
            }
            for (f, v) in fields.iter().zip(&vals[n_vars..]) {
                pkt.set(f, *v);
            }
            check(&vals[..n_vars], &pkt)?;
        }
    } else {
        for _ in 0..4096 {
            let olds: Vec<i32> = (0..n_vars)
                .map(|_| small[rng.gen_range(0..small.len())])
                .collect();
            for f in &fields {
                pkt.set(f, small[rng.gen_range(0..small.len())]);
            }
            check(&olds, &pkt)?;
        }
    }

    // Random vectors.
    for _ in 0..RANDOM_VECTORS {
        let olds: Vec<i32> = (0..n_vars).map(|_| rng.gen()).collect();
        for f in &fields {
            pkt.set(f, rng.gen());
        }
        check(&olds, &pkt)?;
        // Also small-magnitude vectors, where most algorithm behaviour
        // (thresholds, counters) lives.
        let olds: Vec<i32> = (0..n_vars).map(|_| rng.gen_range(-64..64)).collect();
        for f in &fields {
            pkt.set(f, rng.gen_range(-64..64));
        }
        check(&olds, &pkt)?;
    }

    Ok(())
}

fn collect_fields(spec: &CodeletSpec, config: &StatefulConfig) -> Vec<String> {
    let mut fields: BTreeSet<String> = BTreeSet::new();
    for u in &spec.updates {
        for f in u.fields() {
            fields.insert(f.to_string());
        }
    }
    for tree in &config.trees {
        collect_tree_fields(tree, &mut fields);
    }
    fields.into_iter().collect()
}

fn collect_tree_fields(tree: &Tree, out: &mut BTreeSet<String>) {
    match tree {
        Tree::Leaf(u) => {
            if let Update::Write(Operand::Field(f))
            | Update::Add(Operand::Field(f))
            | Update::Sub(Operand::Field(f)) = u
            {
                out.insert(f.clone());
            }
        }
        Tree::Branch { guard, then, els } => {
            for o in [&guard.lhs, &guard.rhs] {
                if let GuardOperand::Field(f) = o {
                    out.insert(f.clone());
                }
            }
            collect_tree_fields(then, out);
            collect_tree_fields(els, out);
        }
    }
}

fn interesting_values(spec: &CodeletSpec, config: &StatefulConfig) -> Vec<i32> {
    let mut vals: BTreeSet<i32> = [
        0,
        1,
        -1,
        2,
        -2,
        i32::MAX,
        i32::MIN,
        i32::MAX - 1,
        i32::MIN + 1,
    ]
    .into_iter()
    .collect();
    let mut add_const = |c: i32| {
        vals.insert(c);
        vals.insert(c.wrapping_add(1));
        vals.insert(c.wrapping_sub(1));
        vals.insert(c.wrapping_neg());
    };
    for u in &spec.updates {
        for c in u.constants() {
            add_const(c);
        }
    }
    for tree in &config.trees {
        for g in tree.guards() {
            for o in [&g.lhs, &g.rhs] {
                if let GuardOperand::Const(c) = o {
                    add_const(*c);
                }
            }
        }
        for u in tree.leaves() {
            if let Update::Write(Operand::Const(c))
            | Update::Add(Operand::Const(c))
            | Update::Sub(Operand::Const(c)) = u
            {
                add_const(*c);
            }
        }
    }
    vals.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sym::Sym;
    use banzai::atom::{Guard, RelOp};
    use domino_ast::BinOp;
    use domino_ir::StateRef;

    fn simple_spec(update: Sym) -> CodeletSpec {
        CodeletSpec {
            state_refs: vec![StateRef::Scalar("x".into())],
            updates: vec![update],
            outputs: vec![],
        }
    }

    fn config_with_tree(tree: Tree) -> StatefulConfig {
        StatefulConfig {
            state_refs: vec![StateRef::Scalar("x".into())],
            trees: vec![tree],
            outputs: vec![],
        }
    }

    #[test]
    fn correct_increment_verifies() {
        let spec = simple_spec(Sym::Binary(
            BinOp::Add,
            Box::new(Sym::StateOld(0)),
            Box::new(Sym::Const(1)),
        ));
        let config = config_with_tree(Tree::Leaf(Update::Add(Operand::Const(1))));
        verify(&spec, &config).unwrap();
    }

    #[test]
    fn wrong_constant_is_caught() {
        let spec = simple_spec(Sym::Binary(
            BinOp::Add,
            Box::new(Sym::StateOld(0)),
            Box::new(Sym::Const(1)),
        ));
        let config = config_with_tree(Tree::Leaf(Update::Add(Operand::Const(2))));
        let cex = verify(&spec, &config).unwrap_err();
        assert_eq!(cex.expected, cex.got - 1);
    }

    #[test]
    fn unsound_ordered_rewrite_is_caught_at_boundary() {
        // Spec: (old + 1 > 30) ? 0 : old   — wrapping makes old = i32::MAX
        // take the FALSE branch (old+1 wraps to MIN).
        // Bogus config: old > 29 ? 0 : keep — takes TRUE at old = MAX.
        let spec = simple_spec(Sym::Ternary(
            Box::new(Sym::Binary(
                BinOp::Gt,
                Box::new(Sym::Binary(
                    BinOp::Add,
                    Box::new(Sym::StateOld(0)),
                    Box::new(Sym::Const(1)),
                )),
                Box::new(Sym::Const(30)),
            )),
            Box::new(Sym::Const(0)),
            Box::new(Sym::StateOld(0)),
        ));
        let config = config_with_tree(Tree::Branch {
            guard: Guard {
                op: RelOp::Gt,
                lhs: GuardOperand::State(0),
                rhs: GuardOperand::Const(29),
            },
            then: Box::new(Tree::Leaf(Update::Write(Operand::Const(0)))),
            els: Box::new(Tree::Leaf(Update::Keep)),
        });
        let cex = verify(&spec, &config).unwrap_err();
        // The counterexample must be at the wrap boundary.
        assert_eq!(cex.olds[0], i32::MAX);
    }

    #[test]
    fn guard_field_mismatch_caught() {
        // Spec guards on pkt.a, config guards on pkt.b.
        let spec = simple_spec(Sym::Ternary(
            Box::new(Sym::Field("a".into())),
            Box::new(Sym::Const(1)),
            Box::new(Sym::StateOld(0)),
        ));
        let config = config_with_tree(Tree::Branch {
            guard: Guard {
                op: RelOp::Ne,
                lhs: GuardOperand::Field("b".into()),
                rhs: GuardOperand::Const(0),
            },
            then: Box::new(Tree::Leaf(Update::Write(Operand::Const(1)))),
            els: Box::new(Tree::Leaf(Update::Keep)),
        });
        assert!(verify(&spec, &config).is_err());
    }

    #[test]
    fn counterexample_display_is_informative() {
        let cex = Counterexample {
            var: 0,
            olds: vec![5],
            packet: Packet::new().with("a", 1),
            expected: 6,
            got: 7,
        };
        let text = cex.to_string();
        assert!(text.contains("codelet says 6"), "{text}");
        assert!(text.contains("atom says 7"), "{text}");
    }
}
