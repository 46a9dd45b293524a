//! Theorem 5.7 / Corollary 5.8: pWF extended by iterated predicates is
//! P-complete.
//!
//! The reduction reuses the gate document of Theorem 3.2 with two additions
//! (Section 5): every node `v_0 … v_{M+N}` receives an extra child `w_i`
//! labeled `W`, and the root `v_0` receives the auxiliary label `A`.  The
//! query replaces negation by predicate sequences of length two built from
//! `last()`:
//!
//! ```text
//! ϕ'_k := descendant-or-self::*[T(O_k) and parent::*[ψ'_k]]
//! ψ'_k := child::*[(T(I_k) and π'_k[last() = 1]) or T(W)][last() = 1]   (∧)
//! ψ'_k := child::*[T(I_k) and π'_k[last() > 1]]                          (∨)
//! π'_k := ancestor-or-self::*[(T(G) and ϕ'_{k−1}) or T(A)]
//! ϕ'_0 := T(B1)
//! ```
//!
//! Because the root always matches `T(A)`, the ancestor count produced by
//! `π'_k` is at least one; `[last() = 1]` therefore expresses `not(π_k)` and
//! `[last() > 1]` expresses `π_k` — negation has been "encoded" by iterated
//! predicates, which is exactly why allowing them makes the fragment P-hard
//! again.  Note that every predicate sequence used has length exactly two
//! (Corollary 5.8).

use crate::circuit_to_core::build_gate_document;
use crate::labels::{
    input_label, output_label, t, LABEL_AUX, LABEL_GATE, LABEL_RESULT, LABEL_TRUE, LABEL_WITNESS,
};
use xpeval_circuits::{CircuitError, GateKind, MonotoneCircuit};
use xpeval_dom::{Axis, Document, NodeId, NodeTest};
use xpeval_syntax::{Expr, LocationPath, RelOp, Step};

/// Output of the Theorem 5.7 reduction.
pub struct IteratedPredicateReduction {
    /// The extended gate document `D'`.
    pub document: Document,
    /// The negation-free query `Q'` using iterated predicates and `last()`.
    pub query: Expr,
    /// The node carrying the `R` label.
    pub result_node: NodeId,
    /// The gate nodes `v_1 … v_{M+N}`.
    pub gate_nodes: Vec<NodeId>,
}

/// Performs the Theorem 5.7 reduction for `circuit` under `inputs`.
pub fn circuit_to_iterated_pwf(
    circuit: &MonotoneCircuit,
    inputs: &[bool],
) -> Result<IteratedPredicateReduction, CircuitError> {
    circuit.validate()?;
    if inputs.len() != circuit.num_inputs() {
        return Err(CircuitError::WrongInputCount {
            expected: circuit.num_inputs(),
            got: inputs.len(),
        });
    }

    let gate_doc = build_gate_document(circuit, inputs, true);
    let m = circuit.num_inputs();
    let n = circuit.num_internal();

    // last() = 1  /  last() > 1
    let last_eq_1 = Expr::relational(RelOp::Eq, Expr::last(), Expr::Number(1.0));
    let last_gt_1 = Expr::relational(RelOp::Gt, Expr::last(), Expr::Number(1.0));

    let mut phi = t(LABEL_TRUE); // ϕ'_0 := T(B1)
    for k in 1..=n {
        // π'_k := ancestor-or-self::*[(T(G) and ϕ'_{k-1}) or T(A)]
        let pi_pred = Expr::or(Expr::and(t(LABEL_GATE), phi.clone()), t(LABEL_AUX));
        let pi_with = |extra: Expr| {
            Expr::Path(LocationPath::relative(vec![Step::with_predicates(
                Axis::AncestorOrSelf,
                NodeTest::Star,
                vec![pi_pred.clone(), extra],
            )]))
        };

        let kind = circuit.gate(xpeval_circuits::GateId(m + k - 1)).kind;
        let psi = match kind {
            GateKind::And => {
                // child::*[(T(I_k) and π'_k[last()=1]) or T(W)][last()=1]
                let inner = Expr::or(
                    Expr::and(t(&input_label(k)), pi_with(last_eq_1.clone())),
                    t(LABEL_WITNESS),
                );
                Expr::Path(LocationPath::relative(vec![Step::with_predicates(
                    Axis::Child,
                    NodeTest::Star,
                    vec![inner, last_eq_1.clone()],
                )]))
            }
            GateKind::Or => {
                // child::*[T(I_k) and π'_k[last() > 1]]
                Expr::Path(LocationPath::relative(vec![Step::with_predicate(
                    Axis::Child,
                    NodeTest::Star,
                    Expr::and(t(&input_label(k)), pi_with(last_gt_1.clone())),
                )]))
            }
            GateKind::Input => unreachable!("internal gates are never inputs"),
        };

        // ϕ'_k := descendant-or-self::*[T(O_k) and parent::*[ψ'_k]]
        phi = Expr::Path(LocationPath::relative(vec![Step::with_predicate(
            Axis::DescendantOrSelf,
            NodeTest::Star,
            Expr::and(
                t(&output_label(k)),
                Expr::Path(LocationPath::relative(vec![Step::with_predicate(
                    Axis::Parent,
                    NodeTest::Star,
                    psi,
                )])),
            ),
        )]));
    }

    // Q' := /descendant-or-self::*[T(R) and ϕ'_N]
    let query = Expr::Path(LocationPath::absolute(vec![Step::with_predicate(
        Axis::DescendantOrSelf,
        NodeTest::Star,
        Expr::and(t(LABEL_RESULT), phi),
    )]));

    let result_node = *gate_doc
        .gate_nodes
        .last()
        .expect("validated circuit has gates");
    Ok(IteratedPredicateReduction {
        document: gate_doc.document,
        query,
        result_node,
        gate_nodes: gate_doc.gate_nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xpeval_circuits::{carry_bit_circuit, carry_bit_inputs, random_monotone_circuit};
    use xpeval_core::{CompileOptions, CompiledQuery, EvalStrategy, Value};
    use xpeval_dom::Document;
    use xpeval_syntax::Expr;
    use xpeval_syntax::{classify, Fragment};

    /// Iterated predicates + last() put the query outside Core XPath, so
    /// the general context-value-table machine does the checking here — on
    /// the query as written: the Remark 5.2 merge is switched off, the
    /// iterated predicates are the point of the reduction.
    fn cvt(document: &Document, query: &Expr) -> Value {
        let options = CompileOptions {
            strategy: Some(EvalStrategy::ContextValueTable),
            normalize: false,
            ..CompileOptions::default()
        };
        CompiledQuery::from_expr_with(query.clone(), &options)
            .run(document)
            .unwrap()
            .value
    }

    fn answer(red: &IteratedPredicateReduction) -> bool {
        let v = cvt(&red.document, &red.query);
        let nodes = v.expect_nodes();
        assert!(nodes.len() <= 1);
        if let Some(&node) = nodes.first() {
            assert_eq!(node, red.result_node);
        }
        !nodes.is_empty()
    }

    #[test]
    fn carry_bit_truth_table_via_iterated_predicates() {
        let circuit = carry_bit_circuit();
        for a in 0..4u8 {
            for b in 0..4u8 {
                let inputs = carry_bit_inputs(a, b);
                let expected = circuit.evaluate(&inputs).unwrap();
                let red = circuit_to_iterated_pwf(&circuit, &inputs).unwrap();
                assert_eq!(answer(&red), expected, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn query_has_no_negation_and_bounded_predicate_sequences() {
        let circuit = carry_bit_circuit();
        let red = circuit_to_iterated_pwf(&circuit, &carry_bit_inputs(2, 1)).unwrap();
        let f = xpeval_syntax::fragment::features(&red.query);
        assert_eq!(f.negation_count, 0, "the construction must not use not()");
        // Corollary 5.8: predicate sequences of length exactly two suffice.
        assert_eq!(f.max_predicate_sequence, 2);
        // With iterated predicates the query is (only) WF / full XPath, not
        // pWF — that is the point of Theorem 5.7.
        let frag = classify(&red.query).fragment;
        assert!(frag > Fragment::PWF, "classified as {frag}");
    }

    #[test]
    fn equivalences_of_the_proof() {
        // Equivalence (1): ϕ_k and ϕ'_k agree on v_1 … v_{M+N}.  We verify
        // the end-to-end consequence: both reductions give the same answer
        // on every input of the carry-bit circuit (the stronger per-gate
        // claim is covered by the Theorem 3.2 test).
        let circuit = carry_bit_circuit();
        for bits in 0..16u8 {
            let inputs = [bits & 8 != 0, bits & 4 != 0, bits & 2 != 0, bits & 1 != 0];
            let core =
                crate::circuit_to_core::circuit_to_core_xpath(&circuit, &inputs, false).unwrap();
            let iterated = circuit_to_iterated_pwf(&circuit, &inputs).unwrap();
            let core_answer = !cvt(&core.document, &core.query).expect_nodes().is_empty();
            assert_eq!(answer(&iterated), core_answer, "bits {bits:04b}");
        }
    }

    #[test]
    fn witness_nodes_and_aux_label_are_present() {
        let circuit = carry_bit_circuit();
        let red = circuit_to_iterated_pwf(&circuit, &carry_bit_inputs(0, 0)).unwrap();
        let d = &red.document;
        let v0 = d.first_child(d.root()).unwrap();
        assert_eq!(d.count_children_named(v0, LABEL_AUX), 1);
        // Every gate node has a witness child labeled W.
        for (i, &v) in red.gate_nodes.iter().enumerate() {
            let wit = format!("wit{}", i + 1);
            assert_eq!(d.count_children_named(v, &wit), 1, "gate {}", i + 1);
        }
        assert_eq!(d.count_children_named(v0, "wit0"), 1);
    }

    #[test]
    fn random_circuits_property() {
        let mut rng = StdRng::seed_from_u64(77);
        for round in 0..12 {
            let (circuit, inputs) = random_monotone_circuit(&mut rng, 3, 6);
            let expected = circuit.evaluate(&inputs).unwrap();
            let red = circuit_to_iterated_pwf(&circuit, &inputs).unwrap();
            assert_eq!(answer(&red), expected, "round {round}");
        }
    }

    #[test]
    fn wrong_input_count_is_an_error() {
        let circuit = carry_bit_circuit();
        assert!(matches!(
            circuit_to_iterated_pwf(&circuit, &[true, false]),
            Err(CircuitError::WrongInputCount { .. })
        ));
    }
}
