//! Theorem 4.2: the SAC¹ circuit value problem reduces to positive Core
//! XPath evaluation, establishing LOGCFL-hardness of positive Core XPath.
//!
//! The construction reuses the gate document of Theorem 3.2 with one change:
//! for every ∧-layer `k` there are now *two* input labels `I¹_k` and `I²_k`
//! (tags `I{k}a` / `I{k}b`).  The real ∧-gate's first input is labeled
//! `I{k}a` and its second `I{k}b`; the single "input line" `v'_i` of every
//! dummy gate carries both.  Instead of negation (which expresses an
//! unbounded "for all"), the ∧-step of the query uses the binary `and` with
//! the sub-expression `π_k` duplicated:
//!
//! ```text
//! ψ_k :=  child::*[T(I¹_k) and π_k]  and  child::*[T(I²_k) and π_k]    (∧)
//! ψ_k :=  child::*[T(I_k) and π_k]                                     (∨)
//! ```
//!
//! As the paper notes, the query grows exponentially in the ∧-depth of the
//! circuit, which is polynomial (indeed, it remains a logspace reduction)
//! precisely because SAC¹ circuits have logarithmic depth.

use crate::labels::{
    input_label, output_label, split_input_label, t, GateDocumentBuilder, LABEL_FALSE, LABEL_GATE,
    LABEL_RESULT, LABEL_TRUE,
};
use xpeval_circuits::{CircuitError, GateKind, Sac1Circuit};
use xpeval_dom::{Axis, Document, NodeId, NodeTest};
use xpeval_syntax::{Expr, LocationPath, Step};

/// Output of the Theorem 4.2 reduction.
pub struct Sac1Reduction {
    /// The gate document.
    pub document: Document,
    /// The *negation-free* (positive Core XPath) query.
    pub query: Expr,
    /// The node carrying the `R` label.
    pub result_node: NodeId,
    /// The gate nodes `v_1 … v_{M+N}`.
    pub gate_nodes: Vec<NodeId>,
}

/// Performs the Theorem 4.2 reduction for a semi-unbounded circuit under the
/// given input assignment.
pub fn sac1_to_positive_core(
    sac: &Sac1Circuit,
    inputs: &[bool],
) -> Result<Sac1Reduction, CircuitError> {
    let circuit = sac.circuit();
    circuit.validate()?;
    if inputs.len() != circuit.num_inputs() {
        return Err(CircuitError::WrongInputCount {
            expected: circuit.num_inputs(),
            got: inputs.len(),
        });
    }
    let m = circuit.num_inputs();
    let n = circuit.num_internal();
    let total = m + n;

    // -- document -----------------------------------------------------------
    let labels_of = |i: usize| {
        let mut labels = vec![LABEL_GATE.to_string()];
        if i == total {
            labels.push(LABEL_RESULT.to_string());
        }
        if i <= m {
            labels.push(
                if inputs[i - 1] {
                    LABEL_TRUE
                } else {
                    LABEL_FALSE
                }
                .to_string(),
            );
        }
        for k in 1..=n {
            let gate = circuit.gate(xpeval_circuits::GateId(m + k - 1));
            match gate.kind {
                GateKind::And => {
                    // Positional labels: the j-th input wire of the ∧-gate
                    // gets I{k}a / I{k}b.  A fan-in-one ∧-gate labels its
                    // single input with both, like a dummy gate.
                    for (j, g) in gate.inputs.iter().enumerate() {
                        if g.index() + 1 == i {
                            if gate.inputs.len() == 1 {
                                labels.push(split_input_label(k, false));
                                labels.push(split_input_label(k, true));
                            } else {
                                labels.push(split_input_label(k, j == 1));
                            }
                        }
                    }
                }
                GateKind::Or => {
                    if gate.inputs.iter().any(|g| g.index() + 1 == i) {
                        labels.push(input_label(k));
                    }
                }
                GateKind::Input => unreachable!(),
            }
        }
        if i > m {
            labels.push(output_label(i - m));
        }
        labels
    };

    let inner_labels_of = |i: usize| {
        let from_layer = if i <= m { 1 } else { i - m };
        let mut labels = Vec::new();
        for k in from_layer..=n {
            let kind = circuit.gate(xpeval_circuits::GateId(m + k - 1)).kind;
            match kind {
                GateKind::And => {
                    labels.push(split_input_label(k, false));
                    labels.push(split_input_label(k, true));
                }
                GateKind::Or => labels.push(input_label(k)),
                GateKind::Input => unreachable!(),
            }
            labels.push(output_label(k));
        }
        labels
    };

    let gate_doc = GateDocumentBuilder::build(total, labels_of, inner_labels_of, false);

    // -- query --------------------------------------------------------------
    let mut phi = t(LABEL_TRUE); // ϕ_0 := T(B1)
    for k in 1..=n {
        // π_k := ancestor-or-self::*[T(G) and ϕ_{k-1}]
        let pi = Expr::Path(LocationPath::relative(vec![Step::with_predicate(
            Axis::AncestorOrSelf,
            NodeTest::Star,
            Expr::and(t(LABEL_GATE), phi.clone()),
        )]));
        let kind = circuit.gate(xpeval_circuits::GateId(m + k - 1)).kind;
        let psi = match kind {
            GateKind::And => {
                let branch = |second: bool| {
                    Expr::Path(LocationPath::relative(vec![Step::with_predicate(
                        Axis::Child,
                        NodeTest::Star,
                        Expr::and(t(&split_input_label(k, second)), pi.clone()),
                    )]))
                };
                Expr::and(branch(false), branch(true))
            }
            GateKind::Or => Expr::Path(LocationPath::relative(vec![Step::with_predicate(
                Axis::Child,
                NodeTest::Star,
                Expr::and(t(&input_label(k)), pi),
            )])),
            GateKind::Input => unreachable!(),
        };
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

    let query = Expr::Path(LocationPath::absolute(vec![Step::with_predicate(
        Axis::DescendantOrSelf,
        NodeTest::Star,
        Expr::and(t(LABEL_RESULT), phi),
    )]));

    let result_node = *gate_doc
        .gate_nodes
        .last()
        .expect("validated circuit has gates");
    Ok(Sac1Reduction {
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
    use xpeval_circuits::{random_sac1_circuit, GateId, MonotoneCircuit};
    use xpeval_core::{CompiledQuery, EvalStrategy};
    use xpeval_syntax::{classify, Fragment, QueryFeatures};

    fn answer(red: &Sac1Reduction) -> bool {
        let result = CompiledQuery::from_expr(red.query.clone())
            .with_strategy(EvalStrategy::CoreXPathLinear)
            .run(&red.document)
            .unwrap()
            .value
            .into_nodes()
            .unwrap();
        assert!(result.len() <= 1);
        if let Some(&node) = result.first() {
            assert_eq!(node, red.result_node);
        }
        !result.is_empty()
    }

    fn small_sac1() -> Sac1Circuit {
        // (x1 ∨ x2) ∧ (x3 ∨ x4), plus an or on top to exercise both kinds.
        let mut c = MonotoneCircuit::new(4);
        let o1 = c.or(vec![GateId(0), GateId(1)]);
        let o2 = c.or(vec![GateId(2), GateId(3)]);
        let a = c.and(vec![o1, o2]);
        let _out = c.or(vec![a]);
        Sac1Circuit::new(c).unwrap()
    }

    #[test]
    fn small_circuit_truth_table() {
        let sac = small_sac1();
        for bits in 0..16u8 {
            let inputs = [bits & 8 != 0, bits & 4 != 0, bits & 2 != 0, bits & 1 != 0];
            let expected = sac.evaluate(&inputs).unwrap();
            let red = sac1_to_positive_core(&sac, &inputs).unwrap();
            assert_eq!(answer(&red), expected, "bits {bits:04b}");
        }
    }

    #[test]
    fn query_is_negation_free_positive_core_xpath() {
        let sac = small_sac1();
        let red = sac1_to_positive_core(&sac, &[true, false, true, false]).unwrap();
        let report = classify(&red.query);
        assert_eq!(report.fragment, Fragment::PositiveCoreXPath);
        let QueryFeatures { negation_count, .. } = report.features;
        assert_eq!(negation_count, 0);
    }

    #[test]
    fn and_subexpressions_are_duplicated() {
        // The ∧-step duplicates π_k, so adding an ∧-layer roughly doubles the
        // query size while an ∨-layer adds a constant amount.
        let mut c = MonotoneCircuit::new(2);
        let mut prev = c.and(vec![GateId(0), GateId(1)]);
        let sac1_size = {
            let sac = Sac1Circuit::new(c.clone()).unwrap();
            sac1_to_positive_core(&sac, &[true, true])
                .unwrap()
                .query
                .size()
        };
        prev = c.and(vec![prev, GateId(0)]);
        let sac2_size = {
            let sac = Sac1Circuit::new(c.clone()).unwrap();
            sac1_to_positive_core(&sac, &[true, true])
                .unwrap()
                .query
                .size()
        };
        let _ = prev;
        assert!(sac2_size > 2 * sac1_size - 20, "{sac1_size} -> {sac2_size}");
        // ... which is why the reduction targets log-depth (SAC¹) circuits.
    }

    #[test]
    fn random_sac1_circuits_property() {
        let mut rng = StdRng::seed_from_u64(11);
        for round in 0..20 {
            // Keep the ∧-depth small: the query doubles per ∧-layer.
            let (sac, inputs) = random_sac1_circuit(&mut rng, 4, 6);
            let expected = sac.evaluate(&inputs).unwrap();
            let red = sac1_to_positive_core(&sac, &inputs).unwrap();
            assert_eq!(answer(&red), expected, "round {round}");
        }
    }

    #[test]
    fn wrong_input_count() {
        let sac = small_sac1();
        assert!(matches!(
            sac1_to_positive_core(&sac, &[true]),
            Err(CircuitError::WrongInputCount { .. })
        ));
    }

    #[test]
    fn fan_in_one_and_gate_labels_both_wires() {
        let mut c = MonotoneCircuit::new(1);
        let _ = c.and(vec![GateId(0)]);
        let sac = Sac1Circuit::new(c).unwrap();
        for input in [true, false] {
            let red = sac1_to_positive_core(&sac, &[input]).unwrap();
            assert_eq!(answer(&red), input);
        }
    }
}
