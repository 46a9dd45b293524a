//! Theorem 3.2: the monotone circuit value problem reduces to Core XPath
//! evaluation (in logarithmic space), establishing P-hardness of Core XPath
//! with respect to combined complexity.
//!
//! Given a monotone circuit with input gates `G1 … GM`, internal gates
//! `G(M+1) … G(M+N)` and an input assignment, the reduction produces:
//!
//! * the **gate document** of the proof — root `v0`, children `v{i}` (one
//!   per gate) each with an inner child `v'{i}`, labels realized as leaf
//!   children per Remark 3.1 (`G`, `R`, `B0`/`B1`, `I_k`, `O_k`),
//! * the **query** `/descendant-or-self::*[T(R) and ϕ_N]` with the
//!   condition expressions
//!
//!   ```text
//!   ϕ_k := descendant-or-self::*[T(O_k) and parent::*[ψ_k]]
//!   ψ_k := not(child::*[T(I_k) and not(π_k)])        (G(M+k) an ∧-gate)
//!   ψ_k := child::*[T(I_k) and π_k]                  (G(M+k) an ∨-gate)
//!   π_k := ancestor-or-self::*[T(G) and ϕ_{k−1}]
//!   ϕ_0 := T(B1)
//!   ```
//!
//! The query selects a non-empty node set (namely `{v_{M+N}}`) if and only
//! if the circuit evaluates to true.  With the `restricted_axes` option the
//! Corollary 3.3 variant is produced, which replaces `ancestor-or-self::*`
//! by `descendant-or-self::*/parent::*` so that only the axes `child`,
//! `parent` and `descendant-or-self` occur.

use crate::labels::{
    gate_node_name, input_label, output_label, t, GateDocument, GateDocumentBuilder, LABEL_FALSE,
    LABEL_GATE, LABEL_RESULT, LABEL_TRUE,
};
use xpeval_circuits::{CircuitError, GateKind, MonotoneCircuit};
use xpeval_dom::{Axis, Document, NodeId, NodeTest};
use xpeval_syntax::{Expr, LocationPath, Step};

/// Output of the Theorem 3.2 reduction.
pub struct CoreCircuitReduction {
    /// The gate document `D`.
    pub document: Document,
    /// The Core XPath query `Q` (contains negation for ∧-gates).
    pub query: Expr,
    /// The node `v_{M+N}` carrying the `R` label; the query result is either
    /// `{result_node}` or empty.
    pub result_node: NodeId,
    /// The gate nodes `v_1 … v_{M+N}` in gate order (used by the tests that
    /// verify the per-gate claim `v_i ∈ [[ϕ_k]] ⇔ G_i true`).
    pub gate_nodes: Vec<NodeId>,
    /// The condition expressions `ϕ_0 … ϕ_N` (exposed for the claim tests
    /// and for the Figure 4 walk-through example).
    pub phis: Vec<Expr>,
}

/// Performs the Theorem 3.2 reduction for `circuit` under `inputs`.
///
/// With `restricted_axes` set, the Corollary 3.3 variant of `π_k` is used.
pub fn circuit_to_core_xpath(
    circuit: &MonotoneCircuit,
    inputs: &[bool],
    restricted_axes: bool,
) -> Result<CoreCircuitReduction, CircuitError> {
    circuit.validate()?;
    if inputs.len() != circuit.num_inputs() {
        return Err(CircuitError::WrongInputCount {
            expected: circuit.num_inputs(),
            got: inputs.len(),
        });
    }

    let gate_doc = build_gate_document(circuit, inputs, false);
    let n_layers = circuit.num_internal();
    let phis = build_phis(circuit, n_layers, restricted_axes);

    // Q := /descendant-or-self::*[T(R) and ϕ_N]
    let query = Expr::Path(LocationPath::absolute(vec![Step::with_predicate(
        Axis::DescendantOrSelf,
        NodeTest::Star,
        Expr::and(t(LABEL_RESULT), phis[n_layers].clone()),
    )]));

    let result_node = *gate_doc
        .gate_nodes
        .last()
        .expect("validated circuit has gates");
    Ok(CoreCircuitReduction {
        document: gate_doc.document,
        query,
        result_node,
        gate_nodes: gate_doc.gate_nodes,
        phis,
    })
}

/// Builds the gate document shared with the Theorem 5.7 reduction
/// (which passes `with_witnesses = true`).
pub(crate) fn build_gate_document(
    circuit: &MonotoneCircuit,
    inputs: &[bool],
    with_witnesses: bool,
) -> GateDocument {
    let m = circuit.num_inputs();
    let n = circuit.num_internal();
    let total = m + n;

    // Labels of the gate nodes v{i}.
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
        // I_k for every layer k whose real gate G(M+k) takes input from G_i.
        for k in 1..=n {
            let gate = circuit.gate(xpeval_circuits::GateId(m + k - 1));
            if gate.inputs.iter().any(|g| g.index() + 1 == i) {
                labels.push(input_label(k));
            }
        }
        // O_k for the layer whose real gate is G_i itself.
        if i > m {
            labels.push(output_label(i - m));
        }
        labels
    };

    // Labels of the inner nodes v'{i}.
    let inner_labels_of = |i: usize| {
        let from_layer = if i <= m { 1 } else { i - m };
        let mut labels = Vec::new();
        for k in from_layer..=n {
            labels.push(input_label(k));
            labels.push(output_label(k));
        }
        labels
    };

    GateDocumentBuilder::build(total, labels_of, inner_labels_of, with_witnesses)
}

/// Builds the condition expressions `ϕ_0 … ϕ_N`.
fn build_phis(circuit: &MonotoneCircuit, n_layers: usize, restricted_axes: bool) -> Vec<Expr> {
    let m = circuit.num_inputs();
    let mut phis: Vec<Expr> = Vec::with_capacity(n_layers + 1);
    phis.push(t(LABEL_TRUE)); // ϕ_0 := T(B1)
    for k in 1..=n_layers {
        let phi_prev = phis[k - 1].clone();

        // π_k := ancestor-or-self::*[T(G) and ϕ_{k-1}]
        //   or, for Corollary 3.3: descendant-or-self::*/parent::*[T(G) and ϕ_{k-1}]
        let pi_condition = Expr::and(t(LABEL_GATE), phi_prev);
        let pi = if restricted_axes {
            Expr::Path(LocationPath::relative(vec![
                Step::new(Axis::DescendantOrSelf, NodeTest::Star),
                Step::with_predicate(Axis::Parent, NodeTest::Star, pi_condition),
            ]))
        } else {
            Expr::Path(LocationPath::relative(vec![Step::with_predicate(
                Axis::AncestorOrSelf,
                NodeTest::Star,
                pi_condition,
            )]))
        };

        // ψ_k depends on the type of the real gate G(M+k).
        let kind = circuit.gate(xpeval_circuits::GateId(m + k - 1)).kind;
        let psi = match kind {
            GateKind::And => {
                // not(child::*[T(I_k) and not(π_k)])
                Expr::not(Expr::Path(LocationPath::relative(vec![
                    Step::with_predicate(
                        Axis::Child,
                        NodeTest::Star,
                        Expr::and(t(&input_label(k)), Expr::not(pi)),
                    ),
                ])))
            }
            GateKind::Or => {
                // child::*[T(I_k) and π_k]
                Expr::Path(LocationPath::relative(vec![Step::with_predicate(
                    Axis::Child,
                    NodeTest::Star,
                    Expr::and(t(&input_label(k)), pi),
                )]))
            }
            GateKind::Input => unreachable!("internal gates are never inputs"),
        };

        // ϕ_k := descendant-or-self::*[T(O_k) and parent::*[ψ_k]]
        let phi = Expr::Path(LocationPath::relative(vec![Step::with_predicate(
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
        phis.push(phi);
    }
    phis
}

/// Human-readable name of a gate node element (`v{i}`) — convenience used by
/// examples that print the construction.
pub fn gate_element_name(i: usize) -> String {
    gate_node_name(i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use xpeval_circuits::{carry_bit_circuit, carry_bit_inputs, random_monotone_circuit};
    use xpeval_core::{CompiledQuery, EvalStrategy};
    use xpeval_dom::{Axis, NodeTest};
    use xpeval_syntax::{classify, Fragment};
    use xpeval_syntax::{Expr, LocationPath, Step};

    fn reduction_answer(red: &CoreCircuitReduction) -> bool {
        let result = CompiledQuery::from_expr(red.query.clone())
            .with_strategy(EvalStrategy::CoreXPathLinear)
            .run(&red.document)
            .unwrap()
            .value
            .into_nodes()
            .unwrap();
        assert!(result.len() <= 1);
        if result.len() == 1 {
            assert_eq!(result[0], red.result_node);
        }
        !result.is_empty()
    }

    #[test]
    fn carry_bit_circuit_reduction_matches_truth_table() {
        let circuit = carry_bit_circuit();
        for a in 0..4u8 {
            for b in 0..4u8 {
                let inputs = carry_bit_inputs(a, b);
                let expected = circuit.evaluate(&inputs).unwrap();
                let red = circuit_to_core_xpath(&circuit, &inputs, false).unwrap();
                assert_eq!(reduction_answer(&red), expected, "a={a} b={b}");
            }
        }
    }

    #[test]
    fn restricted_axes_variant_agrees_with_corollary_3_3() {
        let circuit = carry_bit_circuit();
        for a in 0..4u8 {
            for b in 0..4u8 {
                let inputs = carry_bit_inputs(a, b);
                let expected = circuit.evaluate(&inputs).unwrap();
                let red = circuit_to_core_xpath(&circuit, &inputs, true).unwrap();
                assert_eq!(reduction_answer(&red), expected, "a={a} b={b}");
                // Only the child, parent and descendant-or-self axes occur.
                let mut axes_ok = true;
                red.query.visit(&mut |e| {
                    if let Expr::Path(p) = e {
                        for s in &p.steps {
                            if !matches!(
                                s.axis,
                                Axis::Child | Axis::Parent | Axis::DescendantOrSelf
                            ) {
                                axes_ok = false;
                            }
                        }
                    }
                });
                assert!(axes_ok, "Corollary 3.3 axis restriction violated");
            }
        }
    }

    #[test]
    fn per_gate_claim_of_the_proof() {
        // Claim: for 0 ≤ k ≤ N, 1 ≤ i ≤ M+k: v_i ∈ [[ϕ_k]] ⇔ G_i true.
        let circuit = carry_bit_circuit();
        let inputs = carry_bit_inputs(2, 3); // a=2, b=3 → carry = true
        let values = circuit.evaluate_all(&inputs).unwrap();
        let red = circuit_to_core_xpath(&circuit, &inputs, false).unwrap();
        let m = circuit.num_inputs();
        for (k, phi) in red.phis.iter().enumerate() {
            // [[ϕ_k]] as a query: every node at which the condition holds.
            let everywhere = Expr::Path(LocationPath::absolute(vec![Step::with_predicate(
                Axis::DescendantOrSelf,
                NodeTest::AnyNode,
                phi.clone(),
            )]));
            let sat = CompiledQuery::from_expr(everywhere)
                .with_strategy(EvalStrategy::CoreXPathLinear)
                .run(&red.document)
                .unwrap()
                .value
                .into_nodes()
                .unwrap();
            for i in 1..=(m + k) {
                let expected = values[i - 1];
                let got = sat.contains(&red.gate_nodes[i - 1]);
                assert_eq!(got, expected, "gate G{i} at layer {k}");
            }
        }
    }

    #[test]
    fn the_query_is_core_xpath_and_the_document_is_shallow() {
        let circuit = carry_bit_circuit();
        let red = circuit_to_core_xpath(&circuit, &carry_bit_inputs(1, 1), false).unwrap();
        // Core XPath membership (the fragment whose P-hardness the theorem
        // establishes).
        assert_eq!(classify(&red.query).fragment, Fragment::CoreXPath);
        // Remark 3.1 / Corollary 3.3: the tree is of bounded depth
        // (depth 3 in element edges; label leaves add one more level).
        assert!(red.document.height() <= 4);
        // Document size is linear in the circuit: (M+N) gate nodes + inner
        // nodes + labels.
        assert!(red.document.element_count() < 20 * circuit.len());
    }

    #[test]
    fn query_size_is_linear_in_the_circuit() {
        let circuit = carry_bit_circuit();
        let red = circuit_to_core_xpath(&circuit, &carry_bit_inputs(0, 0), false).unwrap();
        let size_small = red.query.size();
        // A circuit with twice the layers yields roughly twice the query size.
        let mut big = carry_bit_circuit();
        let out = big.output();
        let mut prev = out;
        for _ in 0..5 {
            prev = big.and(vec![prev]);
        }
        let red_big = circuit_to_core_xpath(&big, &carry_bit_inputs(0, 0), false).unwrap();
        let size_big = red_big.query.size();
        assert!(size_big > size_small);
        assert!(
            size_big < size_small + 5 * 16,
            "growth should be linear per layer"
        );
    }

    #[test]
    fn random_circuits_property() {
        let mut rng = StdRng::seed_from_u64(42);
        for round in 0..30 {
            let (circuit, inputs) = random_monotone_circuit(&mut rng, 4, 8);
            let expected = circuit.evaluate(&inputs).unwrap();
            let red = circuit_to_core_xpath(&circuit, &inputs, round % 2 == 0).unwrap();
            assert_eq!(reduction_answer(&red), expected, "round {round}");
            // The context-value-table machine agrees with the linear one.
            let cvt = CompiledQuery::from_expr(red.query.clone())
                .with_strategy(EvalStrategy::ContextValueTable)
                .run(&red.document)
                .unwrap();
            assert_eq!(!cvt.value.expect_nodes().is_empty(), expected);
        }
    }

    #[test]
    fn input_count_mismatch_is_an_error() {
        let circuit = carry_bit_circuit();
        assert!(matches!(
            circuit_to_core_xpath(&circuit, &[true], false),
            Err(CircuitError::WrongInputCount { .. })
        ));
    }

    #[test]
    fn example_document_labels_match_the_paper() {
        // Figure 2/3 example with the paper's label assignment (Section 3):
        //   v1: {G, v(a1), I2, I3}   v5: {G, O1, I3, I4}   v9: {G, R, O5}
        let circuit = carry_bit_circuit();
        let inputs = carry_bit_inputs(3, 1); // a1=1 b1=0 a0=1 b0=1
        let red = circuit_to_core_xpath(&circuit, &inputs, false).unwrap();
        let doc_nodes = build_gate_document(&circuit, &inputs, false);
        let gd = &doc_nodes;
        let v1 = gd.gate_nodes[0];
        assert!(gd.has_label(v1, "G"));
        assert!(gd.has_label(v1, "B1")); // a1 = 1
        assert!(gd.has_label(v1, "I2"));
        assert!(gd.has_label(v1, "I3"));
        assert!(!gd.has_label(v1, "I1"));
        let v2 = gd.gate_nodes[1];
        assert!(gd.has_label(v2, "B0")); // b1 = 0
        assert!(gd.has_label(v2, "I2"));
        assert!(gd.has_label(v2, "I4"));
        let v5 = gd.gate_nodes[4];
        assert!(gd.has_label(v5, "O1"));
        assert!(gd.has_label(v5, "I3"));
        assert!(gd.has_label(v5, "I4"));
        let v9 = gd.gate_nodes[8];
        assert!(gd.has_label(v9, "R"));
        assert!(gd.has_label(v9, "O5"));
        // Inner nodes: v'_1 carries every I/O label, v'_7 only layers ≥ 3.
        assert!(gd.has_label(gd.inner_nodes[0], "I1"));
        assert!(gd.has_label(gd.inner_nodes[0], "O5"));
        assert!(gd.has_label(gd.inner_nodes[6], "I3"));
        assert!(!gd.has_label(gd.inner_nodes[6], "I2"));
        // And the full reduction on this input answers the carry bit of 3+1.
        assert!(reduction_answer(&red));
    }
}
