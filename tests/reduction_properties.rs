//! Property tests for the hardness reductions: the generated (document,
//! query) pairs answer exactly the source problem, for random instances.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};
use xpeval::circuits::{random_monotone_circuit, random_sac1_circuit};
use xpeval::prelude::*;
use xpeval::reductions::{
    circuit_to_core_xpath, circuit_to_iterated_pwf, reachability_to_pf, sac1_to_positive_core,
    DirectedGraph,
};
use xpeval::syntax::classify;

/// The nodes a Core XPath query selects, on the linear machine.
fn linear(doc: &Document, query: &Expr) -> Vec<NodeId> {
    CompiledQuery::from_expr(query.clone())
        .with_strategy(EvalStrategy::CoreXPathLinear)
        .run(doc)
        .unwrap()
        .value
        .into_nodes()
        .unwrap()
}

/// The nodes an iterated-predicate query selects, on the context-value-table
/// machine — as written: the Remark 5.2 merge is off, the iterated
/// predicates are what Theorem 5.7 is about.
fn cvt_unnormalized(doc: &Document, query: &Expr) -> Vec<NodeId> {
    let options = CompileOptions {
        strategy: Some(EvalStrategy::ContextValueTable),
        normalize: false,
        ..CompileOptions::default()
    };
    CompiledQuery::from_expr_with(query.clone(), &options)
        .run(doc)
        .unwrap()
        .value
        .into_nodes()
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Theorem 3.2: query non-empty ⇔ monotone circuit evaluates to true.
    #[test]
    fn theorem_3_2(seed in 0u64..10_000, gates in 2usize..12, restricted in any::<bool>()) {
        let (circuit, inputs) = random_monotone_circuit(&mut StdRng::seed_from_u64(seed), 4, gates);
        let expected = circuit.evaluate(&inputs).unwrap();
        let red = circuit_to_core_xpath(&circuit, &inputs, restricted).unwrap();
        let result = linear(&red.document, &red.query);
        prop_assert_eq!(!result.is_empty(), expected);
        // The query stays inside Core XPath and the tree stays shallow.
        prop_assert!(classify(&red.query).fragment <= Fragment::CoreXPath);
        prop_assert!(red.document.height() <= 4);
    }

    /// Theorem 4.2: the negation-free query answers the SAC¹ circuit value.
    #[test]
    fn theorem_4_2(seed in 0u64..10_000, gates in 2usize..7) {
        let (sac, inputs) = random_sac1_circuit(&mut StdRng::seed_from_u64(seed), 4, gates);
        let expected = sac.evaluate(&inputs).unwrap();
        let red = sac1_to_positive_core(&sac, &inputs).unwrap();
        let result = linear(&red.document, &red.query);
        prop_assert_eq!(!result.is_empty(), expected);
        prop_assert!(classify(&red.query).fragment <= Fragment::PositiveCoreXPath);
    }

    /// Theorem 5.7: the iterated-predicate query agrees with the circuit.
    #[test]
    fn theorem_5_7(seed in 0u64..10_000, gates in 2usize..8) {
        let (circuit, inputs) = random_monotone_circuit(&mut StdRng::seed_from_u64(seed), 3, gates);
        let expected = circuit.evaluate(&inputs).unwrap();
        let red = circuit_to_iterated_pwf(&circuit, &inputs).unwrap();
        let nodes = cvt_unnormalized(&red.document, &red.query);
        prop_assert_eq!(!nodes.is_empty(), expected);
        // No negation is used; predicate sequences have length exactly 2.
        let feats = xpeval::syntax::fragment::features(&red.query);
        prop_assert_eq!(feats.negation_count, 0);
        prop_assert_eq!(feats.max_predicate_sequence, 2);
    }

    /// Theorem 4.3: the PF query answers reachability on random digraphs.
    #[test]
    fn theorem_4_3(seed in 0u64..10_000, n in 2usize..7, density in 0.05f64..0.6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut graph = DirectedGraph::new(n);
        for u in 1..=n {
            for t in 1..=n {
                if u != t && rng.gen_bool(density) {
                    graph.add_edge(u, t);
                }
            }
        }
        let source = rng.gen_range(1..=n);
        let target = rng.gen_range(1..=n);
        let red = reachability_to_pf(&graph, source, target);
        let result = linear(&red.document, &red.query);
        prop_assert_eq!(!result.is_empty(), graph.reachable(source, target));
        prop_assert_eq!(classify(&red.query).fragment, Fragment::PF);
    }

    /// The two circuit encodings (Theorem 3.2 with negation, Theorem 5.7
    /// with iterated predicates) always agree with each other.
    #[test]
    fn encodings_agree(seed in 0u64..10_000, gates in 2usize..7) {
        let (circuit, inputs) = random_monotone_circuit(&mut StdRng::seed_from_u64(seed), 3, gates);
        let core = circuit_to_core_xpath(&circuit, &inputs, false).unwrap();
        let iterated = circuit_to_iterated_pwf(&circuit, &inputs).unwrap();
        let a = !linear(&core.document, &core.query).is_empty();
        let b = !cvt_unnormalized(&iterated.document, &iterated.query).is_empty();
        prop_assert_eq!(a, b);
    }
}

#[test]
fn reductions_select_only_the_result_node() {
    // Whenever the circuit is true, the query selects exactly the R-labeled
    // gate node, nothing else.
    let (circuit, mut inputs) = random_monotone_circuit(&mut StdRng::seed_from_u64(7), 4, 9);
    // Force all inputs true to make "true" likely for a monotone circuit.
    inputs.iter_mut().for_each(|b| *b = true);
    let expected = circuit.evaluate(&inputs).unwrap();
    let red = circuit_to_core_xpath(&circuit, &inputs, false).unwrap();
    let result = linear(&red.document, &red.query);
    if expected {
        assert_eq!(result, vec![red.result_node]);
    } else {
        assert!(result.is_empty());
    }
}
