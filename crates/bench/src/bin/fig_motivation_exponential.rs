//! E2 — Section 1 motivation: naive engines are exponential in |Q|, the
//! context-value-table algorithm is polynomial.
//!
//! Prints, for the query family `//a/b/parent::a/b/…`, the work counters and
//! wall-clock times of the naive AST-level reference evaluator (with its
//! list limit, so the exponential runs end) and of the context-value-table
//! machine.  The naive column grows geometrically (base = the document
//! fan-out), the table column linearly.

use std::time::Duration;
use xpeval_bench::{micros, timed, TextTable};
use xpeval_core::reference::ReferenceEvaluator;
use xpeval_core::{CompiledQuery, EvalStrategy};
use xpeval_workloads::{blowup_document, blowup_query};

fn main() {
    let fan_out = 3usize;
    let doc = blowup_document(fan_out);
    println!(
        "E2 — exponential naive evaluation vs polynomial context-value tables (fan-out k = {fan_out})\n"
    );

    let mut table = TextTable::new(&[
        "repetitions",
        "|Q| (steps)",
        "naive step-contexts",
        "naive max list",
        "naive time (us)",
        "cvt step-contexts",
        "cvt table entries",
        "cvt time (us)",
    ]);

    for reps in 1..=10usize {
        let query = blowup_query(reps);
        let steps = match &query {
            xpeval_syntax::Expr::Path(p) => p.steps.len(),
            _ => 0,
        };

        let mut naive = ReferenceEvaluator::with_list_limit(&doc, 2_000_000);
        let (naive_result, naive_time) = timed(|| naive.evaluate(&query));
        let (naive_steps, naive_list, naive_time) = match naive_result {
            Ok(_) => (
                naive.stats().step_context_evaluations.to_string(),
                naive.stats().max_intermediate_list.to_string(),
                micros(naive_time),
            ),
            Err(_) => ("aborted".to_string(), "> 2e6".to_string(), "-".to_string()),
        };

        let cvt =
            CompiledQuery::from_expr(query.clone()).with_strategy(EvalStrategy::ContextValueTable);
        let (dp_out, dp_time) = timed(|| cvt.run(&doc).unwrap());

        table.row(&[
            reps.to_string(),
            steps.to_string(),
            naive_steps,
            naive_list,
            naive_time,
            dp_out.stats.step_context_evaluations.to_string(),
            dp_out.stats.table_entries.to_string(),
            micros(dp_time),
        ]);
    }
    table.print();

    println!(
        "Expected shape: the naive columns multiply by ~{fan_out} per repetition (k^m), the \
         context-value-table columns grow by a constant per repetition (O(|D|·|Q|))."
    );
    let _ = Duration::ZERO;
}
