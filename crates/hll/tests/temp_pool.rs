//! Expressions deeper than the temporary pool: `r := a + (a + (a + …))`
//! at 1..=12 terms on both back ends. Each compile either succeeds —
//! and the program prints exactly what the interpreter prints — or
//! returns a `CompileError` naming the pool. Neither back end panics.

use mips_ccm::{CcMachine, CcPolicy};
use mips_hll::{compile_cc, compile_mips, run_program, CcGenOptions, CodegenOptions};
use mips_reorg::{reorganize, ReorgOptions};
use mips_sim::Machine;

/// `a + (a + (… + a))` with `terms` operands, right-nested.
fn nested_sum(terms: usize) -> String {
    match terms {
        1 => "a".to_string(),
        2 => "a + a".to_string(),
        n => format!("a + ({})", nested_sum(n - 1)),
    }
}

fn program(terms: usize) -> String {
    format!(
        "program t; var a, r: integer;
         begin
           a := 3;
           r := {};
           writeln(r)
         end.",
        nested_sum(terms)
    )
}

#[test]
fn deep_expressions_compile_or_name_the_pool_on_both_back_ends() {
    let (mut mips_errs, mut cc_errs) = (0, 0);
    for terms in 1..=12 {
        let src = program(terms);
        let expected = run_program(&src).expect("the interpreter runs it");
        assert_eq!(expected, format!("{}\n", 3 * terms));

        match compile_mips(&src, &CodegenOptions::default()) {
            Ok(lc) => {
                let out = reorganize(&lc, ReorgOptions::FULL).expect("reorganizes");
                let mut m = Machine::new(out.program);
                m.run().expect("runs");
                assert_eq!(m.output_string(), expected, "mips, {terms} terms");
            }
            Err(e) => {
                assert!(e.message.contains("temporary pool"), "mips: {e}");
                mips_errs += 1;
            }
        }

        match compile_cc(&src, &CcGenOptions::default()) {
            Ok(p) => {
                let mut m = CcMachine::new(p, CcPolicy::VAX);
                m.run().expect("runs");
                assert_eq!(m.output_string(), expected, "cc, {terms} terms");
            }
            Err(e) => {
                assert!(e.message.contains("temporary pool"), "cc: {e}");
                cc_errs += 1;
            }
        }
    }
    assert!(mips_errs > 0, "12 terms must outgrow the MIPS pool");
    assert!(cc_errs > 0, "12 terms must outgrow the CC pool");
}
