//! The printed form of every paper benchmark is the parser's fixed point:
//! `print(parse(print(p))) == print(p)` for the 27 programs of Table 1,
//! Table 2 and Fig. 3.  A program that uses a variable it never declares
//! fails this, because the parser infers the missing local and the reprint
//! grows a declaration.

use chora::bench_suite::{assertion_suite, complexity_suite};
use chora_cli::{parse_program, print_program};

#[test]
fn every_paper_program_prints_to_a_parser_fixed_point() {
    let programs: Vec<_> = complexity_suite::all()
        .into_iter()
        .map(|b| (b.name, b.program))
        .chain(
            assertion_suite::all()
                .into_iter()
                .map(|b| (b.name, b.program)),
        )
        .collect();
    assert_eq!(programs.len(), 27, "Table 1 (12) + Table 2 and Fig. 3 (15)");
    for (name, program) in &programs {
        let printed = print_program(program);
        let reparsed = parse_program(&printed)
            .unwrap_or_else(|e| panic!("{name}: printed program does not parse: {e}\n{printed}"));
        assert_eq!(
            print_program(&reparsed),
            printed,
            "{name}: reprinting the parsed program changes it"
        );
    }
}
