//! What makes an output correct: the paper's columns, the interpreter, and
//! the CLI's own rendering of the same source.

use crate::rng::Rng;
use crate::suite::{Row, RowKind};
use chora_core::{complexity, AnalysisResult, AssertionResult, ComplexityClass};
use chora_expr::Term;
use chora_ir::{ExecError, FingerprintBuilder, Interpreter};

/// A row's verdict, as one op computed it.
#[derive(Clone, Debug, PartialEq)]
pub enum Outcome {
    Table1 {
        bound: Option<Term>,
        class: ComplexityClass,
    },
    Assertions(Vec<AssertionResult>),
}

/// Reads the row's verdict out of an analysis result (`table1_row` for the
/// Table 1 rows).
pub fn outcome(row: &Row, result: AnalysisResult) -> Outcome {
    match &row.kind {
        RowKind::Table1 {
            procedure,
            cost_var,
            size_param,
            ..
        } => {
            let (bound, class) = match result.summary(procedure) {
                Some(summary) => complexity::table1_row(summary, cost_var, size_param),
                None => (None, ComplexityClass::NoBound),
            };
            Outcome::Table1 { bound, class }
        }
        RowKind::Assertion { .. } => Outcome::Assertions(result.assertions),
    }
}

/// The row's verdict as the paper's tables print it.
pub fn verdict(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Table1 { class, .. } => class.to_string(),
        Outcome::Assertions(asserts) if asserts.iter().all(|a| a.verified) => "proved".into(),
        Outcome::Assertions(_) => "n.p.".into(),
    }
}

/// Whether the verdict equals the paper's CHORA column.
pub fn matches_paper(row: &Row, outcome: &Outcome) -> bool {
    match (&row.kind, outcome) {
        (RowKind::Table1 { paper, .. }, Outcome::Table1 { class, .. }) => {
            class.to_string() == *paper
        }
        (RowKind::Assertion { paper, .. }, Outcome::Assertions(asserts)) => {
            asserts.iter().all(|a| a.verified) == *paper
        }
        _ => false,
    }
}

/// Interpreter step budget per run; a run that exhausts it is inconclusive.
const FUEL: u64 = 200_000;

/// Checks a verdict against concrete runs on seeded inputs and
/// non-determinism: a claimed cost bound must dominate the interpreted
/// cost at small sizes, and a proved assertion must never fail.  Returns
/// the first violation found.
pub fn soundness(row: &Row, outcome: &Outcome, seed: u64) -> Result<(), String> {
    let program = &row.program;
    let mut rng = Rng::stream(seed, 0x50_0d);
    match (&row.kind, outcome) {
        (
            RowKind::Table1 {
                procedure,
                cost_var,
                size_param,
                ..
            },
            Outcome::Table1 {
                bound: Some(bound), ..
            },
        ) => {
            let params = &program
                .procedure(procedure)
                .expect("row procedure exists")
                .params;
            for n in 1..=8i64 {
                for _ in 0..3 {
                    // Other parameters are 0, as `eval_bound_at` takes them.
                    let args: Vec<i128> = params
                        .iter()
                        .map(|p| if p == size_param { n as i128 } else { 0 })
                        .collect();
                    let (mut bools, mut ints) = (rng.clone(), rng.clone());
                    rng.next_u64();
                    let run = Interpreter::new(program)
                        .with_nondet_bool(move || bools.coin())
                        .with_nondet_int(move || ints.range(-2, 10) as i128)
                        .with_fuel(FUEL)
                        .run(procedure, &args);
                    let run = match run {
                        Ok(run) => run,
                        Err(ExecError::AssumptionViolated | ExecError::OutOfFuel) => continue,
                        Err(e) => return Err(format!("interpreter error at n={n}: {e:?}")),
                    };
                    let measured = run.globals.get(cost_var).copied().unwrap_or(0) as f64;
                    let Some(claimed) = complexity::eval_bound_at(bound, size_param, n) else {
                        continue;
                    };
                    if claimed + 1e-6 < measured {
                        return Err(format!(
                            "bound {claimed} < interpreted cost {measured} at n={n}"
                        ));
                    }
                }
            }
            Ok(())
        }
        (RowKind::Assertion { .. }, Outcome::Assertions(asserts)) => {
            let proved: Vec<&AssertionResult> = asserts.iter().filter(|a| a.verified).collect();
            if proved.is_empty() {
                return Ok(());
            }
            let entries: Vec<&str> = match program.procedure("main") {
                Some(_) => vec!["main"],
                None => proved.iter().map(|a| a.procedure.as_str()).collect(),
            };
            for entry in entries {
                let arity = program.procedure(entry).map_or(0, |p| p.params.len());
                for _ in 0..40 {
                    let args: Vec<i128> = (0..arity).map(|_| rng.range(0, 8) as i128).collect();
                    let (mut bools, mut ints) = (rng.clone(), rng.clone());
                    rng.next_u64();
                    let run = Interpreter::new(program)
                        .with_nondet_bool(move || bools.coin())
                        .with_nondet_int(move || ints.range(-4, 16) as i128)
                        .with_fuel(FUEL)
                        .run(entry, &args);
                    match run {
                        Err(ExecError::AssertionFailed(label))
                            if proved.iter().any(|a| a.label == label) =>
                        {
                            return Err(format!(
                                "proved assertion `{label}` fails on {entry}{args:?}"
                            ));
                        }
                        _ => {}
                    }
                }
            }
            Ok(())
        }
        _ => Ok(()),
    }
}

/// Fingerprints of a rendered report with its timing line (`"analysis_ms"`,
/// the only field that differs between two renderings of one analysis)
/// left out: of the whole report, and of its `body`, which also leaves out
/// the `"file"` line (the display name).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReportHash {
    pub whole: u128,
    pub body: u128,
}

pub fn report_hash(doc: &str) -> ReportHash {
    let (mut whole, mut body) = (FingerprintBuilder::new(), FingerprintBuilder::new());
    for line in doc.lines().filter(|l| !l.contains("\"analysis_ms\"")) {
        whole.write_str(line);
        if !line.trim_start().starts_with("\"file\":") {
            body.write_str(line);
        }
    }
    ReportHash {
        whole: whole.finish().0,
        body: body.finish().0,
    }
}

/// Whether the report names `name` as its file.
pub fn names_file(doc: &str, name: &str) -> bool {
    doc.lines().any(|l| {
        l.trim_start()
            .strip_prefix("\"file\": \"")
            .and_then(|r| r.strip_prefix(name))
            .is_some_and(|r| r.starts_with('"'))
    })
}

/// The report the CLI renders for `source` with no store: what the daemon
/// must answer, byte for byte, timing aside.
pub fn reference(name: &str, source: &str) -> Result<ReportHash, String> {
    let opts = chora_cli::FileOptions {
        json: true,
        quiet: true,
        ..chora_cli::FileOptions::default()
    };
    chora_cli::analyze_source(name, source, &opts, None)
        .map(|(doc, _exit, _stats)| report_hash(&doc))
        .map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_hash_ignores_only_the_timing_line() {
        let a = "{\n  \"file\": \"x\",\n  \"n\": 1,\n  \"analysis_ms\": 1.5\n}\n";
        let b = "{\n  \"file\": \"x\",\n  \"n\": 1,\n  \"analysis_ms\": 2.25\n}\n";
        let c = "{\n  \"file\": \"y\",\n  \"n\": 1,\n  \"analysis_ms\": 1.5\n}\n";
        let d = "{\n  \"file\": \"x\",\n  \"n\": 2,\n  \"analysis_ms\": 1.5\n}\n";
        assert_eq!(report_hash(a), report_hash(b));
        assert_ne!(report_hash(a).whole, report_hash(c).whole);
        assert_eq!(report_hash(a).body, report_hash(c).body);
        assert_ne!(report_hash(a).body, report_hash(d).body);
        assert!(names_file(a, "x") && !names_file(a, "y") && !names_file(a, ""));
    }

    /// The premise of checking `serve-edit` by row: the edit's constants
    /// never reach the report, so every edit of one row renders the same
    /// report apart from the display name.
    #[test]
    fn edit_constants_never_change_the_report() {
        let rows = crate::suite::build();
        for name in ["hanoi", "height", "recHanoi02"] {
            let row = rows.iter().find(|r| r.name == name).expect("suite row");
            let a = reference("x.imp", &crate::suite::edit_source(row, 1, 3)).expect("analyzes");
            let b = reference("y.imp", &crate::suite::edit_source(row, 2, 40)).expect("analyzes");
            assert_eq!(a.body, b.body, "{name}");
            assert_ne!(
                a.whole, b.whole,
                "{name}: the file line is part of the whole report"
            );
        }
    }
}
