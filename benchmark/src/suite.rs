//! The paper suite and the request streams built from it.

use crate::rng::Rng;
use chora_bench_suite::{assertion_suite, complexity_suite};
use chora_expr::Symbol;
use chora_ir::Program;

/// What the paper reports for a row, and how the row's verdict is read.
#[derive(Clone, Debug)]
pub enum RowKind {
    /// A Table 1 row: the cost bound of `procedure` and its class.
    Table1 {
        procedure: &'static str,
        cost_var: Symbol,
        size_param: Symbol,
        /// The paper's CHORA column.
        paper: &'static str,
        /// The true bound (column "Actual").
        actual: &'static str,
    },
    /// A Table 2 or Fig. 3 row: whether every assertion is proved.
    Assertion { suite: &'static str, paper: bool },
}

/// One of the 27 programs of the paper's evaluation.
#[derive(Clone, Debug)]
pub struct Row {
    pub name: &'static str,
    pub program: Program,
    /// The program printed as `.imp`, as the daemon receives it.
    pub source: String,
    pub kind: RowKind,
}

/// Table 1, then Table 2, then Fig. 3, in the suite crate's order.
pub fn build() -> Vec<Row> {
    let mut rows: Vec<Row> = complexity_suite::all()
        .into_iter()
        .map(|b| Row {
            name: b.name,
            source: chora_cli::print_program(&b.program),
            program: b.program,
            kind: RowKind::Table1 {
                procedure: b.procedure,
                cost_var: Symbol::new(b.cost_var),
                size_param: Symbol::new(b.size_param),
                paper: b.paper_chora,
                actual: b.actual,
            },
        })
        .collect();
    rows.extend(assertion_suite::all().into_iter().map(|b| Row {
        name: b.name,
        source: chora_cli::print_program(&b.program),
        program: b.program,
        kind: RowKind::Assertion {
            suite: b.suite,
            paper: b.paper_chora,
        },
    }));
    rows
}

/// One op of a stream: the `id`-th request, on suite row `row`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Request {
    pub id: u64,
    pub row: usize,
}

/// Endless passes over the suite, each pass in its own seeded order.
pub struct Stream {
    seed: u64,
    order: Vec<usize>,
    pos: usize,
    pass: u64,
    next_id: u64,
}

impl Stream {
    pub fn new(seed: u64, rows: usize) -> Stream {
        Stream {
            seed,
            order: (0..rows).collect(),
            pos: rows,
            pass: 0,
            next_id: 0,
        }
    }
}

impl Iterator for Stream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        if self.pos == self.order.len() {
            self.order.sort_unstable();
            Rng::stream(self.seed, self.pass).shuffle(&mut self.order);
            self.pass += 1;
            self.pos = 0;
        }
        let request = Request {
            id: self.next_id,
            row: self.order[self.pos],
        };
        self.pos += 1;
        self.next_id += 1;
        Some(request)
    }
}

/// The display name of an unedited row (the same on every request, so the
/// response cache can answer).
pub fn plain_name(row: &Row) -> String {
    format!("{}.imp", row.name)
}

/// The fresh display name of edit request `id`.
pub fn edit_name(row: &Row, id: u64) -> String {
    format!("{}-e{id}.imp", row.name)
}

/// Stream separator: edit bodies draw from other streams than pass orders.
const EDIT_STREAM: u64 = 1 << 63;

/// Request `id`'s edit of `row`: CI's order-stability edit, a new
/// top-level procedure put before the first one, here with a seeded body
/// whose constants are unique to the request.  No procedure calls it, so
/// every original cone is unchanged, while the new component is one the
/// daemon's store has never seen.
pub fn edit_source(row: &Row, seed: u64, id: u64) -> String {
    let mut rng = Rng::stream(seed, EDIT_STREAM | id);
    let divisor = rng.range(2, 9);
    let offset = id * 1000 + rng.range(0, 999) as u64;
    let pad = format!("proc __edit(n) locals q {{\n    q := n / {divisor} + {offset};\n}}\n\n");
    let at = if row.source.starts_with("proc ") {
        0
    } else {
        row.source
            .find("\nproc ")
            .map_or(row.source.len(), |i| i + 1)
    };
    let mut out = String::with_capacity(row.source.len() + pad.len());
    out.push_str(&row.source[..at]);
    out.push_str(&pad);
    out.push_str(&row.source[at..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use chora_ir::fingerprint::procedure_keys;
    use chora_ir::Fingerprint;
    use std::collections::HashSet;

    fn sequence(seed: u64, n: usize) -> Vec<(usize, String)> {
        let rows = build();
        Stream::new(seed, rows.len())
            .take(n)
            .map(|r| (r.row, edit_source(&rows[r.row], seed, r.id)))
            .collect()
    }

    #[test]
    fn same_seed_same_requests_other_seed_other_requests() {
        assert_eq!(sequence(7, 200), sequence(7, 200));
        assert_ne!(sequence(7, 200), sequence(8, 200));
        let orders: Vec<usize> = sequence(8, 200).into_iter().map(|(row, _)| row).collect();
        let other: Vec<usize> = sequence(9, 200).into_iter().map(|(row, _)| row).collect();
        assert_ne!(orders, other, "the pass order itself depends on the seed");
    }

    #[test]
    fn every_pass_visits_every_row_once() {
        let rows = build().len();
        let ids: Vec<usize> = Stream::new(3, rows).take(3 * rows).map(|r| r.row).collect();
        for pass in ids.chunks(rows) {
            let mut sorted = pass.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..rows).collect::<Vec<_>>());
        }
    }

    #[test]
    fn edits_are_distinct_reparse_and_keep_every_original_cone() {
        let rows = build();
        assert_eq!(rows.len(), 27);
        let salt = Fingerprint(0x5eed);
        let mut seen = HashSet::new();
        for request in Stream::new(11, rows.len()).take(3 * rows.len()) {
            let row = &rows[request.row];
            let source = edit_source(row, 11, request.id);
            assert!(
                seen.insert(source.clone()),
                "edit {} repeats a source",
                request.id
            );
            let edited = chora_cli::parse_program(&source)
                .unwrap_or_else(|e| panic!("edit of {} does not parse: {e:?}", row.name));
            let original = chora_cli::parse_program(&row.source).expect("suite row parses");
            assert_eq!(edited.procedures.len(), original.procedures.len() + 1);
            let before = procedure_keys(&original, salt);
            let after = procedure_keys(&edited, salt);
            for (name, key) in &before {
                assert_eq!(
                    after.get(name),
                    Some(key),
                    "{}: cone of {name} changed",
                    row.name
                );
            }
        }
    }

    #[test]
    fn printed_rows_parse() {
        for row in build() {
            let parsed = chora_cli::parse_program(&row.source);
            assert!(parsed.is_ok(), "{} does not parse back", row.name);
        }
    }
}
