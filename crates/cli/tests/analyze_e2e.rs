//! End-to-end CLI tests: file in, analysis verdict out.

use chora_cli::{analyze, bench, complexity_cmd, print_cmd, BenchOptions, FileOptions};
use std::path::PathBuf;

fn example(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/programs")
        .join(name)
        .display()
        .to_string()
}

/// Drops the wall-clock field so reproducibility checks compare only the
/// analysis content.
fn strip_timing(out: String) -> String {
    out.lines()
        .filter(|l| !l.contains("analysis_ms"))
        .collect::<Vec<_>>()
        .join("\n")
}

fn file_opts(name: &str, json: bool) -> FileOptions {
    FileOptions {
        path: example(name),
        json,
        ..FileOptions::default()
    }
}

#[test]
fn complexity_hanoi_reports_exponential_in_json() {
    let (output, exit) = complexity_cmd(&file_opts("hanoi.imp", true)).expect("analysis runs");
    assert_eq!(exit, 0, "output: {output}");
    assert!(
        output.contains("\"class\": \"O(2^n)\""),
        "expected the O(2^n) verdict in JSON output, got:\n{output}"
    );
    assert!(
        output.contains("\"procedure\": \"hanoi\""),
        "got:\n{output}"
    );
    assert!(output.contains("\"bound\": "), "got:\n{output}");
}

#[test]
fn analyze_hanoi_emits_recursive_summary_json() {
    let (output, exit) = analyze(&file_opts("hanoi.imp", true)).expect("analysis runs");
    assert_eq!(exit, 0, "output: {output}");
    assert!(output.contains("\"name\": \"hanoi\""), "got:\n{output}");
    assert!(output.contains("\"recursive\": true"), "got:\n{output}");
    assert!(output.contains("\"depth_bound\": "), "got:\n{output}");
}

#[test]
fn complexity_merge_sort_reports_n_log_n() {
    let (output, exit) =
        complexity_cmd(&file_opts("merge-sort.imp", false)).expect("analysis runs");
    assert_eq!(exit, 0, "output: {output}");
    assert!(output.contains("O(n log n)"), "got:\n{output}");
}

#[test]
fn analyze_height_proves_the_assertion() {
    let (output, exit) = analyze(&file_opts("height.imp", true)).expect("analysis runs");
    assert_eq!(exit, 0, "unverified assertions, output:\n{output}");
    assert!(
        output.contains("\"all_assertions_verified\": true"),
        "got:\n{output}"
    );
}

#[test]
fn bench_filter_runs_single_benchmark() {
    let (output, exit) = bench(&BenchOptions {
        json: true,
        filter: Some("hanoi".to_string()),
        ..BenchOptions::default()
    })
    .expect("bench runs");
    assert_eq!(exit, 0);
    assert!(output.contains("\"name\": \"hanoi\""), "got:\n{output}");
    assert!(output.contains("\"class\": \"O(2^n)\""), "got:\n{output}");
    // The filter is case-sensitive: the recHanoi assertion benchmarks stay out.
    assert!(!output.contains("recHanoi01"), "got:\n{output}");
}

#[test]
fn missing_file_is_a_clean_error() {
    let err = analyze(&file_opts("no-such-file.imp", false)).unwrap_err();
    assert!(err.to_string().contains("cannot read"), "got: {err}");
}

#[test]
fn bad_arguments_are_clean_errors_naming_the_problem() {
    let fib = example("fib.imp");
    let cases: [(&[&str], &str); 6] = [
        (
            &["analyze", &fib, &fib],
            "`chora analyze` expects exactly one FILE argument",
        ),
        (&["complexity", "--cost"], "--cost requires a value"),
        // A flag no subcommand takes is reported by name, not as a FILE.
        (
            &["analyze", "--remote-cache", "127.0.0.1:1", &fib],
            "unknown flag --remote-cache",
        ),
        (&["complexity", &fib, "--bogus"], "unknown flag --bogus"),
        (
            &["bench", "--remote-cache", "x"],
            "unknown flag --remote-cache",
        ),
        (
            &["serve", "--remote-cache", "x"],
            "unknown flag --remote-cache",
        ),
    ];
    for (args, expected) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_chora"))
            .args(args)
            .output()
            .expect("run chora");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(
            stderr.starts_with("error: ") && stderr.contains(expected),
            "{args:?}: expected `{expected}`, got: {stderr}"
        );
    }
}

#[test]
fn analyze_json_is_byte_identical_across_runs() {
    // The per-analysis FreshSource (and the structural symbol encoding) make
    // repeated analyses of the same file reproducible down to the byte; only
    // the timing field varies, so it is stripped before comparing.
    let (first, _) = analyze(&file_opts("merge-sort.imp", true)).expect("analysis runs");
    let (second, _) = analyze(&file_opts("merge-sort.imp", true)).expect("analysis runs");
    assert_eq!(
        strip_timing(first),
        strip_timing(second),
        "repeated runs must be byte-identical"
    );
}

#[test]
fn analyze_output_is_independent_of_jobs_and_matches_the_golden() {
    // The ready-queue scheduler hands components to however many workers are
    // asked for, but the canonical task order is folded sequentially, so the
    // document must be byte-identical for every worker count — and identical
    // to the golden recorded before the scheduler existed.  The golden
    // records the repo-relative path, so that one line is normalized.
    let golden_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/goldens/merge-sort.analyze.json");
    let golden = std::fs::read_to_string(&golden_path).expect("read golden");
    let absolute = example("merge-sort.imp");
    for jobs in [1usize, 2, 8] {
        let opts = FileOptions {
            jobs,
            ..file_opts("merge-sort.imp", true)
        };
        let (out, exit) = analyze(&opts).expect("analysis runs");
        assert_eq!(exit, 0, "jobs={jobs} output: {out}");
        let normalized = out.replace(&absolute, "examples/programs/merge-sort.imp");
        assert_eq!(
            strip_timing(normalized),
            strip_timing(golden.clone()),
            "--jobs {jobs} must reproduce the golden document byte-for-byte"
        );
    }
}

#[test]
fn trace_out_records_every_phase_without_perturbing_output() {
    // One test covers the whole tracing contract (the recording session is
    // process-global, so splitting it across parallel #[test]s would race):
    // the Chrome trace has at least one span per analysis phase and at least
    // one scheduler lane, and stdout stays byte-identical with tracing on
    // and off for both a serial and a parallel run.
    let dir = std::env::temp_dir().join("chora-trace-e2e-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    for jobs in [1usize, 8] {
        let trace_path = dir.join(format!("hanoi-jobs{jobs}.trace.json"));
        let plain = FileOptions {
            jobs,
            quiet: true,
            ..file_opts("hanoi.imp", true)
        };
        let traced = FileOptions {
            trace_out: Some(trace_path.display().to_string()),
            ..plain.clone()
        };
        let (untraced_out, _) = analyze(&plain).expect("analysis runs");
        let (traced_out, _) = analyze(&traced).expect("traced analysis runs");
        assert_eq!(
            strip_timing(untraced_out),
            strip_timing(traced_out),
            "--trace-out must not perturb the analysis document (jobs={jobs})"
        );

        let trace = std::fs::read_to_string(&trace_path).expect("trace file written");
        assert!(
            trace.starts_with('{') && trace.contains("\"traceEvents\""),
            "expected Chrome trace-event JSON, got:\n{trace}"
        );
        for phase in ["parse", "summarize", "height", "depth", "check"] {
            assert!(
                trace.contains(&format!("\"name\":\"{phase}\"")),
                "jobs={jobs}: expected a `{phase}` span in the trace"
            );
        }
        assert!(
            trace.contains("\"fm_project"),
            "jobs={jobs}: expected FM projection spans"
        );
        assert!(
            trace.contains("recurrence_solve"),
            "jobs={jobs}: expected a recurrence-solver span"
        );
        assert!(
            trace.contains("\"thread_name\""),
            "jobs={jobs}: expected at least one lane metadata event"
        );
    }
}

#[test]
fn bench_times_programs_directory() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../examples/programs")
        .display()
        .to_string();
    let (output, exit) = bench(&BenchOptions {
        json: true,
        filter: Some("hanoi".to_string()),
        jobs: 2,
        programs_dir: Some(dir),
        ..BenchOptions::default()
    })
    .expect("bench runs");
    assert_eq!(exit, 0);
    assert!(output.contains("\"programs\""), "got:\n{output}");
    assert!(output.contains("\"procedures\": 1"), "got:\n{output}");
}

#[test]
fn parse_errors_carry_position_and_caret() {
    let dir = std::env::temp_dir().join("chora-parse-error-test");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("bad.imp");
    std::fs::write(&path, "proc main(n) {\n  x := ;\n}\n").expect("write temp program");
    let err = print_cmd(&path.display().to_string()).unwrap_err();
    let message = err.to_string();
    assert!(message.contains("2:8"), "expected line:col, got: {message}");
    assert!(
        message.contains("x := ;"),
        "expected source line in error, got: {message}"
    );
    assert!(message.contains('^'), "expected caret, got: {message}");
}
