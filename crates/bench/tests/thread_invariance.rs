//! The fan-out must be invisible in the outputs (DESIGN.md §14): a
//! figure's summary and every artifact are the same bytes at any worker
//! count, and from one run to the next. CI re-checks this end to end on
//! the `repro` binary over all figures; these tests pin it at the library
//! level on the two sweeps with the most to lose — `fig8` (the
//! event-stream path) and `fig13` (48 points at full scale, regrouped by
//! α after the join).

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use mvcom_bench::experiments::Figure;
use mvcom_bench::{FigureReport, Scale};

fn run(name: &str, threads: usize) -> FigureReport {
    Figure::named(name)
        .unwrap()
        .run(Scale::Quick, threads)
        .unwrap()
}

fn same_at_1_2_and_8_workers(name: &str) -> FigureReport {
    let serial = run(name, 1);
    for threads in [2, 8] {
        assert_eq!(run(name, threads), serial, "{name} at {threads} workers");
    }
    serial
}

#[test]
fn fig8_is_byte_identical_across_thread_counts() {
    let report = same_at_1_2_and_8_workers("fig8");
    let wrote = |suffix: &str| report.files.iter().any(|(path, _)| path.ends_with(suffix));
    assert!(
        wrote(".csv") && wrote(".events.jsonl"),
        "{:?}",
        report.files
    );
}

#[test]
fn fig13_is_byte_identical_across_thread_counts() {
    same_at_1_2_and_8_workers("fig13");
}

/// Nothing a figure writes may depend on when it ran: `ablation-ddl` used
/// to put a wall-clock column in its CSV and summary.
#[test]
fn ablation_ddl_is_byte_identical_from_one_run_to_the_next() {
    assert_eq!(run("ablation-ddl", 2), run("ablation-ddl", 2));
}
