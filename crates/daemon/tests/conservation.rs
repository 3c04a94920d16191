//! Conservation from the emitted data alone: after any closed epoch,
//! the `/metrics` snapshot satisfies
//!
//! - `daemon.reports = daemon.admitted + daemon.refused + daemon.quarantined`;
//! - `daemon.offered_txs = daemon.admitted_txs + daemon.refused_txs +
//!   daemon.quarantined_txs`, every count a true size.

#![expect(
    clippy::unwrap_used,
    reason = "helpers outside #[test] fns panic like their callers"
)]
use serde::Value;

use mvcom_daemon::{AlertConfig, AlertEngine, Daemon, DaemonConfig, SeededSource};
use mvcom_obs::Obs;

/// A counter of the snapshot document; a counter never bumped is absent.
fn counter(snapshot: &Value, name: &str) -> u64 {
    let field = |value: &Value, key: &str| match value {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.clone()),
        other => panic!("expected an object, found {other:?}"),
    };
    match field(&field(snapshot, "counters").unwrap(), name) {
        Some(Value::U64(n)) => n,
        None => 0,
        Some(other) => panic!("{name}: {other:?}"),
    }
}

#[test]
fn six_defended_epochs_conserve_reports_and_txs_on_the_snapshot() {
    let dir =
        std::env::temp_dir().join(format!("mvcom-daemon-conservation-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // CI's daemon smoke run: the defense quarantines the misreporters in
    // epochs 4 and 5.
    let config = DaemonConfig {
        seed: 11,
        se_iterations: 300,
        defense: true,
        adv_fraction: 0.25,
        adv_strategy: "misreport".to_string(),
        max_epochs: 6,
        ..DaemonConfig::default()
    };
    let source = SeededSource::new(config.seed, config.population).unwrap();
    let mut daemon = Daemon::open(
        config,
        Box::new(source),
        &dir.join("run.log"),
        false,
        Obs::off(),
        AlertEngine::new(AlertConfig::default()),
    )
    .unwrap();
    let cell = daemon.snapshot_cell();
    let mut closed = 0;
    daemon
        .run(|_, _| {
            closed += 1;
            let snapshot = serde_json::from_str_value(&cell.get()).unwrap();
            let count = |name| counter(&snapshot, name);
            assert_eq!(count("daemon.reports"), 48 * closed);
            assert_eq!(
                count("daemon.reports"),
                count("daemon.admitted") + count("daemon.refused") + count("daemon.quarantined"),
                "epoch {closed}"
            );
            assert_eq!(
                count("daemon.offered_txs"),
                count("daemon.admitted_txs")
                    + count("daemon.refused_txs")
                    + count("daemon.quarantined_txs"),
                "epoch {closed}"
            );
        })
        .unwrap();
    assert_eq!(closed, 6);
    let snapshot = serde_json::from_str_value(&cell.get()).unwrap();
    for name in [
        "daemon.refused",
        "daemon.quarantined",
        "daemon.quarantined_txs",
    ] {
        assert!(counter(&snapshot, name) > 0, "{name} never moved");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
