//! Doc-sync: OPERATIONS.md must document every operator-facing surface
//! of the daemon — each CLI flag, each history record kind, and each
//! alert kind. The assertions look for the backticked literal.

use mvcom_daemon::{AlertKind, DAEMON_FLAGS, RECORD_KINDS};

const OPERATIONS: &str = include_str!("../../../OPERATIONS.md");

#[test]
fn every_cli_flag_is_documented() {
    for spec in DAEMON_FLAGS {
        assert!(
            OPERATIONS.contains(&format!("`{}`", spec.flag)),
            "flag {} of `mvcom daemon` is not documented in OPERATIONS.md",
            spec.flag
        );
    }
}

#[test]
fn every_history_record_kind_is_documented() {
    for kind in RECORD_KINDS {
        assert!(
            OPERATIONS.contains(&format!("`{kind}`")),
            "history record kind `{kind}` is not documented in OPERATIONS.md"
        );
    }
}

#[test]
fn every_alert_kind_is_documented() {
    for kind in AlertKind::ALL {
        assert!(
            OPERATIONS.contains(&format!("`{}`", kind.name())),
            "alert kind `{}` is not documented in OPERATIONS.md",
            kind.name()
        );
    }
}
