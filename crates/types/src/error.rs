//! The shared error type of the MVCom workspace.

use std::fmt;

use crate::id::CommitteeId;

/// Convenience alias used across the workspace.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors produced by MVCom components.
///
/// Every public fallible operation in the workspace returns this type, so
/// callers can match once regardless of which layer failed.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A problem instance violates a structural requirement (e.g. empty
    /// shard set, zero capacity).
    InvalidInstance {
        /// Human-readable description of the violated requirement.
        reason: String,
    },
    /// The constraint set admits no feasible solution (e.g. `N_min` exceeds
    /// the number of shards, or even the `N_min` smallest shards exceed the
    /// block capacity).
    Infeasible {
        /// Human-readable description of the conflict.
        reason: String,
    },
    /// A configuration parameter is out of its documented domain.
    InvalidConfig {
        /// The offending parameter name.
        parameter: &'static str,
        /// Why the value is rejected.
        reason: String,
    },
    /// An operation referenced a committee unknown to the current epoch.
    UnknownCommittee(CommitteeId),
    /// A dynamic event (join/leave) arrived for a committee in the wrong
    /// state — e.g. a join for a committee that is already live.
    InvalidEvent {
        /// The committee the event targeted.
        committee: CommitteeId,
        /// Why the event is rejected.
        reason: String,
    },
    /// The simulator was asked to do something inconsistent with its state
    /// (e.g. scheduling an event in the past).
    Simulation {
        /// Human-readable description.
        reason: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidInstance { reason } => write!(f, "invalid problem instance: {reason}"),
            Error::Infeasible { reason } => write!(f, "no feasible solution exists: {reason}"),
            Error::InvalidConfig { parameter, reason } => {
                write!(f, "invalid configuration `{parameter}`: {reason}")
            }
            Error::UnknownCommittee(id) => write!(f, "unknown committee {id}"),
            Error::InvalidEvent { committee, reason } => {
                write!(f, "invalid dynamic event for {committee}: {reason}")
            }
            Error::Simulation { reason } => write!(f, "simulation error: {reason}"),
        }
    }
}

impl std::error::Error for Error {}

impl Error {
    /// Shorthand constructor for [`Error::InvalidInstance`].
    pub fn invalid_instance(reason: impl Into<String>) -> Error {
        Error::InvalidInstance {
            reason: reason.into(),
        }
    }

    /// Shorthand constructor for [`Error::Infeasible`].
    pub fn infeasible(reason: impl Into<String>) -> Error {
        Error::Infeasible {
            reason: reason.into(),
        }
    }

    /// Shorthand constructor for [`Error::InvalidConfig`].
    pub fn invalid_config(parameter: &'static str, reason: impl Into<String>) -> Error {
        Error::InvalidConfig {
            parameter,
            reason: reason.into(),
        }
    }

    /// Shorthand constructor for [`Error::Simulation`].
    pub fn simulation(reason: impl Into<String>) -> Error {
        Error::Simulation {
            reason: reason.into(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn error_is_send_sync() {
        assert_send_sync::<Error>();
    }

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<Error> = vec![
            Error::invalid_instance("empty shard set"),
            Error::infeasible("N_min=10 but only 3 shards arrived"),
            Error::invalid_config("beta", "must be positive"),
            Error::UnknownCommittee(CommitteeId(9)),
            Error::InvalidEvent {
                committee: CommitteeId(2),
                reason: "already live".into(),
            },
            Error::simulation("event scheduled in the past"),
        ];
        for err in cases {
            let msg = err.to_string();
            assert!(!msg.is_empty());
            assert!(
                msg.chars().next().unwrap().is_lowercase(),
                "error message should start lowercase: {msg}"
            );
            assert!(!msg.ends_with('.'), "no trailing punctuation: {msg}");
        }
    }

    #[test]
    fn implements_std_error() {
        let err: Box<dyn std::error::Error> = Box::new(Error::UnknownCommittee(CommitteeId(5)));
        assert!(err.to_string().contains('5'));
    }
}
