//! Error type for trace construction and validation.

use std::error::Error;
use std::fmt;

use crate::record::RecordId;

/// Errors produced while building or validating traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceError {
    /// A record depends on a record with an equal or later id.
    ForwardDependency {
        /// The offending record.
        record: RecordId,
        /// The (invalid) dependency target.
        dep: RecordId,
    },
    /// Record ids are not dense and monotonically increasing from zero.
    NonMonotonicId {
        /// Index in the trace at which the mismatch was found.
        position: u64,
        /// The id actually found there.
        found: RecordId,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::ForwardDependency { record, dep } => {
                write!(f, "record {record} depends on non-earlier record {dep}")
            }
            TraceError::NonMonotonicId { position, found } => {
                write!(
                    f,
                    "record at position {position} has id {found}, expected #{position}"
                )
            }
        }
    }
}

impl Error for TraceError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants = [
            TraceError::ForwardDependency {
                record: RecordId::new(1),
                dep: RecordId::new(2),
            },
            TraceError::NonMonotonicId {
                position: 3,
                found: RecordId::new(7),
            },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
            assert!(!format!("{v:?}").is_empty());
        }
    }
}
