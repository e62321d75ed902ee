//! Repository errors.

use std::fmt;
use std::io;

/// Errors raised by the repository: I/O failures, corrupt persistent
/// state, or a delta that does not apply.
#[derive(Debug)]
pub enum RepoError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A WAL or snapshot (image) encoding failed to decode, or the two
    /// disagree.
    Corrupt {
        /// Which file was corrupt.
        what: &'static str,
        /// Byte offset (approximate) where decoding failed.
        offset: u64,
        /// What went wrong.
        message: String,
    },
    /// A delta failed to apply to the graph.
    Delta(strudel_graph::DeltaError),
}

impl fmt::Display for RepoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RepoError::Io(e) => write!(f, "repository i/o error: {e}"),
            RepoError::Corrupt {
                what,
                offset,
                message,
            } => write!(f, "corrupt {what} near byte {offset}: {message}"),
            RepoError::Delta(e) => write!(f, "delta failed to apply: {e}"),
        }
    }
}

impl std::error::Error for RepoError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RepoError::Io(e) => Some(e),
            RepoError::Delta(e) => Some(e),
            RepoError::Corrupt { .. } => None,
        }
    }
}

impl From<io::Error> for RepoError {
    fn from(e: io::Error) -> Self {
        RepoError::Io(e)
    }
}

impl From<strudel_graph::DeltaError> for RepoError {
    fn from(e: strudel_graph::DeltaError) -> Self {
        RepoError::Delta(e)
    }
}
