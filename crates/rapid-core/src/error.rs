//! Error types. Wire decoding has its own `Copy` error,
//! [`crate::codec::DecodeError`].

use core::fmt;

/// Errors surfaced by the Rapid library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RapidError {
    /// An endpoint string could not be parsed as `host:port`.
    InvalidEndpoint(String),
}

impl fmt::Display for RapidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RapidError::InvalidEndpoint(s) => write!(f, "invalid endpoint: {s}"),
        }
    }
}

impl std::error::Error for RapidError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_detail() {
        let e = RapidError::InvalidEndpoint("nocolon".into());
        assert!(e.to_string().contains("nocolon"));
    }
}
