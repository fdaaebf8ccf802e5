//! The single error type fallible `es-core` entry points return.
//!
//! It names exactly what they return: [`Error::Config`] for invalid
//! builder input caught by [`crate::SystemBuilder::try_build`], and
//! [`Error::Io`] from the live UDP drivers.

/// Any failure an `es-core` public entry point can report.
#[derive(Debug)]
pub enum Error {
    /// Invalid builder/spec configuration, caught before anything
    /// runs.
    Config(String),
    /// An operating-system I/O failure (live UDP paths).
    Io(std::io::Error),
}

impl core::fmt::Display for Error {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Error::Config(msg) => write!(f, "configuration error: {msg}"),
            Error::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            Error::Config(_) => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraps_what_is_returned_and_displays() {
        let cases: Vec<Error> = vec![
            Error::Config("no such channel".into()),
            std::io::Error::other("boom").into(),
        ];
        for e in &cases {
            assert!(!e.to_string().is_empty());
        }
        // Sources chain where an inner std error exists.
        assert!(std::error::Error::source(&cases[0]).is_none());
        assert!(std::error::Error::source(&cases[1]).is_some());
    }
}
