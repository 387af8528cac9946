//! Benchmark harness for the k-VCC enumeration library.
//!
//! One module per table/figure of the paper's evaluation (§6); the
//! `kvcc-bench` binary dispatches to them and prints the same rows/series the
//! paper reports. Performance measurement of the whole pipeline lives in
//! the standalone `perfbench/` package at the repository root.
//!
//! Every experiment takes a [`kvcc_datasets::suite::SuiteScale`]-like scale so the whole
//! evaluation can be regenerated quickly (`tiny`) or at the paper-like
//! parameter points (`small`, the default; `medium` for longer runs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;

pub use report::Table;

use kvcc_datasets::suite::SuiteScale;

/// Parses a `--scale` argument value.
pub fn parse_scale(name: &str) -> Option<SuiteScale> {
    match name.to_ascii_lowercase().as_str() {
        "tiny" => Some(SuiteScale::Tiny),
        "small" => Some(SuiteScale::Small),
        "medium" => Some(SuiteScale::Medium),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parsing() {
        assert_eq!(parse_scale("tiny"), Some(SuiteScale::Tiny));
        assert_eq!(parse_scale("SMALL"), Some(SuiteScale::Small));
        assert_eq!(parse_scale("medium"), Some(SuiteScale::Medium));
        assert_eq!(parse_scale("huge"), None);
    }
}
