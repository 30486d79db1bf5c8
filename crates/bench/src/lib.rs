//! Shared fixtures for the benchmarks and the `repro` binary, and the
//! incident archive format of `btpub-ops`.

pub mod incident;

use std::sync::OnceLock;

use btpub::{Scale, Scenario, Study};

/// A cached tiny pb10 study — benchmark setup must not dominate timings.
pub fn tiny_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::run(&Scenario::pb10(Scale::tiny())))
}

/// A cached tiny mn08 study (IP-keyed analyses).
pub fn tiny_mn08() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| Study::run(&Scenario::mn08(Scale::tiny())))
}
