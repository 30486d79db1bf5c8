//! The incident archive format of `btpub-ops`, shared with its tests.

pub mod incident;
