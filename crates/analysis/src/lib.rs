//! # btpub-analysis
//!
//! The paper's full analysis pipeline (§3–§6 and Appendix A), operating on
//! crawled [`btpub_crawler::TorrentRecord`]s plus the GeoIP database —
//! i.e. on exactly the information the authors had, never on simulator
//! ground truth (ground truth is only consulted by validation tests and
//! the economics *oracle*, which stands in for the external
//! web-statistics monitors).
//!
//! There is one analysis: [`streaming::StreamAggregator`] folds records
//! in announcement order, and its `finish` hands the modules below the
//! aggregates they turn into tables and figures. A materialized dataset
//! and a streamed campaign go through the same fold.
//!
//! Pipeline stages, in the paper's order:
//!
//! | module | paper | produces |
//! |---|---|---|
//! | [`publishers`] | §3 | per-publisher aggregation (by username or IP) |
//! | [`skewness`] | §3.1, Fig. 1 | contribution CDF |
//! | [`isp`] | §3.2, Tables 2–3 | ISP rankings and OVH/Comcast contrast |
//! | [`fake`] | §3.3 | fake-publisher detection, group assignment |
//! | [`content_type`] | §4.1, Fig. 2 | category mix per group |
//! | [`popularity`] | §4.2, Fig. 3 | downloaders/torrent/publisher box stats |
//! | [`session`] | App. A | sighting → session-interval estimation |
//! | [`seeding`] | §4.3, Fig. 4 | seeding time, parallelism, availability |
//! | [`classify`] | §5.1 | business classes from promoting URLs |
//! | [`longitudinal`] | §5.2, Table 4 | lifetime & publishing rate |
//! | [`economics`] | §5.3 + §6, Table 5 | website value/income/visits |
//! | [`stats`] | — | percentiles, box plots, min/med/avg/max |
//! | [`streaming`] | — | the record-at-a-time fold that feeds all of the above |

pub mod classify;
pub mod content_type;
pub mod economics;
pub mod fake;
pub mod isp;
pub mod longitudinal;
pub mod popularity;
pub mod publishers;
pub mod seeding;
pub mod session;
pub mod skewness;
pub mod stats;
pub mod streaming;

pub use fake::{Group, Groups};
pub use publishers::{PublisherKey, PublisherStats};
pub use stats::{BoxStats, MinMedAvgMax};
