//! # btpub
//!
//! A full reproduction of **"Is Content Publishing in BitTorrent
//! Altruistic or Profit-Driven?"** (Cuevas, Kryczka, Cuevas, Kaune,
//! Guerrero, Rejaie — ACM CoNEXT 2010), built on a simulated 2008–2010
//! BitTorrent ecosystem because the real one no longer exists.
//!
//! This crate is the public umbrella: it wires the substrates together
//! and exposes the paper's experiments as a typed API.
//!
//! ```
//! use btpub::{Scenario, Scale, Study};
//!
//! // A miniature pb10-style measurement campaign, end to end.
//! let scenario = Scenario::pb10(Scale::tiny());
//! let study = Study::run(&scenario);
//! let analyses = study.analyze();
//! let f1 = analyses.experiments().report_data().f1;
//! let (content_share, download_share) = f1.top_k_shares;
//! assert!(content_share > 0.3, "the major publishers dominate content");
//! assert!(download_share > 0.3, "and the downloads");
//! ```
//!
//! Layering (each its own crate):
//!
//! * [`btpub_bencode`] / [`btpub_proto`] — wire formats;
//! * [`btpub_geodb`] — the MaxMind-substitute ISP/geo database;
//! * [`btpub_sim`] — the ecosystem simulator (publishers, swarms);
//! * [`btpub_portal`] / [`btpub_tracker`] — the services the crawler talks
//!   to (RSS + pages, announce + bitfield probes);
//! * [`btpub_crawler`] — the §2 measurement apparatus;
//! * [`btpub_analysis`] — the §3–§6 + Appendix A analysis pipeline;
//! * this crate — scenarios ([`Scenario`], [`Scale`]), the end-to-end
//!   runners ([`Study`] over a materialized dataset, [`StreamStudy`] over
//!   a bounded channel; both fold their records through the one
//!   analysis), and the report ([`experiments`]).

pub mod experiments;
pub mod scenario;
pub mod stream_study;
pub mod study;

pub use scenario::{Scale, Scenario};
pub use stream_study::{CheckpointPolicy, StreamOptions, StreamOutcome, StreamStudy};
pub use study::{Analyses, Study};

pub use btpub_analysis as analysis;
pub use btpub_bencode;
pub use btpub_crawler as crawler;
pub use btpub_geodb as geodb;
pub use btpub_portal as portal;
pub use btpub_proto as proto;
pub use btpub_sim as sim;
pub use btpub_tracker as tracker;
