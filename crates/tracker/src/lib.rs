//! # btpub-tracker
//!
//! Two tracker implementations sharing the paper-relevant semantics —
//! peer sampling, seeder/leecher counters, and per-client rate limiting
//! with blacklisting:
//!
//! * [`sim::TrackerSim`] answers queries against a generated
//!   [`btpub_sim::Ecosystem`]; this is what the measurement campaign runs
//!   on. Its caller owns each torrent's place in the swarm (a
//!   [`btpub_sim::SwarmCursor`], passed to [`sim::TrackerSim::query_into`]),
//!   so the tracker keeps no swarm position between announces. It also
//!   exposes [`sim::probe`], the peer-wire bitfield probe the
//!   crawler uses to tell the initial seeder apart from leechers (NATted
//!   peers are unreachable, reproducing the paper's identification
//!   failures). [`sim::TrackerSim::with_faults`] and [`sim::probe_with`]
//!   layer a deterministic `btpub_faults::FaultPlan` over both paths —
//!   downtime windows, dropped announces, corrupted replies, failed
//!   probe connections.
//! * [`serve::ServeDaemon`] is the one tracker with sockets: a
//!   long-lived multi-threaded daemon (the `btpub-serve` bin) over
//!   sharded swarm state with BEP-15 UDP and keep-alive HTTP front ends,
//!   plus the deterministic load generator ([`serve::load`],
//!   `btpub-load`) whose logical-clock announce scripts make the
//!   daemon's final snapshot byte-comparable to an in-process oracle.
//!   The live crawler, the `live_tracker` example and the live-network
//!   tests run against it, registering their torrents with
//!   [`serve::ServeDaemon::register`]. [`client`] is the blocking HTTP
//!   client and [`serve::udp_client`] the BEP 15 one.
//! * [`livepeer`] hosts TCP peers — bitfield-only for §2 probing, or full
//!   piece-serving seeders — plus the probe client and a verifying
//!   download client ([`livepeer::download_from_peer`], §5's fake-content
//!   check).
//!
//! The rate-limit clock, strike ladder and blacklist live in
//! [`enforce::Enforcer`], shared verbatim by [`sim::TrackerSim`] and the
//! live serving plane so the two admission paths cannot drift.

pub mod client;
pub mod enforce;
pub mod http;
pub mod livepeer;
pub mod serve;
pub mod sim;

pub use sim::{ProbeOutcome, QueryError, ReplyCounts, TrackerSim};

/// The maximum number of peers a tracker returns per query (the value the
/// paper's crawler always requests).
pub const MAX_NUMWANT: usize = 200;
