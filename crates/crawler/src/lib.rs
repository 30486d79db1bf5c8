//! # btpub-crawler
//!
//! The paper's measurement apparatus (§2), reimplemented faithfully:
//!
//! 1. **RSS monitoring** — poll the portal feed, learn of each newborn
//!    torrent and its publishing username;
//! 2. **first contact** — immediately download the `.torrent`, capture the
//!    content page (textbox/filename, where promoting URLs hide), and
//!    query the tracker;
//! 3. **initial-seeder identification** — if the tracker reports exactly
//!    one seeder and fewer than 20 peers, probe each returned address over
//!    the peer wire: the peer with a complete bitfield is the publisher.
//!    NATted publishers, swarms born on other portals (large population at
//!    announce), and seederless swarms defeat identification — the same
//!    three failure cases the paper reports, and the reason only ~40 % of
//!    files get a publisher IP;
//! 4. **swarm tracking** — periodic tracker queries for the maximum 200
//!    peers, spread over several vantage points to multiply the
//!    rate-limited query budget, until 10 consecutive empty replies;
//! 5. **dataset assembly** — per-torrent records with observed downloader
//!    IPs and per-query sightings of the publisher ([`dataset`]).
//!
//! [`live`] contains the same logic pointed at real TCP endpoints (the
//! `ServeDaemon` + `LivePeer` testbed) instead of the simulation.

pub mod crawler;
pub mod dataset;
pub mod live;
pub mod sink;
pub mod timeline;

pub use crawler::{run_crawl, run_crawl_with, CrawlerConfig};
pub use sink::{ChannelSink, CollectSink, RecordSink};
pub use dataset::{Dataset, IpFailure, Sighting, TorrentRecord};
pub use timeline::campaign_timeline;
