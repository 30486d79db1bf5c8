//! # btpub-sim
//!
//! A deterministic discrete-event simulation of the BitTorrent content
//! publishing ecosystem circa 2008–2010, built as the measurement substrate
//! for reproducing *"Is Content Publishing in BitTorrent Altruistic or
//! Profit-Driven?"* (CoNEXT 2010).
//!
//! The live ecosystem the paper measured no longer exists, so this crate
//! generates one whose *generating process* is parameterised from the
//! paper's own ground truth:
//!
//! * a **publisher population** with five behavioural profiles — fake
//!   publishers (antipiracy agencies and malware spreaders), top publishers
//!   on hosting providers, top publishers on commercial ISPs, altruistic
//!   top publishers, and the long tail of regular users ([`profile`],
//!   [`publisher`], [`population`]);
//! * per-torrent **swarm traces**: downloader arrival processes with
//!   exponentially decaying popularity, download/seeding lifetimes, NAT
//!   flags, and the publisher's own seeding sessions ([`swarm`]);
//! * **content**: category mixes per profile, catchy titles, promoting-URL
//!   embedding techniques ([`content`]);
//! * the plumbing: simulated clock ([`time`]), a generic event queue
//!   ([`engine`]), seed-derived RNG streams ([`rngs`]), and interval-set
//!   arithmetic for session accounting ([`intervals`]).
//!
//! Everything is deterministic: the same [`population::EcosystemConfig`]
//! and seed produce a byte-identical ecosystem, which the tests rely on.
//!
//! The crate deliberately knows nothing about portals, trackers or
//! crawlers; those live in `btpub-portal`, `btpub-tracker` and
//! `btpub-crawler` and consume the [`ecosystem::Ecosystem`] built here.

pub mod content;
pub mod ecosystem;
pub mod engine;
pub mod intervals;
pub mod population;
pub mod profile;
pub mod publisher;
pub mod rngs;
pub mod swarm;
pub mod time;

pub use ecosystem::{Ecosystem, Publication, TorrentId};
pub use population::EcosystemConfig;
pub use profile::{BusinessClass, FakeKind, Profile};
pub use publisher::{Publisher, PublisherId};
pub use swarm::{PeerRecord, SampleScratch, SwarmCursor, SwarmTrace};
pub use time::{SimDuration, SimTime, DAY, HOUR, MINUTE};
