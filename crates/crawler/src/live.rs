//! Live-network crawling: the same §2 procedure against real TCP
//! endpoints (a [`btpub_tracker::serve::ServeDaemon`] plus
//! [`btpub_tracker::livepeer::LivePeer`]s), exercised by the
//! `live_tracker` example and the workspace integration tests.

use std::io;
use std::net::{SocketAddr, SocketAddrV4};

use btpub_faults::{NetConfig, RetryPolicy};
use btpub_proto::metainfo::Metainfo;
use btpub_proto::tracker::{AnnounceEvent, AnnounceRequest, AnnounceResponse};
use btpub_proto::types::PeerId;
use btpub_tracker::client;
use btpub_tracker::livepeer::probe_bitfield_with;

/// What one live first-contact learned about a swarm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LiveObservation {
    /// Tracker-reported seeder count.
    pub complete: u32,
    /// Tracker-reported leecher count.
    pub incomplete: u32,
    /// Peer addresses returned.
    pub peers: Vec<SocketAddrV4>,
    /// Identified initial seeder, when the procedure succeeded.
    pub seeder: Option<SocketAddrV4>,
}

/// The crawler's peer id on the live network. Using a recognisable client
/// string keeps the testbed honest about what a polite crawler looks like.
pub fn crawler_peer_id(vantage: u8) -> PeerId {
    let mut random = [0u8; 12];
    random[0] = vantage;
    random[1..8].copy_from_slice(b"crawler");
    PeerId::azureus_style("BP", "0100", random)
}

/// Performs a live first contact: announce to the tracker as an observer
/// (a leecher that never transfers), then — if the swarm has exactly one
/// seeder and is small — probe every returned peer's bitfield to find it.
pub fn first_contact(
    metainfo: &Metainfo,
    vantage: u8,
    probe_peer_limit: usize,
) -> io::Result<LiveObservation> {
    // Single attempt, default timeouts — the historical behaviour; callers
    // wanting resilience against a flaky tracker use `first_contact_with`.
    let single = RetryPolicy {
        max_attempts: 1,
        ..RetryPolicy::announce()
    };
    first_contact_with(metainfo, vantage, probe_peer_limit, &NetConfig::default(), &single)
}

/// [`first_contact`] with explicit socket timeouts and an announce retry
/// policy (exponential backoff on the wall clock; metrics under
/// `retry.live.announce.*`).
pub fn first_contact_with(
    metainfo: &Metainfo,
    vantage: u8,
    probe_peer_limit: usize,
    net: &NetConfig,
    retry: &RetryPolicy,
) -> io::Result<LiveObservation> {
    let req = AnnounceRequest {
        info_hash: metainfo.info_hash(),
        peer_id: crawler_peer_id(vantage),
        port: 6881,
        uploaded: 0,
        downloaded: 0,
        left: metainfo.info.total_length(),
        event: AnnounceEvent::Started,
        numwant: 200,
        compact: true,
    };
    let response = retry.run("live.announce", |_attempt| {
        client::announce_with(&metainfo.announce, &req, net)
    })?;
    let (complete, incomplete, peers) = match response {
        AnnounceResponse::Failure(reason) => {
            return Err(io::Error::other(reason))
        }
        AnnounceResponse::Ok {
            complete,
            incomplete,
            peers,
            ..
        } => (
            complete,
            incomplete,
            peers.into_iter().map(|p| p.addr).collect::<Vec<_>>(),
        ),
    };
    let mut seeder = None;
    let population = (complete + incomplete) as usize;
    if complete == 1 && population < probe_peer_limit {
        let pieces = metainfo.info.piece_count();
        for addr in &peers {
            if let Ok(bf) = probe_bitfield_with(
                SocketAddr::V4(*addr),
                metainfo.info_hash(),
                crawler_peer_id(vantage),
                pieces,
                net,
            ) {
                if bf.is_seed() {
                    seeder = Some(*addr);
                    break;
                }
            }
        }
    }
    Ok(LiveObservation {
        complete,
        incomplete,
        peers,
        seeder,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use btpub_proto::metainfo::MetainfoBuilder;
    use btpub_proto::tracker::AnnounceEvent;
    use btpub_tracker::livepeer::LivePeer;
    use btpub_tracker::serve::{ServeConfig, ServeDaemon};

    /// The live-network tracker: one shard, no scripted torrents.
    fn start_tracker(seed: u64) -> ServeDaemon {
        ServeDaemon::start(ServeConfig::new(seed, 1, 0)).unwrap()
    }

    /// End-to-end over real sockets: tracker + seeder + leecher, then the
    /// crawler identifies the seeder via bitfield probing.
    #[test]
    fn live_first_contact_identifies_seeder() {
        let tracker = start_tracker(42);
        let metainfo = MetainfoBuilder::new(&tracker.announce_url(), "live.test.file", 1 << 20)
            .piece_length(64 * 1024)
            .build();
        let ih = metainfo.info_hash();
        tracker.register(ih);
        let pieces = metainfo.info.piece_count();

        // The publisher: a seeder peer that announces its real port.
        let seeder_id = PeerId::azureus_style("SD", "0001", [7; 12]);
        let seeder = LivePeer::start(ih, seeder_id, pieces, pieces).unwrap();
        let announce = AnnounceRequest {
            info_hash: ih,
            peer_id: seeder_id,
            port: seeder.addr().port(),
            uploaded: 0,
            downloaded: 0,
            left: 0,
            event: AnnounceEvent::Started,
            numwant: 0,
            compact: true,
        };
        client::announce(&tracker.announce_url(), &announce).unwrap();

        // A leecher with a partial bitfield is also in the swarm.
        let leecher_id = PeerId::azureus_style("LC", "0001", [8; 12]);
        let leecher = LivePeer::start(ih, leecher_id, pieces, pieces / 2).unwrap();
        let announce = AnnounceRequest {
            peer_id: leecher_id,
            port: leecher.addr().port(),
            left: 1,
            ..announce
        };
        client::announce(&tracker.announce_url(), &announce).unwrap();

        let obs = first_contact(&metainfo, 0, 20).unwrap();
        assert_eq!(obs.complete, 1);
        // The observer itself counts as a leecher on its own announce.
        assert!(obs.incomplete >= 1);
        assert_eq!(
            obs.seeder.map(|a| a.port()),
            Some(seeder.addr().port()),
            "crawler must pin the seeder"
        );
    }

    #[test]
    fn live_first_contact_retries_then_gives_up_on_dead_tracker() {
        use std::time::{Duration, Instant};
        // A port with no listener: every announce attempt fails fast.
        let dead = {
            let l = std::net::TcpListener::bind((std::net::Ipv4Addr::LOCALHOST, 0)).unwrap();
            l.local_addr().unwrap()
        };
        let metainfo = MetainfoBuilder::new(
            &format!("http://{dead}/announce"),
            "dead.tracker",
            1 << 16,
        )
        .build();
        let retry = RetryPolicy {
            max_attempts: 3,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(10),
            jitter_ppm: 0,
            deadline: Some(Duration::from_secs(10)),
        };
        let started = Instant::now();
        let err = first_contact_with(&metainfo, 0, 20, &NetConfig::loopback_test(), &retry);
        assert!(err.is_err(), "dead tracker must surface an error");
        // All three attempts ran (two backoff sleeps ≥ 5 + 10 ms)...
        assert!(started.elapsed() >= Duration::from_millis(15));
        // ...but the deadline kept the whole thing prompt.
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn live_first_contact_skips_probing_with_multiple_seeders() {
        let tracker = start_tracker(43);
        let metainfo = MetainfoBuilder::new(&tracker.announce_url(), "multi.seed", 1 << 18)
            .piece_length(64 * 1024)
            .build();
        let ih = metainfo.info_hash();
        tracker.register(ih);
        for i in 0..2u8 {
            let id = PeerId::azureus_style("SD", "0002", [i; 12]);
            let announce = AnnounceRequest {
                info_hash: ih,
                peer_id: id,
                port: 40_000 + u16::from(i),
                uploaded: 0,
                downloaded: 0,
                left: 0,
                event: AnnounceEvent::Started,
                numwant: 0,
                compact: true,
            };
            client::announce(&tracker.announce_url(), &announce).unwrap();
        }
        let obs = first_contact(&metainfo, 1, 20).unwrap();
        assert_eq!(obs.complete, 2);
        assert_eq!(obs.seeder, None, "no identification with 2 seeders");
    }
}
