//! Real-socket integration: the tracker daemon, peer-wire seeders and the
//! live crawler, all over actual TCP on localhost.

use btpub::crawler::live::{crawler_peer_id, first_contact};
use btpub::proto::metainfo::MetainfoBuilder;
use btpub::proto::tracker::{AnnounceEvent, AnnounceRequest, AnnounceResponse};
use btpub::proto::types::PeerId;
use btpub::tracker::client;
use btpub::tracker::livepeer::{probe_bitfield, LivePeer};
use btpub::tracker::serve::{ServeConfig, ServeDaemon};

/// The live-network tracker: one shard, no scripted torrents.
fn start_tracker(seed: u64) -> ServeDaemon {
    ServeDaemon::start(ServeConfig::new(seed, 1, 0)).unwrap()
}

fn seeder_announce(ih: btpub::proto::types::InfoHash, id: PeerId, port: u16) -> AnnounceRequest {
    AnnounceRequest {
        info_hash: ih,
        peer_id: id,
        port,
        uploaded: 0,
        downloaded: 0,
        left: 0,
        event: AnnounceEvent::Started,
        numwant: 0,
        compact: true,
    }
}

#[test]
fn full_live_pipeline_identifies_seeders_across_swarms() {
    let tracker = start_tracker(7);
    let mut seeders = Vec::new();
    let mut torrents = Vec::new();
    for i in 0..3u8 {
        let m = MetainfoBuilder::new(&tracker.announce_url(), &format!("file{i}"), 1 << 20)
            .piece_length(64 * 1024)
            .piece_seed(u64::from(i))
            .build();
        let ih = m.info_hash();
        tracker.register(ih);
        let id = PeerId::azureus_style("SD", "0100", [i; 12]);
        let peer = LivePeer::start(ih, id, m.info.piece_count(), m.info.piece_count()).unwrap();
        client::announce(&tracker.announce_url(), &seeder_announce(ih, id, peer.addr().port()))
            .unwrap();
        seeders.push(peer);
        torrents.push(m);
    }
    // The snapshot header counts registered torrents.
    assert!(tracker.plane().snapshot().contains("\ntorrents=3\n"));
    for (i, m) in torrents.iter().enumerate() {
        let obs = first_contact(m, 1, 20).unwrap();
        assert_eq!(obs.complete, 1, "swarm {i}");
        assert_eq!(
            obs.seeder.map(|a| a.port()),
            Some(seeders[i].addr().port()),
            "swarm {i} seeder identification"
        );
    }
}

#[test]
fn tracker_interval_and_stopped_events_work_live() {
    let tracker = start_tracker(8);
    let m = MetainfoBuilder::new(&tracker.announce_url(), "x", 1 << 18).build();
    let ih = m.info_hash();
    tracker.register(ih);
    let id = PeerId::azureus_style("LC", "0100", [1; 12]);
    let req = AnnounceRequest {
        info_hash: ih,
        peer_id: id,
        port: 40_001,
        uploaded: 0,
        downloaded: 0,
        left: 100,
        event: AnnounceEvent::Started,
        numwant: 10,
        compact: true,
    };
    match client::announce(&tracker.announce_url(), &req).unwrap() {
        AnnounceResponse::Ok {
            interval,
            incomplete,
            ..
        } => {
            assert!(interval >= 60);
            assert_eq!(incomplete, 1);
        }
        other => panic!("unexpected {other:?}"),
    }
    // Stopped removes the peer.
    let stop = AnnounceRequest {
        event: AnnounceEvent::Stopped,
        ..req
    };
    match client::announce(&tracker.announce_url(), &stop).unwrap() {
        AnnounceResponse::Ok { incomplete, complete, .. } => {
            assert_eq!(incomplete + complete, 0);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn unregistered_torrents_are_refused_live() {
    let tracker = start_tracker(9);
    let m = MetainfoBuilder::new(&tracker.announce_url(), "ghost", 1 << 18).build();
    let req = AnnounceRequest {
        info_hash: m.info_hash(),
        peer_id: crawler_peer_id(0),
        port: 1,
        uploaded: 0,
        downloaded: 0,
        left: 0,
        event: AnnounceEvent::Started,
        numwant: 10,
        compact: true,
    };
    match client::announce(&tracker.announce_url(), &req).unwrap() {
        AnnounceResponse::Failure(reason) => assert!(reason.contains("not registered")),
        other => panic!("expected failure, got {other:?}"),
    }
}

#[test]
fn live_probe_rejects_wrong_piece_count() {
    // A bitfield of the wrong length must be rejected by the probe client.
    let ih = btpub::proto::types::InfoHash([5; 20]);
    let peer = LivePeer::start(ih, PeerId([1; 20]), 64, 64).unwrap();
    let err = probe_bitfield(peer.addr(), ih, PeerId([2; 20]), 100);
    assert!(err.is_err(), "length mismatch must error");
    // And the correct count succeeds.
    let ok = probe_bitfield(peer.addr(), ih, PeerId([2; 20]), 64).unwrap();
    assert!(ok.is_seed());
}

#[test]
fn concurrent_live_announces_do_not_corrupt_state() {
    let tracker = start_tracker(10);
    let m = MetainfoBuilder::new(&tracker.announce_url(), "busy", 1 << 18).build();
    let ih = m.info_hash();
    tracker.register(ih);
    let url = tracker.announce_url();
    let handles: Vec<_> = (0..16u8)
        .map(|i| {
            let url = url.clone();
            std::thread::spawn(move || {
                let req = AnnounceRequest {
                    info_hash: ih,
                    peer_id: PeerId::azureus_style("CC", "0001", [i; 12]),
                    port: 41_000 + u16::from(i),
                    uploaded: 0,
                    downloaded: 0,
                    left: u64::from(i % 2), // half seeders, half leechers
                    event: AnnounceEvent::Started,
                    numwant: 50,
                    compact: true,
                };
                client::announce(&url, &req).unwrap()
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    // A final observer sees all 16 peers with the right split.
    let obs = AnnounceRequest {
        info_hash: ih,
        peer_id: crawler_peer_id(9),
        port: 42_000,
        uploaded: 0,
        downloaded: 0,
        left: 1,
        event: AnnounceEvent::Started,
        numwant: 200,
        compact: true,
    };
    match client::announce(&url, &obs).unwrap() {
        AnnounceResponse::Ok {
            complete,
            incomplete,
            peers,
            ..
        } => {
            assert_eq!(complete, 8);
            assert_eq!(incomplete, 9, "8 leechers + the observer");
            assert_eq!(peers.len(), 16, "observer excluded from its own list");
        }
        other => panic!("unexpected {other:?}"),
    }
}
