//! Real networking end to end: the tracker daemon and real peer-wire
//! seeders on localhost, crawled with actual sockets — §2's
//! identification procedure against live endpoints rather than the
//! simulation.
//!
//! ```text
//! cargo run --release --example live_tracker
//! ```

use btpub::crawler::live::first_contact;
use btpub::proto::metainfo::MetainfoBuilder;
use btpub::proto::tracker::{AnnounceEvent, AnnounceRequest};
use btpub::proto::types::PeerId;
use btpub::tracker::client;
use btpub::tracker::livepeer::LivePeer;
use btpub::tracker::serve::{ServeConfig, ServeDaemon};

fn main() -> std::io::Result<()> {
    // 1. Start the tracker: one shard, no scripted torrents.
    let tracker = ServeDaemon::start(ServeConfig::new(2010, 1, 0))?;
    println!("tracker listening on {}", tracker.announce_url());

    // 2. A publisher creates and registers three torrents, seeding each
    //    from a real TCP peer that serves handshakes + bitfields.
    let mut seeders = Vec::new();
    let mut torrents = Vec::new();
    for (i, name) in ["show.s01e01.avi", "album-flac", "app-installer"].iter().enumerate() {
        let metainfo = MetainfoBuilder::new(&tracker.announce_url(), name, 4 << 20)
            .piece_length(256 * 1024)
            .comment("more releases at http://www.example-portal.com")
            .piece_seed(i as u64)
            .build();
        let ih = metainfo.info_hash();
        tracker.register(ih);
        let pieces = metainfo.info.piece_count();
        let seeder_id = PeerId::azureus_style("SD", "0001", [i as u8; 12]);
        let seeder = LivePeer::start(ih, seeder_id, pieces, pieces)?;
        // The seeder announces itself (left=0 ⇒ seeder).
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
        client::announce(&tracker.announce_url(), &announce)?;
        println!("published {:<18} infohash {} seeder on :{}", name, ih, seeder.addr().port());
        seeders.push(seeder);
        torrents.push(metainfo);
    }

    // 3. A leecher with half the pieces joins the first swarm.
    let first_hash = torrents[0].info_hash();
    let pieces = torrents[0].info.piece_count();
    let leecher_id = PeerId::azureus_style("LC", "0001", [9; 12]);
    let leecher = LivePeer::start(first_hash, leecher_id, pieces, pieces / 2)?;
    client::announce(
        &tracker.announce_url(),
        &AnnounceRequest {
            info_hash: first_hash,
            peer_id: leecher_id,
            port: leecher.addr().port(),
            uploaded: 0,
            downloaded: 2 << 20,
            left: 2 << 20,
            event: AnnounceEvent::Started,
            numwant: 50,
            compact: true,
        },
    )?;
    println!("leecher joined swarm 0 on :{}\n", leecher.addr().port());

    // 4. The crawler pounces: announce as observer, read the swarm state,
    //    and identify the initial seeder via real bitfield probes.
    for (i, metainfo) in torrents.iter().enumerate() {
        let obs = first_contact(metainfo, 0, 20)?;
        println!(
            "swarm {i}: complete={} incomplete={} peers={} -> identified seeder: {}",
            obs.complete,
            obs.incomplete,
            obs.peers.len(),
            obs.seeder
                .map(|a| a.to_string())
                .unwrap_or_else(|| "(none)".into())
        );
        assert_eq!(
            obs.seeder.map(|a| a.port()),
            Some(seeders[i].addr().port()),
            "the crawler must pin the real seeder"
        );
    }

    // 5. Scrape the tracker for the §2-style counters.
    let hashes: Vec<_> = torrents.iter().map(|m| m.info_hash()).collect();
    let scrape = client::scrape(&tracker.announce_url(), &hashes)?;
    println!("\nscrape:");
    for (ih, entry) in &scrape.files {
        println!(
            "  {} complete={} incomplete={} downloaded={}",
            ih, entry.complete, entry.incomplete, entry.downloaded
        );
    }
    println!("\nlive identification succeeded for all {} swarms", torrents.len());
    Ok(())
}
