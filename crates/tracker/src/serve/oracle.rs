//! The in-process oracle: a one-shard [`Plane`] fed the script in
//! canonical order. Whatever snapshot it produces is, by definition,
//! the correct final state — the daemon's sharded, socket-fed,
//! arbitrarily-interleaved execution must land on the same bytes.

use btpub_faults::FaultProfile;

use super::script::{Op, Script};
use super::shard::{Plane, PlaneConfig};
use super::wire::{info_hash_for, peer_id_for, AnnounceItem};

/// Converts one scripted op into the announce item a client would send.
pub fn item_for(script: &Script, op: &Op) -> AnnounceItem {
    AnnounceItem {
        info_hash: info_hash_for(script.seed, op.torrent),
        peer_id: peer_id_for(op.client),
        t: op.t,
        left: op.left,
        event: op.event,
        ip: op.client,
        port: op.port(),
    }
}

/// Applies the whole script to `plane` in canonical order (garbled ops
/// count, nothing else).
pub fn apply_script(plane: &Plane, script: &Script) {
    let mut out = Vec::with_capacity(1);
    for op in &script.ops {
        if op.garbled {
            let _ = plane.note_garbled(op.t);
            continue;
        }
        let item = item_for(script, op);
        plane.apply_batch(std::slice::from_ref(&item), &mut out);
    }
}

/// Builds the oracle plane for `script` under `profile` and runs the
/// script through it.
pub fn oracle_plane(script: &Script, profile: FaultProfile) -> Plane {
    let plane = Plane::new(PlaneConfig {
        seed: script.seed,
        shards: 1,
        torrents: script.torrents,
        profile,
    });
    apply_script(&plane, script);
    plane
}

/// The oracle's final snapshot — the string every live run is judged
/// against.
pub fn oracle_snapshot(script: &Script, profile: FaultProfile) -> String {
    oracle_plane(script, profile).snapshot()
}

#[cfg(test)]
mod tests {
    use super::super::shard::{Plane, PlaneConfig};
    use super::super::wire::client_of;
    use super::*;

    /// The serving plane's whole equality argument, in miniature: any
    /// shard count, any batch partition — same snapshot as the oracle.
    #[test]
    fn sharded_batched_replay_matches_oracle() {
        let script = Script::synthetic(21, 8, 40, 800);
        let expected = oracle_snapshot(&script, FaultProfile::clean());
        for shards in [2usize, 8] {
            let plane = Plane::new(PlaneConfig {
                seed: script.seed,
                shards,
                torrents: script.torrents,
                profile: FaultProfile::clean(),
            });
            let mut out = Vec::new();
            let items: Vec<AnnounceItem> = script
                .ops
                .iter()
                .filter(|op| !op.garbled)
                .map(|op| item_for(&script, op))
                .collect();
            for chunk in items.chunks(23) {
                plane.apply_batch(chunk, &mut out);
            }
            for op in script.ops.iter().filter(|op| op.garbled) {
                let _ = plane.note_garbled(op.t);
            }
            assert_eq!(plane.snapshot(), expected, "shards={shards}");
        }
    }

    #[test]
    fn faulty_oracle_is_deterministic() {
        let script = Script::synthetic(22, 4, 24, 400);
        let a = oracle_snapshot(&script, FaultProfile::hostile());
        let b = oracle_snapshot(&script, FaultProfile::hostile());
        assert_eq!(a, b);
        // The hostile profile visibly changes the outcome.
        assert_ne!(a, oracle_snapshot(&script, FaultProfile::clean()));
    }

    #[test]
    fn hammer_clients_end_blacklisted() {
        let script = Script::synthetic(23, 4, 16, 200);
        let snap = oracle_snapshot(&script, FaultProfile::clean());
        // All four hammer clients (0xF000_0000 + k) earn the blacklist.
        for k in 0..4u32 {
            let client = client_of(&peer_id_for(0xF000_0000u32 + k));
            assert!(
                snap.contains(&format!("client {client} strikes=")),
                "hammer client {client} missing:\n{snap}"
            );
        }
        assert!(snap.contains("blacklisted=1"));
    }
}
