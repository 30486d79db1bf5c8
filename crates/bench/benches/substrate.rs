//! Substrate micro-benchmarks: the building blocks every experiment sits
//! on — wire codecs, hashing, GeoIP lookup, swarm-trace queries and
//! tracker sampling.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::net::Ipv4Addr;

use btpub_bench::tiny_study;
use btpub_bencode::Value;
use btpub_proto::metainfo::MetainfoBuilder;
use btpub_proto::sha1::sha1;
use btpub_proto::tracker::AnnounceRequest;
use btpub_proto::types::{InfoHash, PeerId};
use btpub_sim::{SimDuration, SimTime};
use btpub_tracker::sim::TrackerSim;

fn bencode_roundtrip(c: &mut Criterion) {
    let metainfo = MetainfoBuilder::new("http://t.example/announce", "payload.bin", 700 << 20)
        .comment("a fairly typical torrent with 2800 pieces")
        .build();
    let bytes = metainfo.encode();
    let mut g = c.benchmark_group("substrate_bencode");
    g.throughput(Throughput::Bytes(bytes.len() as u64));
    g.bench_function("encode_torrent", |b| b.iter(|| black_box(metainfo.encode())));
    g.bench_function("decode_torrent", |b| {
        b.iter(|| black_box(Value::decode(&bytes).unwrap()))
    });
    g.bench_function("info_hash", |b| b.iter(|| black_box(metainfo.info_hash())));
    g.finish();
}

fn sha1_throughput(c: &mut Criterion) {
    let data = vec![0xabu8; 1 << 20];
    let mut g = c.benchmark_group("substrate_sha1");
    g.throughput(Throughput::Bytes(data.len() as u64));
    g.bench_function("1MiB", |b| b.iter(|| black_box(sha1(&data))));
    g.finish();
}

fn announce_codec(c: &mut Criterion) {
    let req = AnnounceRequest {
        info_hash: InfoHash([0xAB; 20]),
        peer_id: PeerId::azureus_style("BP", "0100", [7; 12]),
        port: 6881,
        uploaded: 123,
        downloaded: 456,
        left: 789,
        event: btpub_proto::tracker::AnnounceEvent::Started,
        numwant: 200,
        compact: true,
    };
    let query = req.to_query();
    let mut g = c.benchmark_group("substrate_announce");
    g.bench_function("to_query", |b| b.iter(|| black_box(req.to_query())));
    g.bench_function("from_query", |b| {
        b.iter(|| black_box(AnnounceRequest::from_query(&query).unwrap()))
    });
    g.finish();
}

fn geodb_lookup(c: &mut Criterion) {
    let study = tiny_study();
    let db = &study.eco.world.db;
    let ips: Vec<Ipv4Addr> = (0..1024u32)
        .map(|i| Ipv4Addr::from(0x0100_0000u32 + i * 65_537))
        .collect();
    let mut g = c.benchmark_group("substrate_geodb");
    g.throughput(Throughput::Elements(ips.len() as u64));
    g.bench_function("lookup_1024", |b| {
        b.iter(|| {
            let mut hits = 0usize;
            for ip in &ips {
                hits += usize::from(db.lookup(*ip).is_some());
            }
            black_box(hits)
        })
    });
    g.finish();
}

fn swarm_queries(c: &mut Criterion) {
    let study = tiny_study();
    let (idx, swarm) = study
        .eco
        .swarms
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| s.downloads())
        .unwrap();
    let t = study.eco.publications[idx].at + SimDuration::from_hours(3.0);
    let mut g = c.benchmark_group("substrate_swarm");
    g.bench_function("active_count", |b| {
        b.iter(|| black_box(swarm.active_count(t)))
    });
    g.bench_function("seeder_count", |b| {
        b.iter(|| black_box(swarm.seeder_count(t)))
    });
    let mut rng = btpub_sim::rngs::derive(1, "bench", 0);
    g.bench_function("sample_200", |b| {
        b.iter(|| black_box(swarm.sample_active(t, 200, &mut rng).len()))
    });
    g.finish();
}

fn tracker_query(c: &mut Criterion) {
    let study = tiny_study();
    c.bench_function("substrate_tracker/query", |b| {
        // Fresh tracker per iteration batch to avoid unbounded rate-limit
        // state; advance time so no query is rate-limited.
        let mut tracker = TrackerSim::new(&study.eco);
        let mut t = SimTime::ZERO;
        let mut peers = Vec::new();
        b.iter(|| {
            t += SimDuration(1000);
            black_box(
                tracker
                    .query_into(1, btpub_sim::TorrentId(0), t, 200, &mut peers)
                    .ok(),
            )
        })
    });
}

criterion_group!(
    substrate,
    bencode_roundtrip,
    sha1_throughput,
    announce_codec,
    geodb_lookup,
    swarm_queries,
    tracker_query
);
criterion_main!(substrate);
