//! Cross-dataset checks: the three campaigns (mn08 / pb09 / pb10) differ
//! exactly the way Table 1 and §2 describe.

use btpub::{Scale, Scenario, Study};

fn studies() -> &'static (Study, Study, Study) {
    static STUDIES: std::sync::OnceLock<(Study, Study, Study)> = std::sync::OnceLock::new();
    STUDIES.get_or_init(|| {
        (
            Study::run(&Scenario::mn08(Scale::tiny())),
            Study::run(&Scenario::pb09(Scale::tiny())),
            Study::run(&Scenario::pb10(Scale::tiny())),
        )
    })
}

#[test]
fn table1_modes_are_respected() {
    let (mn08, pb09, pb10) = studies();
    // mn08 has no usernames, only IPs.
    assert!(!mn08.dataset.has_usernames);
    assert_eq!(mn08.dataset.username_identified_count(), 0);
    assert!(mn08.dataset.ip_identified_count() > 0);
    // pb09/pb10 have usernames for every torrent.
    assert_eq!(
        pb09.dataset.username_identified_count(),
        pb09.dataset.torrent_count()
    );
    assert_eq!(
        pb10.dataset.username_identified_count(),
        pb10.dataset.torrent_count()
    );
    // IP identification succeeds for a strict subset (paper: ~40 %).
    // pb09's single-query mode gets exactly one identification attempt per
    // torrent, so its rate is the lowest.
    for (ds, lo) in [
        (&mn08.dataset, 0.15),
        (&pb09.dataset, 0.05),
        (&pb10.dataset, 0.15),
    ] {
        let frac = ds.ip_identified_count() as f64 / ds.torrent_count() as f64;
        assert!((lo..0.8).contains(&frac), "{}: identified {frac:.2}", ds.name);
    }
}

#[test]
fn pb09_single_query_sees_far_fewer_ips() {
    let (_, pb09, pb10) = studies();
    // Paper Table 1: pb09 saw 52.9 K IPs, pb10 saw 27.3 M — orders of
    // magnitude apart because pb09 queried each tracker once.
    assert!(pb09.dataset.torrents.iter().all(|t| t.sightings.len() <= 1));
    let ratio = pb10.dataset.distinct_ip_count() as f64
        / pb09.dataset.distinct_ip_count().max(1) as f64;
    assert!(ratio > 4.0, "pb10/pb09 IP ratio {ratio:.1}");
}

#[test]
fn mn08_analyses_work_ip_keyed() {
    let (mn08, _, _) = studies();
    let a = mn08.analyze();
    // Publishers are keyed by IP.
    assert!(a
        .analyses
        .publishers
        .iter()
        .all(|p| matches!(p.key, btpub::analysis::publishers::PublisherKey::Ip(_))));
    // The skewness result still holds (Fig 1 plots mn08 too).
    let r = a.experiments().report_data();
    assert!(r.f1.top_k_shares.0 > 0.3);
    // Table 2 for mn08: hosting providers lead, as in the paper
    // (77 % of mn08's top-100 at hosting services).
    let rows = r.t2;
    assert!(!rows.is_empty());
    let hosting = rows
        .iter()
        .take(5)
        .filter(|r| r.kind == btpub::geodb::IspKind::HostingProvider)
        .count();
    assert!(hosting >= 2, "hosting providers in mn08 top-5: {hosting}");
}

#[test]
fn ovh_contributes_across_all_datasets() {
    // Table 2's headline: OVH "consistently contributed a significant
    // fraction of published content at major BitTorrent portals".
    let (mn08, pb09, pb10) = studies();
    for study in [mn08, pb09, pb10] {
        let rows = study.analyze().experiments().report_data().t2;
        let ovh = rows.iter().find(|r| r.name == "OVH");
        assert!(
            ovh.is_some_and(|r| r.pct_content > 3.0),
            "{}: OVH missing or small: {:?}",
            study.dataset.name,
            ovh.map(|r| r.pct_content)
        );
    }
}

#[test]
fn campaign_durations_differ_as_in_table1() {
    let (mn08, pb09, pb10) = studies();
    assert!(mn08.eco.config.duration > pb10.eco.config.duration);
    assert!(pb10.eco.config.duration > pb09.eco.config.duration);
}
