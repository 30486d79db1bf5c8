//! End-to-end reproduction checks on the primary (pb10-style) campaign:
//! every qualitative claim the paper's evaluation makes must hold in the
//! regenerated data. Absolute values are scale-dependent; orderings and
//! ratios are not.

use btpub::analysis::fake::Group;
use btpub::sim::profile::BusinessClass;
use btpub::{Scale, Scenario, Study};

fn study() -> &'static Study {
    static STUDY: std::sync::OnceLock<Study> = std::sync::OnceLock::new();
    STUDY.get_or_init(|| Study::run(&Scenario::pb10(Scale::small())))
}

#[test]
fn headline_skewness_few_publishers_dominate() {
    let r = study().analyze().experiments().report_data();
    let f1 = r.f1;
    let s33 = r.s33;
    // "just few publishers (around 100) are responsible of 2/3 of the
    // contents that serve 3/4 of the downloads" — the ~100 majors are the
    // fake entities plus the top publishers.
    let majors_content = s33.fake_shares.0 + s33.top_shares.0;
    let majors_downloads = s33.fake_shares.1 + s33.top_shares.1;
    assert!(majors_content > 0.55, "majors content share {majors_content:.2}");
    assert!(majors_downloads > 0.62, "majors download share {majors_downloads:.2}");
    // The top-k usernames alone already dominate.
    assert!(
        f1.top_k_shares.0 > 0.30,
        "top-{} content share {:.2}",
        f1.top_k,
        f1.top_k_shares.0
    );
    assert!(f1.top_k_shares.1 > f1.top_k_shares.0, "downloads more concentrated than content");
    // The CDF is a proper CDF.
    assert!(f1.cdf.windows(2).all(|w| w[1].pct_content >= w[0].pct_content));
    let last = f1.cdf.last().unwrap();
    assert!((last.pct_content - 100.0).abs() < 1e-6);
}

#[test]
fn fake_and_top_shares_in_paper_bands() {
    let r = study().analyze().experiments().report_data();
    let s33 = r.s33;
    // Paper: fake = 30 % content / 25 % downloads.
    assert!(
        (0.20..=0.45).contains(&s33.fake_shares.0),
        "fake content share {:.2}",
        s33.fake_shares.0
    );
    assert!(
        (0.15..=0.45).contains(&s33.fake_shares.1),
        "fake download share {:.2}",
        s33.fake_shares.1
    );
    // Paper: Top = 37 % content / 50 % downloads; downloads exceed content.
    assert!(
        (0.20..=0.55).contains(&s33.top_shares.0),
        "top content share {:.2}",
        s33.top_shares.0
    );
    assert!(
        s33.top_shares.1 > s33.top_shares.0,
        "top publishers' content is more popular than average"
    );
    // Some compromised accounts were dropped from the top-k, as in §3.3.
    assert!(s33.compromised > 0);
}

#[test]
fn major_publishers_sit_at_hosting_providers() {
    let r = study().analyze().experiments().report_data();
    let s33 = r.s33;
    // Paper: 42 % of the top-100 at hosting providers, OVH the largest.
    assert!(
        (0.25..=0.70).contains(&s33.hosting.0),
        "hosting share {:.2}",
        s33.hosting.0
    );
    assert!(s33.hosting.1 > 0.10, "OVH share {:.2}", s33.hosting.1);
    assert!(s33.hosting.1 < s33.hosting.0 + 1e-9);
}

#[test]
fn table2_hosting_providers_lead_and_ovh_is_first() {
    let r = study().analyze().experiments().report_data();
    let rows = r.t2;
    assert!(rows.len() >= 5);
    let hosting_in_top5 = rows
        .iter()
        .take(5)
        .filter(|r| r.kind == btpub::geodb::IspKind::HostingProvider)
        .count();
    assert!(hosting_in_top5 >= 3, "hosting providers dominate Table 2");
    // Percentages are sane and sorted.
    assert!(rows.windows(2).all(|w| w[0].pct_content >= w[1].pct_content));
    assert!(rows.iter().map(|r| r.pct_content).sum::<f64>() <= 100.0 + 1e-9);
}

#[test]
fn table3_ovh_concentrated_comcast_scattered() {
    let r = study().analyze().experiments().report_data();
    let (ovh, comcast) = r.t3;
    // The paper's key contrast: OVH feeds much more per address, from few
    // prefixes and locations; Comcast publishers scatter.
    assert!(ovh.fed_torrents > comcast.fed_torrents, "OVH feeds more");
    assert!(
        ovh.prefixes16 <= 7,
        "OVH prefixes {} should be concentrated",
        ovh.prefixes16
    );
    assert!(ovh.geo_locations <= 4);
    if comcast.ip_addresses >= 12 {
        let ovh_density = ovh.fed_torrents as f64 / ovh.ip_addresses.max(1) as f64;
        let comcast_density = comcast.fed_torrents as f64 / comcast.ip_addresses.max(1) as f64;
        assert!(
            ovh_density > comcast_density,
            "per-address contribution: OVH {ovh_density:.1} vs Comcast {comcast_density:.1}"
        );
        assert!(comcast.prefixes16 > ovh.prefixes16);
    }
}

#[test]
fn fig2_video_dominates_and_orderings_hold() {
    let r = study().analyze().experiments().report_data();
    let dists = r.f2;
    let share = |g: Group| {
        dists
            .iter()
            .find(|(gg, _)| *gg == g)
            .map(|(_, d)| d.video_share())
            .unwrap()
    };
    // Video is a significant fraction everywhere (paper: 37–51 % for All).
    assert!((0.30..=0.70).contains(&share(Group::All)));
    // Top-HP is the most video-heavy group (paper, pb10).
    assert!(share(Group::TopHp) > share(Group::All));
    assert!(share(Group::TopHp) > share(Group::TopCi));
    // Fake publishers focus on video + software.
    let fake = dists.iter().find(|(g, _)| *g == Group::Fake).unwrap().1;
    let sw = fake.share(btpub::sim::content::Category::Software);
    assert!(sw > 0.12, "fake software share {sw:.2}");
}

#[test]
fn fig3_popularity_orderings() {
    let r = study().analyze().experiments().report_data();
    let boxes = r.f3;
    let median = |g: Group| {
        boxes
            .iter()
            .find(|(gg, _)| *gg == g)
            .and_then(|(_, b)| *b)
            .map(|b| b.median)
            .unwrap()
    };
    // Paper: top torrents are several times more popular than All's;
    // hosting-based tops more than commercial-based.
    assert!(
        median(Group::Top) > median(Group::All) * 2.0,
        "Top {:.1} vs All {:.1}",
        median(Group::Top),
        median(Group::All)
    );
    assert!(
        median(Group::TopHp) > median(Group::TopCi),
        "Top-HP {:.1} vs Top-CI {:.1}",
        median(Group::TopHp),
        median(Group::TopCi)
    );
    // Fake torrents are far less popular than top publishers'.
    assert!(median(Group::Fake) < median(Group::Top) / 2.0);
}

#[test]
fn fig4_seeding_signatures() {
    let r = study().analyze().experiments().report_data();
    let boxes = r.f4;
    let get = |g: Group| {
        boxes
            .iter()
            .find(|(gg, _)| *gg == g)
            .and_then(|(_, b)| *b)
            .unwrap()
    };
    let (all, fake, top) = (get(Group::All), get(Group::Fake), get(Group::Top));
    let (hp, ci) = (get(Group::TopHp), get(Group::TopCi));
    // 4a: fake publishers seed far longer than anyone (nobody helps seed
    // fake files); hosting tops longer than commercial tops.
    assert!(
        fake.seed_time.median > top.seed_time.median * 2.0,
        "fake {:.1}h vs top {:.1}h",
        fake.seed_time.median,
        top.seed_time.median
    );
    assert!(hp.seed_time.median > ci.seed_time.median);
    // 4c: fake publishers have the longest aggregated sessions; top
    // publishers are present far longer than standard users.
    assert!(fake.aggregated.median > top.aggregated.median);
    assert!(
        top.aggregated.median > all.aggregated.median * 3.0,
        "top {:.0}h vs all {:.0}h",
        top.aggregated.median,
        all.aggregated.median
    );
    // 4b: hosting tops seed several torrents in parallel.
    assert!(hp.parallel.median > 1.5, "hp parallel {:.2}", hp.parallel.median);
    assert!(hp.parallel.median > ci.parallel.median);
}

#[test]
fn s51_classification_and_profit_shares() {
    let a = study().analyze();
    let report = a.experiments().report_data().s51;
    let share_of_top = |c: BusinessClass| {
        report
            .shares
            .iter()
            .find(|(cc, ..)| *cc == c)
            .map(|&(_, of_top, ..)| of_top)
            .unwrap()
    };
    // Paper: 26/24/52 — altruistic publishers are about half of the top.
    assert!(
        (0.30..=0.75).contains(&share_of_top(BusinessClass::Altruistic)),
        "altruistic {:.2}",
        share_of_top(BusinessClass::Altruistic)
    );
    assert!(share_of_top(BusinessClass::BtPortal) > 0.08);
    assert!(share_of_top(BusinessClass::OtherWeb) > 0.05);
    // Profit-driven: sizable content, larger downloads (paper 26 % / 40 %).
    let (content, downloads) = report.profit_shares;
    assert!(content > 0.08, "profit content {content:.2}");
    assert!(downloads > content, "profit content attracts above-average downloads");
    // Textbox is the most common placement (paper §5).
    let textbox = report.placements.get("textbox").copied().unwrap_or(0);
    let filename = report.placements.get("filename").copied().unwrap_or(0);
    assert!(textbox >= filename, "textbox {textbox} vs filename {filename}");
    // Portal-class language dedication trends Spanish (paper §5.1: 66 %
    // of language-dedicated portals publish in Spanish). That rate was
    // measured over the full dataset's portal population; the small-scale
    // study only generates a couple of portal publishers, so the Spanish
    // share is a handful of Bernoulli(0.66) draws and can legitimately be
    // zero. Only assert the trend once the sample makes its absence a
    // <1 % event (0.34^n < 0.01 needs n >= 5 dedicated portals).
    let dedicated_portals = a
        .analyses
        .classified
        .iter()
        .filter(|c| c.class == BusinessClass::BtPortal && c.language.is_some())
        .count();
    if dedicated_portals >= 5 {
        assert!(report.language_dedicated.1 >= 0.3);
    }
}

#[test]
fn t4_longitudinal_profit_driven_publish_faster() {
    let r = study().analyze().experiments().report_data();
    let rows = r.t4;
    let rate = |c: BusinessClass| {
        rows.iter()
            .find(|r| r.class == c)
            .map(|r| r.rate_per_day.avg)
    };
    if let (Some(portal), Some(alt)) = (rate(BusinessClass::BtPortal), rate(BusinessClass::Altruistic)) {
        // Paper: portals 11.4/day vs altruistic 3.8/day.
        assert!(portal > alt, "portal rate {portal:.1} vs altruistic {alt:.1}");
    }
    for r in &rows {
        assert!(r.lifetime_days.max <= 2000.0);
        assert!(r.rate_per_day.max <= 80.0);
    }
}

#[test]
fn t5_economics_sites_are_profitable() {
    let r = study().analyze().experiments().report_data();
    let rows = r.t5;
    assert!(!rows.is_empty());
    for row in &rows {
        // "fairly profitable: valued in few tens thousands dollars with
        // daily incomes of few hundred dollars and few tens thousands of
        // visits per day" — at least the orders of magnitude must be in a
        // plausible business range after scale correction.
        assert!(row.daily_visits.median > 100.0, "visits {:.0}", row.daily_visits.median);
        assert!(row.value_dollars.median > 500.0);
        // Consistency: value tracks income.
        assert!(row.value_dollars.avg > row.daily_income_dollars.avg * 50.0);
    }
}

#[test]
fn s6_hosting_income_ovh_largest_among_named() {
    let r = study().analyze().experiments().report_data();
    let rows = r.s6;
    let ovh = rows.iter().find(|(p, ..)| *p == "OVH").unwrap();
    assert!(ovh.1 > 0, "OVH hosts publisher servers");
    assert_eq!(ovh.2, ovh.1 as f64 * 300.0);
}

#[test]
fn appendix_a_model_and_threshold_robustness() {
    let r = study().analyze().experiments().report_data();
    let aa = r.aa;
    assert_eq!(aa.m_for_99, 13, "paper's m=13 at N=165, W=50");
    // The paper repeated the experiment with 2 h and 6 h thresholds and
    // obtained similar results; our ground-truth-driven check agrees.
    let [t2, t4, t6] = aa.threshold_sensitivity;
    assert!(t4 > 0.0);
    assert!((t2 - t4).abs() / t4 < 0.35, "2h vs 4h: {t2:.1} vs {t4:.1}");
    assert!((t6 - t4).abs() / t4 < 0.35, "6h vs 4h: {t6:.1} vs {t4:.1}");
}
