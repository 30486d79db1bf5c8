//! §5.1: promoting-URL discovery and business classification.
//!
//! The paper "emulates the experience of a user downloading a few
//! randomly-selected files published by each top publisher" and looks for
//! a promoting URL in (i) the filename, (ii) the content-page textbox and
//! (iii) a `.txt` file shipped with the payload; it then classifies each
//! publisher's business by inspecting the promoted site. The crawler
//! captures (i) and (ii); classification uses the same observable rules
//! the authors applied by hand: image-hosting/forum-style URLs with a
//! porn-dominated catalogue are "Other Web sites", the rest of the
//! promoters run BitTorrent portals, and publishers with no URL anywhere
//! are altruistic.

use btpub_crawler::TorrentRecord;
use btpub_fxhash::FxHashMap;
use btpub_sim::content::Category;
use btpub_sim::profile::BusinessClass;

use crate::publishers::{PublisherKey, PublisherStats};

/// Where a promoting URL was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UrlPlacement {
    /// Appended to released filenames.
    Filename,
    /// In the content-page textbox.
    Textbox,
}

/// One classified top publisher.
#[derive(Debug, Clone, PartialEq)]
pub struct Classified {
    /// Publisher key.
    pub key: PublisherKey,
    /// Assigned class.
    pub class: BusinessClass,
    /// Promoting URL, when discovered.
    pub url: Option<String>,
    /// Placements the URL was seen in.
    pub placements: Vec<UrlPlacement>,
    /// Language the publisher is dedicated to, if ≥ 60 % of its releases
    /// carry one language tag.
    pub language: Option<String>,
}

/// Extracts a `www.…` or `http://…` URL from free text.
pub fn extract_url(text: &str) -> Option<String> {
    for token in text.split(|c: char| c.is_whitespace() || c == '|') {
        let token = token.trim_matches(|c: char| c == ',' || c == ';' || c == ')' || c == '(');
        if let Some(rest) = token.strip_prefix("http://") {
            return Some(rest.trim_end_matches('/').to_string());
        }
        if token.starts_with("www.") && token.contains('.') {
            return Some(token.to_string());
        }
    }
    None
}

/// Extracts a URL embedded as a filename suffix (`title-example.com`).
pub fn extract_filename_url(filename: &str) -> Option<String> {
    let tail = filename.rsplit('-').next()?;
    let dots = tail.matches('.').count();
    // Domain-looking tail: at least one dot, a known TLD, no release
    // suffixes like ".XviD" (which are not TLDs).
    let tld_ok = [".com", ".net", ".org", ".info"]
        .iter()
        .any(|t| tail.ends_with(t));
    (dots >= 1 && tld_ok).then(|| format!("www.{}", tail.trim_start_matches("www.")))
}

/// Incremental §5.1 evidence for one publisher: records fold in one at a
/// time (in torrent-index order), [`ClassAcc::finish`] applies the
/// classification rules to each Top publisher.
#[derive(Debug, Clone, Default)]
pub struct ClassAcc {
    url: Option<String>,
    placements: Vec<UrlPlacement>,
    porn: usize,
    n: usize,
    lang_counts: FxHashMap<String, usize>,
}

impl ClassAcc {
    /// Folds one of the publisher's records in.
    pub fn observe(&mut self, rec: &TorrentRecord) {
        self.n += 1;
        if rec.category == Category::Porn {
            self.porn += 1;
        }
        if let Some(l) = &rec.language {
            *self.lang_counts.entry(l.clone()).or_default() += 1;
        }
        if self.url.is_none() {
            if let Some(found) = rec.textbox.as_deref().and_then(extract_url) {
                self.url = Some(found);
                self.placements.push(UrlPlacement::Textbox);
            }
        }
        // Once a URL is known and the Filename placement recorded, another
        // filename hit can change nothing — skip the allocating extraction.
        if self.url.is_none() || !self.placements.contains(&UrlPlacement::Filename) {
            if let Some(found) = extract_filename_url(&rec.filename) {
                if !self.placements.contains(&UrlPlacement::Filename) {
                    self.placements.push(UrlPlacement::Filename);
                }
                if self.url.is_none() {
                    self.url = Some(found);
                }
            }
        }
    }

    /// Serializes the accumulator for a checkpoint. `lang_counts` is
    /// written key-sorted so the same state always yields the same bytes.
    pub fn encode_state(&self, enc: &mut btpub_stream::checkpoint::Enc) {
        match &self.url {
            Some(u) => {
                enc.bool(true);
                enc.str(u);
            }
            None => enc.bool(false),
        }
        enc.usize(self.placements.len());
        for p in &self.placements {
            enc.u8(match p {
                UrlPlacement::Filename => 0,
                UrlPlacement::Textbox => 1,
            });
        }
        enc.usize(self.porn);
        enc.usize(self.n);
        let mut langs: Vec<(&String, &usize)> = self.lang_counts.iter().collect();
        langs.sort();
        enc.usize(langs.len());
        for (l, c) in langs {
            enc.str(l);
            enc.usize(*c);
        }
    }

    /// Restores from [`Self::encode_state`] bytes.
    pub fn decode_state(
        dec: &mut btpub_stream::checkpoint::Dec,
    ) -> Result<Self, btpub_stream::checkpoint::CheckpointError> {
        use btpub_stream::checkpoint::CheckpointError;
        let url = dec.bool()?.then(|| dec.str()).transpose()?;
        let n_placements = dec.usize()?;
        let mut placements = Vec::with_capacity(n_placements.min(4));
        for _ in 0..n_placements {
            placements.push(match dec.u8()? {
                0 => UrlPlacement::Filename,
                1 => UrlPlacement::Textbox,
                _ => return Err(CheckpointError::Decode { what: "UrlPlacement tag" }),
            });
        }
        let porn = dec.usize()?;
        let n = dec.usize()?;
        let n_langs = dec.usize()?;
        let mut lang_counts = FxHashMap::default();
        for _ in 0..n_langs {
            let l = dec.str()?;
            let c = dec.usize()?;
            lang_counts.insert(l, c);
        }
        Ok(Self { url, placements, porn, n, lang_counts })
    }

    /// Applies the classification rules and produces the publisher's
    /// [`Classified`] entry.
    pub fn finish(self, key: PublisherKey) -> Classified {
        let n = self.n.max(1);
        let porn_share = self.porn as f64 / n as f64;
        let class = match &self.url {
            None => BusinessClass::Altruistic,
            Some(u) => {
                // The paper's manual business profiling, mechanised: porn-
                // dominated catalogues promoting image hosts / forums are
                // "Other Web sites"; the remaining promoters run portals.
                let image_host = u.contains("pics") || u.contains("image") || u.contains("forum");
                if porn_share >= 0.5 || image_host {
                    BusinessClass::OtherWeb
                } else {
                    BusinessClass::BtPortal
                }
            }
        };
        // At most one language can clear the 60 % bar, so the pick is
        // independent of map iteration order.
        let language = self
            .lang_counts
            .into_iter()
            .find(|(_, c)| *c * 10 >= n * 6)
            .map(|(l, _)| l);
        Classified {
            key,
            class,
            url: self.url,
            placements: self.placements,
            language,
        }
    }
}

/// Per-class share of the top set, of all content, and of all downloads
/// (§5.1's 26 %/18 %/29 % etc.), over campaign-wide totals.
pub fn class_shares(
    publishers: &[PublisherStats],
    classified: &[Classified],
    class: BusinessClass,
    total_content: usize,
    total_downloads: u64,
) -> (f64, f64, f64) {
    let by_key: FxHashMap<&PublisherKey, &PublisherStats> =
        publishers.iter().map(|p| (&p.key, p)).collect();
    let members: Vec<&Classified> = classified.iter().filter(|c| c.class == class).collect();
    let of_top = members.len() as f64 / classified.len().max(1) as f64;
    let (content, downloads) = members
        .iter()
        .filter_map(|c| by_key.get(&c.key))
        .fold((0usize, 0u64), |(c, d), p| {
            (c + p.content_count(), d + p.downloads)
        });
    (
        of_top,
        content as f64 / (total_content as f64).max(1.0),
        downloads as f64 / total_downloads.max(1) as f64,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::fold_dataset;
    use btpub_crawler::Dataset;
    use btpub_geodb::GeoDbBuilder;

    #[test]
    fn url_extraction_from_textbox() {
        assert_eq!(
            extract_url("Great.Movie | uploaded by x | more releases at http://www.ultra.com"),
            Some("www.ultra.com".to_string())
        );
        assert_eq!(
            extract_url("visit www.site.net for more"),
            Some("www.site.net".to_string())
        );
        assert_eq!(extract_url("no urls here"), None);
        assert_eq!(extract_url(""), None);
    }

    #[test]
    fn url_extraction_from_filename() {
        assert_eq!(
            extract_filename_url("Some.Movie.2010.DVDRip-divxatope.com"),
            Some("www.divxatope.com".to_string())
        );
        assert_eq!(extract_filename_url("Some.Movie.2010.DVDRip.XviD-aXXo"), None);
        assert_eq!(extract_filename_url("noseparator"), None);
    }

    #[test]
    fn porn_dominated_promoter_is_other_web() {
        use btpub_sim::{SimTime, TorrentId};
        let mk = |id: u32, cat: Category, textbox: &str| btpub_crawler::TorrentRecord {
            torrent: TorrentId(id),
            announced_at: SimTime(0),
            first_contact_at: None,
            category: cat,
            title: "t".into(),
            filename: "t".into(),
            textbox: Some(textbox.into()),
            size_bytes: 1,
            language: Some("es".into()),
            username: Some("pornking".into()),
            publisher_ip: None,
            ip_failure: None,
            first_complete: 0,
            first_incomplete: 0,
            sightings: vec![],
            observed_ips: vec![1, 2],
            observed_removed: false,
        };
        let ds = Dataset {
            name: "t".into(),
            start: SimTime(0),
            end: SimTime(1),
            has_usernames: true,
            torrents: vec![
                mk(0, Category::Porn, "see http://www.hot-pics.net"),
                mk(1, Category::Porn, "see http://www.hot-pics.net"),
                mk(2, Category::Movies, "see http://www.hot-pics.net"),
            ],
        };
        let s = fold_dataset(&ds, &GeoDbBuilder::new().build().unwrap(), 1).finish();
        assert_eq!(s.groups.top, vec![s.publishers[0].key.clone()]);
        let classified = &s.classified;
        assert_eq!(classified.len(), 1);
        assert_eq!(classified[0].class, BusinessClass::OtherWeb);
        assert_eq!(classified[0].url.as_deref(), Some("www.hot-pics.net"));
        assert!(classified[0].placements.contains(&UrlPlacement::Textbox));
        assert_eq!(classified[0].language.as_deref(), Some("es"));
        let (of_top, content, downloads) = class_shares(
            &s.publishers,
            classified,
            BusinessClass::OtherWeb,
            s.totals.torrents_total,
            s.totals.total_downloads,
        );
        assert_eq!(of_top, 1.0);
        assert_eq!(content, 1.0);
        assert_eq!(downloads, 1.0);
    }

    #[test]
    fn no_url_means_altruistic() {
        use btpub_sim::{SimTime, TorrentId};
        let ds = Dataset {
            name: "t".into(),
            start: SimTime(0),
            end: SimTime(1),
            has_usernames: true,
            torrents: vec![btpub_crawler::TorrentRecord {
                torrent: TorrentId(0),
                announced_at: SimTime(0),
                first_contact_at: None,
                category: Category::Audio,
                title: "album".into(),
                filename: "album".into(),
                textbox: Some("please help seed! extensive description...".into()),
                size_bytes: 1,
                language: None,
                username: Some("goodsoul".into()),
                publisher_ip: None,
                ip_failure: None,
                first_complete: 0,
                first_incomplete: 0,
                sightings: vec![],
                observed_ips: vec![],
                observed_removed: false,
            }],
        };
        let s = fold_dataset(&ds, &GeoDbBuilder::new().build().unwrap(), 1).finish();
        assert_eq!(s.groups.top, vec![s.publishers[0].key.clone()]);
        let classified = &s.classified;
        assert_eq!(classified[0].class, BusinessClass::Altruistic);
        assert!(classified[0].url.is_none());
    }
}
