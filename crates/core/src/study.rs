//! The end-to-end study runner.

use btpub_analysis::streaming::{StreamAggregator, StreamAnalyses, StreamConfig};
use btpub_crawler::{run_crawl, Dataset};
use btpub_sim::Ecosystem;
use btpub_stream::spill::DistinctU32;

use crate::experiments::{Experiments, TruthCounters};
use crate::scenario::Scenario;

/// A completed measurement campaign: the generated world plus what the
/// crawler saw of it.
pub struct Study {
    /// The scenario it ran.
    pub scenario: Scenario,
    /// The simulated world (ground truth, used only for validation and as
    /// the economics oracle).
    pub eco: Ecosystem,
    /// The crawler's dataset — what the paper's authors had.
    pub dataset: Dataset,
}

impl Study {
    /// Generates the ecosystem and runs the crawl. Deterministic in the
    /// scenario.
    pub fn run(scenario: &Scenario) -> Study {
        let eco = Ecosystem::generate(scenario.eco.clone());
        Self::run_on(scenario, eco)
    }

    /// [`Self::run`] over an already-generated world (the memory
    /// benchmark generates once, outside its measurement window).
    pub fn run_on(scenario: &Scenario, eco: Ecosystem) -> Study {
        let _span = btpub_obs::span!("study.run");
        let dataset = run_crawl(&eco, &scenario.crawler);
        Study {
            scenario: scenario.clone(),
            eco,
            dataset,
        }
    }

    /// Runs the analysis over the dataset: folds its records, in index
    /// order, through the same [`StreamAggregator`] a streamed campaign
    /// uses, with the V1 truth tallies beside it.
    pub fn analyze(&self) -> Analyses<'_> {
        let _span = btpub_obs::span!("study.analyze");
        let cfg = StreamConfig {
            has_usernames: self.dataset.has_usernames,
            top_k: self.scenario.top_k(),
        };
        let mut agg = StreamAggregator::new(cfg, &self.eco.world.db, DistinctU32::in_memory());
        let mut truth = TruthCounters::default();
        for rec in &self.dataset.torrents {
            truth.observe(rec, &self.eco);
            agg.fold_record(rec);
        }
        Analyses {
            study: self,
            analyses: agg.finish(),
            truth,
        }
    }
}

/// A study's finished fold: the aggregates every experiment reads.
pub struct Analyses<'a> {
    /// The study analysed.
    pub study: &'a Study,
    /// Publishers, groups, classification and every other aggregate.
    pub analyses: StreamAnalyses,
    /// The V1 ground-truth tallies.
    pub truth: TruthCounters,
}

impl<'a> Analyses<'a> {
    /// The experiment report builder.
    pub fn experiments(&self) -> Experiments<'_, 'a> {
        Experiments::new(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scale;

    fn study() -> &'static Study {
        static STUDY: std::sync::OnceLock<Study> = std::sync::OnceLock::new();
        STUDY.get_or_init(|| Study::run(&Scenario::pb10(Scale::tiny())))
    }

    #[test]
    fn study_produces_dataset() {
        let s = study();
        assert!(s.dataset.torrent_count() > 300);
        assert!(s.dataset.has_usernames);
        assert!(s.dataset.distinct_ip_count() > 100);
    }

    #[test]
    fn analyses_build_groups_and_classes() {
        let a = study().analyze().analyses;
        assert!(!a.publishers.is_empty());
        assert!(!a.groups.top.is_empty());
        assert!(!a.groups.fake_usernames.is_empty());
        assert!(!a.classified.is_empty());
        // Classified set == Top set.
        assert_eq!(a.classified.len(), a.groups.top.len());
    }

    #[test]
    fn fake_detection_catches_fake_entities() {
        let a = study().analyze();
        let eco = &a.study.eco;
        // Ground truth fake usernames.
        let truth: std::collections::HashSet<&str> = eco
            .publishers
            .iter()
            .filter(|p| p.profile == btpub_sim::Profile::Fake)
            .flat_map(|p| p.usernames.iter().map(String::as_str))
            .collect();
        let detected = &a.analyses.groups.fake_usernames;
        // Recall over *active* fake usernames (those that published).
        let active: std::collections::HashSet<&str> = a
            .study
            .dataset
            .torrents
            .iter()
            .filter_map(|t| t.username.as_deref())
            .filter(|u| truth.contains(u))
            .collect();
        let caught = active.iter().filter(|u| detected.contains(**u)).count();
        let recall = caught as f64 / active.len().max(1) as f64;
        assert!(recall > 0.8, "fake username recall {recall}");
        // Precision: detected-but-not-truth are the compromised genuine
        // accounts, which the paper also excludes — allow those.
        let compromised: std::collections::HashSet<&str> =
            eco.compromised.iter().map(String::as_str).collect();
        for u in detected {
            assert!(
                truth.contains(u.as_str()) || compromised.contains(u.as_str()),
                "false positive fake label: {u}"
            );
        }
    }
}
