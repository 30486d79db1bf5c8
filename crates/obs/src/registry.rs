//! The process-global metric registry.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

use crate::metrics::{Counter, Gauge, Histogram};

/// A named collection of counters, gauges and histograms.
///
/// Lookup takes a read lock on a `BTreeMap` (names stay sorted for
/// reports); updates through the returned `Arc` handles are lock-free.
/// Hot paths should look a handle up once and keep it.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

fn get_or_insert<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(v) = map.read().expect("registry lock").get(name) {
        return Arc::clone(v);
    }
    let mut w = map.write().expect("registry lock");
    Arc::clone(w.entry(name.to_string()).or_default())
}

impl Registry {
    /// Creates an empty registry (tests; production code uses [`global`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetches (creating on first use) the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_insert(&self.counters, name)
    }

    /// Fetches (creating on first use) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_insert(&self.gauges, name)
    }

    /// Fetches (creating on first use) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_insert(&self.histograms, name)
    }

    /// Visits every counter as `(name, value)`, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.counters
            .read()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.value()))
            .collect()
    }

    /// Visits every gauge as `(name, value)`, sorted by name.
    pub fn gauges(&self) -> Vec<(String, i64)> {
        self.gauges
            .read()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.value()))
            .collect()
    }

    /// Visits every histogram as `(name, handle)`, sorted by name.
    pub fn histograms(&self) -> Vec<(String, Arc<Histogram>)> {
        self.histograms
            .read()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect()
    }

    /// Total number of distinct metrics registered.
    pub fn len(&self) -> usize {
        self.counters.read().expect("registry lock").len()
            + self.gauges.read().expect("registry lock").len()
            + self.histograms.read().expect("registry lock").len()
    }

    /// True when nothing has been registered yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-global registry every `btpub_obs::counter(..)` call and
/// span guard records into.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_returns_same_metric() {
        let r = Registry::new();
        r.counter("a").add(2);
        r.counter("a").add(3);
        assert_eq!(r.counter("a").value(), 5);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn listing_is_name_sorted() {
        let r = Registry::new();
        r.counter("zeta").inc();
        r.counter("alpha").inc();
        r.gauge("mid").set(1);
        let names: Vec<_> = r.counters().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["alpha", "zeta"]);
        assert_eq!(r.len(), 3);
        assert!(!r.is_empty());
    }
}
