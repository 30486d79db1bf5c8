//! A deterministic string interner with `u32` symbols.
//!
//! Analysis keys tens of thousands of torrent records by publisher
//! username (and classification by promo URL). Hashing and cloning those
//! `String`s per record dominates the aggregation profile; interning
//! turns every subsequent lookup into a `u32` hash and every clone into
//! a `Copy`.
//!
//! Determinism: symbols are assigned densely in first-insertion order,
//! so the same insertion sequence always yields the same `Sym` values.
//! `Sym` deliberately does **not** implement `Ord` — symbol order is
//! insertion order, not lexicographic order, and letting it leak into a
//! sort would silently reorder report rows. Resolve to `&str` first;
//! the compiler then enforces the "strings at report time" rule.

use crate::{FxBuildHasher, FxHashMap};

/// An interned string. `Copy`, 4 bytes, hashes as a single `u32`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Sym(u32);

impl Sym {
    /// The dense index of this symbol (0-based insertion order).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Append-only string pool. Not thread-safe by design: build it up
/// front (population generation / dataset walk), then share `&Interner`
/// freely across workers — resolution and lookup are `&self`.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// Borrowed views into `strings`; boxed str keeps them stable.
    map: FxHashMap<Box<str>, Sym>,
    strings: Vec<Box<str>>,
}

impl Interner {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_capacity(cap: usize) -> Self {
        Self {
            map: FxHashMap::with_capacity_and_hasher(cap, FxBuildHasher::default()),
            strings: Vec::with_capacity(cap),
        }
    }

    /// Interns `s`, returning the existing symbol if already present.
    pub fn intern(&mut self, s: &str) -> Sym {
        if let Some(&sym) = self.map.get(s) {
            return sym;
        }
        let sym =
            Sym(u32::try_from(self.strings.len()).expect("interner overflow: > u32::MAX symbols"));
        let boxed: Box<str> = s.into();
        self.strings.push(boxed.clone());
        self.map.insert(boxed, sym);
        sym
    }

    /// Looks up a previously interned string without inserting.
    #[inline]
    pub fn get(&self, s: &str) -> Option<Sym> {
        self.map.get(s).copied()
    }

    /// Resolves a symbol back to its string. Panics on a foreign `Sym`
    /// (one minted by a different interner) — that is always a bug.
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.0 as usize]
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// The symbol at a dense index, if one has been minted. The inverse
    /// of [`Sym::index`] — what lets serialized state name symbols by
    /// index and a restore turn them back into `Sym`s after re-interning
    /// the same strings in the same order.
    #[inline]
    pub fn sym_at(&self, index: usize) -> Option<Sym> {
        (index < self.strings.len()).then_some(Sym(index as u32))
    }

    /// All interned strings in symbol (insertion) order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        self.strings
            .iter()
            .enumerate()
            .map(|(i, s)| (Sym(i as u32), &**s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_dedup() {
        let mut i = Interner::new();
        let a = i.intern("alpha");
        let b = i.intern("beta");
        let a2 = i.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "alpha");
        assert_eq!(i.resolve(b), "beta");
        assert_eq!(i.len(), 2);
        assert_eq!(i.get("beta"), Some(b));
        assert_eq!(i.get("gamma"), None);
    }

    #[test]
    fn symbols_are_dense_insertion_order() {
        let mut i = Interner::new();
        for (n, s) in ["x", "y", "z"].iter().enumerate() {
            assert_eq!(i.intern(s).index(), n);
        }
        let order: Vec<&str> = i.iter().map(|(_, s)| s).collect();
        assert_eq!(order, ["x", "y", "z"]);
    }

    #[test]
    fn deterministic_across_instances() {
        // Same insertion sequence ⇒ same symbols, regardless of process
        // state — this is what makes Sym safe under serial ≡ parallel.
        let build = || {
            let mut i = Interner::new();
            let syms: Vec<Sym> = (0..1000)
                .map(|n| i.intern(&format!("user{:04}", n * 7 % 991)))
                .collect();
            (i, syms)
        };
        let (i1, s1) = build();
        let (i2, s2) = build();
        assert_eq!(s1, s2);
        for (a, b) in i1.iter().zip(i2.iter()) {
            assert_eq!(a, b);
        }
    }
}
