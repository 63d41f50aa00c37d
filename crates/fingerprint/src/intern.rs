//! Hash-consing interner for fingerprints.
//!
//! A month of traffic repeats the same few hundred fingerprints across
//! millions of connections. Keying per-connection bookkeeping on the
//! full [`Fingerprint`] (four heap vectors) costs a deep clone per
//! lookup; the interner assigns each distinct fingerprint a dense
//! [`FpId`] once, and every later sighting is a u32 table hit.
//!
//! The table is keyed on [`Fingerprint::id64`], matching the
//! aggregation layer, which already treats id64 as fingerprint
//! identity (sightings and flag counters key on it). Ids are dense and
//! allocation-ordered, so merging two interners is a remap table, not
//! a re-hash of every fingerprint.

use tlscope_wire::fxhash::FxHashMap;

use crate::fp::Fingerprint;

/// Dense interned fingerprint id, valid only with the interner that
/// produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FpId(pub u32);

impl FpId {
    /// The id as a usize index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Fingerprint → dense id table.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct FpInterner {
    ids: FxHashMap<u64, FpId>,
    fps: Vec<Fingerprint>,
    id64s: Vec<u64>,
}

impl FpInterner {
    /// Empty interner.
    pub fn new() -> Self {
        FpInterner::default()
    }

    /// Number of distinct fingerprints interned.
    pub fn len(&self) -> usize {
        self.fps.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.fps.is_empty()
    }

    /// Intern by precomputed id64, building the fingerprint only on
    /// first sight. This is the hot-path entry: `make` runs zero times
    /// for a repeat fingerprint, so a repeated hello costs no
    /// allocation at all.
    pub fn intern_hashed(&mut self, id64: u64, make: impl FnOnce() -> Fingerprint) -> FpId {
        if let Some(&id) = self.ids.get(&id64) {
            return id;
        }
        let id = FpId(u32::try_from(self.fps.len()).expect("more than u32::MAX fingerprints"));
        self.ids.insert(id64, id);
        self.fps.push(make());
        self.id64s.push(id64);
        id
    }

    /// Intern a borrowed fingerprint (cloned only on first sight).
    pub fn intern(&mut self, fp: &Fingerprint) -> FpId {
        self.intern_hashed(fp.id64(), || fp.clone())
    }

    /// Intern an owned fingerprint (moved in on first sight).
    pub fn intern_owned(&mut self, fp: Fingerprint) -> FpId {
        self.intern_hashed(fp.id64(), || fp)
    }

    /// The fingerprint behind an id.
    ///
    /// # Panics
    /// Panics on an id from a different interner generation.
    pub fn get(&self, id: FpId) -> &Fingerprint {
        &self.fps[id.index()]
    }

    /// The id64 behind an id (precomputed, no re-hash).
    pub fn id64_of(&self, id: FpId) -> u64 {
        self.id64s[id.index()]
    }

    /// Look up the id for an id64 already interned.
    pub fn lookup_id64(&self, id64: u64) -> Option<FpId> {
        self.ids.get(&id64).copied()
    }

    /// Iterate `(id, fingerprint)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (FpId, &Fingerprint)> {
        self.fps
            .iter()
            .enumerate()
            .map(|(i, fp)| (FpId(i as u32), fp))
    }

    /// Consume into `(id64, fingerprint)` pairs in id order — used to
    /// drain a worker's interner into another during merge.
    pub fn into_entries(self) -> impl Iterator<Item = (u64, Fingerprint)> {
        self.id64s.into_iter().zip(self.fps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp(n: u16) -> Fingerprint {
        Fingerprint {
            ciphers: vec![n, 0xc02f],
            extensions: vec![0, 10],
            curves: vec![29],
            point_formats: vec![0],
        }
    }

    #[test]
    fn ids_are_dense_and_stable() {
        let mut it = FpInterner::new();
        let a = it.intern(&fp(1));
        let b = it.intern(&fp(2));
        let a2 = it.intern(&fp(1));
        assert_eq!(a, FpId(0));
        assert_eq!(b, FpId(1));
        assert_eq!(a, a2);
        assert_eq!(it.len(), 2);
        assert_eq!(it.get(a), &fp(1));
        assert_eq!(it.id64_of(b), fp(2).id64());
    }

    #[test]
    fn intern_hashed_skips_make_on_repeat() {
        let mut it = FpInterner::new();
        let first = fp(7);
        let id = it.intern_hashed(first.id64(), || first.clone());
        let mut made = false;
        let id2 = it.intern_hashed(first.id64(), || {
            made = true;
            fp(7)
        });
        assert_eq!(id, id2);
        assert!(!made, "repeat intern must not rebuild the fingerprint");
    }

    #[test]
    fn lookup_and_iter_round_trip() {
        let mut it = FpInterner::new();
        for n in 0..10u16 {
            it.intern_owned(fp(n));
        }
        assert_eq!(it.lookup_id64(fp(3).id64()), Some(FpId(3)));
        assert_eq!(it.lookup_id64(0xdead_beef), None);
        let collected: Vec<_> = it.iter().map(|(id, f)| (id.0, f.ciphers[0])).collect();
        assert_eq!(collected.len(), 10);
        assert_eq!(collected[4], (4, 4));
        let entries: Vec<_> = it.clone().into_entries().collect();
        assert_eq!(entries[5], (fp(5).id64(), fp(5)));
    }
}
