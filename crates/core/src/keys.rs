//! Totally-ordered key sets, dictionary-encoded to dense integer ids,
//! and D4M-style key selection.
//!
//! The paper requires key sets to be "finite and totally-ordered". Here
//! every key string is interned once into a [`KeyDict`] — by default
//! the process-global dictionary — and a [`KeySet`] is a sorted slice
//! of dense `u32` ids into that dictionary. All hot-path set algebra
//! (intersection, union, alignment maps, membership) runs on integer
//! ids and the dictionary's rank table with **zero string
//! comparisons**; strings are materialized lazily, only at
//! display/export/[`KeySelect`] boundaries.
//!
//! Id-space validity rests on one invariant: interning new keys may
//! shift the *rank values* of existing ids, but never the relative
//! rank order of two ids already interned (rank order ≡ string order,
//! and strings are immutable). Any rank snapshot taken after an id was
//! interned therefore orders it correctly against every other id it is
//! compared with.

use aarray_obs::{counters, memstats, Counter, Gauge, MemRegion};
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Heap payload of a materialized string buffer: the string headers in
/// the `Arc` slice plus each string's character storage.
fn keys_heap_bytes(keys: &[String]) -> u64 {
    keys.iter()
        .map(|s| std::mem::size_of::<String>() + s.capacity())
        .sum::<usize>() as u64
}

/// Binary search of `xs`, ascending by `f`, for `key`, over a range
/// that doubles from the front until it passes `key`: `O(log i)` for an
/// answer at `i`. A walk of ascending keys through one slice, each
/// search starting past the last hit, so costs the sum of the gaps'
/// logarithms, never more than a binary search per key. Results as
/// [`slice::binary_search_by_key`].
fn gallop_by_key<T, K: Ord>(xs: &[T], key: &K, f: impl Fn(&T) -> K) -> Result<usize, usize> {
    let mut end = 1;
    while end <= xs.len() && f(&xs[end - 1]) < *key {
        end *= 2;
    }
    // `xs[start - 1] < key`, and `xs[end - 1] >= key` unless `end` passed
    // the slice.
    let start = end / 2;
    let end = end.min(xs.len());
    xs[start..end]
        .binary_search_by_key(key, f)
        .map(|i| start + i)
        .map_err(|i| start + i)
}

/// Approximate heap cost of one dictionary entry: character payload
/// plus the `Arc<str>` header, the two `Arc` handles (hash-map key and
/// id table), the map value, and one `u32` slot in each of the three
/// id tables. Deliberately approximate, like all memstats accounting.
fn dict_entry_bytes(s: &str) -> u64 {
    s.len() as u64 + 16 + 2 * 16 + 4 + 3 * 4
}

/// Mutex-protected state of a [`KeyDict`].
struct DictInner {
    /// Interned string → id.
    map: HashMap<Arc<str>, u32>,
    /// id → interned string (dense: id `i` lives at index `i`).
    strings: Vec<Arc<str>>,
    /// All ids in lexicographic string order.
    sorted: Vec<u32>,
    /// id → rank (position in `sorted`). Shared snapshot: replaced
    /// wholesale on growth so readers never see a half-updated table.
    ranks: Arc<[u32]>,
    /// Approximate heap bytes held by the dictionary.
    bytes: u64,
}

/// A string-interning dictionary mapping keys to dense `u32` ids.
///
/// Ids are assigned in first-intern order and never change or get
/// recycled; the dictionary only grows. Alongside the id assignment it
/// maintains a *rank table* (`id → lexicographic position`), which is
/// what lets [`KeySet`] run ordered merges entirely in integer space.
///
/// Most code uses the process-global dictionary implicitly through
/// [`KeySet::from_iter`]; private dictionaries ([`KeyDict::new`]) exist
/// for tests and for isolating id spaces.
pub struct KeyDict {
    inner: Mutex<DictInner>,
    /// Whether growth publishes [`Gauge::InternDictBytes`] (only the
    /// process-global dictionary does, so private test dicts don't
    /// clobber the gauge).
    publish_bytes: bool,
}

impl KeyDict {
    fn with_publish(publish_bytes: bool) -> KeyDict {
        KeyDict {
            inner: Mutex::new(DictInner {
                map: HashMap::new(),
                strings: Vec::new(),
                sorted: Vec::new(),
                ranks: Arc::from(Vec::new()),
                bytes: 0,
            }),
            publish_bytes,
        }
    }

    /// A fresh private dictionary with its own id space.
    #[allow(clippy::new_ret_no_self)]
    pub fn new() -> Arc<KeyDict> {
        Arc::new(KeyDict::with_publish(false))
    }

    /// The process-global dictionary every default-constructed
    /// [`KeySet`] interns into.
    pub fn global() -> &'static Arc<KeyDict> {
        static GLOBAL: OnceLock<Arc<KeyDict>> = OnceLock::new();
        GLOBAL.get_or_init(|| Arc::new(KeyDict::with_publish(true)))
    }

    /// Intern a sorted, deduplicated batch of keys, returning their ids
    /// (in input order, i.e. lexicographic order). Records
    /// [`Counter::InternHit`] / [`Counter::InternMiss`] per key and, on
    /// growth, rebuilds the rank snapshot and (for the global dict)
    /// publishes [`Gauge::InternDictBytes`].
    fn intern_sorted(&self, keys: &[String]) -> Vec<u32> {
        let mut inner = self.inner.lock().unwrap();
        let mut ids = Vec::with_capacity(keys.len());
        let mut fresh: Vec<u32> = Vec::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        for k in keys {
            if let Some(&id) = inner.map.get(k.as_str()) {
                hits += 1;
                ids.push(id);
            } else {
                misses += 1;
                let id = inner.strings.len() as u32;
                let s: Arc<str> = Arc::from(k.as_str());
                inner.bytes += dict_entry_bytes(k);
                inner.strings.push(s.clone());
                inner.map.insert(s, id);
                ids.push(id);
                fresh.push(id);
            }
        }
        if hits > 0 {
            counters().add(Counter::InternHit, hits);
        }
        if misses > 0 {
            counters().add(Counter::InternMiss, misses);
        }
        if !fresh.is_empty() {
            // Splice the fresh ids into the lex-ordered table: binary
            // search each insertion point (O(B log D) string compares),
            // then rebuild in one integer pass. `fresh` is itself in
            // string order because the input batch was sorted.
            let inner = &mut *inner;
            let ins: Vec<(usize, u32)> = fresh
                .iter()
                .map(|&id| {
                    let s = &inner.strings[id as usize];
                    let pos = inner
                        .sorted
                        .binary_search_by(|&sid| inner.strings[sid as usize].cmp(s))
                        .unwrap_err();
                    (pos, id)
                })
                .collect();
            let mut new_sorted = Vec::with_capacity(inner.sorted.len() + ins.len());
            let mut prev = 0usize;
            for (pos, id) in ins {
                new_sorted.extend_from_slice(&inner.sorted[prev..pos]);
                new_sorted.push(id);
                prev = pos;
            }
            new_sorted.extend_from_slice(&inner.sorted[prev..]);
            let mut ranks = vec![0u32; inner.strings.len()];
            for (r, &id) in new_sorted.iter().enumerate() {
                ranks[id as usize] = r as u32;
            }
            inner.sorted = new_sorted;
            inner.ranks = ranks.into();
            if self.publish_bytes {
                counters().store(Gauge::InternDictBytes, inner.bytes);
            }
        }
        ids
    }

    /// Current rank snapshot (`id → lexicographic position`). Valid for
    /// every id interned before the call; relative order of existing
    /// ids never changes as the dictionary grows.
    fn ranks(&self) -> Arc<[u32]> {
        self.inner.lock().unwrap().ranks.clone()
    }

    /// Id of `key`, if interned.
    pub fn lookup(&self, key: &str) -> Option<u32> {
        self.inner.lock().unwrap().map.get(key).copied()
    }

    /// Materialize `ids` back to owned strings.
    pub fn resolve(&self, ids: &[u32]) -> Vec<String> {
        let inner = self.inner.lock().unwrap();
        ids.iter()
            .map(|&id| inner.strings[id as usize].to_string())
            .collect()
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().strings.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate heap bytes held by the dictionary.
    pub fn heap_bytes(&self) -> u64 {
        self.inner.lock().unwrap().bytes
    }
}

impl fmt::Debug for KeyDict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyDict").field("len", &self.len()).finish()
    }
}

/// A finite, totally-ordered set of string keys, stored as dense
/// integer ids into a [`KeyDict`].
///
/// `ids` is sorted by the dictionary's lexicographic rank, so position
/// `i` in the set corresponds to the `i`-th smallest key — exactly the
/// index that sparse-matrix rows and columns use. Strings are
/// materialized lazily by [`KeySet::keys`] and cached.
pub struct KeySet {
    dict: Arc<KeyDict>,
    /// Member ids, ascending by dictionary rank.
    ids: Arc<[u32]>,
    /// Lazily-materialized strings, ascending (same order as `ids`).
    strings: OnceLock<Arc<[String]>>,
}

/// Alias naming the post-interning representation explicitly, for call
/// sites that want to document they rely on integer-id semantics.
pub type InternedKeySet = KeySet;

impl Clone for KeySet {
    fn clone(&self) -> Self {
        KeySet {
            dict: self.dict.clone(),
            ids: self.ids.clone(),
            strings: self.strings.clone(),
        }
    }
}

impl Drop for KeySet {
    fn drop(&mut self) {
        // Accounting is per materialized buffer, not per handle: only
        // the last handle sharing a string cache releases its bytes.
        // (Concurrent last-drops can both observe count > 1 and skip
        // the free — the accounting is deliberately approximate, see
        // `aarray_obs::memstats`.)
        if let Some(cache) = self.strings.get() {
            if Arc::strong_count(cache) == 1 {
                memstats().free(MemRegion::KeySetInterned, keys_heap_bytes(cache));
            }
        }
    }
}

impl PartialEq for KeySet {
    fn eq(&self, other: &Self) -> bool {
        if Arc::ptr_eq(&self.dict, &other.dict) {
            // Same id space: compare ids (O(1) when storage is shared,
            // an integer memcmp otherwise — never a string walk).
            Arc::ptr_eq(&self.ids, &other.ids) || self.ids == other.ids
        } else {
            self.keys() == other.keys()
        }
    }
}

impl Eq for KeySet {}

impl fmt::Debug for KeySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeySet({:?})", self.keys())
    }
}

impl KeySet {
    /// Wrap freshly-interned ids together with the string buffer they
    /// came from, pre-seeding the cache (and its
    /// [`MemRegion::KeySetInterned`] accounting) so construction-time
    /// callers keep free access to the strings they just supplied.
    fn from_vec(dict: Arc<KeyDict>, keys: Vec<String>) -> Self {
        let ids = dict.intern_sorted(&keys);
        memstats().alloc(MemRegion::KeySetInterned, keys_heap_bytes(&keys));
        let strings = OnceLock::new();
        let _ = strings.set(Arc::from(keys));
        KeySet {
            dict,
            ids: ids.into(),
            strings,
        }
    }

    /// Wrap ids already known to be rank-sorted members of `dict`,
    /// without materializing strings. This is what keeps set-algebra
    /// results (intersections, unions) string-free on the hot path.
    fn from_ids(dict: Arc<KeyDict>, ids: Vec<u32>) -> Self {
        KeySet {
            dict,
            ids: ids.into(),
            strings: OnceLock::new(),
        }
    }

    /// Build from any iterator of keys: sorted, deduplicated, and
    /// interned into the process-global [`KeyDict`]. (Deliberately
    /// named like `FromIterator::from_iter`; a blanket `FromIterator`
    /// impl is also provided for `collect()`.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I, S>(keys: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        KeySet::from_iter_with_dict(KeyDict::global(), keys)
    }

    /// Like [`KeySet::from_iter`], but interning into a caller-supplied
    /// dictionary (its own id space). Sets from different dictionaries
    /// interoperate through the string fall-back paths.
    pub fn from_iter_with_dict<I, S>(dict: &Arc<KeyDict>, keys: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut v: Vec<String> = keys.into_iter().map(Into::into).collect();
        v.sort();
        v.dedup();
        KeySet::from_vec(dict.clone(), v)
    }

    /// Build from a vector already known to be sorted and unique.
    ///
    /// The contract is debug-asserted, and additionally guarded by an
    /// always-on cheap sortedness check: a malformed caller in release
    /// builds gets its input repaired (sort + dedup) rather than being
    /// allowed to corrupt id-space invariants, with the violation
    /// recorded in [`Counter::KeysSortRepair`] and warned once on
    /// stderr.
    pub fn from_sorted_unique(mut keys: Vec<String>) -> Self {
        let sorted = keys.windows(2).all(|w| w[0] < w[1]);
        debug_assert!(sorted, "keys must be sorted unique");
        if !sorted {
            counters().incr(Counter::KeysSortRepair);
            static WARNED: AtomicBool = AtomicBool::new(false);
            if !WARNED.swap(true, Ordering::Relaxed) {
                eprintln!(
                    "aarray: warning: KeySet::from_sorted_unique received keys that \
                     were not sorted unique; repaired (caller bug)"
                );
            }
            keys.sort();
            keys.dedup();
        }
        KeySet::from_vec(KeyDict::global().clone(), keys)
    }

    /// Build from keys in any order, duplicates allowed, and return
    /// with the set every input key's position in it.
    ///
    /// Input that is already sorted and unique takes the identity map
    /// after one linear check. Otherwise only a permutation of indices
    /// is sorted, and each distinct key is kept once.
    ///
    /// ```
    /// use aarray_core::KeySet;
    /// let (set, pos) = KeySet::with_positions(vec!["b".into(), "a".into(), "b".into()]);
    /// assert_eq!(set.keys(), &["a", "b"]);
    /// assert_eq!(pos, vec![1, 0, 1]);
    /// ```
    pub fn with_positions(mut keys: Vec<String>) -> (Self, Vec<u32>) {
        let n = u32::try_from(keys.len()).expect("key count exceeds u32 index space");
        if keys.windows(2).all(|w| w[0] < w[1]) {
            return (
                KeySet::from_vec(KeyDict::global().clone(), keys),
                (0..n).collect(),
            );
        }
        let mut order: Vec<u32> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| keys[a as usize].cmp(&keys[b as usize]));
        let mut positions = vec![0u32; keys.len()];
        let mut sorted: Vec<String> = Vec::new();
        for i in order {
            let key = std::mem::take(&mut keys[i as usize]);
            if sorted.last() != Some(&key) {
                sorted.push(key);
            }
            positions[i as usize] = (sorted.len() - 1) as u32;
        }
        (
            KeySet::from_vec(KeyDict::global().clone(), sorted),
            positions,
        )
    }

    /// The empty key set.
    pub fn empty() -> Self {
        // Zero heap payload: nothing to intern or report.
        KeySet::from_ids(KeyDict::global().clone(), Vec::new())
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The dictionary ids of the member keys, ascending by rank.
    pub fn ids(&self) -> &[u32] {
        &self.ids
    }

    /// The dictionary this set's ids live in.
    pub fn dict(&self) -> &Arc<KeyDict> {
        &self.dict
    }

    /// The keys, ascending. Materializes (and caches) the strings on
    /// first call — display/export boundaries pay this once; integer
    /// set algebra never does.
    pub fn keys(&self) -> &[String] {
        self.strings.get_or_init(|| {
            let v = self.dict.resolve(&self.ids);
            memstats().alloc(MemRegion::KeySetInterned, keys_heap_bytes(&v));
            Arc::from(v)
        })
    }

    /// Key at position `i`.
    pub fn key(&self, i: usize) -> &str {
        &self.keys()[i]
    }

    /// Position of `key`, if present: one dictionary hash lookup plus
    /// an integer binary search over ranks — no string comparisons
    /// against the members.
    pub fn index_of(&self, key: &str) -> Option<usize> {
        let id = self.dict.lookup(key)?;
        let ranks = self.dict.ranks();
        let target = ranks[id as usize];
        self.ids
            .binary_search_by_key(&target, |&m| ranks[m as usize])
            .ok()
    }

    /// Whether `key` is present.
    pub fn contains(&self, key: &str) -> bool {
        self.index_of(key).is_some()
    }

    /// Intersection with another key set, returning
    /// `(keys, idx_in_self, idx_in_other)` — the alignment map array
    /// multiplication needs.
    ///
    /// Fast paths (all exercised constantly by multiplication, which
    /// intersects inner key sets on every call): shared id storage, one
    /// set a contiguous prefix of the other, and disjoint rank ranges
    /// all skip the merge walk; the general same-dictionary case is an
    /// integer rank-merge with zero string comparisons. Only sets from
    /// *different* dictionaries fall back to the string merge walk.
    ///
    /// Every call records which path served it in the [`aarray_obs`]
    /// counter registry ([`Counter::IntersectArcIdentity`] /
    /// [`Counter::IntersectPrefix`] / [`Counter::IntersectDisjointRange`]
    /// / [`Counter::IntersectIdSpace`] / [`Counter::IntersectMerge`]),
    /// so fast-path coverage is observable on real workloads.
    pub fn intersect(&self, other: &KeySet) -> (KeySet, Vec<usize>, Vec<usize>) {
        let (path, aligned) = self.intersect_path(other);
        counters().incr(path);
        aligned
    }

    /// [`KeySet::intersect`] without the registry update: its result and
    /// the counter of the path that served it. `intersect` adds that
    /// counter; a test reads it here, where other threads' intersects
    /// cannot reach it.
    pub(crate) fn intersect_path(
        &self,
        other: &KeySet,
    ) -> (Counter, (KeySet, Vec<usize>, Vec<usize>)) {
        let (short, long) = if self.len() <= other.len() {
            (self, other)
        } else {
            (other, self)
        };
        let same_dict = Arc::ptr_eq(&self.dict, &other.dict);
        if same_dict {
            // Shared storage: the common keys are exactly the (either)
            // set, and both index maps are the identity.
            if Arc::ptr_eq(&self.ids, &other.ids) {
                let idx: Vec<usize> = (0..short.len()).collect();
                return (
                    Counter::IntersectArcIdentity,
                    (short.clone(), idx.clone(), idx),
                );
            }
            // One set a contiguous prefix of the other (subsumes
            // equal-but-distinct storage and the empty set): identity
            // maps. An integer memcmp, so a failed probe costs less
            // than starting the merge walk.
            if short.ids[..] == long.ids[..short.len()] {
                let idx: Vec<usize> = (0..short.len()).collect();
                return (Counter::IntersectPrefix, (short.clone(), idx.clone(), idx));
            }
            let ranks = self.dict.ranks();
            let rank = |id: u32| ranks[id as usize];
            // Disjoint rank ranges (frequent when aligning arrays over
            // unrelated attribute families): nothing can match. Both
            // sets are non-empty here — empty hit the prefix path.
            if rank(self.ids[self.len() - 1]) < rank(other.ids[0])
                || rank(other.ids[other.len() - 1]) < rank(self.ids[0])
            {
                let none = (KeySet::empty(), Vec::new(), Vec::new());
                return (Counter::IntersectDisjointRange, none);
            }
            // General case: merge walk on integer ranks.
            let mut ids = Vec::new();
            let mut left = Vec::new();
            let mut right = Vec::new();
            let (mut i, mut j) = (0usize, 0usize);
            while i < self.len() && j < other.len() {
                let (a, b) = (self.ids[i], other.ids[j]);
                if a == b {
                    ids.push(a);
                    left.push(i);
                    right.push(j);
                    i += 1;
                    j += 1;
                } else if rank(a) < rank(b) {
                    i += 1;
                } else {
                    j += 1;
                }
            }
            let common = KeySet::from_ids(self.dict.clone(), ids);
            return (Counter::IntersectIdSpace, (common, left, right));
        }

        // Cross-dictionary: ids are incomparable, fall back to the
        // string merge walk. The result keeps `self`'s dictionary and
        // reuses `self`'s ids for the matched keys.
        let (a, b) = (self.keys(), other.keys());
        let mut ids = Vec::new();
        let mut left = Vec::new();
        let mut right = Vec::new();
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    ids.push(self.ids[i]);
                    left.push(i);
                    right.push(j);
                    i += 1;
                    j += 1;
                }
            }
        }
        let common = KeySet::from_ids(self.dict.clone(), ids);
        (Counter::IntersectMerge, (common, left, right))
    }

    /// Union with another key set.
    ///
    /// Same-dictionary unions run as integer rank merges, and when one
    /// side already contains the other the *original handle* is
    /// returned (`Arc`-identity preserved) — which is what lets
    /// repeatedly-grown incidence arrays keep sharing one edge key set
    /// and their multiplication plans align in O(1).
    pub fn union(&self, other: &KeySet) -> KeySet {
        if Arc::ptr_eq(&self.dict, &other.dict) {
            if Arc::ptr_eq(&self.ids, &other.ids) {
                return self.clone();
            }
            let ranks = self.dict.ranks();
            let rank = |id: u32| ranks[id as usize];
            let mut ids = Vec::with_capacity(self.len() + other.len());
            let (mut i, mut j) = (0usize, 0usize);
            while i < self.len() || j < other.len() {
                if j >= other.len() {
                    ids.push(self.ids[i]);
                    i += 1;
                } else if i >= self.len() {
                    ids.push(other.ids[j]);
                    j += 1;
                } else {
                    let (a, b) = (self.ids[i], other.ids[j]);
                    if a == b {
                        ids.push(a);
                        i += 1;
                        j += 1;
                    } else if rank(a) < rank(b) {
                        ids.push(a);
                        i += 1;
                    } else {
                        ids.push(b);
                        j += 1;
                    }
                }
            }
            // Subset unions return the superset handle itself so `Arc`
            // identity (and every downstream identity fast path)
            // survives.
            if ids.len() == self.len() {
                return self.clone();
            }
            if ids.len() == other.len() {
                return other.clone();
            }
            return KeySet::from_ids(self.dict.clone(), ids);
        }
        // Cross-dictionary: merge strings, interning the result into
        // `self`'s dictionary.
        let (a, b) = (self.keys(), other.keys());
        let mut keys = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() || j < b.len() {
            if j >= b.len() || (i < a.len() && a[i] < b[j]) {
                keys.push(a[i].clone());
                i += 1;
            } else if i >= a.len() || b[j] < a[i] {
                keys.push(b[j].clone());
                j += 1;
            } else {
                keys.push(a[i].clone());
                i += 1;
                j += 1;
            }
        }
        KeySet::from_vec(self.dict.clone(), keys)
    }

    /// Union of many key sets at once, plus, for every input, the
    /// positions of its keys in the union (strictly increasing, as from
    /// [`KeySet::positions_of`]).
    ///
    /// Shaped for one large set followed by many small ones — a
    /// cumulative incidence and its pending batches: the first set is
    /// walked in place and only the members of the rest are sorted, so
    /// a same-dictionary call costs `O(|first| + R log R)` for `R`
    /// members in the rest. As with [`KeySet::union`], a union that adds
    /// nothing to the first set returns its handle.
    pub(crate) fn union_many(sets: &[&KeySet]) -> (KeySet, Vec<Vec<usize>>) {
        let (&first, rest) = sets.split_first().expect("union_many needs a first set");
        if rest.iter().any(|s| !Arc::ptr_eq(&s.dict, &first.dict)) {
            // Cross-dictionary: pairwise string-merge unions.
            let union = rest.iter().fold(first.clone(), |u, s| u.union(s));
            let maps = sets.iter().map(|s| union.positions_of(s)).collect();
            return (union, maps);
        }
        let ranks = first.dict.ranks();
        let rank = |id: u32| ranks[id as usize];
        // `(rank, set, position)` of every member of the rest, ascending.
        let mut tail: Vec<(u32, usize, usize)> = rest
            .iter()
            .enumerate()
            .flat_map(|(s, set)| {
                set.ids
                    .iter()
                    .enumerate()
                    .map(move |(i, &id)| (rank(id), s + 1, i))
            })
            .collect();
        tail.sort_unstable();
        let mut ids = Vec::with_capacity(first.len() + tail.len());
        let mut maps: Vec<Vec<usize>> = sets.iter().map(|s| vec![0; s.len()]).collect();
        let (mut i, mut t, mut last_rank) = (0usize, 0usize, None);
        while i < first.len() || t < tail.len() {
            let from_first =
                t == tail.len() || (i < first.len() && rank(first.ids[i]) <= tail[t].0);
            let (r, s, j) = if from_first {
                i += 1;
                (rank(first.ids[i - 1]), 0, i - 1)
            } else {
                t += 1;
                tail[t - 1]
            };
            if last_rank != Some(r) {
                ids.push(sets[s].ids[j]);
                last_rank = Some(r);
            }
            maps[s][j] = ids.len() - 1;
        }
        if ids.len() == first.len() {
            return (first.clone(), maps);
        }
        (KeySet::from_ids(first.dict.clone(), ids), maps)
    }

    /// For every position in `from`, the position of the same key in
    /// `self` (or `None`). One linear integer walk for same-dictionary
    /// sets; the precomputed map replaces per-entry
    /// [`KeySet::index_of`] binary searches in alignment paths.
    pub fn index_map(&self, from: &KeySet) -> Vec<Option<usize>> {
        let mut out = vec![None; from.len()];
        if Arc::ptr_eq(&self.dict, &from.dict) {
            let ranks = self.dict.ranks();
            let rank = |id: u32| ranks[id as usize];
            let (mut i, mut j) = (0usize, 0usize);
            while i < self.len() && j < from.len() {
                let (a, b) = (self.ids[i], from.ids[j]);
                if a == b {
                    out[j] = Some(i);
                    i += 1;
                    j += 1;
                } else if rank(a) < rank(b) {
                    i += 1;
                } else {
                    j += 1;
                }
            }
        } else {
            let (a, b) = (self.keys(), from.keys());
            let (mut i, mut j) = (0usize, 0usize);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    std::cmp::Ordering::Less => i += 1,
                    std::cmp::Ordering::Greater => j += 1,
                    std::cmp::Ordering::Equal => {
                        out[j] = Some(i);
                        i += 1;
                        j += 1;
                    }
                }
            }
        }
        out
    }

    /// Positions in `self` of every key of `subset`, which must be a
    /// subset of `self` (panics otherwise). The returned map is
    /// strictly increasing — both sets are rank-sorted — which is what
    /// lets CSR rebuilds copy rows directly instead of re-sorting.
    pub fn positions_of(&self, subset: &KeySet) -> Vec<usize> {
        self.index_map(subset)
            .into_iter()
            .map(|p| p.expect("positions_of: superset must contain every subset key"))
            .collect()
    }

    /// Positions in `self` of every key of `subset`, found by one
    /// search by rank per key over the part of `self` past the last hit
    /// ([`gallop_by_key`]): at most `O(|subset| log |self|)`, and `self`
    /// is never walked, unlike [`KeySet::positions_of`]. `None` when
    /// `self` lacks a key of `subset`, or `subset` lives in another
    /// dictionary.
    pub(crate) fn find_positions(&self, subset: &KeySet) -> Option<Vec<usize>> {
        if !Arc::ptr_eq(&self.dict, &subset.dict) {
            return None;
        }
        let ranks = self.dict.ranks();
        let rank = |id: &u32| ranks[*id as usize];
        let mut positions = Vec::with_capacity(subset.len());
        let mut lo = 0;
        for id in subset.ids.iter() {
            lo += gallop_by_key(&self.ids[lo..], &rank(id), rank).ok()?;
            positions.push(lo);
            lo += 1;
        }
        Some(positions)
    }

    /// Whether every key in `self` sorts strictly after every key in
    /// `other` (vacuously true when either is empty) — the append-only
    /// contract check for incremental batches, in integer space.
    pub fn all_after(&self, other: &KeySet) -> bool {
        if self.is_empty() || other.is_empty() {
            return true;
        }
        if Arc::ptr_eq(&self.dict, &other.dict) {
            let ranks = self.dict.ranks();
            ranks[self.ids[0] as usize] > ranks[other.ids[other.len() - 1] as usize]
        } else {
            self.key(0) > other.key(other.len() - 1)
        }
    }

    /// Whether some key in `self` sorts strictly after every key in
    /// `other`, i.e. `self`'s largest key is larger than `other`'s
    /// (true when only `other` is empty, false when `self` is) — one
    /// integer comparison for same-dictionary sets.
    pub(crate) fn any_after(&self, other: &KeySet) -> bool {
        if self.is_empty() || other.is_empty() {
            return !self.is_empty();
        }
        if Arc::ptr_eq(&self.dict, &other.dict) {
            let ranks = self.dict.ranks();
            ranks[self.ids[self.len() - 1] as usize] > ranks[other.ids[other.len() - 1] as usize]
        } else {
            self.key(self.len() - 1) > other.key(other.len() - 1)
        }
    }

    /// The ids of this set's keys in `dict`, ascending by rank: the set's
    /// own ids when `dict` is its dictionary, else its keys interned
    /// into `dict`.
    pub(crate) fn ids_in(&self, dict: &Arc<KeyDict>) -> Cow<'_, [u32]> {
        if Arc::ptr_eq(&self.dict, dict) {
            Cow::Borrowed(&self.ids)
        } else {
            Cow::Owned(dict.intern_sorted(self.keys()))
        }
    }

    /// Indices of keys matched by a selection, ascending.
    ///
    /// Range semantics: bounds are inclusive; an **empty** `lo` or `hi`
    /// is unbounded on that side; reversed bounds (`lo > hi`, both
    /// non-empty) select nothing.
    pub fn select(&self, sel: &KeySelect) -> Vec<usize> {
        match sel {
            KeySelect::All => (0..self.len()).collect(),
            KeySelect::Range { lo, hi } => {
                if !lo.is_empty() && !hi.is_empty() && lo > hi {
                    return Vec::new();
                }
                let keys = self.keys();
                let start = if lo.is_empty() {
                    0
                } else {
                    keys.partition_point(|k| k.as_str() < lo.as_str())
                };
                let end = if hi.is_empty() {
                    keys.len()
                } else {
                    keys.partition_point(|k| k.as_str() <= hi.as_str())
                };
                (start..end).collect()
            }
            KeySelect::Prefix(p) => {
                let keys = self.keys();
                (0..self.len())
                    .filter(|&i| keys[i].starts_with(p.as_str()))
                    .collect()
            }
            KeySelect::List(list) => {
                let mut idx: Vec<usize> = list.iter().filter_map(|k| self.index_of(k)).collect();
                idx.sort_unstable();
                idx.dedup();
                idx
            }
        }
    }
}

impl<S: Into<String>> FromIterator<S> for KeySet {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        // Resolves to the inherent constructor (inherent methods win).
        KeySet::from_iter(iter)
    }
}

impl fmt::Display for KeySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.keys().join(", "))
    }
}

/// A D4M/Matlab-style key selection, parsed by [`KeySelect::parse`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeySelect {
    /// `:` — every key.
    All,
    /// `lo : hi` — the inclusive lexicographic range, as in the paper's
    /// `E(:, 'Genre|A : Genre|Z')`. An empty bound is unbounded on that
    /// side; reversed non-empty bounds select nothing.
    Range {
        /// Lower bound (inclusive); empty = unbounded below.
        lo: String,
        /// Upper bound (inclusive); empty = unbounded above.
        hi: String,
    },
    /// `prefix|*` — every key starting with `prefix|`.
    Prefix(String),
    /// An explicit key list.
    List(Vec<String>),
}

impl KeySelect {
    /// Parse D4M selection syntax:
    ///
    /// * `":"` → [`KeySelect::All`]
    /// * `"a : b"` (spaces around `:` required, so keys containing `:`
    ///   still parse) → inclusive [`KeySelect::Range`]; either side may
    ///   be empty for a half-open range (`" : b"`, `"a : "`)
    /// * `"pre*"` → [`KeySelect::Prefix`] `"pre"`
    /// * anything else → singleton [`KeySelect::List`]
    ///
    /// ```
    /// use aarray_core::KeySelect;
    /// assert_eq!(KeySelect::parse(":"), KeySelect::All);
    /// assert_eq!(
    ///     KeySelect::parse("Genre|A : Genre|Z"),
    ///     KeySelect::Range { lo: "Genre|A".into(), hi: "Genre|Z".into() }
    /// );
    /// assert_eq!(
    ///     KeySelect::parse(" : Genre|Z"),
    ///     KeySelect::Range { lo: "".into(), hi: "Genre|Z".into() }
    /// );
    /// assert_eq!(KeySelect::parse("Writer|*"), KeySelect::Prefix("Writer|".into()));
    /// ```
    pub fn parse(s: &str) -> KeySelect {
        let t = s.trim();
        if t == ":" {
            return KeySelect::All;
        }
        // Split the *raw* string so an empty bound (`" : hi"`) is not
        // trimmed away before the separator is found.
        if let Some((lo, hi)) = s.split_once(" : ") {
            return KeySelect::Range {
                lo: lo.trim().to_string(),
                hi: hi.trim().to_string(),
            };
        }
        if let Some(prefix) = t.strip_suffix('*') {
            return KeySelect::Prefix(prefix.to_string());
        }
        KeySelect::List(vec![t.to_string()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_iter_sorts_and_dedups() {
        let ks = KeySet::from_iter(["b", "a", "b", "c"]);
        assert_eq!(ks.keys(), &["a", "b", "c"]);
        assert_eq!(ks.len(), 3);
        assert_eq!(ks.index_of("b"), Some(1));
        assert_eq!(ks.index_of("z"), None);
        assert!(ks.contains("c"));
    }

    #[test]
    fn ids_are_rank_sorted_and_resolve_back() {
        let ks = KeySet::from_iter(["delta", "alpha", "mike"]);
        assert_eq!(ks.ids().len(), 3);
        let resolved = ks.dict().resolve(ks.ids());
        assert_eq!(resolved, vec!["alpha", "delta", "mike"]);
        // Re-interning the same keys yields the identical ids.
        let again = KeySet::from_iter(["alpha", "delta", "mike"]);
        assert_eq!(ks.ids(), again.ids());
        assert_eq!(ks, again);
    }

    #[test]
    fn union_many_merges_and_maps_every_input() {
        let base = KeySet::from_iter(["b", "d", "f"]);
        let x = KeySet::from_iter(["a", "d"]);
        let y = KeySet::from_iter(["g", "a", "c"]);
        let (u, maps) = KeySet::union_many(&[&base, &x, &y]);
        assert_eq!(u.keys(), &["a", "b", "c", "d", "f", "g"]);
        assert_eq!(maps, vec![vec![1, 3, 4], vec![0, 3], vec![0, 2, 5]]);
        for (set, map) in [&base, &x, &y].into_iter().zip(&maps) {
            assert_eq!(&u.positions_of(set), map);
        }
        // Adding nothing new returns the first set's own handle.
        let (same, _) = KeySet::union_many(&[&base, &KeySet::from_iter(["d"])]);
        assert!(Arc::ptr_eq(&same.ids, &base.ids));
        // Cross-dictionary inputs agree with pairwise union.
        let other = KeySet::from_iter_with_dict(&KeyDict::new(), ["c", "z"]);
        let (mixed, maps) = KeySet::union_many(&[&base, &other]);
        assert_eq!(mixed.keys(), &["b", "c", "d", "f", "z"]);
        assert_eq!(maps[1], vec![1, 4]);
    }

    #[test]
    fn intersect_alignment() {
        let a = KeySet::from_iter(["a", "b", "d", "e"]);
        let b = KeySet::from_iter(["b", "c", "d"]);
        let (common, ia, ib) = a.intersect(&b);
        assert_eq!(common.keys(), &["b", "d"]);
        assert_eq!(ia, vec![1, 2]);
        assert_eq!(ib, vec![0, 2]);
    }

    #[test]
    fn intersect_same_storage_shares_arc_and_is_identity() {
        let a = KeySet::from_iter(["a", "b", "c"]);
        let b = a.clone(); // same Arc
        let (common, ia, ib) = a.intersect(&b);
        assert!(Arc::ptr_eq(&common.ids, &a.ids), "no new allocation");
        assert_eq!(ia, vec![0, 1, 2]);
        assert_eq!(ib, vec![0, 1, 2]);
    }

    #[test]
    fn intersect_equal_but_distinct_storage() {
        let a = KeySet::from_iter(["a", "b"]);
        let b = KeySet::from_iter(["a", "b"]);
        let (common, ia, ib) = a.intersect(&b);
        assert_eq!(common.keys(), a.keys());
        assert!(
            Arc::ptr_eq(&common.ids, &a.ids) || Arc::ptr_eq(&common.ids, &b.ids),
            "equality fast path must reuse one side's storage"
        );
        assert_eq!(ia, vec![0, 1]);
        assert_eq!(ib, vec![0, 1]);
    }

    #[test]
    fn intersect_with_empty_is_empty() {
        let a = KeySet::from_iter(["a", "b"]);
        let e = KeySet::empty();
        for (x, y) in [(&a, &e), (&e, &a), (&e, &e)] {
            let (common, ia, ib) = x.intersect(y);
            assert!(common.is_empty());
            assert!(ia.is_empty() && ib.is_empty());
        }
    }

    #[test]
    fn intersect_prefix_subset_and_superset() {
        let sub = KeySet::from_iter(["a", "b"]);
        let sup = KeySet::from_iter(["a", "b", "c", "d"]);
        // subset ⊂ superset as a contiguous prefix: identity maps.
        let (common, ia, ib) = sub.intersect(&sup);
        assert!(Arc::ptr_eq(&common.ids, &sub.ids));
        assert_eq!(ia, vec![0, 1]);
        assert_eq!(ib, vec![0, 1]);
        // And the mirrored superset.intersect(subset).
        let (common, ia, ib) = sup.intersect(&sub);
        assert!(Arc::ptr_eq(&common.ids, &sub.ids));
        assert_eq!(ia, vec![0, 1]);
        assert_eq!(ib, vec![0, 1]);
    }

    #[test]
    fn intersect_non_prefix_subset_takes_id_walk() {
        // A subset that is not a contiguous prefix must fall through to
        // the general walk and still produce correct (non-identity) maps.
        let sub = KeySet::from_iter(["b", "d"]);
        let sup = KeySet::from_iter(["a", "b", "c", "d"]);
        let (common, ia, ib) = sub.intersect(&sup);
        assert_eq!(common.keys(), &["b", "d"]);
        assert_eq!(ia, vec![0, 1]);
        assert_eq!(ib, vec![1, 3]);
    }

    #[test]
    fn intersect_disjoint_ranges_short_circuit() {
        let lo = KeySet::from_iter(["a", "b"]);
        let hi = KeySet::from_iter(["x", "y"]);
        for (x, y) in [(&lo, &hi), (&hi, &lo)] {
            let (common, ia, ib) = x.intersect(y);
            assert!(common.is_empty());
            assert!(ia.is_empty() && ib.is_empty());
        }
        // Interleaved-but-disjoint sets must NOT hit the range check.
        let odd = KeySet::from_iter(["a", "c"]);
        let even = KeySet::from_iter(["b", "d"]);
        let (common, _, _) = odd.intersect(&even);
        assert!(common.is_empty());
    }

    /// Run `f` and return the per-variant intersect counter deltas
    /// `(arc, prefix, disjoint, id_space, merge)`. Asserted with `>=`
    /// because the registry is process-global and other tests in this
    /// binary also intersect key sets concurrently.
    fn intersect_deltas(f: impl FnOnce()) -> (u64, u64, u64, u64, u64) {
        let before = aarray_obs::snapshot();
        f();
        let d = aarray_obs::snapshot().since(&before);
        (
            d.get(aarray_obs::Counter::IntersectArcIdentity),
            d.get(aarray_obs::Counter::IntersectPrefix),
            d.get(aarray_obs::Counter::IntersectDisjointRange),
            d.get(aarray_obs::Counter::IntersectIdSpace),
            d.get(aarray_obs::Counter::IntersectMerge),
        )
    }

    #[test]
    fn counters_see_arc_identity_path() {
        let a = KeySet::from_iter(["a", "b", "c"]);
        let b = a.clone();
        let (arc, ..) = intersect_deltas(|| {
            let _ = a.intersect(&b);
        });
        assert!(arc >= 1, "Arc-identity path must fire for shared storage");
    }

    #[test]
    fn counters_see_prefix_path() {
        let sub = KeySet::from_iter(["a", "b"]);
        let sup = KeySet::from_iter(["a", "b", "c", "d"]);
        let (_, prefix, ..) = intersect_deltas(|| {
            let _ = sub.intersect(&sup);
            let _ = sup.intersect(&sub);
        });
        assert!(prefix >= 2, "prefix path must fire in both orientations");
    }

    #[test]
    fn counters_see_disjoint_range_path() {
        let lo = KeySet::from_iter(["a", "b"]);
        let hi = KeySet::from_iter(["x", "y"]);
        let (_, _, disjoint, ..) = intersect_deltas(|| {
            let _ = lo.intersect(&hi);
        });
        assert!(disjoint >= 1, "disjoint-range path must fire");
    }

    #[test]
    fn counters_see_id_space_walk_for_interleaved_sets() {
        // Interleaved-but-overlapping, same dictionary: the integer
        // rank walk serves it — never the string merge. The path comes
        // back from this call itself: other tests bump the global
        // merge counter concurrently.
        let odd = KeySet::from_iter(["a", "c", "e"]);
        let mix = KeySet::from_iter(["b", "c", "f"]);
        let (path, (common, ia, ib)) = odd.intersect_path(&mix);
        assert_eq!(
            path,
            Counter::IntersectIdSpace,
            "same-dict sets never string-merge"
        );
        assert_eq!(common.keys(), &["c"]);
        assert_eq!((ia, ib), (vec![1], vec![1]));
    }

    #[test]
    fn counters_see_string_merge_for_cross_dict_sets() {
        let private = KeyDict::new();
        let a = KeySet::from_iter(["a", "c", "e"]);
        let b = KeySet::from_iter_with_dict(&private, ["b", "c", "e"]);
        let (_, _, _, _, merge) = intersect_deltas(|| {
            let (common, ia, ib) = a.intersect(&b);
            assert_eq!(common.keys(), &["c", "e"]);
            assert_eq!(ia, vec![1, 2]);
            assert_eq!(ib, vec![1, 2]);
        });
        assert!(merge >= 1, "cross-dict sets must take the string merge");
    }

    #[test]
    fn intern_counters_fire() {
        let before = aarray_obs::snapshot();
        let private = KeyDict::new();
        let _a = KeySet::from_iter_with_dict(&private, ["p", "q"]);
        let _b = KeySet::from_iter_with_dict(&private, ["p", "q", "r"]);
        let d = aarray_obs::snapshot().since(&before);
        assert!(d.get(Counter::InternMiss) >= 3, "3 distinct keys interned");
        assert!(d.get(Counter::InternHit) >= 2, "p and q re-interned");
        assert_eq!(private.len(), 3);
        assert!(private.heap_bytes() > 0);
    }

    #[test]
    fn global_dict_publishes_bytes_gauge() {
        let _ks = KeySet::from_iter(["gauge-probe-key"]);
        let snap = aarray_obs::snapshot();
        assert!(
            snap.gauge(Gauge::InternDictBytes) >= KeyDict::global().heap_bytes().min(1),
            "global dict growth must publish the bytes gauge"
        );
    }

    #[test]
    fn interned_bytes_are_accounted_per_buffer_not_per_handle() {
        let ks = KeySet::from_iter(["alpha", "beta", "gamma"]);
        let bytes = keys_heap_bytes(ks.keys());
        assert!(bytes > 0);
        // The buffer is live, so the region carries at least its bytes
        // (≥: other tests in this binary hold their own key sets).
        assert!(memstats().current(MemRegion::KeySetInterned) >= bytes);
        let peak_before_clone = memstats().peak(MemRegion::KeySetInterned);
        let clone = ks.clone();
        let shared_peak = memstats().peak(MemRegion::KeySetInterned);
        drop(clone);
        drop(ks);
        // A clone shares the Arc: peak moved only if *other* tests
        // allocated concurrently, never because of the clone itself.
        // (Exact equality would race, so just sanity-order the reads.)
        assert!(shared_peak >= peak_before_clone);
        assert!(memstats().peak(MemRegion::KeySetInterned) >= bytes);
    }

    #[test]
    fn union_merges() {
        let a = KeySet::from_iter(["a", "c"]);
        let b = KeySet::from_iter(["b", "c"]);
        assert_eq!(a.union(&b).keys(), &["a", "b", "c"]);
    }

    #[test]
    fn union_with_subset_preserves_arc_identity() {
        let sup = KeySet::from_iter(["a", "b", "c"]);
        let sub = KeySet::from_iter(["b"]);
        let u = sup.union(&sub);
        assert!(
            Arc::ptr_eq(&u.ids, &sup.ids),
            "superset union must return the original handle"
        );
        let u2 = sub.union(&sup);
        assert!(Arc::ptr_eq(&u2.ids, &sup.ids));
    }

    #[test]
    fn union_cross_dict_interns_into_left_dictionary() {
        let private = KeyDict::new();
        let a = KeySet::from_iter(["a", "c"]);
        let b = KeySet::from_iter_with_dict(&private, ["b", "c"]);
        let u = a.union(&b);
        assert_eq!(u.keys(), &["a", "b", "c"]);
        assert!(Arc::ptr_eq(u.dict(), a.dict()));
    }

    #[test]
    fn gallop_agrees_with_binary_search() {
        for len in 0..40u32 {
            let xs: Vec<u32> = (0..len).map(|i| 2 * i + 1).collect();
            for key in 0..2 * len + 3 {
                let want = xs.binary_search(&key);
                assert_eq!(gallop_by_key(&xs, &key, |&x| x), want, "{len} {key}");
            }
        }
    }

    #[test]
    fn index_map_and_positions_of() {
        let sup = KeySet::from_iter(["a", "b", "c", "d"]);
        let sub = KeySet::from_iter(["b", "d"]);
        assert_eq!(sup.index_map(&sub), vec![Some(1), Some(3)]);
        assert_eq!(sup.positions_of(&sub), vec![1, 3]);
        let other = KeySet::from_iter(["b", "x"]);
        assert_eq!(sup.index_map(&other), vec![Some(1), None]);
        // Cross-dict falls back to the string walk, same answers.
        let private = KeyDict::new();
        let foreign = KeySet::from_iter_with_dict(&private, ["b", "d"]);
        assert_eq!(sup.index_map(&foreign), vec![Some(1), Some(3)]);
        assert_eq!(sup.positions_of(&foreign), vec![1, 3]);
        // The rank search finds the same positions, but only for a
        // subset in the same dictionary.
        assert_eq!(sup.find_positions(&sub), Some(vec![1, 3]));
        assert_eq!(sup.find_positions(&KeySet::empty()), Some(vec![]));
        assert_eq!(sup.find_positions(&other), None);
        assert_eq!(sup.find_positions(&foreign), None);
    }

    #[test]
    #[should_panic(expected = "superset must contain")]
    fn positions_of_panics_on_non_subset() {
        let sup = KeySet::from_iter(["a", "b"]);
        let not_sub = KeySet::from_iter(["b", "z"]);
        let _ = sup.positions_of(&not_sub);
    }

    #[test]
    fn all_after_orders_batches() {
        let old = KeySet::from_iter(["e1", "e2"]);
        let next = KeySet::from_iter(["e3", "e4"]);
        assert!(next.all_after(&old));
        assert!(!old.all_after(&next));
        assert!(!next.all_after(&next));
        assert!(KeySet::empty().all_after(&old));
        assert!(next.all_after(&KeySet::empty()));
        // Cross-dict comparison falls back to strings.
        let private = KeyDict::new();
        let foreign = KeySet::from_iter_with_dict(&private, ["e9"]);
        assert!(foreign.all_after(&old));
    }

    #[test]
    fn any_after_compares_largest_keys() {
        let old = KeySet::from_iter(["e2", "e5"]);
        let straddling = KeySet::from_iter(["e1", "e7"]);
        assert!(straddling.any_after(&old));
        assert!(!straddling.all_after(&old));
        assert!(!old.any_after(&straddling));
        assert!(!old.any_after(&old), "strictly after");
        assert!(old.any_after(&KeySet::empty()));
        assert!(!KeySet::empty().any_after(&old));
        assert!(!KeySet::empty().any_after(&KeySet::empty()));
        let private = KeyDict::new();
        let foreign = KeySet::from_iter_with_dict(&private, ["e0", "e6"]);
        assert!(foreign.any_after(&old));
        assert!(!old.any_after(&foreign));
    }

    #[test]
    fn ids_in_borrows_own_ids_and_interns_foreign_keys() {
        let set = KeySet::from_iter(["k2", "k1"]);
        let own = set.ids_in(set.dict());
        assert!(matches!(own, Cow::Borrowed(_)));
        assert_eq!(&own[..], set.ids());
        let private = KeyDict::new();
        let mapped = set.ids_in(&private);
        assert_eq!(private.resolve(&mapped), ["k1", "k2"], "rank order");
        // Interning is idempotent: the same keys map to the same ids.
        assert_eq!(set.ids_in(&private), mapped);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "sorted unique")]
    fn from_sorted_unique_asserts_in_debug() {
        let _ = KeySet::from_sorted_unique(vec!["b".into(), "a".into()]);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn from_sorted_unique_repairs_in_release() {
        let before = aarray_obs::snapshot();
        let ks = KeySet::from_sorted_unique(vec!["b".into(), "a".into(), "b".into()]);
        assert_eq!(ks.keys(), &["a", "b"]);
        let d = aarray_obs::snapshot().since(&before);
        assert!(d.get(Counter::KeysSortRepair) >= 1);
    }

    #[test]
    fn parse_selections() {
        assert_eq!(KeySelect::parse(":"), KeySelect::All);
        assert_eq!(
            KeySelect::parse("Genre|A : Genre|Z"),
            KeySelect::Range {
                lo: "Genre|A".into(),
                hi: "Genre|Z".into()
            }
        );
        assert_eq!(
            KeySelect::parse("Writer|*"),
            KeySelect::Prefix("Writer|".into())
        );
        assert_eq!(
            KeySelect::parse("exact"),
            KeySelect::List(vec!["exact".into()])
        );
    }

    #[test]
    fn parse_half_open_ranges() {
        assert_eq!(
            KeySelect::parse(" : Genre|Z"),
            KeySelect::Range {
                lo: "".into(),
                hi: "Genre|Z".into()
            }
        );
        assert_eq!(
            KeySelect::parse("Genre|A : "),
            KeySelect::Range {
                lo: "Genre|A".into(),
                hi: "".into()
            }
        );
    }

    #[test]
    fn range_selection_is_inclusive_lexicographic() {
        let ks = KeySet::from_iter(["Genre|Electronic", "Genre|Pop", "Genre|Rock", "Label|Free"]);
        let sel = KeySelect::parse("Genre|A : Genre|Z");
        let idx = ks.select(&sel);
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn range_selection_empty_bounds_are_unbounded() {
        let ks = KeySet::from_iter(["a", "b", "c", "d"]);
        let below = ks.select(&KeySelect::parse(" : b"));
        assert_eq!(below, vec![0, 1]);
        let above = ks.select(&KeySelect::parse("c : "));
        assert_eq!(above, vec![2, 3]);
        let all = ks.select(&KeySelect::Range {
            lo: "".into(),
            hi: "".into(),
        });
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn range_selection_reversed_bounds_select_nothing() {
        let ks = KeySet::from_iter(["a", "b", "c"]);
        let idx = ks.select(&KeySelect::Range {
            lo: "c".into(),
            hi: "a".into(),
        });
        assert!(idx.is_empty());
    }

    #[test]
    fn prefix_selection() {
        let ks = KeySet::from_iter(["Writer|Ann", "Writer|Bob", "Genre|Pop"]);
        let idx = ks.select(&KeySelect::Prefix("Writer|".into()));
        assert_eq!(idx, vec![1, 2]);
    }

    #[test]
    fn list_selection_filters_missing() {
        let ks = KeySet::from_iter(["a", "b", "c"]);
        let idx = ks.select(&KeySelect::List(vec![
            "c".into(),
            "nope".into(),
            "a".into(),
        ]));
        assert_eq!(idx, vec![0, 2]);
    }

    #[test]
    fn empty_keyset() {
        let e = KeySet::empty();
        assert!(e.is_empty());
        assert_eq!(e.select(&KeySelect::All), Vec::<usize>::new());
    }
}
