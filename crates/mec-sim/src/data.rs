//! Data-sharing model: the distributed datasets that make this a
//! *Data-Shared* MEC system.
//!
//! Section IV of the paper works over a universe `D = {d₁, …, d_M}` of
//! data items (or blocks, after the caching granularity of \[19\]), with
//! each mobile device `i` owning a subset `D_i`; monitoring regions
//! overlap, so the `D_i` are generally *not* disjoint. [`ItemSet`] is a
//! compact bitset over item indices, and [`DataUniverse`] carries item
//! sizes plus per-device ownership.

use crate::error::MecError;
use crate::topology::DeviceId;
use crate::units::Bytes;
use djson::{FromJson, Json, JsonError, ObjReader, ToJson};
use std::fmt;
use std::ops::Range;

/// Identifier of one data item: an index into the universe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataItemId(pub usize);

impl fmt::Display for DataItemId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "d{}", self.0)
    }
}

/// A set of data items, stored as a fixed-capacity bitset.
///
/// All set algebra the DTA algorithms need (`∩`, `∪`, `∖`, cardinality,
/// subset/disjointness tests) runs word-parallel.
///
/// # Examples
///
/// ```
/// use mec_sim::data::{DataItemId, ItemSet};
///
/// let mut a = ItemSet::new(100);
/// a.insert(DataItemId(3));
/// a.insert(DataItemId(64));
/// let mut b = ItemSet::new(100);
/// b.insert(DataItemId(64));
/// assert_eq!(a.intersection(&b).len(), 1);
/// assert!(b.is_subset_of(&a));
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ItemSet {
    capacity: usize,
    words: Vec<u64>,
}

impl fmt::Debug for ItemSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ItemSet({} of {}: {{", self.len(), self.capacity)?;
        for (k, id) in self.iter().enumerate() {
            if k > 0 {
                write!(f, ", ")?;
            }
            if k >= 16 {
                write!(f, "…")?;
                break;
            }
            write!(f, "{id}")?;
        }
        write!(f, "}})")
    }
}

impl ItemSet {
    /// Creates an empty set able to hold items `0..capacity`.
    pub fn new(capacity: usize) -> ItemSet {
        ItemSet {
            capacity,
            words: vec![0; capacity.div_ceil(64)],
        }
    }

    /// Creates a set containing every item `0..capacity`.
    pub fn full(capacity: usize) -> ItemSet {
        let mut s = ItemSet::new(capacity);
        for w in &mut s.words {
            *w = u64::MAX;
        }
        s.trim();
        s
    }

    /// Builds a set from item ids.
    ///
    /// # Panics
    ///
    /// Panics if an id is `>= capacity`.
    pub fn from_ids<I: IntoIterator<Item = DataItemId>>(capacity: usize, ids: I) -> ItemSet {
        let mut s = ItemSet::new(capacity);
        for id in ids {
            s.insert(id);
        }
        s
    }

    fn trim(&mut self) {
        let extra = self.words.len() * 64 - self.capacity;
        if extra > 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= u64::MAX >> extra;
            }
        }
    }

    /// Capacity (size of the universe the set indexes into).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts an item; returns whether it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `id.0 >= capacity`.
    pub fn insert(&mut self, id: DataItemId) -> bool {
        assert!(
            id.0 < self.capacity,
            "item {id} beyond capacity {}",
            self.capacity
        );
        let (w, b) = (id.0 / 64, id.0 % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Inserts every item of `range` a whole word at a time: the partial
    /// first and last words take a mask, the words between are filled.
    ///
    /// # Panics
    ///
    /// Panics if `range.end > capacity`.
    pub fn insert_range(&mut self, range: Range<usize>) {
        assert!(
            range.end <= self.capacity,
            "range end {} beyond capacity {}",
            range.end,
            self.capacity
        );
        if range.is_empty() {
            return;
        }
        let (first, last) = (range.start / 64, (range.end - 1) / 64);
        let head = u64::MAX << (range.start % 64);
        let tail = u64::MAX >> (63 - (range.end - 1) % 64);
        if first == last {
            self.words[first] |= head & tail;
        } else {
            self.words[first] |= head;
            self.words[first + 1..last].fill(u64::MAX);
            self.words[last] |= tail;
        }
    }

    /// Removes an item; returns whether it was present.
    pub fn remove(&mut self, id: DataItemId) -> bool {
        if id.0 >= self.capacity {
            return false;
        }
        let (w, b) = (id.0 / 64, id.0 % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        was
    }

    /// Membership test.
    pub fn contains(&self, id: DataItemId) -> bool {
        if id.0 >= self.capacity {
            return false;
        }
        self.words[id.0 / 64] & (1 << (id.0 % 64)) != 0
    }

    /// Number of items in the set.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `self ∩ other` as a new set.
    ///
    /// # Panics
    ///
    /// Panics when capacities differ.
    pub fn intersection(&self, other: &ItemSet) -> ItemSet {
        self.zip_words(other, |a, b| a & b)
    }

    /// `self ∪ other` as a new set.
    ///
    /// # Panics
    ///
    /// Panics when capacities differ.
    pub fn union(&self, other: &ItemSet) -> ItemSet {
        self.zip_words(other, |a, b| a | b)
    }

    /// `self ∖ other` as a new set.
    ///
    /// # Panics
    ///
    /// Panics when capacities differ.
    pub fn difference(&self, other: &ItemSet) -> ItemSet {
        self.zip_words(other, |a, b| a & !b)
    }

    /// Removes every item of `other` from `self` in place.
    ///
    /// # Panics
    ///
    /// Panics when capacities differ.
    pub fn subtract(&mut self, other: &ItemSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !b;
        }
    }

    /// Adds every item of `other` to `self` in place.
    ///
    /// # Panics
    ///
    /// Panics when capacities differ.
    pub fn union_with(&mut self, other: &ItemSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= b;
        }
    }

    /// `|self ∩ other|` without allocating.
    ///
    /// # Panics
    ///
    /// Panics when capacities differ.
    pub fn intersection_len(&self, other: &ItemSet) -> usize {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// True iff every item of `self` is in `other`.
    ///
    /// # Panics
    ///
    /// Panics when capacities differ.
    pub fn is_subset_of(&self, other: &ItemSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// True iff the sets share no item.
    ///
    /// # Panics
    ///
    /// Panics when capacities differ.
    pub fn is_disjoint(&self, other: &ItemSet) -> bool {
        self.intersection_len(other) == 0
    }

    /// The backing bit words, least-significant item first. Word `w`
    /// covers items `64·w .. 64·w+63`; bits beyond `capacity` are zero.
    /// Exposed so flat scans (e.g. [`HoldingsMatrix`]) can run
    /// word-parallel without going through per-item iteration.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates over the member ids in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word: 0,
            bits: self.words.first().copied().unwrap_or(0),
        }
    }

    fn zip_words(&self, other: &ItemSet, f: impl Fn(u64, u64) -> u64) -> ItemSet {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        let words = self
            .words
            .iter()
            .zip(other.words.iter())
            .map(|(&a, &b)| f(a, b))
            .collect();
        ItemSet {
            capacity: self.capacity,
            words,
        }
    }
}

/// Ascending iterator over an [`ItemSet`].
#[derive(Debug)]
pub struct Iter<'a> {
    set: &'a ItemSet,
    word: usize,
    bits: u64,
}

impl Iterator for Iter<'_> {
    type Item = DataItemId;

    fn next(&mut self) -> Option<DataItemId> {
        loop {
            if self.bits != 0 {
                let b = self.bits.trailing_zeros() as usize;
                self.bits &= self.bits - 1;
                return Some(DataItemId(self.word * 64 + b));
            }
            self.word += 1;
            if self.word >= self.set.words.len() {
                return None;
            }
            self.bits = self.set.words[self.word];
        }
    }
}

impl<'a> IntoIterator for &'a ItemSet {
    type Item = DataItemId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl FromIterator<DataItemId> for ItemSet {
    /// Collects ids into a set sized to the largest id seen.
    fn from_iter<I: IntoIterator<Item = DataItemId>>(iter: I) -> ItemSet {
        let ids: Vec<DataItemId> = iter.into_iter().collect();
        let capacity = ids.iter().map(|i| i.0 + 1).max().unwrap_or(0);
        ItemSet::from_ids(capacity, ids)
    }
}

/// The shared data universe `D` plus every device's holdings `D_i`.
#[derive(Debug, Clone, PartialEq)]
pub struct DataUniverse {
    item_sizes: Vec<Bytes>,
    holdings: Vec<ItemSet>,
}

impl DataUniverse {
    /// Builds a universe from per-item sizes and per-device holdings
    /// (indexed by `DeviceId.0`).
    ///
    /// # Errors
    ///
    /// Returns [`MecError::InvalidParameter`] when a holding's capacity
    /// disagrees with the number of items, an item size is non-positive,
    /// or some item is owned by no device (the union of holdings must
    /// cover the universe or tasks could never be served).
    pub fn new(item_sizes: Vec<Bytes>, holdings: Vec<ItemSet>) -> Result<DataUniverse, MecError> {
        let m = item_sizes.len();
        if let Some(bad) = item_sizes.iter().find(|s| !(s.value() > 0.0)) {
            return Err(MecError::InvalidParameter {
                name: "item_sizes",
                reason: format!("item size {bad} must be positive"),
            });
        }
        for (i, h) in holdings.iter().enumerate() {
            if h.capacity() != m {
                return Err(MecError::InvalidParameter {
                    name: "holdings",
                    reason: format!(
                        "device {i} holding capacity {} != universe size {m}",
                        h.capacity()
                    ),
                });
            }
        }
        let mut covered = ItemSet::new(m);
        for h in &holdings {
            covered.union_with(h);
        }
        if covered.len() != m {
            return Err(MecError::InvalidParameter {
                name: "holdings",
                reason: format!("{} of {m} items are owned by no device", m - covered.len()),
            });
        }
        Ok(DataUniverse {
            item_sizes,
            holdings,
        })
    }

    /// Number of items `M` in the universe.
    pub fn num_items(&self) -> usize {
        self.item_sizes.len()
    }

    /// Number of devices with holdings.
    pub fn num_devices(&self) -> usize {
        self.holdings.len()
    }

    /// Size of one item.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn item_size(&self, id: DataItemId) -> Bytes {
        self.item_sizes[id.0]
    }

    /// Total size of a set of items.
    pub fn set_size(&self, set: &ItemSet) -> Bytes {
        set.iter().map(|id| self.item_size(id)).sum()
    }

    /// The holdings `D_i` of one device.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::UnknownDevice`] for an out-of-range device.
    pub fn holdings(&self, device: DeviceId) -> Result<&ItemSet, MecError> {
        self.holdings
            .get(device.0)
            .ok_or(MecError::UnknownDevice(device))
    }

    /// `UD_i = D ∩ D_i` for a required set `D` (paper Section IV.A).
    ///
    /// # Errors
    ///
    /// Returns [`MecError::UnknownDevice`] for an out-of-range device.
    pub fn usable(&self, device: DeviceId, required: &ItemSet) -> Result<ItemSet, MecError> {
        Ok(self.holdings(device)?.intersection(required))
    }

    /// Devices owning a given item, ascending.
    ///
    /// One call scans every device's bitset; algorithms that look owners
    /// up in a loop should build an [`OwnersIndex`] once instead.
    pub fn owners(&self, id: DataItemId) -> Vec<DeviceId> {
        self.holdings
            .iter()
            .enumerate()
            .filter(|(_, h)| h.contains(id))
            .map(|(i, _)| DeviceId(i))
            .collect()
    }
}

/// Word-major holdings matrix: word `w` of *every* device's holdings laid
/// out contiguously (`words[w·n + i]` for device `i`), so a scan over all
/// devices for one item word is a cache-linear pass (DESIGN.md §11). The
/// DTA greedy rounds seed and maintain per-device usable counts through
/// this layout instead of re-intersecting every holdings bitset per
/// round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HoldingsMatrix {
    num_devices: usize,
    words_per_set: usize,
    words: Vec<u64>,
}

impl HoldingsMatrix {
    /// Transposes a universe's holdings into word-major order.
    pub fn build(universe: &DataUniverse) -> HoldingsMatrix {
        let n = universe.num_devices();
        let words_per_set = universe.num_items().div_ceil(64);
        let mut words = vec![0u64; words_per_set * n];
        for (i, h) in universe.holdings.iter().enumerate() {
            for (w, &word) in h.words().iter().enumerate() {
                words[w * n + i] = word;
            }
        }
        HoldingsMatrix {
            num_devices: n,
            words_per_set,
            words,
        }
    }

    /// Number of devices (columns).
    pub fn num_devices(&self) -> usize {
        self.num_devices
    }

    /// Words per holdings set (rows).
    pub fn words_per_set(&self) -> usize {
        self.words_per_set
    }

    /// Word `w` of every device's holdings, indexed by device id.
    ///
    /// # Panics
    ///
    /// Panics if `w >= words_per_set`.
    pub fn word_row(&self, w: usize) -> &[u64] {
        &self.words[w * self.num_devices..(w + 1) * self.num_devices]
    }

    /// `|D_i ∩ set|` for every device: one contiguous row pass per
    /// nonzero word of `set`.
    ///
    /// # Panics
    ///
    /// Panics when `set` was built for a different universe (word count
    /// mismatch), mirroring the [`ItemSet`] capacity assertions.
    pub fn usable_counts(&self, set: &ItemSet) -> Vec<u32> {
        self.check_words(set);
        let mut counts = vec![0u32; self.num_devices];
        for (w, &sw) in set.words().iter().enumerate() {
            if sw != 0 {
                for (c, &hw) in counts.iter_mut().zip(self.word_row(w)) {
                    *c += (hw & sw).count_ones();
                }
            }
        }
        counts
    }

    /// Seeds a DTA greedy run over `residual`: its usable counts plus the
    /// chunk minima of their selection keys.
    ///
    /// # Panics
    ///
    /// Panics on word-count mismatch with the universe.
    pub fn greedy_counts(&self, residual: &ItemSet, selection: Selection) -> GreedyCounts {
        let counts = self.usable_counts(residual);
        let chunk_min = counts
            .chunks(SELECT_CHUNK)
            .map(|chunk| {
                chunk
                    .iter()
                    .map(|&c| selection.signed_key(c))
                    .min()
                    .unwrap_or(i32::MAX)
            })
            .collect();
        GreedyCounts {
            selection,
            counts,
            chunk_min,
        }
    }

    /// One greedy round's bookkeeping in one pass per nonzero word of
    /// `removed`: every device's count drops by `|D_i ∩ removed|` (the
    /// exact drop when `removed ⊆ residual` leaves the residual set), and
    /// the last word's pass also recomputes the chunk minima. Returns the
    /// device the next round takes ([`GreedyCounts::select`]).
    ///
    /// A one-bit word, the common case, costs a shift and a mask per
    /// device instead of a popcount.
    ///
    /// # Panics
    ///
    /// Panics on word-count mismatch with the universe, or (in debug
    /// builds, via overflow checks) when a count underflows — i.e. when
    /// `removed` was not a subset of the residual the counts track.
    pub fn subtract_and_select(
        &self,
        state: &mut GreedyCounts,
        removed: &ItemSet,
    ) -> Option<usize> {
        self.check_words(removed);
        assert_eq!(state.counts.len(), self.num_devices, "one count per device");
        let mut nonzero = removed
            .words()
            .iter()
            .enumerate()
            .filter(|&(_, &sw)| sw != 0)
            .peekable();
        while let Some((w, &sw)) = nonzero.next() {
            let minima = match nonzero.peek() {
                Some(_) => None,
                None => Some((state.chunk_min.as_mut_slice(), state.selection)),
            };
            let row = self.word_row(w);
            if sw.is_power_of_two() {
                let b = sw.trailing_zeros();
                subtract_pass(&mut state.counts, row, |hw| ((hw >> b) & 1) as u32, minima);
            } else {
                subtract_pass(&mut state.counts, row, |hw| (hw & sw).count_ones(), minima);
            }
        }
        state.select()
    }

    fn check_words(&self, set: &ItemSet) {
        assert_eq!(
            set.words().len(),
            self.words_per_set,
            "capacity mismatch between item set and holdings matrix"
        );
    }
}

/// Devices per chunk whose minimum selection key [`GreedyCounts`] keeps,
/// so a round's selection scans `n / SELECT_CHUNK` minima plus one chunk.
pub const SELECT_CHUNK: usize = 512;

/// Which device a DTA greedy round takes (paper §IV.A and §IV.B). Both
/// rules pick the *first* device with the smallest selection key — the
/// usable count `c` mapped to `c − 1` (wrapping) or `u32::MAX − c` —
/// which is exactly a first-index scan with a strict `<` (`>`) over the
/// nonzero usable counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// Smallest nonempty usable set first (DTA-Workload).
    SmallestFirst,
    /// Largest usable set first (DTA-Number).
    LargestFirst,
}

impl Selection {
    /// The selection key of a usable count: `count − 1` (wrapping) for
    /// [`Selection::SmallestFirst`], `u32::MAX − count` for
    /// [`Selection::LargestFirst`]. Both are monotone in the rule's
    /// preference and map a zero count to `u32::MAX`, above every
    /// nonzero count's key.
    fn key(self, count: u32) -> u32 {
        match self {
            Selection::SmallestFirst => count.wrapping_sub(1),
            Selection::LargestFirst => u32::MAX - count,
        }
    }

    /// [`Self::key`] with its top bit flipped, read as `i32`: the
    /// same order under a signed compare, which SSE2 vectorizes directly
    /// (an unsigned one needs extra sign flips per lane).
    fn signed_key(self, count: u32) -> i32 {
        (self.key(count) ^ (1 << 31)) as i32
    }
}

/// Per-device usable counts `|D_i ∩ residual|` of a DTA greedy run, plus
/// the minimum selection key of each [`SELECT_CHUNK`]-device chunk (kept
/// in the signed form the fused pass computes).
/// Seeded by [`HoldingsMatrix::greedy_counts`] and advanced one round at
/// a time by [`HoldingsMatrix::subtract_and_select`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GreedyCounts {
    selection: Selection,
    counts: Vec<u32>,
    chunk_min: Vec<i32>,
}

impl GreedyCounts {
    /// The device with the smallest key, first index on ties: the first
    /// chunk holding the smallest chunk minimum, then the first device in
    /// it with that key. `None` when every count is zero.
    pub fn select(&self) -> Option<usize> {
        let (chunk, &min) = self.chunk_min.iter().enumerate().min_by_key(|&(_, &k)| k)?;
        if min == i32::MAX {
            return None;
        }
        let start = chunk * SELECT_CHUNK;
        self.counts[start..]
            .iter()
            .take(SELECT_CHUNK)
            .position(|&c| self.selection.signed_key(c) == min)
            .map(|pos| start + pos)
    }
}

/// `counts[i] -= overlap(row[i])` for every device; with `minima`, also
/// stores each chunk's minimum selection key after the update.
#[inline(always)]
fn subtract_pass(
    counts: &mut [u32],
    row: &[u64],
    overlap: impl Fn(u64) -> u32,
    minima: Option<(&mut [i32], Selection)>,
) {
    let Some((chunk_min, selection)) = minima else {
        for (c, &hw) in counts.iter_mut().zip(row) {
            *c -= overlap(hw);
        }
        return;
    };
    let chunks = counts
        .chunks_mut(SELECT_CHUNK)
        .zip(row.chunks(SELECT_CHUNK));
    for ((cs, hs), m) in chunks.zip(chunk_min) {
        let mut min = i32::MAX;
        for (c, &hw) in cs.iter_mut().zip(hs) {
            *c -= overlap(hw);
            min = min.min(selection.signed_key(*c));
        }
        *m = min;
    }
}

/// Checked `usize` → `u32` index conversion for the `u32`-packed
/// indices below.
///
/// # Errors
///
/// Returns [`MecError::IndexOverflow`] when `index` exceeds `u32::MAX`.
fn to_u32(what: &'static str, index: usize) -> Result<u32, MecError> {
    u32::try_from(index).map_err(|_| MecError::IndexOverflow { what, index })
}

/// CSR index `item → owning devices` (ascending device id per item),
/// replacing the `O(devices × words)` scan of [`DataUniverse::owners`]
/// for algorithms that look owners up inside a loop (DESIGN.md §11).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OwnersIndex {
    offsets: Vec<u32>,
    owners: Vec<u32>,
}

impl OwnersIndex {
    /// Builds the index in two passes (count, then fill); device ids per
    /// item come out ascending because devices are scanned in id order.
    ///
    /// # Errors
    ///
    /// Returns [`MecError::IndexOverflow`] when device count or total
    /// ownership pairs exceed the `u32` handle space.
    pub fn build(universe: &DataUniverse) -> Result<OwnersIndex, MecError> {
        let m = universe.num_items();
        let pairs: usize = universe.holdings.iter().map(ItemSet::len).sum();
        to_u32("ownership pair count", pairs)?;
        let mut offsets = vec![0u32; m + 1];
        for h in &universe.holdings {
            for id in h.iter() {
                offsets[id.0 + 1] += 1;
            }
        }
        for w in 1..=m {
            offsets[w] += offsets[w - 1];
        }
        let mut cursor: Vec<u32> = offsets[..m].to_vec();
        let mut owners = vec![0u32; pairs];
        for (i, h) in universe.holdings.iter().enumerate() {
            let dev = to_u32("device index", i)?;
            for id in h.iter() {
                owners[cursor[id.0] as usize] = dev;
                cursor[id.0] += 1;
            }
        }
        Ok(OwnersIndex { offsets, owners })
    }

    /// Devices owning `id`, ascending; empty for out-of-range ids.
    pub fn owners(&self, id: DataItemId) -> &[u32] {
        match (self.offsets.get(id.0), self.offsets.get(id.0 + 1)) {
            (Some(&a), Some(&b)) => &self.owners[a as usize..b as usize],
            _ => &[],
        }
    }
}

// JSON codecs (wire-compatible with the former serde derives).
djson::impl_json_newtype!(DataItemId(usize));

impl ToJson for ItemSet {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("capacity".to_string(), self.capacity.to_json()),
            ("words".to_string(), self.words.to_json()),
        ])
    }
}

impl FromJson for ItemSet {
    /// Hand-written so decoded bytes uphold the bitset invariants every
    /// word-parallel scan relies on: exactly `capacity.div_ceil(64)`
    /// words, and no bit set at or beyond `capacity`.
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let mut reader = ObjReader::new(value, "ItemSet")?;
        let capacity: usize = reader.field("capacity")?;
        let words: Vec<u64> = reader.field("words")?;
        reader.finish()?;
        let expected = capacity.div_ceil(64);
        if words.len() != expected {
            return Err(JsonError::msg(format!(
                "{} words for capacity {capacity}, expected {expected}",
                words.len()
            ))
            .at("ItemSet.words"));
        }
        let spare = expected * 64 - capacity;
        if spare > 0 && words[expected - 1] & !(u64::MAX >> spare) != 0 {
            return Err(
                JsonError::msg(format!("bits set at or beyond capacity {capacity}"))
                    .at("ItemSet.words"),
            );
        }
        Ok(ItemSet { capacity, words })
    }
}

impl ToJson for DataUniverse {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("item_sizes".to_string(), self.item_sizes.to_json()),
            ("holdings".to_string(), self.holdings.to_json()),
        ])
    }
}

impl FromJson for DataUniverse {
    /// Decodes through [`DataUniverse::new`], so a decoded universe has
    /// the same guarantees as a built one (matching capacities, positive
    /// sizes, every item owned).
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let mut reader = ObjReader::new(value, "DataUniverse")?;
        let item_sizes = reader.field("item_sizes")?;
        let holdings = reader.field("holdings")?;
        reader.finish()?;
        DataUniverse::new(item_sizes, holdings)
            .map_err(|e| JsonError::msg(e.to_string()).at("DataUniverse"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[usize]) -> Vec<DataItemId> {
        v.iter().map(|&i| DataItemId(i)).collect()
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = ItemSet::new(130);
        assert!(s.insert(DataItemId(0)));
        assert!(s.insert(DataItemId(129)));
        assert!(!s.insert(DataItemId(0)), "reinsert reports false");
        assert!(s.contains(DataItemId(129)));
        assert!(!s.contains(DataItemId(64)));
        assert_eq!(s.len(), 2);
        assert!(s.remove(DataItemId(0)));
        assert!(!s.remove(DataItemId(0)));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn set_algebra() {
        let a = ItemSet::from_ids(10, ids(&[1, 2, 3, 7]));
        let b = ItemSet::from_ids(10, ids(&[3, 7, 9]));
        assert_eq!(a.intersection(&b).len(), 2);
        assert_eq!(a.union(&b).len(), 5);
        assert_eq!(a.difference(&b).len(), 2);
        assert_eq!(a.intersection_len(&b), 2);
        assert!(!a.is_subset_of(&b));
        assert!(a.intersection(&b).is_subset_of(&a));
        assert!(a.difference(&b).is_disjoint(&b));
    }

    #[test]
    fn full_and_trim() {
        let f = ItemSet::full(70);
        assert_eq!(f.len(), 70);
        assert!(f.contains(DataItemId(69)));
        assert!(!f.contains(DataItemId(70)));
    }

    #[test]
    fn iterator_ascends() {
        let s = ItemSet::from_ids(200, ids(&[150, 3, 64, 65]));
        let got: Vec<usize> = s.iter().map(|d| d.0).collect();
        assert_eq!(got, vec![3, 64, 65, 150]);
    }

    #[test]
    fn from_iterator_sizes_to_max() {
        let s: ItemSet = ids(&[5, 2]).into_iter().collect();
        assert_eq!(s.capacity(), 6);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn insert_out_of_range_panics() {
        ItemSet::new(4).insert(DataItemId(4));
    }

    #[test]
    fn universe_validates_coverage() {
        let sizes = vec![Bytes::new(10.0); 4];
        // Item 3 owned by nobody → error.
        let holdings = vec![
            ItemSet::from_ids(4, ids(&[0, 1])),
            ItemSet::from_ids(4, ids(&[1, 2])),
        ];
        assert!(DataUniverse::new(sizes.clone(), holdings).is_err());

        let holdings = vec![
            ItemSet::from_ids(4, ids(&[0, 1, 3])),
            ItemSet::from_ids(4, ids(&[1, 2])),
        ];
        let u = DataUniverse::new(sizes, holdings).unwrap();
        assert_eq!(u.num_items(), 4);
        assert_eq!(u.owners(DataItemId(1)), vec![DeviceId(0), DeviceId(1)]);
        assert_eq!(
            u.set_size(&ItemSet::from_ids(4, ids(&[0, 2]))),
            Bytes::new(20.0)
        );
    }

    #[test]
    fn usable_intersects_holdings() {
        let sizes = vec![Bytes::new(1.0); 5];
        let holdings = vec![
            ItemSet::from_ids(5, ids(&[0, 1, 2])),
            ItemSet::from_ids(5, ids(&[2, 3, 4])),
        ];
        let u = DataUniverse::new(sizes, holdings).unwrap();
        let required = ItemSet::from_ids(5, ids(&[1, 2, 3]));
        assert_eq!(u.usable(DeviceId(0), &required).unwrap().len(), 2);
        assert_eq!(u.usable(DeviceId(1), &required).unwrap().len(), 2);
        assert!(u.usable(DeviceId(7), &required).is_err());
    }

    #[test]
    fn holdings_matrix_counts_match_per_device_intersections() {
        let sizes = vec![Bytes::new(1.0); 130];
        let holdings = vec![
            ItemSet::from_ids(130, ids(&[0, 63, 64, 129])),
            ItemSet::from_ids(130, (0..130).map(DataItemId)),
            ItemSet::from_ids(130, ids(&[64, 65])),
        ];
        let u = DataUniverse::new(sizes, holdings.clone()).unwrap();
        let matrix = HoldingsMatrix::build(&u);
        assert_eq!(matrix.num_devices(), 3);
        assert_eq!(matrix.words_per_set(), 3);
        let required = ItemSet::from_ids(130, ids(&[0, 64, 65, 128]));
        let counts = matrix.usable_counts(&required);
        for (i, h) in holdings.iter().enumerate() {
            assert_eq!(counts[i] as usize, h.intersection_len(&required));
        }
        // Subtracting a subset of the tracked set keeps counts exact,
        // for a multi-word and then a one-bit removal.
        let mut state = matrix.greedy_counts(&required, Selection::SmallestFirst);
        assert_eq!(state.counts, counts);
        let mut residual = required.clone();
        for removed in [ids(&[64, 128]), ids(&[0])] {
            let removed = ItemSet::from_ids(130, removed);
            matrix.subtract_and_select(&mut state, &removed);
            residual.subtract(&removed);
            for (i, h) in holdings.iter().enumerate() {
                assert_eq!(state.counts[i] as usize, h.intersection_len(&residual));
            }
        }
    }

    #[test]
    fn selection_keys_order_counts_and_park_zero_last() {
        for selection in [Selection::SmallestFirst, Selection::LargestFirst] {
            assert_eq!(selection.key(0), u32::MAX);
        }
        assert!(Selection::SmallestFirst.key(1) < Selection::SmallestFirst.key(2));
        assert!(Selection::LargestFirst.key(2) < Selection::LargestFirst.key(1));
        assert!(Selection::LargestFirst.key(1) < u32::MAX);
        for selection in [Selection::SmallestFirst, Selection::LargestFirst] {
            for count in [0, 1, 2, 63, 1 << 31, u32::MAX - 1, u32::MAX] {
                let flipped = (selection.key(count) ^ (1 << 31)) as i32;
                assert_eq!(
                    selection.signed_key(count),
                    flipped,
                    "{selection:?} {count}"
                );
            }
        }
    }

    #[test]
    fn greedy_selection_takes_the_first_extreme_across_chunks() {
        // Counts 3 everywhere except two tied 1s and two tied 5s, placed
        // in different chunks: the first of each tie wins.
        let n = 2 * SELECT_CHUNK + 7;
        let m = 8;
        let mut holdings = vec![ItemSet::from_ids(m, ids(&[0, 1, 2])); n];
        for i in [SELECT_CHUNK + 3, 2 * SELECT_CHUNK + 1] {
            holdings[i] = ItemSet::from_ids(m, ids(&[7]));
        }
        for i in [SELECT_CHUNK - 1, 2 * SELECT_CHUNK + 6] {
            holdings[i] = ItemSet::from_ids(m, ids(&[2, 3, 4, 5, 6]));
        }
        let u = DataUniverse::new(vec![Bytes::new(1.0); m], holdings).unwrap();
        let matrix = HoldingsMatrix::build(&u);
        let full = ItemSet::full(m);
        let smallest = matrix.greedy_counts(&full, Selection::SmallestFirst);
        assert_eq!(smallest.select(), Some(SELECT_CHUNK + 3));
        let mut largest = matrix.greedy_counts(&full, Selection::LargestFirst);
        assert_eq!(largest.select(), Some(SELECT_CHUNK - 1));
        // Removing every item leaves nothing to select.
        assert_eq!(matrix.subtract_and_select(&mut largest, &full), None);
        assert!(largest.counts.iter().all(|&c| c == 0));
    }

    #[test]
    fn insert_range_matches_per_item_inserts() {
        detrand::prop::run_cases("insert_range_matches_per_item_inserts", 256, |rng| {
            let capacity = match rng.gen_range(0..3usize) {
                0 => 64 * rng.gen_range(1..5usize),
                1 => rng.gen_range(1..300usize),
                _ => 64 * rng.gen_range(1..5usize) + rng.gen_range(1..64usize),
            };
            // Ends drawn from word boundaries half of the time.
            let end_point = |rng: &mut detrand::ChaCha8Rng| {
                if rng.gen_bool(0.5) {
                    (64 * rng.gen_range(0..=capacity / 64)).min(capacity)
                } else {
                    rng.gen_range(0..=capacity)
                }
            };
            let (a, b) = (end_point(rng), end_point(rng));
            let range = a.min(b)..a.max(b);
            // A preset item checks that the fill adds to the set.
            let mut filled = ItemSet::new(capacity);
            filled.insert(DataItemId(capacity - 1));
            let mut expected = filled.clone();
            filled.insert_range(range.clone());
            for item in range.clone() {
                expected.insert(DataItemId(item));
            }
            detrand::prop_assert_eq!(filled, expected, "capacity {capacity}, range {range:?}");
            Ok(())
        });
    }

    #[test]
    #[should_panic(expected = "beyond capacity")]
    fn insert_range_past_capacity_panics() {
        ItemSet::new(70).insert_range(60..71);
    }

    #[test]
    fn item_set_decode_rejects_a_wrong_word_count() {
        let err = djson::from_str::<ItemSet>(r#"{"capacity":3,"words":[7,1]}"#).unwrap_err();
        assert!(err.to_string().contains("expected 1"), "{err}");
        assert!(djson::from_str::<ItemSet>(r#"{"capacity":65,"words":[1]}"#).is_err());
    }

    #[test]
    fn item_set_decode_rejects_bits_past_capacity() {
        let err = djson::from_str::<ItemSet>(r#"{"capacity":3,"words":[8]}"#).unwrap_err();
        assert!(err.to_string().contains("beyond capacity 3"), "{err}");
        // Bit 2 is the last valid one.
        let ok = djson::from_str::<ItemSet>(r#"{"capacity":3,"words":[4]}"#).unwrap();
        assert!(ok.contains(DataItemId(2)));
    }

    #[test]
    fn universe_decode_rejects_what_new_rejects() {
        // Item 1 is owned by no device.
        let uncovered = r#"{"item_sizes":[1.0,1.0],"holdings":[{"capacity":2,"words":[1]}]}"#;
        let err = djson::from_str::<DataUniverse>(uncovered).unwrap_err();
        assert!(err.to_string().contains("owned by no device"), "{err}");
        // A holding built for a different item count.
        let mismatched = r#"{"item_sizes":[1.0],"holdings":[{"capacity":2,"words":[3]}]}"#;
        let err = djson::from_str::<DataUniverse>(mismatched).unwrap_err();
        assert!(err.to_string().contains("capacity"), "{err}");
    }

    #[test]
    fn generated_universe_round_trips_through_json() {
        let mut cfg = crate::workload::DivisibleScenarioConfig::paper_defaults(5);
        cfg.num_items = 130;
        let universe = cfg.generate().unwrap().universe;
        let back: DataUniverse = djson::from_str(&djson::to_string(&universe)).unwrap();
        assert_eq!(back, universe);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn holdings_matrix_rejects_foreign_sets() {
        let sizes = vec![Bytes::new(1.0); 4];
        let u = DataUniverse::new(sizes, vec![ItemSet::full(4)]).unwrap();
        HoldingsMatrix::build(&u).usable_counts(&ItemSet::new(130));
    }

    #[test]
    fn owners_index_matches_owners_scan() {
        let sizes = vec![Bytes::new(1.0); 70];
        let holdings = vec![
            ItemSet::from_ids(70, ids(&[0, 5, 69])),
            ItemSet::from_ids(70, (0..70).map(DataItemId)),
            ItemSet::from_ids(70, ids(&[5, 6])),
        ];
        let u = DataUniverse::new(sizes, holdings).unwrap();
        let index = OwnersIndex::build(&u).unwrap();
        for item in 0..70 {
            let id = DataItemId(item);
            let via_scan: Vec<u32> = u.owners(id).iter().map(|d| d.0 as u32).collect();
            assert_eq!(index.owners(id), via_scan.as_slice(), "item {item}");
        }
        assert!(index.owners(DataItemId(70)).is_empty(), "out of range");
    }

    #[test]
    fn overflow_is_a_typed_error() {
        let err = to_u32("device index", u32::MAX as usize + 1).unwrap_err();
        assert!(matches!(err, MecError::IndexOverflow { .. }));
        assert!(err.to_string().contains("device index"));
        assert_eq!(to_u32("ok", 17).unwrap(), 17);
    }

    #[test]
    fn universe_rejects_bad_sizes_and_capacity() {
        assert!(DataUniverse::new(vec![Bytes::new(0.0)], vec![ItemSet::full(1)]).is_err());
        assert!(
            DataUniverse::new(vec![Bytes::new(1.0)], vec![ItemSet::new(2)]).is_err(),
            "capacity mismatch must be rejected"
        );
    }
}
