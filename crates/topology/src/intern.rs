//! Vertex interning: dense `u32` ids for label-typed complexes.
//!
//! Protocol complexes label vertices with *full-information views* —
//! recursive trees whose `Ord`/`Hash`/`Clone` walk the whole structure.
//! Every facet-absorption scan, boundary-matrix lookup, and isomorphism
//! probe on [`Complex`] therefore pays a deep traversal per comparison.
//! This module introduces the interned core the rest of the workspace
//! runs on:
//!
//! - [`VertexPool`] bijects labels ↔ dense `u32` ids (one hash per
//!   vertex, ever);
//! - [`IdSimplex`] stores a simplex of ids, with a 64-bit bitset fast
//!   path when every id is `< 64` (subset, union, and intersection are
//!   single word ops), a 128-bit `[u64; 2]` tier when every id is
//!   `< 128` (the same ops on two words — protocol complexes at n = 5,
//!   r = 2 exceed 64 vertices but stay well under 128), and a sorted
//!   vector fallback otherwise;
//! - [`IdComplex`] mirrors the facet-anti-chain representation of
//!   [`Complex`] over ids, with the vertex set and dimension cached;
//! - [`InternedBuilder`] accumulates facets given as raw label lists,
//!   interning each label once at creation, and records the slot lists
//!   of the pseudospheres it adds as the complex's
//!   [pseudosphere cover](IdComplex::pseudosphere_cover).
//!
//! # Canonical pools and enumeration order
//!
//! A pool is *canonical* for a complex when ids are assigned in
//! ascending label order. Then `id` order equals label order, so the
//! lexicographic order on [`IdSimplex`] (ascending id sequences) equals
//! the lexicographic order on the label simplexes — facet and basis
//! enumerations through the interned path are byte-identical to the
//! label-typed ones. [`Complex::to_interned`] always builds a canonical
//! pool. Non-canonical pools (e.g. an [`InternedBuilder`] interning
//! views in discovery order) are still *bijective*, so converting back
//! with [`Complex::from_interned`] re-sorts into exactly the complex the
//! label-typed path would have produced.

use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

use crate::{Complex, Label, Simplex};

/// A bijection between vertex labels and dense `u32` ids.
///
/// Ids are assigned in interning order, starting at `0`. Looking up an
/// existing label costs one hash; resolving an id is an array index.
#[derive(Clone)]
pub struct VertexPool<V> {
    labels: Vec<V>,
    ids: HashMap<V, u32>,
}

impl<V: Label> VertexPool<V> {
    /// An empty pool.
    pub fn new() -> Self {
        VertexPool {
            labels: Vec::new(),
            ids: HashMap::new(),
        }
    }

    /// A *canonical* pool for the given labels: ids are assigned in
    /// ascending label order, so id order equals label order.
    pub fn canonical(labels: impl IntoIterator<Item = V>) -> Self {
        let sorted: BTreeSet<V> = labels.into_iter().collect();
        let mut pool = VertexPool::new();
        for v in sorted {
            pool.intern(v);
        }
        pool
    }

    /// Number of interned labels.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// `true` iff nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Interns `v`, returning its id (existing id if already present).
    pub fn intern(&mut self, v: V) -> u32 {
        if let Some(&id) = self.ids.get(&v) {
            return id;
        }
        let id = u32::try_from(self.labels.len()).expect("vertex pool overflow");
        self.labels.push(v.clone());
        self.ids.insert(v, id);
        id
    }

    /// The id of `v`, if interned.
    pub fn id_of(&self, v: &V) -> Option<u32> {
        self.ids.get(v).copied()
    }

    /// The label of `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was never assigned by this pool.
    pub fn label(&self, id: u32) -> &V {
        &self.labels[id as usize]
    }

    /// All labels, indexed by id.
    pub fn labels(&self) -> &[V] {
        &self.labels
    }

    /// The labels, indexed by id, moved out of the pool. The pool's
    /// lookup table, which holds a second copy of every label, is
    /// dropped.
    pub fn into_labels(self) -> Vec<V> {
        self.labels
    }

    /// Interns every vertex of a label simplex.
    pub fn intern_simplex(&mut self, s: &Simplex<V>) -> IdSimplex {
        IdSimplex::from_ids(
            s.vertices()
                .iter()
                .map(|v| self.intern(v.clone()))
                .collect(),
        )
    }

    /// Resolves an id simplex back to labels.
    ///
    /// # Panics
    ///
    /// Panics if the simplex mentions an id this pool never assigned.
    pub fn resolve_simplex(&self, s: &IdSimplex) -> Simplex<V> {
        Simplex::new(s.ids().map(|id| self.label(id).clone()).collect())
    }

    /// `true` iff ids were assigned in ascending label order, making id
    /// order coincide with label order (see the module docs).
    pub fn is_canonical(&self) -> bool {
        self.labels.windows(2).all(|w| w[0] < w[1])
    }
}

impl<V: Label> Default for VertexPool<V> {
    fn default() -> Self {
        VertexPool::new()
    }
}

impl<V: Label> fmt::Debug for VertexPool<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VertexPool({} labels)", self.labels.len())
    }
}

/// A simplex over dense vertex ids.
///
/// Canonical form: the [`IdSimplex::Bits`] variant is used whenever
/// every id is `< 64` (bit `i` set ⟺ id `i` present); the
/// [`IdSimplex::Bits2`] variant when every id is `< 128` but some id is
/// `≥ 64` (word `i / 64`, bit `i % 64`); otherwise the ids are kept as
/// a strictly increasing vector. All constructors and operations
/// maintain this three-tier canonical form, so derived equality and
/// hashing are sound.
///
/// The ordering is lexicographic on the ascending id sequence — the
/// same order [`Simplex`] has on sorted label vectors — implemented for
/// both bitset tiers with a lowest-differing-bit trick rather than by
/// iterating.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum IdSimplex {
    /// Every id `< 64`: bit `i` set ⟺ vertex id `i` present.
    Bits(u64),
    /// Every id `< 128`, at least one `≥ 64`: word `i / 64`, bit
    /// `i % 64` set ⟺ vertex id `i` present.
    Bits2([u64; 2]),
    /// Fallback: strictly increasing ids, at least one `≥ 128`.
    Sorted(Vec<u32>),
}

/// Re-canonicalizes a 128-bit mask into the right bitset tier.
fn from_mask128(m: u128) -> IdSimplex {
    if m >> 64 == 0 {
        IdSimplex::Bits(m as u64)
    } else {
        IdSimplex::Bits2([m as u64, (m >> 64) as u64])
    }
}

impl IdSimplex {
    /// The empty simplex (dimension `-1`).
    pub fn empty() -> Self {
        IdSimplex::Bits(0)
    }

    /// The 0-simplex `{id}`.
    pub fn vertex(id: u32) -> Self {
        if id < 128 {
            from_mask128(1u128 << id)
        } else {
            IdSimplex::Sorted(vec![id])
        }
    }

    /// The 128-bit mask of the id set, when every id is `< 128`.
    fn mask128(&self) -> Option<u128> {
        match self {
            IdSimplex::Bits(m) => Some(u128::from(*m)),
            IdSimplex::Bits2([lo, hi]) => Some(u128::from(*lo) | (u128::from(*hi) << 64)),
            IdSimplex::Sorted(_) => None,
        }
    }

    /// Builds a simplex from arbitrary ids (sorted and deduplicated).
    pub fn from_ids(mut ids: Vec<u32>) -> Self {
        ids.sort_unstable();
        ids.dedup();
        IdSimplex::from_sorted_ids(ids)
    }

    /// Builds a simplex from strictly increasing ids.
    pub fn from_sorted_ids(ids: Vec<u32>) -> Self {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids not strictly sorted"
        );
        match ids.last() {
            None => IdSimplex::Bits(0),
            Some(&max) if max < 128 => {
                let mut mask = 0u128;
                for &i in &ids {
                    mask |= 1u128 << i;
                }
                from_mask128(mask)
            }
            _ => IdSimplex::Sorted(ids),
        }
    }

    /// Number of vertices.
    pub fn len(&self) -> usize {
        match self {
            IdSimplex::Bits(m) => m.count_ones() as usize,
            IdSimplex::Bits2([lo, hi]) => (lo.count_ones() + hi.count_ones()) as usize,
            IdSimplex::Sorted(v) => v.len(),
        }
    }

    /// `true` iff this is the empty simplex.
    pub fn is_empty(&self) -> bool {
        match self {
            IdSimplex::Bits(m) => *m == 0,
            // canonical Bits2 always has a bit ≥ 64 set
            IdSimplex::Bits2(_) => false,
            IdSimplex::Sorted(v) => v.is_empty(),
        }
    }

    /// The dimension: `len() - 1`, so `-1` for the empty simplex.
    pub fn dim(&self) -> i32 {
        self.len() as i32 - 1
    }

    /// Iterator over the ids in ascending order.
    pub fn ids(&self) -> IdIter<'_> {
        match self {
            IdSimplex::Bits(m) => IdIter::Bits(u128::from(*m)),
            IdSimplex::Bits2(_) => IdIter::Bits(self.mask128().unwrap()),
            IdSimplex::Sorted(v) => IdIter::Sorted(v.iter()),
        }
    }

    /// `true` iff `id` is a vertex of this simplex.
    pub fn contains(&self, id: u32) -> bool {
        match self {
            IdSimplex::Bits(m) => id < 64 && m & (1u64 << id) != 0,
            IdSimplex::Bits2(_) => id < 128 && self.mask128().unwrap() & (1u128 << id) != 0,
            IdSimplex::Sorted(v) => v.binary_search(&id).is_ok(),
        }
    }

    /// `true` iff `self` is a (not necessarily proper) face of `other`.
    pub fn is_face_of(&self, other: &IdSimplex) -> bool {
        match (self.mask128(), other.mask128()) {
            (Some(a), Some(b)) => a & !b == 0,
            // a bitset tier (all ids < 128) can still be a face of a
            // Sorted simplex, but never vice versa (Sorted has an id
            // ≥ 128 the bitset cannot contain)
            (None, Some(_)) => false,
            _ => {
                if self.len() > other.len() {
                    return false;
                }
                self.ids().all(|id| other.contains(id))
            }
        }
    }

    /// The simplex spanned by the union of the two id sets.
    pub fn union(&self, other: &IdSimplex) -> IdSimplex {
        match (self.mask128(), other.mask128()) {
            (Some(a), Some(b)) => from_mask128(a | b),
            _ => {
                let mut ids: Vec<u32> = self.ids().collect();
                ids.extend(other.ids());
                IdSimplex::from_ids(ids)
            }
        }
    }

    /// The common face: intersection of the two id sets.
    pub fn intersection(&self, other: &IdSimplex) -> IdSimplex {
        match (self.mask128(), other.mask128()) {
            (Some(a), Some(b)) => from_mask128(a & b),
            _ => IdSimplex::from_sorted_ids(self.ids().filter(|&id| other.contains(id)).collect()),
        }
    }

    /// The face obtained by removing `id` (no-op if absent).
    pub fn without(&self, id: u32) -> IdSimplex {
        match self.mask128() {
            Some(m) if id < 128 => from_mask128(m & !(1u128 << id)),
            Some(_) => self.clone(),
            None => IdSimplex::from_sorted_ids(self.ids().filter(|&i| i != id).collect()),
        }
    }

    /// The simplex extended by one more id.
    pub fn with(&self, id: u32) -> IdSimplex {
        match self.mask128() {
            Some(m) if id < 128 => from_mask128(m | (1u128 << id)),
            _ => {
                let mut ids: Vec<u32> = self.ids().collect();
                ids.push(id);
                IdSimplex::from_ids(ids)
            }
        }
    }

    /// The face spanned by the ids satisfying `keep`.
    pub fn restrict(&self, mut keep: impl FnMut(u32) -> bool) -> IdSimplex {
        IdSimplex::from_sorted_ids(self.ids().filter(|&id| keep(id)).collect())
    }

    /// Iterator over the codimension-1 faces, in the order of the
    /// dropped vertex (ascending), matching
    /// [`Simplex::boundary_faces`].
    pub fn boundary_faces(&self) -> impl Iterator<Item = IdSimplex> + '_ {
        let ids: Vec<u32> = self.ids().collect();
        (0..ids.len()).map(move |i| {
            let mut rest = ids.clone();
            rest.remove(i);
            IdSimplex::from_sorted_ids(rest)
        })
    }

    /// Iterator over *all* faces (every subset, including the empty
    /// simplex and `self`).
    ///
    /// # Panics
    ///
    /// Panics if the simplex has 64 or more vertices.
    pub fn faces(&self) -> impl Iterator<Item = IdSimplex> + '_ {
        let ids: Vec<u32> = self.ids().collect();
        let k = ids.len();
        assert!(k < 64, "face enumeration limited to < 64 vertexes");
        (0..(1u64 << k)).map(move |mask| {
            IdSimplex::from_sorted_ids(
                ids.iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, &id)| id)
                    .collect(),
            )
        })
    }

    /// The faces of dimension `d`, enumerated in lexicographic order.
    pub fn faces_of_dim(&self, d: i32) -> Vec<IdSimplex> {
        if d < -1 || d > self.dim() {
            return Vec::new();
        }
        if d == -1 {
            return vec![IdSimplex::empty()];
        }
        let ids: Vec<u32> = self.ids().collect();
        let n = ids.len();
        let k = (d + 1) as usize;
        let mut out = Vec::new();
        let mut idx: Vec<usize> = (0..k).collect();
        loop {
            out.push(IdSimplex::from_sorted_ids(
                idx.iter().map(|&i| ids[i]).collect(),
            ));
            // next k-combination of 0..n
            let mut i = k;
            loop {
                if i == 0 {
                    return out;
                }
                i -= 1;
                if idx[i] != i + n - k {
                    break;
                }
                if i == 0 {
                    return out;
                }
            }
            idx[i] += 1;
            for j in i + 1..k {
                idx[j] = idx[j - 1] + 1;
            }
        }
    }
}

/// Lexicographic comparison of two id bitsets, viewed as ascending id
/// sequences. `O(1)` via the lowest differing bit: the common low bits
/// are a shared prefix; whichever side owns the lowest differing bit
/// contributes the smaller next element — unless the other side has no
/// further elements at all, in which case it is a proper prefix (and a
/// prefix sorts first).
fn cmp_bits(a: u128, b: u128) -> Ordering {
    if a == b {
        return Ordering::Equal;
    }
    let diff = a ^ b;
    let low = diff & diff.wrapping_neg();
    let ge_mask = !(low - 1); // bits at the differing position and above
    if a & low != 0 {
        if b & ge_mask == 0 {
            Ordering::Greater // b is a proper prefix of a
        } else {
            Ordering::Less
        }
    } else if a & ge_mask == 0 {
        Ordering::Less // a is a proper prefix of b
    } else {
        Ordering::Greater
    }
}

impl Ord for IdSimplex {
    fn cmp(&self, other: &Self) -> Ordering {
        match (self.mask128(), other.mask128()) {
            (Some(a), Some(b)) => cmp_bits(a, b),
            _ => self.ids().cmp(other.ids()),
        }
    }
}

impl PartialOrd for IdSimplex {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl FromIterator<u32> for IdSimplex {
    fn from_iter<I: IntoIterator<Item = u32>>(iter: I) -> Self {
        IdSimplex::from_ids(iter.into_iter().collect())
    }
}

impl fmt::Debug for IdSimplex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (i, id) in self.ids().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{id}")?;
        }
        write!(f, "⟩")
    }
}

/// Iterator over the ids of an [`IdSimplex`], ascending.
#[derive(Clone, Debug)]
pub enum IdIter<'a> {
    /// Remaining bits of a bitset simplex (either tier, widened).
    Bits(u128),
    /// Remaining ids of a sorted-vector simplex.
    Sorted(std::slice::Iter<'a, u32>),
}

impl Iterator for IdIter<'_> {
    type Item = u32;

    fn next(&mut self) -> Option<u32> {
        match self {
            IdIter::Bits(m) => {
                if *m == 0 {
                    None
                } else {
                    let id = m.trailing_zeros();
                    *m &= *m - 1;
                    Some(id)
                }
            }
            IdIter::Sorted(it) => it.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            IdIter::Bits(m) => m.count_ones() as usize,
            IdIter::Sorted(it) => it.len(),
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for IdIter<'_> {}

/// A simplicial complex over dense vertex ids: the facet anti-chain of
/// [`Complex`], with the vertex set and dimension cached (both are
/// monotone under facet insertion, so the caches never need rebuilding).
#[derive(Default)]
pub struct IdComplex {
    facets: BTreeSet<IdSimplex>,
    vertices: BTreeSet<u32>,
    dim: i32,
    /// Histogram of facet sizes (vertex counts). Kept exact so
    /// [`IdComplex::add_simplex`] can skip absorption entirely whenever
    /// every stored facet has the same size as the incoming one: two
    /// distinct equal-size simplexes are never comparable, so set
    /// insertion alone maintains the anti-chain. Protocol-complex
    /// construction inserts hundreds of thousands of equal-size facets,
    /// which this turns from O(F) into O(log F) each.
    sizes: BTreeMap<usize, usize>,
    /// Vertex → facet incidence, built on the first insertion that
    /// mixes facet sizes and kept in step with `facets` from then on.
    /// A cache: equality ignores it, `Clone` does not copy it, and
    /// [`InternedBuilder::into_parts`] drops it.
    incidence: Option<Incidence>,
    /// The pseudospheres whose union this complex is, as slot lists
    /// (see [`IdComplex::pseudosphere_cover`]). Only
    /// [`InternedBuilder::into_parts`] attaches one; any later
    /// insertion drops it. Equality ignores it; `Clone` copies it.
    cover: Option<PseudosphereCover>,
}

/// The slot lists of the pseudospheres a complex is the union of (see
/// [`IdComplex::pseudosphere_cover`]), stored flat: each pseudosphere
/// `ψ(S₀, …, S_m)` is written as `|S₀|, S₀…, |S₁|, S₁…, …`, its slots in
/// emission order and each slot's ids in option order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PseudosphereCover {
    /// Every recorded pseudosphere's layout, back to back.
    words: Vec<u32>,
    /// The end of each pseudosphere's layout in `words`.
    ends: Vec<usize>,
}

impl PseudosphereCover {
    /// Number of recorded pseudospheres.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` iff nothing is recorded.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Each recorded pseudosphere in its flat layout: for every slot,
    /// its id count followed by its ids.
    pub fn spheres(&self) -> impl Iterator<Item = &[u32]> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.words[start..end])
    }

    /// Records `ψ(slots)`.
    fn push(&mut self, slots: &[Vec<u32>]) {
        for slot in slots {
            self.words
                .push(u32::try_from(slot.len()).expect("slot size overflow"));
            self.words.extend_from_slice(slot);
        }
        self.ends.push(self.words.len());
    }
}

impl Clone for IdComplex {
    fn clone(&self) -> Self {
        IdComplex {
            facets: self.facets.clone(),
            vertices: self.vertices.clone(),
            dim: self.dim,
            sizes: self.sizes.clone(),
            incidence: None,
            cover: self.cover.clone(),
        }
    }
}

impl PartialEq for IdComplex {
    fn eq(&self, other: &Self) -> bool {
        self.facets == other.facets
            && self.vertices == other.vertices
            && self.dim == other.dim
            && self.sizes == other.sizes
    }
}

impl Eq for IdComplex {}

/// The incidence index behind mixed-size absorption: every stored facet
/// in a slot, and for every vertex the slots of the facets containing
/// it. Absorption then looks only at facets sharing a vertex with the
/// incoming simplex instead of scanning the whole anti-chain.
#[derive(Default)]
struct Incidence {
    /// Stored facets by slot; an absorbed facet's slot is left empty.
    slots: Vec<IdSimplex>,
    /// Vertex id ↦ slots of the stored facets containing it.
    by_vertex: HashMap<u32, Vec<u32>>,
}

impl Incidence {
    fn of<'a>(facets: impl IntoIterator<Item = &'a IdSimplex>) -> Self {
        let mut index = Incidence::default();
        for f in facets {
            index.insert(f.clone());
        }
        index
    }

    fn insert(&mut self, f: IdSimplex) {
        let slot = u32::try_from(self.slots.len()).expect("incidence slot overflow");
        for v in f.ids() {
            self.by_vertex.entry(v).or_default().push(slot);
        }
        self.slots.push(f);
    }

    fn remove(&mut self, slot: u32) -> IdSimplex {
        let f = std::mem::replace(&mut self.slots[slot as usize], IdSimplex::empty());
        for v in f.ids() {
            let list = self
                .by_vertex
                .get_mut(&v)
                .expect("every vertex of a stored facet is indexed");
            let at = list
                .iter()
                .position(|&x| x == slot)
                .expect("a stored facet is listed under each of its vertices");
            list.swap_remove(at);
        }
        f
    }

    fn containing(&self, v: u32) -> &[u32] {
        self.by_vertex.get(&v).map_or(&[], Vec::as_slice)
    }

    /// `true` iff some stored facet contains `s`. Such a facet contains
    /// `s`'s rarest vertex, so only that vertex's facets are tested.
    fn covers(&self, s: &IdSimplex) -> bool {
        let rarest = s
            .ids()
            .map(|v| self.containing(v))
            .min_by_key(|facets| facets.len())
            .unwrap_or(&[]);
        rarest
            .iter()
            .any(|&slot| s.is_face_of(&self.slots[slot as usize]))
    }

    /// The slots of the stored facets that are proper faces of `s`.
    /// Their vertices all lie in `s`, so each is found under its
    /// smallest vertex, and tested once.
    fn proper_faces_of(&self, s: &IdSimplex) -> Vec<u32> {
        let m = s.len();
        let mut out = Vec::new();
        for v in s.ids() {
            for &slot in self.containing(v) {
                let f = &self.slots[slot as usize];
                if f.len() < m && f.ids().next() == Some(v) && f.is_face_of(s) {
                    out.push(slot);
                }
            }
        }
        out
    }
}

/// Removes one facet of size `m` from a size histogram.
fn drop_size(sizes: &mut BTreeMap<usize, usize>, m: usize) {
    match sizes.get_mut(&m) {
        Some(c) if *c > 1 => *c -= 1,
        _ => {
            sizes.remove(&m);
        }
    }
}

impl IdComplex {
    /// The void complex.
    pub fn new() -> Self {
        IdComplex {
            facets: BTreeSet::new(),
            vertices: BTreeSet::new(),
            dim: -1,
            sizes: BTreeMap::new(),
            incidence: None,
            cover: None,
        }
    }

    /// Builds a complex from generating simplexes (faces absorbed).
    pub fn from_facets<I: IntoIterator<Item = IdSimplex>>(simplexes: I) -> Self {
        let mut c = IdComplex::new();
        for s in simplexes {
            c.add_simplex(s);
        }
        c
    }

    /// Adds a simplex (and implicitly all its faces), maintaining the
    /// facet anti-chain.
    ///
    /// While every stored facet has the size of `s` this is a set
    /// insertion. Otherwise it consults the vertex → facet incidence
    /// index (built here on first need): `s` is dropped if a stored
    /// facet containing its rarest vertex contains it, and it absorbs
    /// the smaller stored facets whose vertices all lie in `s`.
    ///
    /// Drops the pseudosphere cover, which no longer describes the
    /// complex.
    pub fn add_simplex(&mut self, s: IdSimplex) {
        self.cover = None;
        if s.is_empty() {
            return;
        }
        // Fast path: every stored facet has the same vertex count as
        // `s`. A face relation between equal-size simplexes is
        // equality, so deduplicating insertion preserves the
        // anti-chain with no index.
        let m = s.len();
        if self.sizes.len() <= 1 && self.sizes.keys().all(|&k| k == m) {
            self.insert_facet_unchecked(s);
            return;
        }
        let facets = &self.facets;
        let index = self.incidence.get_or_insert_with(|| Incidence::of(facets));
        if self.sizes.range(m..).next().is_some() && index.covers(&s) {
            return;
        }
        if self.sizes.range(..m).next().is_some() {
            for slot in index.proper_faces_of(&s) {
                let f = index.remove(slot);
                self.facets.remove(&f);
                drop_size(&mut self.sizes, f.len());
            }
        }
        self.insert_facet_unchecked(s);
    }

    /// Inserts a facet the caller guarantees is not comparable with any
    /// stored facet (e.g. all facets share a dimension and are
    /// distinct, or the insertion order is known to be an anti-chain).
    /// Skips the absorption checks of [`IdComplex::add_simplex`].
    ///
    /// Drops the pseudosphere cover, which no longer describes the
    /// complex.
    pub fn insert_facet_unchecked(&mut self, s: IdSimplex) {
        self.cover = None;
        if s.is_empty() {
            return;
        }
        self.note_caches(&s);
        let m = s.len();
        let fresh = match &mut self.incidence {
            Some(index) => {
                let fresh = self.facets.insert(s.clone());
                if fresh {
                    index.insert(s);
                }
                fresh
            }
            None => self.facets.insert(s),
        };
        if fresh {
            *self.sizes.entry(m).or_insert(0) += 1;
        }
    }

    fn note_caches(&mut self, s: &IdSimplex) {
        self.vertices.extend(s.ids());
        self.dim = self.dim.max(s.dim());
    }

    /// `true` iff the complex has no simplexes.
    pub fn is_void(&self) -> bool {
        self.facets.is_empty()
    }

    /// Dimension: the largest facet dimension, `-1` if void (cached).
    pub fn dim(&self) -> i32 {
        self.dim
    }

    /// `true` iff every facet has the same dimension.
    pub fn is_pure(&self) -> bool {
        self.facets.iter().all(|f| f.dim() == self.dim)
    }

    /// Number of facets.
    pub fn facet_count(&self) -> usize {
        self.facets.len()
    }

    /// The pseudospheres this complex is the union of, each as its
    /// slot list (a facet of `ψ(slots)` picks one id from every slot),
    /// or `None` when no such cover is known.
    ///
    /// The complex is the union of the closures of these
    /// pseudospheres, so its facets are the maximal simplexes among
    /// their facets. [`InternedBuilder::into_parts`] attaches a cover
    /// when every facet came from [`InternedBuilder::add_pseudosphere`]
    /// and the cover has fewer entries than the complex has facets;
    /// [`IdComplex::add_simplex`] and
    /// [`IdComplex::insert_facet_unchecked`] drop it.
    pub fn pseudosphere_cover(&self) -> Option<&PseudosphereCover> {
        self.cover.as_ref()
    }

    /// The [pseudosphere cover](IdComplex::pseudosphere_cover), moved
    /// out of the complex; the facets are dropped.
    pub fn into_pseudosphere_cover(self) -> Option<PseudosphereCover> {
        self.cover
    }

    /// Iterator over facets in lexicographic id order.
    pub fn facets(&self) -> impl Iterator<Item = &IdSimplex> {
        self.facets.iter()
    }

    /// `true` iff `s` is a simplex of the complex.
    pub fn contains(&self, s: &IdSimplex) -> bool {
        if s.is_empty() {
            return !self.is_void();
        }
        self.facets.iter().any(|f| s.is_face_of(f))
    }

    /// The cached vertex set.
    pub fn vertex_set(&self) -> &BTreeSet<u32> {
        &self.vertices
    }

    /// Number of distinct vertices (cached).
    pub fn vertex_count(&self) -> usize {
        self.vertices.len()
    }

    /// All simplexes of dimension `d`, deduplicated.
    pub fn simplices_of_dim(&self, d: i32) -> BTreeSet<IdSimplex> {
        let mut out = BTreeSet::new();
        if d < 0 {
            return out;
        }
        for f in &self.facets {
            if f.dim() >= d {
                out.extend(f.faces_of_dim(d));
            }
        }
        out
    }

    /// All nonempty simplexes grouped by dimension (the closure of the
    /// facet set); index `d` holds the `d`-simplexes in lexicographic
    /// order.
    pub fn all_simplices(&self) -> Vec<Vec<IdSimplex>> {
        if self.dim < 0 {
            return Vec::new();
        }
        let mut by_dim: Vec<BTreeSet<IdSimplex>> = vec![BTreeSet::new(); (self.dim + 1) as usize];
        for f in &self.facets {
            for face in f.faces() {
                if !face.is_empty() {
                    by_dim[face.dim() as usize].insert(face);
                }
            }
        }
        by_dim
            .into_iter()
            .map(|s| s.into_iter().collect())
            .collect()
    }

    /// The f-vector: `f[d]` = number of `d`-simplexes.
    pub fn f_vector(&self) -> Vec<usize> {
        self.all_simplices().iter().map(|v| v.len()).collect()
    }

    /// Euler characteristic `Σ (-1)^d f_d`.
    pub fn euler_characteristic(&self) -> i64 {
        self.f_vector()
            .iter()
            .enumerate()
            .map(|(d, &n)| if d % 2 == 0 { n as i64 } else { -(n as i64) })
            .sum()
    }

    /// The `k`-skeleton.
    pub fn skeleton(&self, k: i32) -> IdComplex {
        if k < 0 {
            return IdComplex::new();
        }
        let mut out = IdComplex::new();
        for f in &self.facets {
            if f.dim() <= k {
                out.add_simplex(f.clone());
            } else {
                for face in f.faces_of_dim(k) {
                    out.add_simplex(face);
                }
            }
        }
        out
    }

    /// Union of two complexes over the same pool.
    pub fn union(&self, other: &IdComplex) -> IdComplex {
        let mut out = self.clone();
        for f in &other.facets {
            out.add_simplex(f.clone());
        }
        out
    }

    /// Intersection of two complexes over the same pool.
    pub fn intersection(&self, other: &IdComplex) -> IdComplex {
        let mut out = IdComplex::new();
        for f in &self.facets {
            for g in &other.facets {
                out.add_simplex(f.intersection(g));
            }
        }
        out
    }

    /// The subcomplex induced by the ids satisfying `keep`.
    pub fn induced(&self, mut keep: impl FnMut(u32) -> bool) -> IdComplex {
        let mut out = IdComplex::new();
        for f in &self.facets {
            out.add_simplex(f.restrict(&mut keep));
        }
        out
    }

    /// The star of `s`: the closure of the facets containing `s`.
    pub fn star(&self, s: &IdSimplex) -> IdComplex {
        let mut out = IdComplex::new();
        // A subset of an anti-chain is an anti-chain.
        for f in self.facets.iter().filter(|f| s.is_face_of(f)) {
            out.insert_facet_unchecked(f.clone());
        }
        out
    }

    /// The link of `s`: faces of facets containing `s`, disjoint from
    /// `s`.
    pub fn link(&self, s: &IdSimplex) -> IdComplex {
        let mut out = IdComplex::new();
        for f in &self.facets {
            if s.is_face_of(f) {
                out.add_simplex(f.restrict(|id| !s.contains(id)));
            }
        }
        out
    }

    /// The simplicial join `K * L` over the same pool.
    ///
    /// With disjoint vertex sets, `f ∪ g ⊆ f' ∪ g'` forces `f ⊆ f'` and
    /// `g ⊆ g'`, so the product of two facet anti-chains is an
    /// anti-chain and absorption scans are skipped entirely.
    ///
    /// # Panics
    ///
    /// Panics if the two complexes share a vertex id.
    pub fn join(&self, other: &IdComplex) -> IdComplex {
        assert!(
            self.vertices.is_disjoint(&other.vertices),
            "join requires disjoint vertex sets"
        );
        if self.is_void() {
            return other.clone();
        }
        if other.is_void() {
            return self.clone();
        }
        let mut out = IdComplex::new();
        for f in &self.facets {
            for g in &other.facets {
                out.insert_facet_unchecked(f.union(g));
            }
        }
        out
    }

    /// Connected components of the underlying graph, as vertex-id sets.
    pub fn components(&self) -> Vec<BTreeSet<u32>> {
        let verts: Vec<u32> = self.vertices.iter().copied().collect();
        let index: HashMap<u32, usize> = verts.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let mut dsu: Vec<usize> = (0..verts.len()).collect();
        fn find(dsu: &mut [usize], mut x: usize) -> usize {
            while dsu[x] != x {
                dsu[x] = dsu[dsu[x]];
                x = dsu[x];
            }
            x
        }
        for f in &self.facets {
            let mut ids = f.ids();
            if let Some(first) = ids.next() {
                for w in ids {
                    let a = find(&mut dsu, index[&first]);
                    let b = find(&mut dsu, index[&w]);
                    dsu[a] = b;
                }
            }
        }
        let mut comps: std::collections::BTreeMap<usize, BTreeSet<u32>> = Default::default();
        for (i, &v) in verts.iter().enumerate() {
            let r = find(&mut dsu, i);
            comps.entry(r).or_default().insert(v);
        }
        comps.into_values().collect()
    }

    /// `true` iff nonempty and graph-connected.
    pub fn is_connected(&self) -> bool {
        self.components().len() == 1
    }
}

impl FromIterator<IdSimplex> for IdComplex {
    fn from_iter<I: IntoIterator<Item = IdSimplex>>(iter: I) -> Self {
        IdComplex::from_facets(iter)
    }
}

impl fmt::Debug for IdComplex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "IdComplex{{dim={}, facets=[", self.dim)?;
        for (i, s) in self.facets.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{s:?}")?;
        }
        write!(f, "]}}")
    }
}

/// Accumulates a complex from facets given as raw label collections,
/// interning each label the first time it appears. This is the hot-path
/// entry point for protocol-complex construction: facet dedup and
/// absorption run on ids (word ops) instead of deep label comparisons,
/// and labels are never sorted — only their ids are.
pub struct InternedBuilder<V> {
    pool: VertexPool<V>,
    complex: IdComplex,
    /// The slot lists of every pseudosphere added so far; `None` once a
    /// facet was added any other way.
    cover: Option<PseudosphereCover>,
}

impl<V: Label> InternedBuilder<V> {
    /// An empty builder.
    pub fn new() -> Self {
        InternedBuilder {
            pool: VertexPool::new(),
            complex: IdComplex::new(),
            cover: Some(PseudosphereCover::default()),
        }
    }

    /// The pool built so far.
    pub fn pool(&self) -> &VertexPool<V> {
        &self.pool
    }

    /// Mutable access to the pool (e.g. to pre-intern labels).
    pub fn pool_mut(&mut self) -> &mut VertexPool<V> {
        &mut self.pool
    }

    /// The id complex built so far.
    pub fn complex(&self) -> &IdComplex {
        &self.complex
    }

    /// Adds the facet spanned by `vertices` (duplicates merge), with
    /// absorption against previously added facets. The finished
    /// complex then has no pseudosphere cover.
    pub fn add_facet_vertices(&mut self, vertices: impl IntoIterator<Item = V>) {
        let ids: Vec<u32> = vertices.into_iter().map(|v| self.pool.intern(v)).collect();
        self.cover = None;
        self.complex.add_simplex(IdSimplex::from_ids(ids));
    }

    /// Adds a label simplex with absorption. The finished complex then
    /// has no pseudosphere cover.
    pub fn add_facet(&mut self, s: &Simplex<V>) {
        let id_simplex = self.pool.intern_simplex(s);
        self.cover = None;
        self.complex.add_simplex(id_simplex);
    }

    /// Adds the pseudosphere `ψ(slots)`: one facet per way of picking
    /// one option from every slot (with absorption against previously
    /// added facets). Adds nothing if `slots` or any slot is empty.
    ///
    /// Each option is interned once, in the order a lexicographic walk
    /// of the facets (slot 0 most significant, see [`for_each_product`])
    /// first meets it: every slot's first option in slot order, then
    /// the remaining options of the last slot, then those of the slot
    /// before it, and so on back to slot 0. So when every slot is sorted
    /// and every option of a slot sorts before every option of the next
    /// (as views of distinct processes in process order do), labels get
    /// exactly the ids that adding the sorted facets one by one with
    /// [`InternedBuilder::add_facet`] would give them.
    ///
    /// The slots' id sets are recorded for the finished complex's
    /// [pseudosphere cover](IdComplex::pseudosphere_cover).
    pub fn add_pseudosphere(&mut self, slots: Vec<Vec<V>>) {
        if slots.is_empty() || slots.iter().any(Vec::is_empty) {
            return;
        }
        let mut rest: Vec<std::vec::IntoIter<V>> = slots.into_iter().map(Vec::into_iter).collect();
        let mut ids: Vec<Vec<u32>> = rest
            .iter_mut()
            .map(|options| {
                let first = options.next().expect("slots are nonempty");
                vec![self.pool.intern(first)]
            })
            .collect();
        for (slot, options) in rest.into_iter().enumerate().rev() {
            ids[slot].extend(options.map(|v| self.pool.intern(v)));
        }
        if let Some(cover) = &mut self.cover {
            cover.push(&ids);
        }
        for_each_product(&ids, |pick| {
            self.complex
                .add_simplex(IdSimplex::from_ids(pick.iter().map(|&&id| id).collect()));
        });
    }

    /// Finishes, resolving back to a label-typed [`Complex`].
    pub fn finish(self) -> Complex<V> {
        Complex::from_interned(&self.pool, &self.complex)
    }

    /// Finishes, returning the raw interned parts (without the
    /// complex's incidence index, which only construction needs). The
    /// complex carries the recorded
    /// [pseudosphere cover](IdComplex::pseudosphere_cover) when only
    /// [`InternedBuilder::add_pseudosphere`] added facets and the cover
    /// has fewer entries than the complex has facets.
    pub fn into_parts(mut self) -> (VertexPool<V>, IdComplex) {
        self.complex.incidence = None;
        let facets = self.complex.facet_count();
        self.complex.cover = self.cover.filter(|cover| cover.len() < facets);
        (self.pool, self.complex)
    }
}

/// Calls `visit` with every tuple of the product
/// `slots[0] × … × slots[m−1]`, in lexicographic order with slot 0 most
/// significant (the last slot varies fastest). With no slots it visits
/// the empty tuple once (the empty product); a slot with no options
/// leaves nothing to visit.
///
/// This is the workspace's one product walk. With every slot sorted, its
/// order is that of the product's facets as sorted simplexes, so
/// protocol-complex recursions walk one round's pseudosphere with it in
/// the order the sorted complex would list it. A walk whose first slot
/// must vary fastest passes its (identical) slots and reads each tuple
/// reversed.
pub fn for_each_product<T>(slots: &[Vec<T>], mut visit: impl FnMut(&[&T])) {
    if slots.iter().any(Vec::is_empty) {
        return;
    }
    let mut idx = vec![0usize; slots.len()];
    let mut pick: Vec<&T> = slots.iter().map(|options| &options[0]).collect();
    loop {
        visit(&pick);
        let mut i = slots.len();
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            idx[i] += 1;
            if idx[i] < slots[i].len() {
                pick[i] = &slots[i][idx[i]];
                break;
            }
            idx[i] = 0;
            pick[i] = &slots[i][0];
        }
    }
}

impl<V: Label> Default for InternedBuilder<V> {
    fn default() -> Self {
        InternedBuilder::new()
    }
}

impl<V: Label> fmt::Debug for InternedBuilder<V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "InternedBuilder({} labels, {} facets)",
            self.pool.len(),
            self.complex.facet_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> IdSimplex {
        IdSimplex::from_ids(v.to_vec())
    }

    #[test]
    fn pool_bijection() {
        let mut pool = VertexPool::new();
        let a = pool.intern("b");
        let b = pool.intern("a");
        assert_eq!(pool.intern("b"), a);
        assert_eq!(pool.id_of(&"a"), Some(b));
        assert_eq!(pool.label(a), &"b");
        assert_eq!(pool.len(), 2);
        assert!(!pool.is_canonical());
        let canon = VertexPool::canonical(["b", "a", "c"]);
        assert!(canon.is_canonical());
        assert_eq!(canon.labels(), &["a", "b", "c"]);
    }

    fn product(slots: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for_each_product(slots, |pick| out.push(pick.iter().map(|&&x| x).collect()));
        out
    }

    #[test]
    fn product_walk_order_and_empty_cases() {
        // slot 0 most significant, the last slot fastest
        assert_eq!(
            product(&[vec![1, 2], vec![3], vec![4, 5, 6]]),
            [
                [1, 3, 4],
                [1, 3, 5],
                [1, 3, 6],
                [2, 3, 4],
                [2, 3, 5],
                [2, 3, 6]
            ]
        );
        // a slot with no options leaves nothing to pick
        assert!(product(&[vec![1, 2], vec![]]).is_empty());
        // no slots: the empty product has one (empty) tuple
        assert_eq!(product(&[]), [Vec::<u8>::new()]);
    }

    #[test]
    fn bits_variant_used_below_64() {
        assert!(matches!(ids(&[0, 5, 63]), IdSimplex::Bits(_)));
        assert!(matches!(ids(&[0, 64]), IdSimplex::Bits2(_)));
        assert!(matches!(ids(&[0, 127]), IdSimplex::Bits2(_)));
        assert!(matches!(ids(&[0, 128]), IdSimplex::Sorted(_)));
        assert!(matches!(IdSimplex::vertex(64), IdSimplex::Bits2(_)));
        assert!(matches!(IdSimplex::vertex(128), IdSimplex::Sorted(_)));
        // operations re-canonicalize across every tier boundary
        let big = ids(&[2, 70]);
        assert!(matches!(big.without(70), IdSimplex::Bits(_)));
        assert!(matches!(
            big.intersection(&ids(&[2, 3])),
            IdSimplex::Bits(_)
        ));
        let huge = ids(&[2, 70, 200]);
        assert!(matches!(huge.without(200), IdSimplex::Bits2(_)));
        assert!(matches!(huge.without(200).without(70), IdSimplex::Bits(_)));
        assert!(matches!(
            huge.intersection(&ids(&[2, 70, 90])),
            IdSimplex::Bits2(_)
        ));
        assert!(matches!(ids(&[1]).with(100), IdSimplex::Bits2(_)));
        assert!(matches!(ids(&[1]).with(128), IdSimplex::Sorted(_)));
    }

    /// Exhaustive tier-boundary checks of every operation against a
    /// reference computed through plain sorted vectors.
    #[test]
    fn tier_boundaries_agree_with_sorted_reference() {
        let sets: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![63],
            vec![64],
            vec![127],
            vec![128],
            vec![0, 63],
            vec![0, 64],
            vec![63, 64],
            vec![63, 127],
            vec![64, 127],
            vec![64, 128],
            vec![127, 128],
            vec![0, 63, 64, 127],
            vec![0, 64, 128],
            vec![5, 66, 130],
        ];
        for a in &sets {
            for b in &sets {
                let sa: BTreeSet<u32> = a.iter().copied().collect();
                let sb: BTreeSet<u32> = b.iter().copied().collect();
                let ia = ids(a);
                let ib = ids(b);
                assert_eq!(
                    ia.union(&ib),
                    ids(&sa.union(&sb).copied().collect::<Vec<_>>())
                );
                assert_eq!(
                    ia.intersection(&ib),
                    ids(&sa.intersection(&sb).copied().collect::<Vec<_>>())
                );
                assert_eq!(ia.is_face_of(&ib), sa.is_subset(&sb), "{a:?} ⊆ {b:?}");
                assert_eq!(ia.cmp(&ib), a.cmp(b));
                for probe in [0u32, 63, 64, 127, 128, 130] {
                    assert_eq!(ia.contains(probe), sa.contains(&probe));
                    let mut w = sa.clone();
                    w.remove(&probe);
                    assert_eq!(
                        ia.without(probe),
                        ids(&w.iter().copied().collect::<Vec<_>>())
                    );
                    let mut x = sa.clone();
                    x.insert(probe);
                    assert_eq!(ia.with(probe), ids(&x.iter().copied().collect::<Vec<_>>()));
                }
                assert_eq!(ia.ids().collect::<Vec<_>>(), a.clone());
                assert_eq!(ia.len(), a.len());
            }
        }
    }

    #[test]
    fn ordering_matches_sorted_vectors() {
        // exhaustive check on small id sets, across both variants
        let sets: Vec<Vec<u32>> = vec![
            vec![],
            vec![0],
            vec![1],
            vec![0, 1],
            vec![0, 2],
            vec![1, 2],
            vec![1, 3],
            vec![2],
            vec![0, 1, 2],
            vec![63],
            vec![64],
            vec![1, 64],
            vec![1, 70],
            vec![64, 65],
        ];
        for a in &sets {
            for b in &sets {
                let lex = a.cmp(b);
                let interned = ids(a).cmp(&ids(b));
                assert_eq!(interned, lex, "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn face_relation_and_ops() {
        let t = ids(&[1, 2, 3]);
        assert!(ids(&[1, 3]).is_face_of(&t));
        assert!(!ids(&[1, 4]).is_face_of(&t));
        assert!(IdSimplex::empty().is_face_of(&t));
        assert_eq!(t.union(&ids(&[2, 4])), ids(&[1, 2, 3, 4]));
        assert_eq!(t.intersection(&ids(&[2, 3, 4])), ids(&[2, 3]));
        assert_eq!(t.without(2), ids(&[1, 3]));
        assert_eq!(t.with(0), ids(&[0, 1, 2, 3]));
        assert_eq!(t.restrict(|i| i % 2 == 1), ids(&[1, 3]));
        assert!(t.contains(2) && !t.contains(4));
    }

    #[test]
    fn boundary_faces_match_label_simplex() {
        let t = ids(&[1, 2, 3]);
        let faces: Vec<_> = t.boundary_faces().collect();
        assert_eq!(faces, vec![ids(&[2, 3]), ids(&[1, 3]), ids(&[1, 2])]);
        assert_eq!(t.faces().count(), 8);
        assert_eq!(t.faces_of_dim(1).len(), 3);
        assert_eq!(t.faces_of_dim(-1), vec![IdSimplex::empty()]);
    }

    #[test]
    fn large_id_ops() {
        let s = ids(&[10, 64, 100]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(100));
        assert!(ids(&[10, 100]).is_face_of(&s));
        assert!(!ids(&[10, 101]).is_face_of(&s));
        assert_eq!(s.union(&ids(&[5])), ids(&[5, 10, 64, 100]));
        assert_eq!(s.ids().collect::<Vec<_>>(), vec![10, 64, 100]);
    }

    #[test]
    fn id_complex_mirrors_label_complex() {
        let mut c = IdComplex::new();
        c.add_simplex(ids(&[1, 2]));
        c.add_simplex(ids(&[1, 2, 3])); // absorbs
        c.add_simplex(ids(&[2, 3])); // already a face
        assert_eq!(c.facet_count(), 1);
        assert_eq!(c.dim(), 2);
        assert_eq!(c.vertex_count(), 3);
        assert!(c.contains(&ids(&[1, 3])));
        assert!(!c.contains(&ids(&[1, 4])));
        assert_eq!(c.f_vector(), vec![3, 3, 1]);
        assert_eq!(c.euler_characteristic(), 1);
    }

    #[test]
    fn caches_survive_absorption() {
        let mut c = IdComplex::new();
        c.add_simplex(ids(&[0, 1]));
        c.add_simplex(ids(&[2]));
        assert_eq!(c.dim(), 1);
        assert_eq!(c.vertex_count(), 3);
        c.add_simplex(ids(&[0, 1, 2]));
        assert_eq!(c.facet_count(), 1);
        assert_eq!(c.dim(), 2);
        assert_eq!(
            c.vertex_set().iter().copied().collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    /// The facet anti-chain of a generating set by brute force: the
    /// distinct nonempty generators that are faces of no other.
    fn maximal(gens: &[IdSimplex]) -> BTreeSet<IdSimplex> {
        let set: BTreeSet<IdSimplex> = gens.iter().filter(|s| !s.is_empty()).cloned().collect();
        set.iter()
            .filter(|s| !set.iter().any(|t| t != *s && s.is_face_of(t)))
            .cloned()
            .collect()
    }

    /// Builds `gens` in every rotation and its reverse; each must give
    /// the brute-force anti-chain.
    fn assert_order_independent(gens: &[IdSimplex]) -> IdComplex {
        let reference = IdComplex::from_facets(gens.to_vec());
        assert_eq!(
            reference.facets().cloned().collect::<BTreeSet<_>>(),
            maximal(gens)
        );
        for start in 0..gens.len() {
            let mut rotated: Vec<IdSimplex> = gens[start..].to_vec();
            rotated.extend_from_slice(&gens[..start]);
            assert_eq!(IdComplex::from_facets(rotated.clone()), reference);
            rotated.reverse();
            assert_eq!(IdComplex::from_facets(rotated), reference);
        }
        reference
    }

    #[test]
    fn absorption_is_insertion_order_independent() {
        // exercises the equal-size fast path, the absorbed-facet size
        // bookkeeping, and the indexed absorption: every insertion order
        // of a mixed-size generating set must yield the same anti-chain
        let gens = [
            ids(&[0, 1, 2, 3]),
            ids(&[0, 1, 2]), // face of the tetrahedron
            ids(&[4, 5, 6, 7]),
            ids(&[4, 5]), // face of the second tetrahedron
            ids(&[8, 9]),
            ids(&[8, 9]), // duplicate
            ids(&[0, 4, 8]),
            ids(&[0, 4]), // face of the triangle above
        ];
        assert_eq!(assert_order_independent(&gens).facet_count(), 4);

        // Sixty equal-size triangles over ids crossing 64 and 128 (all
        // three tiers), so the incidence index is built mid-stream by
        // the first mixed-size insert; then tetrahedra absorbing some
        // triangles, edges that are faces of stored triangles, new
        // edges, and a triangle absorbing two of those edges.
        let mut gens: Vec<IdSimplex> = (0..60u32).map(|i| ids(&[i, i + 70, i + 140])).collect();
        let absorbers: Vec<u32> = (0..60).step_by(7).collect();
        gens.extend(
            absorbers
                .iter()
                .map(|&i| ids(&[i, i + 70, i + 140, 250 + i])),
        );
        gens.extend((0..60).step_by(5).map(|i| ids(&[i, i + 140])));
        gens.extend((0..4).map(|i| ids(&[300 + i, 301 + i])));
        gens.push(ids(&[300, 301, 302]));
        gens.push(ids(&[5]));
        let c = assert_order_independent(&gens);
        assert!(c.incidence.is_some(), "mixed sizes build the index");
        assert_eq!(c.facet_count(), 60 + 3);
        assert_eq!(c.sizes.values().sum::<usize>(), c.facet_count());
        for &i in &absorbers {
            assert!(!c.facets.contains(&ids(&[i, i + 70, i + 140])));
        }
        assert!(!c.facets.contains(&ids(&[300, 301])));
        assert!(c.facets.contains(&ids(&[302, 303])));
        // the index is a cache: clones drop it and compare equal
        let copy = c.clone();
        assert!(copy.incidence.is_none());
        assert_eq!(copy, c);
    }

    #[test]
    fn skeleton_union_intersection_join() {
        let tetra = IdComplex::from_facets([ids(&[0, 1, 2, 3])]);
        assert_eq!(tetra.skeleton(1).f_vector(), vec![4, 6]);
        let a = IdComplex::from_facets([ids(&[0, 1, 2])]);
        let b = IdComplex::from_facets([ids(&[1, 2, 3])]);
        assert_eq!(a.union(&b).facet_count(), 2);
        assert_eq!(
            a.intersection(&b).facets().cloned().collect::<Vec<_>>(),
            vec![ids(&[1, 2])]
        );
        let apex = IdComplex::from_facets([ids(&[9])]);
        let circle = IdComplex::from_facets([ids(&[0, 1]), ids(&[1, 2]), ids(&[0, 2])]);
        let cone = circle.join(&apex);
        assert_eq!(cone.f_vector(), vec![4, 6, 3]);
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn join_rejects_shared_ids() {
        let a = IdComplex::from_facets([ids(&[0, 1])]);
        let b = IdComplex::from_facets([ids(&[1, 2])]);
        let _ = a.join(&b);
    }

    #[test]
    fn star_link_components() {
        let circle = IdComplex::from_facets([ids(&[0, 1]), ids(&[1, 2]), ids(&[0, 2])]);
        assert_eq!(circle.star(&IdSimplex::vertex(0)).facet_count(), 2);
        assert_eq!(
            circle
                .link(&IdSimplex::vertex(0))
                .facets()
                .cloned()
                .collect::<Vec<_>>(),
            vec![IdSimplex::vertex(1), IdSimplex::vertex(2)]
        );
        let mut c = circle.clone();
        assert!(c.is_connected());
        c.add_simplex(ids(&[7, 8]));
        assert_eq!(c.components().len(), 2);
    }

    #[test]
    fn builder_matches_from_facets() {
        let mut b = InternedBuilder::new();
        b.add_facet_vertices(["q", "p"]);
        b.add_facet_vertices(["r", "q", "p"]); // absorbs
        b.add_facet_vertices(["z", "z"]); // dedup within facet
        let c = b.finish();
        let expected = Complex::from_facets([
            Simplex::from_iter(["p", "q"]),
            Simplex::from_iter(["p", "q", "r"]),
            Simplex::from_iter(["z"]),
        ]);
        assert_eq!(c, expected);
    }

    /// ψ({a, b}, {c, d}): the 4-cycle a–c–b–d, as one recorded
    /// pseudosphere of four facets.
    fn square_builder() -> InternedBuilder<&'static str> {
        let mut b = InternedBuilder::new();
        b.add_pseudosphere(vec![vec!["a", "b"], vec!["c", "d"]]);
        b
    }

    #[test]
    fn cover_is_attached_only_to_pseudosphere_builds() {
        let (pool, c) = square_builder().into_parts();
        assert_eq!(c.facet_count(), 4);
        let id = |v| pool.id_of(&v).unwrap();
        let cover = c
            .pseudosphere_cover()
            .expect("one pseudosphere, four facets");
        assert_eq!(cover.len(), 1);
        assert_eq!(
            cover.spheres().collect::<Vec<_>>(),
            [&[2, id("a"), id("b"), 2, id("c"), id("d")][..]]
        );
        // a facet added any other way leaves no cover
        let mut b = square_builder();
        b.add_facet_vertices(["a", "e"]);
        assert!(b.into_parts().1.pseudosphere_cover().is_none());
        let mut b = square_builder();
        b.add_facet(&Simplex::from_iter(["a", "e"]));
        assert!(b.into_parts().1.pseudosphere_cover().is_none());
        // and so does a pseudosphere added after one
        let mut b = InternedBuilder::new();
        b.add_facet_vertices(["a", "e"]);
        b.add_pseudosphere(vec![vec!["a", "b"], vec!["c", "d"]]);
        assert!(b.into_parts().1.pseudosphere_cover().is_none());
        // no cover unless it is smaller than the facet set: one
        // single-facet pseudosphere, and an empty build
        let mut b = InternedBuilder::new();
        b.add_pseudosphere(vec![vec!["a"], vec!["b"]]);
        assert!(b.into_parts().1.pseudosphere_cover().is_none());
        let empty: InternedBuilder<&str> = InternedBuilder::new();
        assert!(empty.into_parts().1.pseudosphere_cover().is_none());
        // complexes built without a builder have none
        let (_, idc) = Complex::from_facets([Simplex::from_iter([1u32, 2])]).to_interned();
        assert!(idc.pseudosphere_cover().is_none());
    }

    #[test]
    fn cover_survives_clone_is_dropped_by_insertion_and_ignored_by_eq() {
        let (_, c) = square_builder().into_parts();
        let copy = c.clone();
        assert!(copy.pseudosphere_cover().is_some());
        let bare = IdComplex::from_facets(c.facets().cloned());
        assert!(bare.pseudosphere_cover().is_none());
        assert_eq!(bare, c);
        let mut added = c.clone();
        added.add_simplex(ids(&[0, 9]));
        assert!(added.pseudosphere_cover().is_none());
        let mut inserted = c.clone();
        inserted.insert_facet_unchecked(ids(&[8, 9]));
        assert!(inserted.pseudosphere_cover().is_none());
    }

    #[test]
    fn parts_move_out_as_labels_and_cover() {
        let (pool, c) = square_builder().into_parts();
        let labels = pool.labels().to_vec();
        let cover = c.pseudosphere_cover().cloned();
        assert_eq!(pool.into_labels(), labels);
        assert!(cover.is_some());
        assert_eq!(c.into_pseudosphere_cover(), cover);
    }

    #[test]
    fn interned_roundtrip_is_identity() {
        let c = Complex::from_facets([
            Simplex::from_iter([3u32, 1]),
            Simplex::from_iter([5, 7, 9]),
            Simplex::from_iter([2]),
        ]);
        let (pool, idc) = c.to_interned();
        assert!(pool.is_canonical());
        assert_eq!(idc.facet_count(), c.facet_count());
        assert_eq!(idc.dim(), c.dim());
        assert_eq!(idc.vertex_count(), c.vertex_count());
        assert_eq!(Complex::from_interned(&pool, &idc), c);
    }
}
