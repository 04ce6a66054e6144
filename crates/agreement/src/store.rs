//! A persistent, content-addressed store of canonical solvability
//! verdicts.
//!
//! The unification theorem makes a verdict a function of the canonical
//! structure of (model, n, f, r, task) alone, so verdicts are perfectly
//! content-addressable: the store key is the **exact** canonical
//! instance key ([`ExactKey`] — inexact, budget-cut canonicalizations
//! are unrepresentable by construction) plus the agreement constraint,
//! serialized to a deterministic byte string. Two runs, machines, or
//! years that pose the same canonical question get the same address.
//!
//! Instances whose canonicalization exceeds its node budget fall back
//! to a **structural** address ([`StructuralKey`]): the instance
//! encoded verbatim in build order. That is still an exact content
//! address (byte equality implies isomorphism — it is the identity
//! relabeling), just without the quotient by isomorphism, so it hits
//! only for identically-built instances. The two address spaces are
//! kept disjoint by a kind byte in the encoding.
//!
//! On disk the store is a directory of **versioned append-only
//! segments** (`seg-NNNNNN.psv`). Writers never modify an existing
//! segment: a flush serializes the pending records into a fresh
//! segment, written to a temporary file and atomically renamed into
//! place, so readers (and crashed writers) never observe a
//! half-written segment under its final name. Within a segment,
//! records are individually checksummed; loading is
//! corruption-tolerant — a record that fails its magic, bounds, or
//! checksum ends that segment's scan (framing is lost past the first
//! bad byte) and the skip is counted in [`StoreReport`], never
//! propagated as a wrong verdict.
//!
//! Record layout (all integers little-endian), after an 8-byte segment
//! header `"PSVS" ++ u32 version`:
//!
//! ```text
//! 0xA5  u32 key_len  u32 val_len  u64 fnv1a64(key ++ val)  key  val
//! ```
//!
//! The key bytes encode `(version, kind, constraint, domain_table,
//! colors, facets)` of the canonical (or verbatim) form; the value
//! bytes encode `(solvable, vertices, facets)`. See `DESIGN.md` §9 for
//! the full discipline and the soundness argument.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use crate::solver::AgreementConstraint;
use crate::symmetry::{ExactKey, InstanceFingerprint, InstanceKey, StructuralKey};

/// Segment file magic.
const SEGMENT_MAGIC: &[u8; 4] = b"PSVS";
/// On-disk format version (bumped on any layout change).
const FORMAT_VERSION: u32 = 1;
/// Per-record magic byte.
const RECORD_MAGIC: u8 = 0xA5;
/// Key-encoding version byte (leading byte of every key).
const KEY_VERSION: u8 = 1;

/// FNV-1a 64-bit over a pair of byte slices.
fn fnv1a64(a: &[u8], b: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in a.iter().chain(b) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Key-kind byte: address derived from an exact canonical form.
const KIND_CANONICAL: u8 = 0;
/// Key-kind byte: address derived from the verbatim (structural)
/// instance encoding — the fallback when canonicalization exceeds its
/// budget. The kind byte keeps the two address spaces disjoint.
const KIND_STRUCTURAL: u8 = 1;

/// A serialized store address: an instance key plus agreement
/// constraint. Constructible only from an [`ExactKey`] (canonical
/// addresses) or a [`StructuralKey`] (verbatim addresses) — both exact
/// encodings; a budget-cut canonicalization is unrepresentable.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct StoreKey {
    bytes: Vec<u8>,
    fingerprint: InstanceFingerprint,
}

impl StoreKey {
    /// Serializes `(canonical key, constraint)` into a deterministic
    /// address shared by every isomorphic instance.
    pub fn new(key: &ExactKey, constraint: AgreementConstraint) -> StoreKey {
        Self::encode(KIND_CANONICAL, key.key(), constraint, key.fingerprint())
    }

    /// Serializes `(structural key, constraint)` into a deterministic
    /// address shared only by identically-built instances — the sound
    /// fallback when exact canonicalization is out of budget.
    pub fn structural(key: &StructuralKey, constraint: AgreementConstraint) -> StoreKey {
        Self::encode(KIND_STRUCTURAL, key.key(), constraint, key.fingerprint())
    }

    fn encode(
        kind: u8,
        k: &InstanceKey,
        constraint: AgreementConstraint,
        fingerprint: InstanceFingerprint,
    ) -> StoreKey {
        let mut b = Vec::new();
        b.push(KEY_VERSION);
        b.push(kind);
        match constraint {
            AgreementConstraint::AtMostKDistinct(k) => {
                b.push(0);
                b.extend_from_slice(&(k as u64).to_le_bytes());
            }
            AgreementConstraint::AllDistinct => {
                b.push(1);
                b.extend_from_slice(&0u64.to_le_bytes());
            }
            AgreementConstraint::MaxRange(d) => {
                b.push(2);
                b.extend_from_slice(&d.to_le_bytes());
            }
        }
        b.extend_from_slice(&(k.domain_table.len() as u32).to_le_bytes());
        for dom in &k.domain_table {
            b.extend_from_slice(&(dom.len() as u32).to_le_bytes());
            for &v in dom {
                b.extend_from_slice(&v.to_le_bytes());
            }
        }
        b.extend_from_slice(&(k.colors.len() as u32).to_le_bytes());
        for &c in &k.colors {
            b.extend_from_slice(&c.to_le_bytes());
        }
        b.extend_from_slice(&(k.facets.len() as u32).to_le_bytes());
        for f in &k.facets {
            b.extend_from_slice(&(f.len() as u32).to_le_bytes());
            for &v in f {
                b.extend_from_slice(&v.to_le_bytes());
            }
        }
        StoreKey {
            bytes: b,
            fingerprint,
        }
    }

    /// The serialized address bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The cheap isomorphism-invariant fingerprint of the keyed
    /// instance (see [`ExactKey::fingerprint`]).
    pub fn fingerprint(&self) -> &InstanceFingerprint {
        &self.fingerprint
    }
}

/// A little-endian cursor over untrusted bytes; every read is
/// bounds-checked.
struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(b: &'a [u8]) -> Reader<'a> {
        Reader { b, pos: 0 }
    }

    fn u8(&mut self) -> Option<u8> {
        let v = *self.b.get(self.pos)?;
        self.pos += 1;
        Some(v)
    }

    fn u32(&mut self) -> Option<u32> {
        let s = self.b.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        let s = self.b.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn done(&self) -> bool {
        self.pos == self.b.len()
    }
}

/// Recovers the instance fingerprint from serialized key bytes — the
/// inverse of the fingerprint half of [`StoreKey::new`], used at load
/// time to rebuild the pre-filter index without re-solving anything.
fn decode_fingerprint(bytes: &[u8]) -> Option<InstanceFingerprint> {
    let mut r = Reader::new(bytes);
    if r.u8()? != KEY_VERSION {
        return None;
    }
    if r.u8()? > KIND_STRUCTURAL {
        return None; // key kind
    }
    if r.u8()? > 2 {
        return None; // constraint tag
    }
    r.u64()?; // constraint parameter
    let nd = r.u32()? as usize;
    let mut domain_table: Vec<Vec<u64>> = Vec::with_capacity(nd.min(1024));
    for _ in 0..nd {
        let len = r.u32()? as usize;
        let mut dom = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            dom.push(r.u64()?);
        }
        domain_table.push(dom);
    }
    let nc = r.u32()? as usize;
    let mut domains: Vec<Vec<u64>> = Vec::with_capacity(nc.min(4096));
    for _ in 0..nc {
        let c = r.u32()? as usize;
        domains.push(domain_table.get(c)?.clone());
    }
    let nf = r.u32()? as usize;
    let mut facet_sizes: Vec<usize> = Vec::with_capacity(nf.min(4096));
    for _ in 0..nf {
        let len = r.u32()? as usize;
        for _ in 0..len {
            r.u32()?;
        }
        facet_sizes.push(len);
    }
    if !r.done() {
        return None;
    }
    facet_sizes.sort_unstable();
    domains.sort_unstable();
    Some((nc, facet_sizes, domains))
}

/// One stored solvability verdict: the answer plus the size of the
/// complex that was searched (canonical relabeling preserves both, so
/// a warm replay reports the same counts a cold solve would).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StoredVerdict {
    /// `true` iff a decision map exists.
    pub solvable: bool,
    /// Vertices of the searched protocol complex.
    pub vertices: u64,
    /// Facets of the searched protocol complex.
    pub facets: u64,
}

impl StoredVerdict {
    fn encode(&self) -> [u8; 17] {
        let mut b = [0u8; 17];
        b[0] = u8::from(self.solvable);
        b[1..9].copy_from_slice(&self.vertices.to_le_bytes());
        b[9..17].copy_from_slice(&self.facets.to_le_bytes());
        b
    }

    fn decode(bytes: &[u8]) -> Option<StoredVerdict> {
        let mut r = Reader::new(bytes);
        let s = r.u8()?;
        if s > 1 {
            return None;
        }
        let vertices = r.u64()?;
        let facets = r.u64()?;
        if !r.done() {
            return None;
        }
        Some(StoredVerdict {
            solvable: s == 1,
            vertices,
            facets,
        })
    }
}

/// Load/health counters for a store directory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreReport {
    /// Segment files successfully opened (valid header).
    pub segments: usize,
    /// Valid records loaded across all segments (duplicates counted).
    pub records: usize,
    /// Records skipped for bad magic, framing, checksum, or encoding;
    /// a skip ends its segment's scan, so trailing records after a
    /// torn write are counted here too.
    pub skipped_records: usize,
    /// Segment files skipped wholesale (missing or foreign header).
    pub skipped_segments: usize,
}

/// The persistent canonical-verdict store: an in-memory index over a
/// directory of append-only segments (module docs for the format).
///
/// [`insert`]ed verdicts are buffered and durable only after
/// [`flush`], which writes exactly one new segment atomically —
/// callers checkpoint by flushing at natural boundaries, and a killed
/// process loses at most its unflushed buffer, never an existing
/// record.
///
/// [`insert`]: VerdictStore::insert
/// [`flush`]: VerdictStore::flush
#[derive(Debug)]
pub struct VerdictStore {
    dir: PathBuf,
    map: BTreeMap<Vec<u8>, StoredVerdict>,
    fingerprints: BTreeSet<InstanceFingerprint>,
    pending: Vec<(Vec<u8>, StoredVerdict)>,
    next_segment: u64,
    report: StoreReport,
}

impl VerdictStore {
    /// Opens (creating if absent) the store directory and loads every
    /// segment, tolerating corrupt tails (see [`StoreReport`]).
    pub fn open(dir: impl AsRef<Path>) -> io::Result<VerdictStore> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        let mut segs: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|e| e == "psv"))
            .collect();
        segs.sort();
        let mut store = VerdictStore {
            dir,
            map: BTreeMap::new(),
            fingerprints: BTreeSet::new(),
            pending: Vec::new(),
            next_segment: 0,
            report: StoreReport::default(),
        };
        for seg in segs {
            if let Some(idx) = segment_index(&seg) {
                store.next_segment = store.next_segment.max(idx + 1);
            }
            store.load_segment(&seg)?;
        }
        Ok(store)
    }

    /// The directory backing this store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn load_segment(&mut self, path: &Path) -> io::Result<()> {
        let data = fs::read(path)?;
        if data.len() < 8 || &data[..4] != SEGMENT_MAGIC {
            self.report.skipped_segments += 1;
            return Ok(());
        }
        let version = u32::from_le_bytes(data[4..8].try_into().unwrap());
        if version != FORMAT_VERSION {
            self.report.skipped_segments += 1;
            return Ok(());
        }
        self.report.segments += 1;
        let mut pos = 8usize;
        while pos < data.len() {
            // header: magic(1) key_len(4) val_len(4) checksum(8)
            let Some(head) = data.get(pos..pos + 17) else {
                self.report.skipped_records += 1;
                break;
            };
            if head[0] != RECORD_MAGIC {
                self.report.skipped_records += 1;
                break;
            }
            let key_len = u32::from_le_bytes(head[1..5].try_into().unwrap()) as usize;
            let val_len = u32::from_le_bytes(head[5..9].try_into().unwrap()) as usize;
            let checksum = u64::from_le_bytes(head[9..17].try_into().unwrap());
            let key_start = pos + 17;
            let Some(key) = data.get(key_start..key_start + key_len) else {
                self.report.skipped_records += 1;
                break;
            };
            let Some(val) = data.get(key_start + key_len..key_start + key_len + val_len) else {
                self.report.skipped_records += 1;
                break;
            };
            if fnv1a64(key, val) != checksum {
                self.report.skipped_records += 1;
                break;
            }
            let (Some(fp), Some(verdict)) = (decode_fingerprint(key), StoredVerdict::decode(val))
            else {
                self.report.skipped_records += 1;
                break;
            };
            self.map.insert(key.to_vec(), verdict);
            self.fingerprints.insert(fp);
            self.report.records += 1;
            pos = key_start + key_len + val_len;
        }
        Ok(())
    }

    /// Looks up a verdict by exact canonical address.
    pub fn get(&self, key: &StoreKey) -> Option<StoredVerdict> {
        self.map.get(key.as_bytes()).copied()
    }

    /// Whether any stored verdict's instance has this fingerprint.
    /// `false` proves the exact lookup would miss (fingerprints are
    /// isomorphism invariants), letting callers skip computing a
    /// canonical key at all on cold instances.
    pub fn contains_fingerprint(&self, fp: &InstanceFingerprint) -> bool {
        self.fingerprints.contains(fp)
    }

    /// Buffers a verdict for the next [`flush`]. Returns `false` (and
    /// buffers nothing) when the address is already present.
    ///
    /// [`flush`]: VerdictStore::flush
    pub fn insert(&mut self, key: &StoreKey, verdict: StoredVerdict) -> bool {
        if self.map.contains_key(key.as_bytes()) {
            return false;
        }
        self.map.insert(key.as_bytes().to_vec(), verdict);
        self.fingerprints.insert(key.fingerprint().clone());
        self.pending.push((key.as_bytes().to_vec(), verdict));
        true
    }

    /// Writes all buffered records as one new segment: serialize to
    /// `<segment>.tmp`, fsync, atomically rename into place. Returns
    /// the number of records made durable (0 for an empty buffer, in
    /// which case no file is touched).
    pub fn flush(&mut self) -> io::Result<usize> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        let mut buf = Vec::new();
        buf.extend_from_slice(SEGMENT_MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        for (key, verdict) in &self.pending {
            let val = verdict.encode();
            buf.push(RECORD_MAGIC);
            buf.extend_from_slice(&(key.len() as u32).to_le_bytes());
            buf.extend_from_slice(&(val.len() as u32).to_le_bytes());
            buf.extend_from_slice(&fnv1a64(key, &val).to_le_bytes());
            buf.extend_from_slice(key);
            buf.extend_from_slice(&val);
        }
        let final_path = self.dir.join(format!("seg-{:06}.psv", self.next_segment));
        let tmp_path = final_path.with_extension("psv.tmp");
        {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(&buf)?;
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        let n = self.pending.len();
        self.pending.clear();
        self.next_segment += 1;
        self.report.segments += 1;
        self.report.records += n;
        Ok(n)
    }

    /// Number of distinct addresses known (durable + buffered).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the store knows no verdicts at all.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of records buffered but not yet flushed.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Load/health counters (see [`StoreReport`]).
    pub fn report(&self) -> StoreReport {
        self.report
    }
}

/// Parses the numeric index out of a `seg-NNNNNN.psv` file name.
fn segment_index(path: &Path) -> Option<u64> {
    let stem = path.file_stem()?.to_str()?;
    stem.strip_prefix("seg-")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{allowed_values, async_task_parts, sync_task_parts};
    use crate::solver::PreparedInstance;
    use crate::symmetry::{instance_fingerprint, instance_key};
    use std::collections::BTreeSet as Set;

    /// A fresh store directory, private to this test process.
    fn tmp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("psph-store-unit-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_keys() -> Vec<StoreKey> {
        let values: Set<u64> = (0..=1).collect();
        let mut out = Vec::new();
        for (n, f) in [(2usize, 1usize), (3, 1)] {
            let (pool, c) = async_task_parts(&values, n, f, 1);
            let inst = PreparedInstance::from_interned(&pool, &c, allowed_values);
            let key = instance_key(&inst).expect("exact");
            out.push(StoreKey::new(&key, AgreementConstraint::AtMostKDistinct(1)));
            out.push(StoreKey::new(&key, AgreementConstraint::AtMostKDistinct(2)));
        }
        out
    }

    #[test]
    fn round_trip_and_reload() {
        let dir = tmp_dir("roundtrip");
        let keys = sample_keys();
        let mut store = VerdictStore::open(&dir).unwrap();
        for (i, k) in keys.iter().enumerate() {
            let v = StoredVerdict {
                solvable: i % 2 == 0,
                vertices: 10 + i as u64,
                facets: 20 + i as u64,
            };
            assert!(store.insert(k, v));
            // duplicate insert is a no-op
            assert!(!store.insert(k, v));
        }
        assert_eq!(store.flush().unwrap(), keys.len());
        assert_eq!(store.flush().unwrap(), 0, "empty flush writes nothing");
        let reloaded = VerdictStore::open(&dir).unwrap();
        assert_eq!(reloaded.len(), keys.len());
        assert_eq!(reloaded.report().skipped_records, 0);
        for (i, k) in keys.iter().enumerate() {
            let v = reloaded.get(k).expect("present after reload");
            assert_eq!(v.solvable, i % 2 == 0);
            assert_eq!(v.vertices, 10 + i as u64);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn constraint_distinguishes_addresses() {
        let keys = sample_keys();
        // same canonical key, different k → different address bytes
        assert_ne!(keys[0].as_bytes(), keys[1].as_bytes());
        // same constraint, different instance → different address bytes
        assert_ne!(keys[0].as_bytes(), keys[2].as_bytes());
    }

    #[test]
    fn canonical_and_structural_addresses_are_disjoint() {
        let values: Set<u64> = (0..=1).collect();
        let (pool, c) = async_task_parts(&values, 3, 1, 1);
        let inst = PreparedInstance::from_interned(&pool, &c, allowed_values);
        let exact = instance_key(&inst).expect("exact");
        let structural = StructuralKey::of(&inst);
        let a = StoreKey::new(&exact, AgreementConstraint::AtMostKDistinct(1));
        let b = StoreKey::structural(&structural, AgreementConstraint::AtMostKDistinct(1));
        // same instance, same constraint — but the address spaces never
        // collide, and both decode to the same invariant fingerprint
        assert_ne!(a.as_bytes(), b.as_bytes());
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(
            decode_fingerprint(b.as_bytes()).expect("decodes"),
            instance_fingerprint(&inst)
        );
    }

    #[test]
    fn fingerprint_survives_serialization() {
        let values: Set<u64> = (0..=1).collect();
        let (pool, c) = sync_task_parts(&values, 3, 1, 1, 1);
        let inst = PreparedInstance::from_interned(&pool, &c, allowed_values);
        let key = instance_key(&inst).expect("exact");
        let sk = StoreKey::new(&key, AgreementConstraint::AtMostKDistinct(1));
        assert_eq!(*sk.fingerprint(), instance_fingerprint(&inst));
        assert_eq!(
            decode_fingerprint(sk.as_bytes()).expect("decodes"),
            instance_fingerprint(&inst)
        );
    }

    #[test]
    fn fingerprint_prefilter_proves_misses() {
        let dir = tmp_dir("prefilter");
        let keys = sample_keys();
        let mut store = VerdictStore::open(&dir).unwrap();
        store.insert(
            &keys[0],
            StoredVerdict {
                solvable: false,
                vertices: 1,
                facets: 1,
            },
        );
        store.flush().unwrap();
        let reloaded = VerdictStore::open(&dir).unwrap();
        // keys[0] and keys[1] share an instance (fingerprint present);
        // keys[2] is a different instance, provably absent
        assert!(reloaded.contains_fingerprint(keys[0].fingerprint()));
        assert!(reloaded.contains_fingerprint(keys[1].fingerprint()));
        assert!(!reloaded.contains_fingerprint(keys[2].fingerprint()));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncated_tail_is_skipped_not_fatal() {
        let dir = tmp_dir("truncate");
        let keys = sample_keys();
        let mut store = VerdictStore::open(&dir).unwrap();
        for k in &keys {
            store.insert(
                k,
                StoredVerdict {
                    solvable: true,
                    vertices: 7,
                    facets: 9,
                },
            );
        }
        store.flush().unwrap();
        // tear the last record mid-payload
        let seg = dir.join("seg-000000.psv");
        let len = fs::metadata(&seg).unwrap().len();
        let f = fs::OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 10).unwrap();
        drop(f);
        let reloaded = VerdictStore::open(&dir).unwrap();
        assert_eq!(reloaded.report().skipped_records, 1);
        assert_eq!(reloaded.len(), keys.len() - 1);
        // intact records still served
        assert!(reloaded.get(&keys[0]).is_some());
        assert!(reloaded.get(&keys[keys.len() - 1]).is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_checksum_is_skipped() {
        let dir = tmp_dir("checksum");
        let keys = sample_keys();
        let mut store = VerdictStore::open(&dir).unwrap();
        store.insert(
            &keys[0],
            StoredVerdict {
                solvable: true,
                vertices: 7,
                facets: 9,
            },
        );
        store.flush().unwrap();
        let seg = dir.join("seg-000000.psv");
        let mut data = fs::read(&seg).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xFF; // flip a payload bit
        fs::write(&seg, &data).unwrap();
        let reloaded = VerdictStore::open(&dir).unwrap();
        assert_eq!(reloaded.report().skipped_records, 1);
        assert!(reloaded.is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn foreign_file_is_skipped_wholesale() {
        let dir = tmp_dir("foreign");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("seg-000000.psv"), b"not a segment").unwrap();
        let store = VerdictStore::open(&dir).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.report().skipped_segments, 1);
        // a writer opening this dir appends *after* the foreign file
        let mut store = VerdictStore::open(&dir).unwrap();
        store.insert(
            &sample_keys()[0],
            StoredVerdict {
                solvable: false,
                vertices: 3,
                facets: 3,
            },
        );
        store.flush().unwrap();
        assert!(dir.join("seg-000001.psv").exists());
        fs::remove_dir_all(&dir).unwrap();
    }
}
