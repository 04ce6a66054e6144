//! Construction digests: a fingerprint of every `*_task_parts` result
//! over a fixed grid — the vertex pool's labels in id order, then the
//! facets in order — checked against a table recorded once.
//!
//! Pool ids are assigned in discovery order, and store addresses, the
//! solver's search order and every work counter follow from that order.
//! So a change to how protocol complexes are built must reproduce not
//! only the facet set but the order in which labels were first interned.
//! These tests pin both, for all five models.
//!
//! The digest is 64-bit FNV-1a over an explicit byte encoding of each
//! view tree (process, input, heard keys, semi-synchronous microround and
//! children), so it does not depend on `std::hash` or on the toolchain.
//!
//! A second table pins the symbolic unions the Mayer–Vietoris prover
//! reads: for each `symbolic_protocol_union` instance, the members in
//! order, each as its base and its families. Realizing a union forgets
//! member order, but the flat prover peels members in that order.
//!
//! A third table pins realization: `Pseudosphere::realize` on the
//! paper's figures, on uniform and on degenerate family sets,
//! `PseudosphereUnion::realize` on the sync and semi-sync one-round
//! unions and on a Corollary 8 union, and every Byzantine fixed-`B` round,
//! built directly and as a realized pseudosphere. Each row digests the
//! label-sorted facets.
//!
//! Regenerate the tables, only when construction's output is meant to
//! change, with
//!
//! ```text
//! cargo test --release --test construction_digest -- --ignored --nocapture
//! ```
//!
//! and paste the printed rows over `DIGESTS`, `SYMBOLIC_DIGESTS` and
//! `REALIZE_DIGESTS`.

use std::collections::BTreeSet;

use pseudosphere::agreement::{
    async_task_parts, byzantine_task_parts, dynamic_task_parts, semisync_task_parts,
    sync_task_parts,
};
use pseudosphere::core::{
    process_simplex, subsets_up_to_size_lex, ProcessId, Pseudosphere, PseudosphereUnion,
};
use pseudosphere::models::{
    input_simplex, AsyncModel, ByzantineModel, GraphFamily, SemiSyncModel, SsView, SyncModel, View,
    ViewVector,
};
use pseudosphere::topology::{Complex, IdComplex, Label, VertexPool};

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u32(&mut self, x: u32) {
        self.bytes(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// An explicit, toolchain-independent byte encoding of a vertex label.
trait Encode {
    fn encode(&self, h: &mut Fnv);
}

impl Encode for View<u64> {
    fn encode(&self, h: &mut Fnv) {
        match self {
            View::Input { process, input } => {
                h.bytes(&[0]);
                h.u32(process.0);
                h.u64(*input);
            }
            View::Round { process, heard } => {
                h.bytes(&[1]);
                h.u32(process.0);
                h.u64(heard.len() as u64);
                for (q, child) in heard {
                    h.u32(q.0);
                    child.encode(h);
                }
            }
        }
    }
}

impl Encode for SsView<u64> {
    fn encode(&self, h: &mut Fnv) {
        match self {
            SsView::Input { process, input } => {
                h.bytes(&[0]);
                h.u32(process.0);
                h.u64(*input);
            }
            SsView::Round { process, heard } => {
                h.bytes(&[1]);
                h.u32(process.0);
                h.u64(heard.len() as u64);
                for (q, (mu, child)) in heard {
                    h.u32(q.0);
                    h.u32(*mu);
                    child.encode(h);
                }
            }
        }
    }
}

/// What one `*_task_parts` call produced: pool size, facet count and
/// the digest of both in order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Built {
    vertices: usize,
    facets: usize,
    digest: u64,
}

fn digest<V: Encode + Label>((pool, complex): (VertexPool<V>, IdComplex)) -> Built {
    let mut h = Fnv::new();
    h.u64(pool.len() as u64);
    for label in pool.labels() {
        label.encode(&mut h);
    }
    h.u64(complex.facet_count() as u64);
    for facet in complex.facets() {
        h.u64(facet.len() as u64);
        for id in facet.ids() {
            h.u32(id);
        }
    }
    Built {
        vertices: pool.len(),
        facets: complex.facet_count(),
        digest: h.0,
    }
}

/// One grid instance: the model, its parameters and the value domain
/// `{0, …, values − 1}`.
#[derive(Clone, Copy, Debug)]
enum Case {
    Sync {
        n_plus_1: usize,
        k_per_round: usize,
        f: usize,
        rounds: usize,
        values: u64,
    },
    Async {
        n_plus_1: usize,
        f: usize,
        rounds: usize,
        values: u64,
    },
    SemiSync {
        n_plus_1: usize,
        k_per_round: usize,
        f: usize,
        microrounds: u32,
        rounds: usize,
        values: u64,
    },
    Byzantine {
        n_plus_1: usize,
        t: usize,
        rounds: usize,
        values: u64,
    },
    Dynamic {
        n_plus_1: usize,
        family: GraphFamily,
        rounds: usize,
        values: u64,
    },
}

impl Case {
    fn name(&self) -> String {
        match *self {
            Case::Sync {
                n_plus_1,
                k_per_round,
                f,
                rounds,
                values,
            } => format!("sync n+1={n_plus_1} kpr={k_per_round} f={f} r={rounds} v={values}"),
            Case::Async {
                n_plus_1,
                f,
                rounds,
                values,
            } => format!("async n+1={n_plus_1} f={f} r={rounds} v={values}"),
            Case::SemiSync {
                n_plus_1,
                k_per_round,
                f,
                microrounds,
                rounds,
                values,
            } => format!(
                "semisync n+1={n_plus_1} kpr={k_per_round} f={f} p={microrounds} r={rounds} \
                 v={values}"
            ),
            Case::Byzantine {
                n_plus_1,
                t,
                rounds,
                values,
            } => format!("byzantine n+1={n_plus_1} t={t} r={rounds} v={values}"),
            Case::Dynamic {
                n_plus_1,
                family,
                rounds,
                values,
            } => format!(
                "dynamic n+1={n_plus_1} {} r={rounds} v={values}",
                family.name()
            ),
        }
    }

    fn build(&self) -> Built {
        let domain = |values: u64| -> BTreeSet<u64> { (0..values).collect() };
        match *self {
            Case::Sync {
                n_plus_1,
                k_per_round,
                f,
                rounds,
                values,
            } => digest(sync_task_parts(
                &domain(values),
                n_plus_1,
                k_per_round,
                f,
                rounds,
            )),
            Case::Async {
                n_plus_1,
                f,
                rounds,
                values,
            } => digest(async_task_parts(&domain(values), n_plus_1, f, rounds)),
            Case::SemiSync {
                n_plus_1,
                k_per_round,
                f,
                microrounds,
                rounds,
                values,
            } => digest(semisync_task_parts(
                &domain(values),
                n_plus_1,
                k_per_round,
                f,
                microrounds,
                rounds,
            )),
            Case::Byzantine {
                n_plus_1,
                t,
                rounds,
                values,
            } => digest(byzantine_task_parts(&domain(values), n_plus_1, t, rounds)),
            Case::Dynamic {
                n_plus_1,
                family,
                rounds,
                values,
            } => digest(dynamic_task_parts(
                &domain(values),
                n_plus_1,
                family,
                rounds,
            )),
        }
    }
}

/// Which part of the grid a case belongs to; each part is checked by
/// its own test so the parts run in parallel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Part {
    Sync,
    Async,
    SemiSync,
    Byzantine,
    Dynamic,
    /// Five-process sync: the benchmark's sync `construct` group and
    /// EXPERIMENTS.md E20.
    FiveProcessSync,
}

fn part_of(case: &Case) -> Part {
    match case {
        Case::Sync { .. } => Part::Sync,
        Case::Async { .. } => Part::Async,
        Case::SemiSync { .. } => Part::SemiSync,
        Case::Byzantine { .. } => Part::Byzantine,
        Case::Dynamic { .. } => Part::Dynamic,
    }
}

/// The small grid: every model over `{0, 1}` and `{0, 1, 2}`, with at
/// most three processes and two rounds or four processes and one round,
/// plus two-round sync on four processes over `{0, 1}`. (Two-round
/// async, semi-synchronous, Byzantine and dynamic complexes on four
/// processes took the builder this table was recorded with from
/// seconds to hours.)
fn small_grid() -> Vec<Case> {
    let mut out = Vec::new();
    for values in [2u64, 3] {
        for n_plus_1 in 2..=4usize {
            let max_rounds = if n_plus_1 == 4 { 1 } else { 2 };
            for f in 0..n_plus_1 {
                for k_per_round in 1..=f.max(1) {
                    let sync_rounds = if values == 2 { 2 } else { max_rounds };
                    for rounds in 1..=sync_rounds {
                        out.push(Case::Sync {
                            n_plus_1,
                            k_per_round,
                            f,
                            rounds,
                            values,
                        });
                    }
                }
            }
            for f in 0..n_plus_1 {
                for rounds in 1..=max_rounds {
                    out.push(Case::Async {
                        n_plus_1,
                        f,
                        rounds,
                        values,
                    });
                }
            }
            for f in 0..n_plus_1 {
                for k_per_round in 1..=f.max(1) {
                    for microrounds in 1..=2 {
                        for rounds in 1..=max_rounds {
                            out.push(Case::SemiSync {
                                n_plus_1,
                                k_per_round,
                                f,
                                microrounds,
                                rounds,
                                values,
                            });
                        }
                    }
                }
            }
            for t in 0..n_plus_1.min(3) {
                for rounds in 1..=max_rounds {
                    out.push(Case::Byzantine {
                        n_plus_1,
                        t,
                        rounds,
                        values,
                    });
                }
            }
            for family in [GraphFamily::Rooted, GraphFamily::StronglyConnected] {
                for rounds in 1..=max_rounds {
                    out.push(Case::Dynamic {
                        n_plus_1,
                        family,
                        rounds,
                        values,
                    });
                }
            }
        }
    }
    out
}

/// The benchmark's sync `construct` group and E20's sync n+1=5 kpr=2
/// f=2 r=1 instance, both over `{0, 1, 2}`. The other three `construct`
/// groups (async n+1=4 f=2, byzantine n+1=4 t=1, dynamic rooted n+1=3,
/// one round over `{0, 1, 2}`) are in the small grid.
fn large_grid() -> Vec<Case> {
    vec![
        Case::Sync {
            n_plus_1: 5,
            k_per_round: 1,
            f: 1,
            rounds: 1,
            values: 3,
        },
        Case::Sync {
            n_plus_1: 5,
            k_per_round: 2,
            f: 2,
            rounds: 1,
            values: 3,
        },
    ]
}

fn grid() -> Vec<(Part, Case)> {
    let mut out: Vec<(Part, Case)> = small_grid().into_iter().map(|c| (part_of(&c), c)).collect();
    out.extend(large_grid().into_iter().map(|c| (Part::FiveProcessSync, c)));
    out
}

/// `(name, vertices, facets, digest)` per grid case, recorded by
/// `generate_digest_table`.
const DIGESTS: &[(&str, usize, usize, u64)] = &[
    ("sync n+1=2 kpr=1 f=0 r=1 v=2", 8, 4, 0xa6ad592809a78e25),
    ("sync n+1=2 kpr=1 f=0 r=2 v=2", 8, 4, 0x622fc495bd3dc419),
    ("sync n+1=2 kpr=1 f=1 r=1 v=2", 12, 8, 0x1838e43e3bde8645),
    ("sync n+1=2 kpr=1 f=1 r=2 v=2", 20, 16, 0x3ca4af02faf88ac9),
    ("async n+1=2 f=0 r=1 v=2", 8, 4, 0xa6ad592809a78e25),
    ("async n+1=2 f=0 r=2 v=2", 8, 4, 0x622fc495bd3dc419),
    ("async n+1=2 f=1 r=1 v=2", 12, 16, 0x8be04d0df7fe8fc3),
    ("async n+1=2 f=1 r=2 v=2", 44, 64, 0x83687dc7c061c07f),
    (
        "semisync n+1=2 kpr=1 f=0 p=1 r=1 v=2",
        8,
        4,
        0x7eab1d6560561d2d,
    ),
    (
        "semisync n+1=2 kpr=1 f=0 p=1 r=2 v=2",
        8,
        4,
        0x211742402687bc49,
    ),
    (
        "semisync n+1=2 kpr=1 f=0 p=2 r=1 v=2",
        8,
        4,
        0x0b2f66d104f33c85,
    ),
    (
        "semisync n+1=2 kpr=1 f=0 p=2 r=2 v=2",
        8,
        4,
        0x4fc1892647daef91,
    ),
    (
        "semisync n+1=2 kpr=1 f=1 p=1 r=1 v=2",
        12,
        8,
        0x7712e6adc8e64f5d,
    ),
    (
        "semisync n+1=2 kpr=1 f=1 p=1 r=2 v=2",
        20,
        16,
        0x77f4f0cb05d6c639,
    ),
    (
        "semisync n+1=2 kpr=1 f=1 p=2 r=1 v=2",
        20,
        16,
        0x740e0c77b339be23,
    ),
    (
        "semisync n+1=2 kpr=1 f=1 p=2 r=2 v=2",
        36,
        32,
        0xc6fdf805a75c9eb3,
    ),
    ("byzantine n+1=2 t=0 r=1 v=2", 8, 4, 0xa6ad592809a78e25),
    ("byzantine n+1=2 t=0 r=2 v=2", 8, 4, 0x622fc495bd3dc419),
    ("byzantine n+1=2 t=1 r=1 v=2", 12, 8, 0xe1a6630b3afaf017),
    ("byzantine n+1=2 t=1 r=2 v=2", 36, 32, 0xe1c86a5950e10dd1),
    ("dynamic n+1=2 rooted r=1 v=2", 12, 12, 0xb600578ecf6ad449),
    ("dynamic n+1=2 rooted r=2 v=2", 36, 36, 0x59ff45945059957b),
    ("dynamic n+1=2 strong r=1 v=2", 8, 4, 0xa6ad592809a78e25),
    ("dynamic n+1=2 strong r=2 v=2", 8, 4, 0x622fc495bd3dc419),
    ("sync n+1=3 kpr=1 f=0 r=1 v=2", 24, 8, 0x795fc1120cba3d51),
    ("sync n+1=3 kpr=1 f=0 r=2 v=2", 24, 8, 0x82e2b87059fdc761),
    ("sync n+1=3 kpr=1 f=1 r=1 v=2", 48, 68, 0xc3050ed8e59c2551),
    ("sync n+1=3 kpr=1 f=1 r=2 v=2", 192, 140, 0x7188f32e126c9219),
    ("sync n+1=3 kpr=1 f=2 r=1 v=2", 54, 74, 0xec362e2ac67fea09),
    ("sync n+1=3 kpr=1 f=2 r=2 v=2", 246, 194, 0xef9598c9ba793765),
    ("sync n+1=3 kpr=2 f=2 r=1 v=2", 54, 74, 0x95eecb05f6664975),
    ("sync n+1=3 kpr=2 f=2 r=2 v=2", 246, 194, 0xdbd74d06cd6a3e53),
    ("async n+1=3 f=0 r=1 v=2", 24, 8, 0x795fc1120cba3d51),
    ("async n+1=3 f=0 r=2 v=2", 24, 8, 0x82e2b87059fdc761),
    ("async n+1=3 f=1 r=1 v=2", 48, 216, 0xe6c87add43d877ad),
    ("async n+1=3 f=1 r=2 v=2", 1056, 5832, 0x56581b65039b68cc),
    ("async n+1=3 f=2 r=1 v=2", 54, 512, 0xf8ea203da6e26636),
    ("async n+1=3 f=2 r=2 v=2", 2262, 32768, 0x5c7357d846ae7d30),
    (
        "semisync n+1=3 kpr=1 f=0 p=1 r=1 v=2",
        24,
        8,
        0xdf700d12d8ead679,
    ),
    (
        "semisync n+1=3 kpr=1 f=0 p=1 r=2 v=2",
        24,
        8,
        0xc4177698fc21fc91,
    ),
    (
        "semisync n+1=3 kpr=1 f=0 p=2 r=1 v=2",
        24,
        8,
        0xbea3e5ae6b1092f9,
    ),
    (
        "semisync n+1=3 kpr=1 f=0 p=2 r=2 v=2",
        24,
        8,
        0x471b4398148bc1e9,
    ),
    (
        "semisync n+1=3 kpr=1 f=1 p=1 r=1 v=2",
        48,
        68,
        0xc5f8b5189b8dc411,
    ),
    (
        "semisync n+1=3 kpr=1 f=1 p=1 r=2 v=2",
        192,
        140,
        0x77541f216f657939,
    ),
    (
        "semisync n+1=3 kpr=1 f=1 p=2 r=1 v=2",
        96,
        140,
        0x590cbf8e723f28a1,
    ),
    (
        "semisync n+1=3 kpr=1 f=1 p=2 r=2 v=2",
        384,
        284,
        0x475b70df5ff25e01,
    ),
    (
        "semisync n+1=3 kpr=1 f=2 p=1 r=1 v=2",
        54,
        74,
        0xbacb83539f2bab89,
    ),
    (
        "semisync n+1=3 kpr=1 f=2 p=1 r=2 v=2",
        246,
        194,
        0x35679cc8437c8259,
    ),
    (
        "semisync n+1=3 kpr=1 f=2 p=2 r=1 v=2",
        126,
        170,
        0xbfadd8ef8954c0d5,
    ),
    (
        "semisync n+1=3 kpr=1 f=2 p=2 r=2 v=2",
        822,
        722,
        0xb5bed74bdc99289c,
    ),
    (
        "semisync n+1=3 kpr=2 f=2 p=1 r=1 v=2",
        54,
        74,
        0x595fe166a3fb12e1,
    ),
    (
        "semisync n+1=3 kpr=2 f=2 p=1 r=2 v=2",
        246,
        194,
        0xf2dc034a4b99bb1b,
    ),
    (
        "semisync n+1=3 kpr=2 f=2 p=2 r=1 v=2",
        150,
        194,
        0xf8ac8e3ebe70ba89,
    ),
    (
        "semisync n+1=3 kpr=2 f=2 p=2 r=2 v=2",
        870,
        770,
        0xe55a4b2cc08d979b,
    ),
    ("byzantine n+1=3 t=0 r=1 v=2", 24, 8, 0x795fc1120cba3d51),
    ("byzantine n+1=3 t=0 r=2 v=2", 24, 8, 0x82e2b87059fdc761),
    ("byzantine n+1=3 t=1 r=1 v=2", 48, 92, 0x6b85c82465ffb2a5),
    ("byzantine n+1=3 t=1 r=2 v=2", 624, 956, 0x10c1e2952fef56c8),
    ("byzantine n+1=3 t=2 r=1 v=2", 54, 98, 0x1229133ebafb29c3),
    (
        "byzantine n+1=3 t=2 r=2 v=2",
        1422,
        1754,
        0xa37ced75d71f56fc,
    ),
    ("dynamic n+1=3 rooted r=1 v=2", 54, 408, 0x44cfc6f59a981dc2),
    (
        "dynamic n+1=3 rooted r=2 v=2",
        1926,
        20808,
        0x770ff64edfa6c215,
    ),
    ("dynamic n+1=3 strong r=1 v=2", 48, 144, 0x81ca02b8864b374d),
    (
        "dynamic n+1=3 strong r=2 v=2",
        816,
        2592,
        0xcf07930ef02377bb,
    ),
    ("sync n+1=4 kpr=1 f=0 r=1 v=2", 64, 16, 0xe821cd42dff5e575),
    ("sync n+1=4 kpr=1 f=0 r=2 v=2", 64, 16, 0x293709b309b07875),
    ("sync n+1=4 kpr=1 f=1 r=1 v=2", 160, 432, 0xa91279dee0c585e6),
    (
        "sync n+1=4 kpr=1 f=1 r=2 v=2",
        1504,
        880,
        0xe89d86817cb7289b,
    ),
    ("sync n+1=4 kpr=1 f=2 r=1 v=2", 208, 648, 0x624c4e4b4eb25f97),
    (
        "sync n+1=4 kpr=1 f=2 r=2 v=2",
        3088,
        4552,
        0x18b24203e1c4b7d2,
    ),
    (
        "sync n+1=4 kpr=2 f=2 r=1 v=2",
        208,
        1032,
        0x5967c8dc150e24b9,
    ),
    (
        "sync n+1=4 kpr=2 f=2 r=2 v=2",
        3856,
        5320,
        0x8295ee6d85fa7133,
    ),
    ("sync n+1=4 kpr=1 f=3 r=1 v=2", 216, 656, 0xdc2ed6ab1612d44b),
    (
        "sync n+1=4 kpr=1 f=3 r=2 v=2",
        3240,
        4704,
        0xd0c87265c6614b6d,
    ),
    (
        "sync n+1=4 kpr=2 f=3 r=1 v=2",
        216,
        1040,
        0xcdddba2a4a92b695,
    ),
    (
        "sync n+1=4 kpr=2 f=3 r=2 v=2",
        4072,
        5536,
        0x12d878a1969f55ec,
    ),
    (
        "sync n+1=4 kpr=3 f=3 r=1 v=2",
        216,
        1040,
        0x7b4c5bdc0b9af239,
    ),
    (
        "sync n+1=4 kpr=3 f=3 r=2 v=2",
        4072,
        5536,
        0x01683016d0591246,
    ),
    ("async n+1=4 f=0 r=1 v=2", 64, 16, 0xe821cd42dff5e575),
    ("async n+1=4 f=1 r=1 v=2", 160, 4096, 0x80f33ab7d4233a01),
    ("async n+1=4 f=2 r=1 v=2", 208, 38416, 0xc08f97e881a4e755),
    ("async n+1=4 f=3 r=1 v=2", 216, 65536, 0xd51c240a231e8ad4),
    (
        "semisync n+1=4 kpr=1 f=0 p=1 r=1 v=2",
        64,
        16,
        0xc778d37388b8e455,
    ),
    (
        "semisync n+1=4 kpr=1 f=0 p=2 r=1 v=2",
        64,
        16,
        0x2c60c68903fbf695,
    ),
    (
        "semisync n+1=4 kpr=1 f=1 p=1 r=1 v=2",
        160,
        432,
        0xe3a2278985f00c9a,
    ),
    (
        "semisync n+1=4 kpr=1 f=1 p=2 r=1 v=2",
        352,
        880,
        0xfba84dd1d2c1a517,
    ),
    (
        "semisync n+1=4 kpr=1 f=2 p=1 r=1 v=2",
        208,
        648,
        0xbd45d648bd78c75b,
    ),
    (
        "semisync n+1=4 kpr=1 f=2 p=2 r=1 v=2",
        592,
        1384,
        0x3c01746439495264,
    ),
    (
        "semisync n+1=4 kpr=2 f=2 p=1 r=1 v=2",
        208,
        1032,
        0x0fcfa650b0dd300d,
    ),
    (
        "semisync n+1=4 kpr=2 f=2 p=2 r=1 v=2",
        784,
        3784,
        0xf527c92160bfd7ce,
    ),
    (
        "semisync n+1=4 kpr=1 f=3 p=1 r=1 v=2",
        216,
        656,
        0xe0211f23f0deb083,
    ),
    (
        "semisync n+1=4 kpr=1 f=3 p=2 r=1 v=2",
        648,
        1440,
        0xe449a44ea29a7a3e,
    ),
    (
        "semisync n+1=4 kpr=2 f=3 p=1 r=1 v=2",
        216,
        1040,
        0xc67da47395acb395,
    ),
    (
        "semisync n+1=4 kpr=2 f=3 p=2 r=1 v=2",
        936,
        3936,
        0x1f04ab2eb9dc9889,
    ),
    (
        "semisync n+1=4 kpr=3 f=3 p=1 r=1 v=2",
        216,
        1040,
        0x859d797ecf3ed799,
    ),
    (
        "semisync n+1=4 kpr=3 f=3 p=2 r=1 v=2",
        1000,
        4000,
        0x9a6470d403cf71f5,
    ),
    ("byzantine n+1=4 t=0 r=1 v=2", 64, 16, 0xe821cd42dff5e575),
    ("byzantine n+1=4 t=1 r=1 v=2", 160, 816, 0x447911549c07b1d8),
    ("byzantine n+1=4 t=2 r=1 v=2", 208, 1992, 0xcad24ed359a54c28),
    (
        "dynamic n+1=4 rooted r=1 v=2",
        216,
        57824,
        0x7f32bc92ca6dcda8,
    ),
    (
        "dynamic n+1=4 strong r=1 v=2",
        208,
        25696,
        0xacf587f2fe60f6ed,
    ),
    ("sync n+1=2 kpr=1 f=0 r=1 v=3", 18, 9, 0xab72fbf426dd969a),
    ("sync n+1=2 kpr=1 f=0 r=2 v=3", 18, 9, 0xf1b66e166dd2bdba),
    ("sync n+1=2 kpr=1 f=1 r=1 v=3", 24, 15, 0x5fbf2876dfaaa0ba),
    ("sync n+1=2 kpr=1 f=1 r=2 v=3", 42, 33, 0xa639a3ca07d6f636),
    ("async n+1=2 f=0 r=1 v=3", 18, 9, 0xab72fbf426dd969a),
    ("async n+1=2 f=0 r=2 v=3", 18, 9, 0xf1b66e166dd2bdba),
    ("async n+1=2 f=1 r=1 v=3", 24, 36, 0x899ada7d4a3d0859),
    ("async n+1=2 f=1 r=2 v=3", 96, 144, 0xa8044df1ac250a15),
    (
        "semisync n+1=2 kpr=1 f=0 p=1 r=1 v=3",
        18,
        9,
        0x06d57ab5c3738f2e,
    ),
    (
        "semisync n+1=2 kpr=1 f=0 p=1 r=2 v=3",
        18,
        9,
        0x0fdf86ad45146fde,
    ),
    (
        "semisync n+1=2 kpr=1 f=0 p=2 r=1 v=3",
        18,
        9,
        0xe536ef418896efea,
    ),
    (
        "semisync n+1=2 kpr=1 f=0 p=2 r=2 v=3",
        18,
        9,
        0x8c6b571b5456c5aa,
    ),
    (
        "semisync n+1=2 kpr=1 f=1 p=1 r=1 v=3",
        24,
        15,
        0x290101d5ebcd3e3a,
    ),
    (
        "semisync n+1=2 kpr=1 f=1 p=1 r=2 v=3",
        42,
        33,
        0x6f34d444c3a7c91a,
    ),
    (
        "semisync n+1=2 kpr=1 f=1 p=2 r=1 v=3",
        42,
        33,
        0xc6c89e5ca8af0d76,
    ),
    (
        "semisync n+1=2 kpr=1 f=1 p=2 r=2 v=3",
        78,
        69,
        0xb88577d459cd5c7a,
    ),
    ("byzantine n+1=2 t=0 r=1 v=3", 18, 9, 0xab72fbf426dd969a),
    ("byzantine n+1=2 t=0 r=2 v=3", 18, 9, 0xf1b66e166dd2bdba),
    ("byzantine n+1=2 t=1 r=1 v=3", 24, 15, 0x03b17cc74ee88114),
    ("byzantine n+1=2 t=1 r=2 v=3", 84, 75, 0x149cbfbae4fb803e),
    ("dynamic n+1=2 rooted r=1 v=3", 24, 27, 0xb0afec6286d9291f),
    ("dynamic n+1=2 rooted r=2 v=3", 78, 81, 0xc90629fcd0d10a96),
    ("dynamic n+1=2 strong r=1 v=3", 18, 9, 0xab72fbf426dd969a),
    ("dynamic n+1=2 strong r=2 v=3", 18, 9, 0xf1b66e166dd2bdba),
    ("sync n+1=3 kpr=1 f=0 r=1 v=3", 81, 27, 0x519b820e683018fe),
    ("sync n+1=3 kpr=1 f=0 r=2 v=3", 81, 27, 0x2cc877f5bbd4cd22),
    ("sync n+1=3 kpr=1 f=1 r=1 v=3", 135, 216, 0xba6fbd1d0822dccb),
    ("sync n+1=3 kpr=1 f=1 r=2 v=3", 621, 459, 0xb780cb4a4b09d562),
    ("sync n+1=3 kpr=1 f=2 r=1 v=3", 144, 225, 0x9b2a863db662fb41),
    ("sync n+1=3 kpr=1 f=2 r=2 v=3", 765, 603, 0xdc8b5c17a346df76),
    ("sync n+1=3 kpr=2 f=2 r=1 v=3", 144, 225, 0x7db2fbb9152ce371),
    ("sync n+1=3 kpr=2 f=2 r=2 v=3", 765, 603, 0xbd4d80188ea358fd),
    ("async n+1=3 f=0 r=1 v=3", 81, 27, 0x519b820e683018fe),
    ("async n+1=3 f=0 r=2 v=3", 81, 27, 0x2cc877f5bbd4cd22),
    ("async n+1=3 f=1 r=1 v=3", 135, 729, 0x0303701b6750e0b7),
    ("async n+1=3 f=1 r=2 v=3", 3537, 19683, 0xe7b0300f713c482c),
    ("async n+1=3 f=2 r=1 v=3", 144, 1728, 0x66779aeaff033fa7),
    ("async n+1=3 f=2 r=2 v=3", 7488, 110592, 0x6a1e9108e8230457),
    (
        "semisync n+1=3 kpr=1 f=0 p=1 r=1 v=3",
        81,
        27,
        0xfe56a117e1318b4f,
    ),
    (
        "semisync n+1=3 kpr=1 f=0 p=1 r=2 v=3",
        81,
        27,
        0x8595a1bc81dbc42a,
    ),
    (
        "semisync n+1=3 kpr=1 f=0 p=2 r=1 v=3",
        81,
        27,
        0x961f958adedb916c,
    ),
    (
        "semisync n+1=3 kpr=1 f=0 p=2 r=2 v=3",
        81,
        27,
        0xbdb0804d07584f52,
    ),
    (
        "semisync n+1=3 kpr=1 f=1 p=1 r=1 v=3",
        135,
        216,
        0xad8d64b915cda03a,
    ),
    (
        "semisync n+1=3 kpr=1 f=1 p=1 r=2 v=3",
        621,
        459,
        0x1daed789c91d09ba,
    ),
    (
        "semisync n+1=3 kpr=1 f=1 p=2 r=1 v=3",
        297,
        459,
        0xbdcccb849dfb77b2,
    ),
    (
        "semisync n+1=3 kpr=1 f=1 p=2 r=2 v=3",
        1269,
        945,
        0x0e057165db508fff,
    ),
    (
        "semisync n+1=3 kpr=1 f=2 p=1 r=1 v=3",
        144,
        225,
        0x14b8a7e8086e4dc7,
    ),
    (
        "semisync n+1=3 kpr=1 f=2 p=1 r=2 v=3",
        765,
        603,
        0x4d6fb1869495a3e4,
    ),
    (
        "semisync n+1=3 kpr=1 f=2 p=2 r=1 v=3",
        360,
        522,
        0xf5507a327f637bbb,
    ),
    (
        "semisync n+1=3 kpr=1 f=2 p=2 r=2 v=3",
        2655,
        2331,
        0x8b31ad4226d43eb3,
    ),
    (
        "semisync n+1=3 kpr=2 f=2 p=1 r=1 v=3",
        144,
        225,
        0x19fd7583a01f3b8f,
    ),
    (
        "semisync n+1=3 kpr=2 f=2 p=1 r=2 v=3",
        765,
        603,
        0x04e2ff17e00e7c97,
    ),
    (
        "semisync n+1=3 kpr=2 f=2 p=2 r=1 v=3",
        441,
        603,
        0xa4f3f7b8c7daf001,
    ),
    (
        "semisync n+1=3 kpr=2 f=2 p=2 r=2 v=3",
        2817,
        2493,
        0x0a788bbb820d0704,
    ),
    ("byzantine n+1=3 t=0 r=1 v=3", 81, 27, 0x519b820e683018fe),
    ("byzantine n+1=3 t=0 r=2 v=3", 81, 27, 0x2cc877f5bbd4cd22),
    ("byzantine n+1=3 t=1 r=1 v=3", 135, 360, 0x0f05af2baaff93a9),
    (
        "byzantine n+1=3 t=1 r=2 v=3",
        3051,
        5868,
        0x33d0194c981ca571,
    ),
    ("byzantine n+1=3 t=2 r=1 v=3", 144, 369, 0xb5b1e4c7aa37355d),
    (
        "byzantine n+1=3 t=2 r=2 v=3",
        8460,
        11277,
        0x093ae8b93c93e705,
    ),
    (
        "dynamic n+1=3 rooted r=1 v=3",
        144,
        1377,
        0xe8b1a6632d50fe4a,
    ),
    (
        "dynamic n+1=3 rooted r=2 v=3",
        6381,
        70227,
        0x512e32f447fb9671,
    ),
    ("dynamic n+1=3 strong r=1 v=3", 135, 486, 0x3e2dc81dc4b42418),
    (
        "dynamic n+1=3 strong r=2 v=3",
        2754,
        8748,
        0x86648d97ac2835c3,
    ),
    ("sync n+1=4 kpr=1 f=0 r=1 v=3", 324, 81, 0xb334657fd0ff10af),
    (
        "sync n+1=4 kpr=1 f=1 r=1 v=3",
        648,
        2133,
        0xfa11bb9dbb03aabe,
    ),
    (
        "sync n+1=4 kpr=1 f=2 r=1 v=3",
        756,
        2835,
        0x07e8d5b778469003,
    ),
    (
        "sync n+1=4 kpr=2 f=2 r=1 v=3",
        756,
        4779,
        0x1513325d97ec8240,
    ),
    (
        "sync n+1=4 kpr=1 f=3 r=1 v=3",
        768,
        2847,
        0xa6b22eae3da451fc,
    ),
    (
        "sync n+1=4 kpr=2 f=3 r=1 v=3",
        768,
        4791,
        0xcc66eb61bdd51efb,
    ),
    (
        "sync n+1=4 kpr=3 f=3 r=1 v=3",
        768,
        4791,
        0x7e8896e8dd69a0fd,
    ),
    ("async n+1=4 f=0 r=1 v=3", 324, 81, 0xb334657fd0ff10af),
    ("async n+1=4 f=1 r=1 v=3", 648, 20736, 0x11a6ece86da1a6b8),
    ("async n+1=4 f=2 r=1 v=3", 756, 194481, 0xde9efff697e0ae67),
    ("async n+1=4 f=3 r=1 v=3", 768, 331776, 0x5dc44a850e2e3dc1),
    (
        "semisync n+1=4 kpr=1 f=0 p=1 r=1 v=3",
        324,
        81,
        0x4776ad22aba8823f,
    ),
    (
        "semisync n+1=4 kpr=1 f=0 p=2 r=1 v=3",
        324,
        81,
        0x9bc67c1238f92bbf,
    ),
    (
        "semisync n+1=4 kpr=1 f=1 p=1 r=1 v=3",
        648,
        2133,
        0xba1249404402035e,
    ),
    (
        "semisync n+1=4 kpr=1 f=1 p=2 r=1 v=3",
        1620,
        4401,
        0xd27ae51522962f10,
    ),
    (
        "semisync n+1=4 kpr=1 f=2 p=1 r=1 v=3",
        756,
        2835,
        0xf58e8dd2b9342243,
    ),
    (
        "semisync n+1=4 kpr=1 f=2 p=2 r=1 v=3",
        2376,
        6075,
        0x52357e2f65d2b29b,
    ),
    (
        "semisync n+1=4 kpr=2 f=2 p=1 r=1 v=3",
        756,
        4779,
        0x4377d36f909e36a0,
    ),
    (
        "semisync n+1=4 kpr=2 f=2 p=2 r=1 v=3",
        3348,
        18225,
        0x0e38889b9f372ec3,
    ),
    (
        "semisync n+1=4 kpr=1 f=3 p=1 r=1 v=3",
        768,
        2847,
        0x431f7f769a692c74,
    ),
    (
        "semisync n+1=4 kpr=1 f=3 p=2 r=1 v=3",
        2496,
        6195,
        0xf6a42327102d4ee0,
    ),
    (
        "semisync n+1=4 kpr=2 f=3 p=1 r=1 v=3",
        768,
        4791,
        0x4998e3fa80a8f5f7,
    ),
    (
        "semisync n+1=4 kpr=2 f=3 p=2 r=1 v=3",
        3792,
        18669,
        0x5d3bf51e78bad489,
    ),
    (
        "semisync n+1=4 kpr=3 f=3 p=1 r=1 v=3",
        768,
        4791,
        0xb7c5315c602941c9,
    ),
    (
        "semisync n+1=4 kpr=3 f=3 p=2 r=1 v=3",
        4116,
        18993,
        0xf8708a6561eaf33a,
    ),
    ("byzantine n+1=4 t=0 r=1 v=3", 324, 81, 0xb334657fd0ff10af),
    ("byzantine n+1=4 t=1 r=1 v=3", 648, 6453, 0x87854bad55bbfe4c),
    (
        "byzantine n+1=4 t=2 r=1 v=3",
        756,
        15651,
        0x8dfc666d12e4e2ea,
    ),
    (
        "dynamic n+1=4 rooted r=1 v=3",
        768,
        292734,
        0x230c507eadffbe8d,
    ),
    (
        "dynamic n+1=4 strong r=1 v=3",
        756,
        130086,
        0x7d373e9a51f7a2c2,
    ),
    (
        "sync n+1=5 kpr=1 f=1 r=1 v=3",
        2835,
        17658,
        0x349649dbc047e4f6,
    ),
    (
        "sync n+1=5 kpr=2 f=2 r=1 v=3",
        3645,
        115128,
        0xd2bd834e497f0d2e,
    ),
];

fn check(part: Part) {
    let mut failures = Vec::new();
    for (p, case) in grid() {
        if p != part {
            continue;
        }
        let name = case.name();
        let Some(&(_, vertices, facets, digest)) = DIGESTS.iter().find(|row| row.0 == name) else {
            failures.push(format!("{name}: no recorded digest"));
            continue;
        };
        let built = case.build();
        let expected = Built {
            vertices,
            facets,
            digest,
        };
        if built != expected {
            failures.push(format!("{name}: built {built:?}, recorded {expected:?}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn table_matches_grid() {
    let names: Vec<String> = grid().iter().map(|(_, c)| c.name()).collect();
    let unique: BTreeSet<&String> = names.iter().collect();
    assert_eq!(unique.len(), names.len(), "grid names must be unique");
    let recorded: Vec<&str> = DIGESTS.iter().map(|row| row.0).collect();
    assert_eq!(recorded, names, "DIGESTS rows must follow the grid order");
}

#[test]
fn sync_digests() {
    check(Part::Sync);
}

#[test]
fn async_digests() {
    check(Part::Async);
}

#[test]
fn semisync_digests() {
    check(Part::SemiSync);
}

#[test]
fn byzantine_digests() {
    check(Part::Byzantine);
}

#[test]
fn dynamic_digests() {
    check(Part::Dynamic);
}

#[test]
fn five_process_sync_digests() {
    check(Part::FiveProcessSync);
}

/// Prints the `DIGESTS` table for the current code, with each case's
/// build time on standard error.
#[test]
#[ignore = "generator: prints the DIGESTS table (run with --nocapture)"]
fn generate_digest_table() {
    println!("const DIGESTS: &[(&str, usize, usize, u64)] = &[");
    for (_, case) in grid() {
        let start = std::time::Instant::now();
        let built = case.build();
        eprintln!("{:>9.3}s {}", start.elapsed().as_secs_f64(), case.name());
        println!(
            "    ({:?}, {}, {}, {:#018x}),",
            case.name(),
            built.vertices,
            built.facets,
            built.digest
        );
    }
    println!("];");
}

/// One symbolic-union instance on three processes: the model, the
/// inputs of `P0, P1, …` (a two-entry list is the face without `P2`)
/// and the round count.
#[derive(Clone, Copy, Debug)]
enum SymbolicCase {
    Sync {
        k_per_round: usize,
        f: usize,
        inputs: &'static [u64],
        rounds: usize,
    },
    Async {
        f: usize,
        inputs: &'static [u64],
        rounds: usize,
    },
}

impl SymbolicCase {
    fn name(&self) -> String {
        match *self {
            SymbolicCase::Sync {
                k_per_round,
                f,
                inputs,
                rounds,
            } => format!("sync kpr={k_per_round} f={f} in={inputs:?} r={rounds}"),
            SymbolicCase::Async { f, inputs, rounds } => {
                format!("async f={f} in={inputs:?} r={rounds}")
            }
        }
    }

    fn union(&self) -> PseudosphereUnion<ProcessId, View<u64>> {
        match *self {
            SymbolicCase::Sync {
                k_per_round,
                f,
                inputs,
                rounds,
            } => SyncModel::new(3, k_per_round, f)
                .symbolic_protocol_union(&input_simplex(inputs), rounds),
            SymbolicCase::Async { f, inputs, rounds } => {
                AsyncModel::new(3, f).symbolic_protocol_union(&input_simplex(inputs), rounds)
            }
        }
    }
}

fn symbolic_grid() -> Vec<SymbolicCase> {
    const INPUTS: [&[u64]; 3] = [&[0, 1, 2], &[0, 0, 1], &[0, 1]];
    let mut out = Vec::new();
    for (k_per_round, f) in [(1, 1), (2, 2), (1, 2)] {
        for inputs in INPUTS {
            for rounds in 0..=2 {
                out.push(SymbolicCase::Sync {
                    k_per_round,
                    f,
                    inputs,
                    rounds,
                });
            }
        }
    }
    for f in 0..=2 {
        for inputs in INPUTS {
            for rounds in 0..=2 {
                out.push(SymbolicCase::Async { f, inputs, rounds });
            }
        }
    }
    out
}

/// Member count and digest of a union: per member in order, its base
/// processes, then per base process its family's views in order.
fn symbolic_digest(union: &PseudosphereUnion<ProcessId, View<u64>>) -> (usize, u64) {
    let mut h = Fnv::new();
    h.u64(union.len() as u64);
    for member in union.members() {
        h.u64(member.base().len() as u64);
        for p in member.base().vertices() {
            h.u32(p.0);
        }
        for p in member.base().vertices() {
            let family = member.family(p).expect("families cover the base");
            h.u64(family.len() as u64);
            for view in family {
                view.encode(&mut h);
            }
        }
    }
    (union.len(), h.0)
}

/// `(name, members, digest)` per symbolic case, recorded by
/// `generate_symbolic_table`.
const SYMBOLIC_DIGESTS: &[(&str, usize, u64)] = &[
    ("sync kpr=1 f=1 in=[0, 1, 2] r=0", 1, 0x30484e0d9f6b2d41),
    ("sync kpr=1 f=1 in=[0, 1, 2] r=1", 4, 0x17dc97b6761c2e5a),
    ("sync kpr=1 f=1 in=[0, 1, 2] r=2", 16, 0xcd540cf4d9837042),
    ("sync kpr=1 f=1 in=[0, 0, 1] r=0", 1, 0x412a40a5746c601d),
    ("sync kpr=1 f=1 in=[0, 0, 1] r=1", 4, 0xbeb1e83f41b9730a),
    ("sync kpr=1 f=1 in=[0, 0, 1] r=2", 16, 0x944d0e6b7d59bd2e),
    ("sync kpr=1 f=1 in=[0, 1] r=0", 1, 0xcdf8bff0a3463c79),
    ("sync kpr=1 f=1 in=[0, 1] r=1", 3, 0x6feaec8eeba23302),
    ("sync kpr=1 f=1 in=[0, 1] r=2", 7, 0x53cf8f551c78df08),
    ("sync kpr=2 f=2 in=[0, 1, 2] r=0", 1, 0x30484e0d9f6b2d41),
    ("sync kpr=2 f=2 in=[0, 1, 2] r=1", 7, 0x37ef863983e9f325),
    ("sync kpr=2 f=2 in=[0, 1, 2] r=2", 55, 0xbfbe1589fda39865),
    ("sync kpr=2 f=2 in=[0, 0, 1] r=0", 1, 0x412a40a5746c601d),
    ("sync kpr=2 f=2 in=[0, 0, 1] r=1", 7, 0xe2f7c0740889710b),
    ("sync kpr=2 f=2 in=[0, 0, 1] r=2", 55, 0x2c9449d47eb0b85b),
    ("sync kpr=2 f=2 in=[0, 1] r=0", 1, 0xcdf8bff0a3463c79),
    ("sync kpr=2 f=2 in=[0, 1] r=1", 3, 0x6feaec8eeba23302),
    ("sync kpr=2 f=2 in=[0, 1] r=2", 7, 0x53cf8f551c78df08),
    ("sync kpr=1 f=2 in=[0, 1, 2] r=0", 1, 0x30484e0d9f6b2d41),
    ("sync kpr=1 f=2 in=[0, 1, 2] r=1", 4, 0x17dc97b6761c2e5a),
    ("sync kpr=1 f=2 in=[0, 1, 2] r=2", 40, 0x1b72dd7630cb59d6),
    ("sync kpr=1 f=2 in=[0, 0, 1] r=0", 1, 0x412a40a5746c601d),
    ("sync kpr=1 f=2 in=[0, 0, 1] r=1", 4, 0xbeb1e83f41b9730a),
    ("sync kpr=1 f=2 in=[0, 0, 1] r=2", 40, 0xc6bb3c1cc0b206ae),
    ("sync kpr=1 f=2 in=[0, 1] r=0", 1, 0xcdf8bff0a3463c79),
    ("sync kpr=1 f=2 in=[0, 1] r=1", 3, 0x6feaec8eeba23302),
    ("sync kpr=1 f=2 in=[0, 1] r=2", 7, 0x53cf8f551c78df08),
    ("async f=0 in=[0, 1, 2] r=0", 1, 0x30484e0d9f6b2d41),
    ("async f=0 in=[0, 1, 2] r=1", 1, 0xb1424183f96e2917),
    ("async f=0 in=[0, 1, 2] r=2", 1, 0xde8fa297790a8f77),
    ("async f=0 in=[0, 0, 1] r=0", 1, 0x412a40a5746c601d),
    ("async f=0 in=[0, 0, 1] r=1", 1, 0x9d5a927a6194daeb),
    ("async f=0 in=[0, 0, 1] r=2", 1, 0xaf5d010d8d394763),
    ("async f=0 in=[0, 1] r=0", 0, 0xa8c7f832281a39c5),
    ("async f=0 in=[0, 1] r=1", 0, 0xa8c7f832281a39c5),
    ("async f=0 in=[0, 1] r=2", 0, 0xa8c7f832281a39c5),
    ("async f=1 in=[0, 1, 2] r=0", 1, 0x30484e0d9f6b2d41),
    ("async f=1 in=[0, 1, 2] r=1", 1, 0x90d37725200e10e3),
    ("async f=1 in=[0, 1, 2] r=2", 27, 0x91e83cf21bb82911),
    ("async f=1 in=[0, 0, 1] r=0", 1, 0x412a40a5746c601d),
    ("async f=1 in=[0, 0, 1] r=1", 1, 0x1ece0710ae430659),
    ("async f=1 in=[0, 0, 1] r=2", 27, 0xaac167201677eff1),
    ("async f=1 in=[0, 1] r=0", 1, 0xcdf8bff0a3463c79),
    ("async f=1 in=[0, 1] r=1", 1, 0xf3d21c437f46a45c),
    ("async f=1 in=[0, 1] r=2", 1, 0xdef47a1876f078aa),
    ("async f=2 in=[0, 1, 2] r=0", 1, 0x30484e0d9f6b2d41),
    ("async f=2 in=[0, 1, 2] r=1", 1, 0x1d01d24d32d2f70e),
    ("async f=2 in=[0, 1, 2] r=2", 64, 0xa07b9874b894fcc5),
    ("async f=2 in=[0, 0, 1] r=0", 1, 0x412a40a5746c601d),
    ("async f=2 in=[0, 0, 1] r=1", 1, 0x78be8172d4ab3644),
    ("async f=2 in=[0, 0, 1] r=2", 64, 0x81d4919c008c63fd),
    ("async f=2 in=[0, 1] r=0", 1, 0xcdf8bff0a3463c79),
    ("async f=2 in=[0, 1] r=1", 1, 0x0a7c121c492a3ebe),
    ("async f=2 in=[0, 1] r=2", 4, 0x04700cb95799631f),
];

#[test]
fn symbolic_union_digests() {
    let cases = symbolic_grid();
    let recorded: Vec<&str> = SYMBOLIC_DIGESTS.iter().map(|row| row.0).collect();
    let names: Vec<String> = cases.iter().map(SymbolicCase::name).collect();
    assert_eq!(
        recorded, names,
        "SYMBOLIC_DIGESTS rows must follow the grid order"
    );
    let failures: Vec<String> = cases
        .iter()
        .zip(SYMBOLIC_DIGESTS)
        .filter_map(|(case, &(name, members, digest))| {
            let (built_members, built_digest) = symbolic_digest(&case.union());
            ((built_members, built_digest) != (members, digest)).then(|| {
                format!(
                    "{name}: built ({built_members}, {built_digest:#x}), \
                     recorded ({members}, {digest:#x})"
                )
            })
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Prints the `SYMBOLIC_DIGESTS` table for the current code.
#[test]
#[ignore = "generator: prints the SYMBOLIC_DIGESTS table (run with --nocapture)"]
fn generate_symbolic_table() {
    println!("const SYMBOLIC_DIGESTS: &[(&str, usize, u64)] = &[");
    for case in symbolic_grid() {
        let (members, digest) = symbolic_digest(&case.union());
        println!("    ({:?}, {members}, {digest:#018x}),", case.name());
    }
    println!("];");
}

impl Encode for ProcessId {
    fn encode(&self, h: &mut Fnv) {
        h.u32(self.0);
    }
}

impl Encode for u8 {
    fn encode(&self, h: &mut Fnv) {
        h.bytes(&[*self]);
    }
}

/// A synchronous heard set.
impl Encode for BTreeSet<ProcessId> {
    fn encode(&self, h: &mut Fnv) {
        h.u64(self.len() as u64);
        for p in self {
            h.u32(p.0);
        }
    }
}

/// A semi-synchronous view vector.
impl Encode for ViewVector {
    fn encode(&self, h: &mut Fnv) {
        h.u64(self.len() as u64);
        for (p, mu) in self {
            h.u32(p.0);
            h.u32(*mu);
        }
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, h: &mut Fnv) {
        self.0.encode(h);
        self.1.encode(h);
    }
}

/// Vertex count, facet count and digest of a realized complex: its
/// facets in label order, each as its labels in order. Realization
/// resolves ids back to labels and sorts, so this pins the complex but
/// not the pool order it was built in.
fn realized_digest<V: Encode + Label>(complex: &Complex<V>) -> (usize, usize, u64) {
    let mut h = Fnv::new();
    h.u64(complex.facet_count() as u64);
    for facet in complex.facets() {
        h.u64(facet.len() as u64);
        for label in facet.vertices() {
            label.encode(&mut h);
        }
    }
    (complex.vertex_count(), complex.facet_count(), h.0)
}

/// `ψ(P0, …; families)` with one value family per process.
fn family_pseudosphere(families: &[&[u8]]) -> Pseudosphere<ProcessId, u8> {
    let base = process_simplex(families.len());
    let families = base
        .vertices()
        .iter()
        .zip(families)
        .map(|(p, family)| (*p, family.iter().copied().collect()))
        .collect();
    Pseudosphere::new(base, families).expect("one family per process")
}

/// The inputs `P0 ↦ 0, P1 ↦ 1, …` with values taken modulo `values`.
fn cyclic_inputs(n_plus_1: usize, values: u64) -> Vec<u64> {
    (0..n_plus_1 as u64).map(|i| i % values).collect()
}

/// Every realization row, named, in table order: single pseudospheres,
/// the one-round unions of the sync and semi-sync models, Corollary 8's
/// `ψ(S²; {0,1}) ∪ ψ(S²; {0,2})`, and each Byzantine fixed-`B` round
/// as a complex (`cx`) and as a realized pseudosphere (`psi`).
fn realize_rows() -> Vec<(String, (usize, usize, u64))> {
    let mut rows = Vec::new();
    for (name, families) in [
        ("figure 1", &[&[0u8, 1][..], &[0, 1], &[0, 1]][..]),
        ("figure 2a", &[&[0, 1], &[0, 1]]),
        ("figure 2b", &[&[0, 1, 2], &[0, 1, 2]]),
        (
            "families empty and singleton",
            &[&[0, 1], &[], &[5], &[0, 1, 2]],
        ),
    ] {
        let realized = family_pseudosphere(families).realize();
        rows.push((format!("psi {name}"), realized_digest(&realized)));
    }
    for procs in 1..=4 {
        for m in 0..=2u8 {
            let ps = Pseudosphere::uniform(process_simplex(procs), (0..=m).collect());
            rows.push((
                format!("psi uniform n={} m={m}", procs - 1),
                realized_digest(&ps.realize()),
            ));
        }
    }
    for n_plus_1 in 1..=4 {
        let input = input_simplex(&cyclic_inputs(n_plus_1, n_plus_1 as u64));
        for k in 0..=2 {
            let union = SyncModel::new(n_plus_1, k, k).one_round_union(&input);
            rows.push((
                format!("sync union n+1={n_plus_1} k={k}"),
                realized_digest(&union.realize()),
            ));
        }
    }
    let input = input_simplex(&[0u64, 1, 2]);
    for k in 0..=2 {
        for p in 1..=3 {
            let union = SemiSyncModel::new(3, k, k, p).one_round_union(&input);
            rows.push((
                format!("semisync union n+1=3 k={k} p={p}"),
                realized_digest(&union.realize()),
            ));
        }
    }
    let corollary8: PseudosphereUnion<ProcessId, u8> = [&[0u8, 1], &[0, 2]]
        .into_iter()
        .map(|family| Pseudosphere::uniform(process_simplex(3), family.iter().copied().collect()))
        .collect();
    rows.push((
        "corollary 8 union".into(),
        realized_digest(&corollary8.realize()),
    ));
    for n_plus_1 in 1..=4 {
        let model = ByzantineModel::new(n_plus_1, 2);
        let processes: BTreeSet<ProcessId> = (0..n_plus_1 as u32).map(ProcessId).collect();
        for values in 2..=3 {
            let input = input_simplex(&cyclic_inputs(n_plus_1, values));
            for byz in subsets_up_to_size_lex(&processes, 2) {
                let faulty: Vec<u32> = byz.iter().map(|p| p.0).collect();
                let name = format!("byz n+1={n_plus_1} V={values} B={faulty:?}");
                rows.push((
                    format!("{name} cx"),
                    realized_digest(&model.one_round_fault_complex(&input, &byz)),
                ));
                rows.push((
                    format!("{name} psi"),
                    realized_digest(&model.one_round_fault_pseudosphere(&input, &byz).realize()),
                ));
            }
        }
    }
    rows
}

/// `(name, vertices, facets, digest)` per realization row, recorded by
/// `generate_realize_table`.
const REALIZE_DIGESTS: &[(&str, usize, usize, u64)] = &[
    ("psi figure 1", 6, 8, 0xef3e65905552afc1),
    ("psi figure 2a", 4, 4, 0x9ef111c2c3e1df55),
    ("psi figure 2b", 6, 9, 0x235d025aa1b57353),
    ("psi families empty and singleton", 6, 6, 0xa6392b95da18ae56),
    ("psi uniform n=0 m=0", 1, 1, 0x9f27f97184a8aeaf),
    ("psi uniform n=0 m=1", 2, 2, 0xb1ee78f6b083dc46),
    ("psi uniform n=0 m=2", 3, 3, 0x769f01bc58a305c4),
    ("psi uniform n=1 m=0", 2, 1, 0xa3be702ef144f379),
    ("psi uniform n=1 m=1", 4, 4, 0x9ef111c2c3e1df55),
    ("psi uniform n=1 m=2", 6, 9, 0x235d025aa1b57353),
    ("psi uniform n=2 m=0", 3, 1, 0xf9ee29483553e39a),
    ("psi uniform n=2 m=1", 6, 8, 0xef3e65905552afc1),
    ("psi uniform n=2 m=2", 9, 27, 0x5aafddc1bcd91dd9),
    ("psi uniform n=3 m=0", 4, 1, 0xaca753a868150e20),
    ("psi uniform n=3 m=1", 8, 16, 0xdaca6cb39920113d),
    ("psi uniform n=3 m=2", 12, 81, 0xf649fcd1e5e47e48),
    ("sync union n+1=1 k=0", 1, 1, 0x388d832d0d3066d4),
    ("sync union n+1=1 k=1", 1, 1, 0x388d832d0d3066d4),
    ("sync union n+1=1 k=2", 1, 1, 0x388d832d0d3066d4),
    ("sync union n+1=2 k=0", 2, 1, 0xd65e42507e7450a7),
    ("sync union n+1=2 k=1", 4, 3, 0x54c5a9f656a20a35),
    ("sync union n+1=2 k=2", 4, 3, 0x54c5a9f656a20a35),
    ("sync union n+1=3 k=0", 3, 1, 0x29ea32ccf52ddf14),
    ("sync union n+1=3 k=1", 9, 10, 0x0f69dbb5cf51b65d),
    ("sync union n+1=3 k=2", 12, 13, 0x4fcff7bad2675a1a),
    ("sync union n+1=4 k=0", 4, 1, 0xb89b60ea56a27220),
    ("sync union n+1=4 k=1", 16, 29, 0x6fd8bf610d0bd8fc),
    ("sync union n+1=4 k=2", 28, 83, 0xfd893e6532589ab2),
    ("semisync union n+1=3 k=0 p=1", 3, 1, 0xed72c006eeea3715),
    ("semisync union n+1=3 k=0 p=2", 3, 1, 0x7ddca0d08691e056),
    ("semisync union n+1=3 k=0 p=3", 3, 1, 0xcc8420027ad38757),
    ("semisync union n+1=3 k=1 p=1", 9, 10, 0xa68993da6055efac),
    ("semisync union n+1=3 k=1 p=2", 15, 19, 0x176aa381b7734724),
    ("semisync union n+1=3 k=1 p=3", 21, 28, 0x0ce4ccbbc8da42e8),
    ("semisync union n+1=3 k=2 p=1", 12, 13, 0x32ec34dd8b3eb128),
    ("semisync union n+1=3 k=2 p=2", 27, 31, 0x5c64e4637030d318),
    ("semisync union n+1=3 k=2 p=3", 48, 55, 0x955b008d23ce80d2),
    ("corollary 8 union", 9, 15, 0xb10a6bb56604aca6),
    ("byz n+1=1 V=2 B=[] cx", 1, 1, 0x0b7b028713142577),
    ("byz n+1=1 V=2 B=[] psi", 1, 1, 0xaab781dad00f93c7),
    ("byz n+1=1 V=2 B=[0] cx", 0, 0, 0xa8c7f832281a39c5),
    ("byz n+1=1 V=2 B=[0] psi", 0, 0, 0xa8c7f832281a39c5),
    ("byz n+1=1 V=3 B=[] cx", 1, 1, 0x0b7b028713142577),
    ("byz n+1=1 V=3 B=[] psi", 1, 1, 0xaab781dad00f93c7),
    ("byz n+1=1 V=3 B=[0] cx", 0, 0, 0xa8c7f832281a39c5),
    ("byz n+1=1 V=3 B=[0] psi", 0, 0, 0xa8c7f832281a39c5),
    ("byz n+1=2 V=2 B=[] cx", 2, 1, 0x829fe5e931241d97),
    ("byz n+1=2 V=2 B=[] psi", 2, 1, 0x6d29ed6c6f6e04bc),
    ("byz n+1=2 V=2 B=[0] cx", 3, 3, 0xa3ab3bed3ec59a9e),
    ("byz n+1=2 V=2 B=[0] psi", 3, 3, 0xd1b6d374e1124b65),
    ("byz n+1=2 V=2 B=[1] cx", 3, 3, 0x5468063ec8fbc514),
    ("byz n+1=2 V=2 B=[1] psi", 3, 3, 0x3f2b3aeadf9efe24),
    ("byz n+1=2 V=2 B=[0, 1] cx", 0, 0, 0xa8c7f832281a39c5),
    ("byz n+1=2 V=2 B=[0, 1] psi", 0, 0, 0xa8c7f832281a39c5),
    ("byz n+1=2 V=3 B=[] cx", 2, 1, 0x829fe5e931241d97),
    ("byz n+1=2 V=3 B=[] psi", 2, 1, 0x6d29ed6c6f6e04bc),
    ("byz n+1=2 V=3 B=[0] cx", 3, 3, 0xa3ab3bed3ec59a9e),
    ("byz n+1=2 V=3 B=[0] psi", 3, 3, 0xd1b6d374e1124b65),
    ("byz n+1=2 V=3 B=[1] cx", 3, 3, 0x5468063ec8fbc514),
    ("byz n+1=2 V=3 B=[1] psi", 3, 3, 0x3f2b3aeadf9efe24),
    ("byz n+1=2 V=3 B=[0, 1] cx", 0, 0, 0xa8c7f832281a39c5),
    ("byz n+1=2 V=3 B=[0, 1] psi", 0, 0, 0xa8c7f832281a39c5),
    ("byz n+1=3 V=2 B=[] cx", 3, 1, 0x75fb805babd73747),
    ("byz n+1=3 V=2 B=[] psi", 3, 1, 0x5e13b8fb577b4110),
    ("byz n+1=3 V=2 B=[0] cx", 6, 9, 0x4603611d56217943),
    ("byz n+1=3 V=2 B=[0] psi", 6, 9, 0x72571619d2517520),
    ("byz n+1=3 V=2 B=[1] cx", 6, 9, 0x6d300ded90132f36),
    ("byz n+1=3 V=2 B=[1] psi", 6, 9, 0xf499f531b44f8298),
    ("byz n+1=3 V=2 B=[2] cx", 6, 9, 0xb4358a8e23ce2e2b),
    ("byz n+1=3 V=2 B=[2] psi", 6, 9, 0x931381a624dbe8ec),
    ("byz n+1=3 V=2 B=[0, 1] cx", 9, 9, 0xf7a2507cd3c7edeb),
    ("byz n+1=3 V=2 B=[0, 1] psi", 9, 9, 0x519cc77ea98704ed),
    ("byz n+1=3 V=2 B=[0, 2] cx", 9, 9, 0xd9463532b49139d7),
    ("byz n+1=3 V=2 B=[0, 2] psi", 9, 9, 0xfc2ca520dadc7d06),
    ("byz n+1=3 V=2 B=[1, 2] cx", 9, 9, 0xac7e282de1971fd5),
    ("byz n+1=3 V=2 B=[1, 2] psi", 9, 9, 0x87281d8fc0faf8e5),
    ("byz n+1=3 V=3 B=[] cx", 3, 1, 0x33a5e91460a9404d),
    ("byz n+1=3 V=3 B=[] psi", 3, 1, 0xe9ac2a05c63598ea),
    ("byz n+1=3 V=3 B=[0] cx", 8, 16, 0x66d08b4cba5ddf3d),
    ("byz n+1=3 V=3 B=[0] psi", 8, 16, 0xe4fc2bb045ad8be9),
    ("byz n+1=3 V=3 B=[1] cx", 8, 16, 0xa2239a861f5c55d5),
    ("byz n+1=3 V=3 B=[1] psi", 8, 16, 0x720c16d5c4cf9d41),
    ("byz n+1=3 V=3 B=[2] cx", 8, 16, 0xac8ca5c3f5a2b3d5),
    ("byz n+1=3 V=3 B=[2] psi", 8, 16, 0xecac6777f2ad267d),
    ("byz n+1=3 V=3 B=[0, 1] cx", 16, 16, 0xd6815c7a72b0fe8d),
    ("byz n+1=3 V=3 B=[0, 1] psi", 16, 16, 0xfedc8917430bed51),
    ("byz n+1=3 V=3 B=[0, 2] cx", 16, 16, 0xe751a8ef2399e661),
    ("byz n+1=3 V=3 B=[0, 2] psi", 16, 16, 0xfd8e83e5aa194e29),
    ("byz n+1=3 V=3 B=[1, 2] cx", 16, 16, 0x64a6983e881e4023),
    ("byz n+1=3 V=3 B=[1, 2] psi", 16, 16, 0x476c3d1ded859ac3),
    ("byz n+1=4 V=2 B=[] cx", 4, 1, 0x590017764f31cfa8),
    ("byz n+1=4 V=2 B=[] psi", 4, 1, 0x8e9eb58e15171450),
    ("byz n+1=4 V=2 B=[0] cx", 9, 27, 0x428fa46aa358f56c),
    ("byz n+1=4 V=2 B=[0] psi", 9, 27, 0x992a76068a969fa4),
    ("byz n+1=4 V=2 B=[1] cx", 9, 27, 0x0f32abd9c0a7d092),
    ("byz n+1=4 V=2 B=[1] psi", 9, 27, 0xdcff551e107652c5),
    ("byz n+1=4 V=2 B=[2] cx", 9, 27, 0x096021ff457d21c0),
    ("byz n+1=4 V=2 B=[2] psi", 9, 27, 0x9987b45c1afc3412),
    ("byz n+1=4 V=2 B=[3] cx", 9, 27, 0xfae866968f471412),
    ("byz n+1=4 V=2 B=[3] psi", 9, 27, 0x9fd25a64bb52a2bb),
    ("byz n+1=4 V=2 B=[0, 1] cx", 18, 81, 0x9a608c188a22b887),
    ("byz n+1=4 V=2 B=[0, 1] psi", 18, 81, 0x0fc2018257709ffc),
    ("byz n+1=4 V=2 B=[0, 2] cx", 18, 81, 0x8238664a0a36512c),
    ("byz n+1=4 V=2 B=[0, 2] psi", 18, 81, 0xc812ca4eadba3f24),
    ("byz n+1=4 V=2 B=[0, 3] cx", 18, 81, 0x9f4169381c526b27),
    ("byz n+1=4 V=2 B=[0, 3] psi", 18, 81, 0xb95bf8fa1b4ce998),
    ("byz n+1=4 V=2 B=[1, 2] cx", 18, 81, 0xcf21279e49531779),
    ("byz n+1=4 V=2 B=[1, 2] psi", 18, 81, 0xbc15bf4df41c33a4),
    ("byz n+1=4 V=2 B=[1, 3] cx", 18, 81, 0x60dadec86dcaf7ee),
    ("byz n+1=4 V=2 B=[1, 3] psi", 18, 81, 0xe3af520371a81b5c),
    ("byz n+1=4 V=2 B=[2, 3] cx", 18, 81, 0x2422f76a77eb6cff),
    ("byz n+1=4 V=2 B=[2, 3] psi", 18, 81, 0xa3b582eae8108770),
    ("byz n+1=4 V=3 B=[] cx", 4, 1, 0x308940b2d42bb998),
    ("byz n+1=4 V=3 B=[] psi", 4, 1, 0xdce84530027101c0),
    ("byz n+1=4 V=3 B=[0] cx", 12, 64, 0x899f161fb946611d),
    ("byz n+1=4 V=3 B=[0] psi", 12, 64, 0x91b49c004989c555),
    ("byz n+1=4 V=3 B=[1] cx", 12, 64, 0xd29ce4d4ea61ae55),
    ("byz n+1=4 V=3 B=[1] psi", 12, 64, 0xb95454c14b2c1e75),
    ("byz n+1=4 V=3 B=[2] cx", 12, 64, 0x5a80c4ceb3031cdd),
    ("byz n+1=4 V=3 B=[2] psi", 12, 64, 0xfd442ec3130d0285),
    ("byz n+1=4 V=3 B=[3] cx", 12, 64, 0xb5691478d22b0ced),
    ("byz n+1=4 V=3 B=[3] psi", 12, 64, 0xad53ef6ee00af30d),
    ("byz n+1=4 V=3 B=[0, 1] cx", 32, 256, 0xeb7346216a79a5d6),
    ("byz n+1=4 V=3 B=[0, 1] psi", 32, 256, 0x15299ef69b3b0416),
    ("byz n+1=4 V=3 B=[0, 2] cx", 32, 256, 0xbc6bbd3ac13a7566),
    ("byz n+1=4 V=3 B=[0, 2] psi", 32, 256, 0x99cdec8734234616),
    ("byz n+1=4 V=3 B=[0, 3] cx", 32, 256, 0xa2b61a7819cb2b86),
    ("byz n+1=4 V=3 B=[0, 3] psi", 32, 256, 0x1ff58d82ea6282c6),
    ("byz n+1=4 V=3 B=[1, 2] cx", 32, 256, 0x0f2a199a72a52e6e),
    ("byz n+1=4 V=3 B=[1, 2] psi", 32, 256, 0x68fd73ce6bf15546),
    ("byz n+1=4 V=3 B=[1, 3] cx", 32, 256, 0x00bb6d9ea8084dae),
    ("byz n+1=4 V=3 B=[1, 3] psi", 32, 256, 0x3ff71d54b1840286),
    ("byz n+1=4 V=3 B=[2, 3] cx", 32, 256, 0x3408317548d601ae),
    ("byz n+1=4 V=3 B=[2, 3] psi", 32, 256, 0xff6db56da3eb782a),
];

#[test]
fn realize_digests() {
    let rows = realize_rows();
    let recorded: Vec<&str> = REALIZE_DIGESTS.iter().map(|row| row.0).collect();
    let names: Vec<&str> = rows.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        recorded, names,
        "REALIZE_DIGESTS rows must follow the row order"
    );
    let failures: Vec<String> = rows
        .iter()
        .zip(REALIZE_DIGESTS)
        .filter(|((_, built), row)| *built != (row.1, row.2, row.3))
        .map(|((name, built), row)| {
            format!(
                "{name}: built {built:?}, recorded {:?}",
                (row.1, row.2, row.3)
            )
        })
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Prints the `REALIZE_DIGESTS` table for the current code.
#[test]
#[ignore = "generator: prints the REALIZE_DIGESTS table (run with --nocapture)"]
fn generate_realize_table() {
    println!("const REALIZE_DIGESTS: &[(&str, usize, usize, u64)] = &[");
    for (name, (vertices, facets, digest)) in realize_rows() {
        println!("    ({name:?}, {vertices}, {facets}, {digest:#018x}),");
    }
    println!("];");
}
