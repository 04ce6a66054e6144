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
//! Regenerate the tables, only when construction's output is meant to
//! change, with
//!
//! ```text
//! cargo test --release --test construction_digest -- --ignored --nocapture
//! ```
//!
//! and paste the printed rows over `DIGESTS` and `SYMBOLIC_DIGESTS`.

use std::collections::BTreeSet;

use pseudosphere::agreement::{
    async_task_parts, byzantine_task_parts, dynamic_task_parts, semisync_task_parts,
    sync_task_parts,
};
use pseudosphere::core::{ProcessId, PseudosphereUnion};
use pseudosphere::models::{input_simplex, AsyncModel, GraphFamily, SsView, SyncModel, View};
use pseudosphere::topology::{IdComplex, Label, VertexPool};

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
