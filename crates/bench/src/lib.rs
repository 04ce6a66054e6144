//! # ps-bench: benchmark harness
//!
//! Criterion benchmarks regenerating each experiment of EXPERIMENTS.md:
//!
//! | bench file | experiments |
//! |------------|-------------|
//! | `bench_pseudosphere` | E1/E2 — Figure 1–2 construction scaling |
//! | `bench_connectivity` | E5/E6 — MV prover vs. homology |
//! | `bench_async`        | E7/E8 — A¹/Aʳ, Lemma 11 isomorphism |
//! | `bench_sync`         | E3/E9/E10 — Figure 3, Sʳ, FloodSet (`KSetFlood`) |
//! | `bench_semisync`     | E11/E12 — M¹, Corollary 22 stretch |
//! | `bench_runtime`      | simulator substrate throughput |
//! | `bench_solver`       | decision-map search instances |
//!
//! Run with `cargo bench --workspace`.
