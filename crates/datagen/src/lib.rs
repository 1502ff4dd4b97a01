//! # fup-datagen — synthetic transaction workloads
//!
//! Reimplementation of the IBM Quest synthetic data generator as used by
//! the FUP paper's evaluation (§4.1): "The databases used in our
//! experiments are synthetic data generated using the same technique
//! introduced in \[Agrawal–Srikant\] and modified in \[Park–Chen–Yu\]."
//!
//! The generator first draws a pool of *potentially large itemsets*
//! (patterns) — sizes Poisson-distributed around `|I|`, items correlated
//! with the previous pattern inside a cluster of `S_c` patterns, weights
//! exponentially distributed — and then assembles transactions (sizes
//! Poisson around `|T|`) by unioning corrupted patterns drawn from a
//! rotating pool of `P_s` patterns with per-pattern quotas scaled by `M_f`.
//!
//! Increments are produced exactly as in the paper: "A database of size
//! `(D + d)` is first generated and then the first `D` transactions are
//! stored in the database `DB` and the remaining `d` transactions is
//! stored in the increment `db`. Since all the transactions are generated
//! from the same statistical pattern, it models very well real life
//! updates." See [`split`].
//!
//! Everything is deterministic in the seed ([`rng::Pcg32`] is a
//! self-contained PCG so results do not depend on external crate
//! versions).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod corpus;
pub mod generator;
pub mod params;
pub mod pool;
pub mod rng;
pub mod split;

pub use generator::QuestGenerator;
pub use params::GenParams;
pub use split::{generate_multi_split, generate_split, DbAndIncrement};
