//! # fup-mining — association-rule mining foundation
//!
//! Everything the FUP paper *builds on*: the classic two-step decomposition
//! of association-rule mining (find all large itemsets, then derive rules),
//! the Apriori and DHP algorithms it benchmarks against, and the shared
//! machinery all three algorithms (including FUP in `fup-core`) use:
//!
//! * [`Itemset`] — an immutable, sorted set of items, and
//!   [`ItemsetTable`] — a whole level stored flat (k-strided arena with a
//!   prefix run index),
//! * [`MinSupport`] — exact rational support thresholds (`s × (D + d)`
//!   comparisons never go through floating point),
//! * [`HashTree`] — the Agrawal–Srikant candidate hash tree implementing
//!   `Subset(C, T)`, with SoA leaf arenas,
//! * [`apriori_gen`](gen::apriori_gen) — candidate generation (join +
//!   subset-prune) over the flat table, parallelised per [`GenConfig`],
//! * [`counting`] — per-item support counts over any
//!   [`TransactionSource`](fup_tidb::TransactionSource),
//! * [`engine`] — the parallel chunked counting engine every pass runs
//!   on, item counts and candidate tables alike ([`EngineConfig`] picks
//!   the worker count; `threads = 1` is the exact historical serial
//!   path),
//! * [`vertical`] — the vertical tid-list counting backend: one scan
//!   materialises per-item tid-lists ([`VerticalIndex`], dense bitset or
//!   sorted run per item by density), after which every pass is pure
//!   list intersection with per-run prefix reuse,
//! * [`apriori`] / [`dhp`] — the two baseline miners of the paper's §4,
//! * [`rules`] — `ap-genrules` rule derivation with confidence thresholds,
//! * [`stats`] — per-pass candidate/large counts and scan accounting, the
//!   raw material of the paper's Figures 2–4.
//!
//! ## Counting backends
//!
//! Every miner (Apriori, DHP here; FUP and FUP2 in `fup-core`) counts its
//! passes through the [`CountingBackend`] named in
//! [`EngineConfig::backend`]:
//!
//! * [`CountingBackend::HashTree`] — the classic one-scan-per-pass
//!   subset counting; paper-faithful scan accounting.
//! * [`CountingBackend::Vertical`] — tid-list intersections from the
//!   first candidate pass on; one scan per source total.
//! * [`CountingBackend::Auto`] (default) — per-pass choice: it flips to
//!   the vertical index once a pass would count at least
//!   [`vertical::AUTO_MIN_CANDIDATES`] candidates over at least
//!   [`vertical::AUTO_MIN_TRANSACTIONS`] transactions with an average
//!   frequent-item residue of [`vertical::AUTO_MIN_RESIDUE`] or more —
//!   thresholds measured with `bench_vertical` on the T10.I4 workload —
//!   and counts every `k ≥ 2` pass whose rows are already indexed
//!   through that index (it is paid for, and deep passes are where
//!   intersections win most), so a run stays vertical once it builds.
//!
//! All backends produce bit-identical [`LargeItemsets`]; only the scan
//! schedule differs. `EngineConfig::serial()` pins `HashTree` to keep
//! its exact-historical-behaviour contract.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![deny(unsafe_code)]

pub mod apriori;
pub mod counting;
pub mod dhp;
pub mod engine;
pub mod gen;
pub mod hashtree;
pub mod itemset;
pub mod large;
pub mod miner;
pub mod rules;
pub mod stats;
pub mod support;
pub mod vertical;

pub use apriori::Apriori;
pub use dhp::Dhp;
pub use engine::EngineConfig;
pub use gen::GenConfig;
pub use hashtree::{CountScratch, HashTree, TreeView};
pub use itemset::{Itemset, ItemsetTable};
pub use large::LargeItemsets;
pub use miner::{Miner, MiningOutcome};
pub use rules::{MinConfidence, Rule, RuleSet};
pub use stats::{MiningStats, PassStats};
pub use support::MinSupport;
pub use vertical::{CountingBackend, PassProfile, ResolvedBackend, VerticalIndex};
