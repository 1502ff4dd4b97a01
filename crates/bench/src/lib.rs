//! # fup-bench — the paper's evaluation, reproduced
//!
//! One runner per table/figure of §4 (the table below is the
//! per-experiment index). Each runner generates the paper's workload (optionally scaled
//! down by a factor), runs FUP against re-running Apriori and DHP on the
//! updated database, and returns structured rows that the `experiments`
//! binary renders next to the paper's reported shapes.
//!
//! | id        | paper artefact | runner |
//! |-----------|----------------|--------|
//! | `table1`  | Table 1 (parameters) | [`table1::run`] |
//! | `fig2`    | Fig. 2 performance ratio vs minsup | [`fig2::run`] |
//! | `fig3`    | Fig. 3 candidate-set reduction | [`fig3::run`] |
//! | `sec4_4a` | §4.4 speed-up vs increment (1K/5K/10K) | [`sec4_4::run`] |
//! | `fig4`    | Fig. 4 speed-up vs increment (15K–350K) | [`fig4::run`] |
//! | `sec4_5`  | §4.5 overhead of FUP | [`sec4_5::run`] |
//! | `sec4_6`  | §4.6 scale-up (1M transactions) | [`sec4_6::run`] |
//! | `ablation`| `FupConfig` ablations (not in the paper) | [`ablation::run`] |
//! | `scanvol` | scan-volume accounting (extension) | [`scanvol::run`] |
//! | `fup2perf`| FUP2 vs re-mining across deletion churn (extension) | [`fup2perf::run`] |

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod ablation;
pub mod cli;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fup2perf;
pub mod harness;
pub mod scanvol;
pub mod sec4_4;
pub mod sec4_5;
pub mod sec4_6;
pub mod table;
pub mod table1;

pub use harness::{compare, Comparison};
pub use table::Table;
