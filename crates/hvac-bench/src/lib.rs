//! The experiment harness: regenerates every table and figure of the HVAC
//! paper (CLUSTER 2022).
//!
//! Each module under [`figures`] produces one or more [`report::Table`]s —
//! the same rows/series the paper plots. The `reproduce` binary prints them
//! and writes CSVs under `results/`. Absolute numbers come from the
//! simulator calibrated in `hvac_types::summit` (this is a model of Summit,
//! not Summit); the *shapes* — who wins, by what factor, where GPFS
//! saturates — are the reproduction targets, recorded in `EXPERIMENTS.md`.
//!
//! | Module | Paper artifact |
//! |--------|----------------|
//! | [`figures::table1`] | Table I — Summit node specification |
//! | [`figures::fig3`]   | Fig. 3 — MDTest 32 KiB transactions/s |
//! | [`figures::fig4`]   | Fig. 4 — MDTest 8 MiB transactions/s |
//! | [`figures::fig8`]   | Fig. 8 — training time vs. nodes, 4 applications |
//! | [`figures::fig9`]   | Fig. 9 — normalized gain vs GPFS / overhead vs XFS |
//! | [`figures::fig10`]  | Fig. 10 — training time vs. epochs |
//! | [`figures::fig11`]  | Fig. 11 — epoch-1 / best / average epoch |
//! | [`figures::fig12`]  | Fig. 12 — batch-size sweep |
//! | [`figures::fig13`]  | Fig. 13 — local/remote cache split |
//! | [`figures::fig14`]  | Fig. 14 — accuracy vs. iterations |
//! | [`figures::fig15`]  | Fig. 15 — per-server load distribution |
//! | [`figures::ablation`] | extra: placement & eviction ablations |

pub mod figures;
pub mod report;
pub mod systems;

pub use report::Table;
pub use systems::{paper_apps, AppSpec, SystemKind};
