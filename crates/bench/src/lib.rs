//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§4.3 and §5).
//!
//! Each `fig*`/`table*` binary runs the corresponding scenario, writes
//! machine-readable CSV under `results/`, and prints an ASCII
//! rendition plus the shape checks that EXPERIMENTS.md records.
//!
//! | Binary   | Reproduces |
//! |----------|------------|
//! | `table1` | §4.3 example job properties |
//! | `fig1`   | §4.3 cycle-by-cycle placements (S1, S2) |
//! | `table2` | Experiment One job properties |
//! | `fig2`   | Exp. 1: hypothetical vs. actual relative performance |
//! | `fig3`   | Exp. 2: % of jobs meeting the deadline |
//! | `fig4`   | Exp. 2: number of placement changes |
//! | `fig5`   | Exp. 2: distance-to-deadline distributions |
//! | `fig6`   | Exp. 3: relative performance, three configurations |
//! | `fig7`   | Exp. 3: CPU allocation, three configurations |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exp2;
pub mod output;

pub use exp2::{run_experiment_two_sweep, Exp2Run, EXP2_INTER_ARRIVALS};
pub use output::{ascii_plot, ascii_table, format_pct, results_dir, write_csv};
