//! The repository benchmark: three seeded scenario workloads fed through
//! the public path `simulate` uses (`ScenarioSpec::from_json_str` →
//! validate → build → `Simulation::run`), timed end to end with tracing
//! off, and layer by layer in a separate traced run whose instruments
//! sit outside the program. See `README.md` beside this crate.

pub mod measure;
pub mod probe;
pub mod workloads;
