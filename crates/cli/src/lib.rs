//! # dvh-cli
//!
//! The command-line workflow for the DVH reproduction, mirroring the
//! paper's artifact appendix: the artifact's `run-vm.py` chooses a VM
//! configuration (image path aside) by *configuration* (`base`,
//! `passthrough`, `dvh-vp`, `dvh`) and *virtualization level* (1–3);
//! `run-benchmarks.sh` selects benchmarks and a repeat count and
//! stores per-run results; `results.py` prints them CSV-like, one
//! column per run, and the evaluation takes the best average.
//!
//! The `dvh` binary reproduces that flow against the simulator:
//!
//! ```text
//! dvh micro   --level 2 --config dvh --iters 10
//! dvh app     --name apache --level 2 --config base --runs 3
//! dvh apps    --level 2 --config dvh-vp --csv
//! dvh migrate --config dvh --with-hypervisor
//! dvh results <csv...>
//! dvh repro   fig7
//! ```
//!
//! [`args::COMMANDS`] is the one table of commands: each row holds a
//! command's flags with their defaults and help, and builds the typed
//! [`Command`] that [`commands::execute`] runs. `dvh help`, `dvh
//! <command> --help` and the one-line parse errors (exit code 2) are
//! rendered from it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod commands;
pub mod results;

pub use args::{CliConfig, Command, ParseError};
