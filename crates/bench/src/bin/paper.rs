//! Regenerates the paper's tables and figures: runs each distinct
//! experiment once on `available_parallelism` workers, then prints every
//! table and saves it as `results/<table>.txt` (or under
//! `$CHAMELEON_RESULTS_DIR`).
//!
//! ```text
//! paper [TABLE...]
//! ```
//!
//! With no argument it writes all 14 tables; otherwise only the named ones
//! (the `results/*.txt` stems). Run from the workspace root:
//! `cargo run --release -p chameleon-bench --bin paper`, then
//! `git diff --exit-code -- results/` checks the outputs against the
//! committed tables.

use chameleon_bench::out::{available_parallelism, Out};
use chameleon_bench::paper;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let names: Vec<&str> = if args.is_empty() {
        paper::names().collect()
    } else {
        args.iter().map(String::as_str).collect()
    };
    match paper::render(&names, available_parallelism()) {
        Ok(tables) => {
            for (name, text) in tables {
                Out::new(name).write(&text);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("paper: {e}");
            eprintln!(
                "usage: paper [TABLE...]\ntables: {}",
                paper::names().collect::<Vec<_>>().join(" ")
            );
            ExitCode::from(2)
        }
    }
}
