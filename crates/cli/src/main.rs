//! `datacomp` — command-line access to the compression stack.
//!
//! Run `datacomp` with no arguments for every command's synopsis, and
//! any command with a wrong argument for its flags, their defaults and
//! their help: the usage error is the help. Each command's positionals
//! and flags are declared once, in `commands.rs`' command table.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("datacomp: {e}");
            ExitCode::FAILURE
        }
    }
}
