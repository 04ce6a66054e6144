//! `psph` — command-line interface to the pseudosphere reproduction.
//!
//! ```text
//! psph figure <1|2a|2b|3> [--out DIR]
//! psph complex <async|sync|semisync|iis> [--procs N] [--f F] [--k K]
//!              [--p P] [--rounds R] [--format summary|dot|off|text]
//! psph prove <sync|semisync> [--procs N] [--k K] [--p P] [--level L]
//! psph solve <async|sync|semisync> [--procs N] [--f F] [--k K]
//!              [--p P] [--rounds R]
//! psph sweep <async|sync|semisync> [--procs N] [--f F] [--k K]
//!              [--p P] [--rounds R] [--independent]
//! psph simulate [--procs N] [--f F] [--k K] [--seeds S]
//! psph stretch [--procs N] [--k K] [--c1 T] [--c2 T] [--d T] [--timeline]
//! psph traffic [--n N] [--messages M] [--policy sync|semisync|async|all]
//!              [--seed S] [--crashes C] [--c1 T] [--c2 T] [--d T]
//!              [--horizon H]
//! psph chain [--procs N]
//! ```
//!
//! All subcommands accept a global `--threads T` (worker threads for
//! sweeps and integral homology; `PS_THREADS` overrides the default).
//! Any other option a subcommand does not read is rejected before it
//! runs (`error: unknown option --NAME`, exit 1); the full list is
//! `commands::USAGE`.

mod args;
mod commands;

use args::Args;

fn main() {
    // Exit quietly when stdout is closed early (e.g. `psph ... | head`):
    // Rust's println! panics on EPIPE; treat that as a normal exit.
    std::panic::set_hook(Box::new(|info| {
        let msg = info
            .payload()
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| info.payload().downcast_ref::<&str>().copied())
            .unwrap_or("");
        if msg.contains("Broken pipe") {
            std::process::exit(0);
        }
        eprintln!("{info}");
        std::process::exit(101);
    }));

    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let code = match commands::run(&parsed) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            1
        }
    };
    std::process::exit(code);
}
