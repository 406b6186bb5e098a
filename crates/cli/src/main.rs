//! The `dvh` command-line tool: run the DVH reproduction's benchmarks
//! in the paper's artifact-appendix style. Run `dvh help` for usage.

use dvh_cli::{args, commands};

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cmd = match args::parse(&argv) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", e.hint());
            std::process::exit(2);
        }
    };
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = commands::execute(cmd, &mut stdout) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
