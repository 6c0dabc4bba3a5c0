//! `evofd` — command-line tool for validating and evolving functional
//! dependencies (the CLI face of the EDBT 2016 reproduction).
//!
//! Run `evofd` with no arguments for usage. `evofd demo` reproduces the
//! paper's running example.

mod args;
mod commands;

use std::io::BufRead;

use args::Cli;

fn main() {
    let cli = Cli::parse(std::env::args().skip(1));
    // Global execution width for every parallel path (validation,
    // discovery, repair scoring, tracker maintenance): unset/0 = all
    // available cores, 1 = fully sequential. Results are identical at
    // every width.
    mintpool::set_threads(cli.get_or("threads", 0usize));
    // `--trace-slow MS` turns the metrics registry on and logs any span
    // slower than the threshold to stderr; `stats` always collects.
    if let Some(ms) = cli.get("trace-slow") {
        let ms: u64 = match ms.parse() {
            Ok(ms) => ms,
            Err(_) => {
                eprintln!("error: bad --trace-slow `{ms}` (milliseconds expected)");
                std::process::exit(1);
            }
        };
        evofd_obs::enable();
        evofd_obs::set_slow_threshold_ms(ms);
    }
    let stdin = std::io::stdin();
    let mut input = stdin.lock();
    let result = dispatch(&cli, &mut input);
    if let Err(msg) = result {
        eprintln!("error: {msg}");
        std::process::exit(1);
    }
}

fn dispatch(cli: &Cli, input: &mut dyn BufRead) -> commands::CmdResult {
    match cli.command.as_str() {
        "demo" => commands::cmd_demo(),
        "validate" => commands::cmd_validate(cli),
        "repair" => commands::cmd_repair(cli),
        "advise" => commands::cmd_advise(cli, input),
        "gen" => commands::cmd_gen(cli),
        "sql" => commands::cmd_sql(cli),
        "open" => commands::cmd_open(cli),
        "serve" => commands::cmd_serve(cli, input),
        "server" => commands::cmd_server(cli),
        "follow" => commands::cmd_follow(cli),
        "lag" => commands::cmd_lag(cli),
        "stats" => commands::cmd_stats(cli),
        "serve-metrics" => commands::cmd_serve_metrics(cli),
        "history" => commands::cmd_history(cli),
        "keys" => commands::cmd_keys(cli),
        "violations" => commands::cmd_violations(cli),
        "watch" => commands::cmd_watch(cli),
        "discover" => commands::cmd_discover(cli),
        "cfd" => commands::cmd_cfd(cli),
        "bcnf" => commands::cmd_bcnf(cli),
        "" | "help" => {
            print!("{}", commands::usage());
            Ok(())
        }
        other => Err(format!("unknown command `{other}`\n\n{}", commands::usage())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dispatch_help_and_unknown() {
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert!(dispatch(&Cli::parse(std::iter::empty::<String>()), &mut empty).is_ok());
        let bad = Cli::parse(["frobnicate".to_string()]);
        assert!(dispatch(&bad, &mut empty).is_err());
    }
}
