//! The `crates/bench` binaries answer `--help` with their usage line and
//! exit 0, and print it and exit 2 on an argument they do not know
//! (`sdr_bench::or_exit`). Their parsers say which of the two a command line
//! asked for instead of panicking.

use sdr_bench::{parse_faults_args, parse_harness_args, parse_serve_args, CliStop};

fn args(words: &[&str]) -> std::vec::IntoIter<String> {
    words
        .iter()
        .map(|w| w.to_string())
        .collect::<Vec<_>>()
        .into_iter()
}

#[test]
fn help_and_unknown_flags_stop_every_parser() {
    for help in ["--help", "-h"] {
        assert_eq!(
            parse_harness_args(args(&["--ranks", "8", help]), 16).err(),
            Some(CliStop::Help)
        );
        assert_eq!(parse_faults_args(args(&[help])).err(), Some(CliStop::Help));
        assert_eq!(parse_serve_args(args(&[help])).err(), Some(CliStop::Help));
    }
    let unknown = Some(CliStop::Unknown("--fibers".to_string()));
    assert_eq!(
        parse_harness_args(args(&["--fibers", "on"]), 16).err(),
        unknown
    );
    assert_eq!(parse_faults_args(args(&["--fibers"])).err(), unknown);
    assert_eq!(parse_serve_args(args(&["--fibers"])).err(), unknown);
    // A bare number is still the positional rank count.
    assert_eq!(parse_harness_args(args(&["32"]), 16).unwrap().ranks, 32);
}
