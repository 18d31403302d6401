//! Coverage contract between the problem crate and its drivers: every
//! kernel `lddp-problems` exports must be reachable through
//! `lddp-cli --problem <name>`, solvable end to end, and must agree
//! with the sequential oracle. A kernel registered in
//! [`lddp::problems::NAMES`] but missing from the CLI dispatch fails
//! here instead of silently becoming dead code.

use lddp::cli;
use lddp_trace::NullSink;

#[test]
fn every_exported_problem_is_reachable_from_the_cli() {
    for name in lddp::problems::NAMES {
        assert!(
            cli::PROBLEMS.contains(name),
            "problem \"{name}\" is exported by lddp-problems but not \
             registered in lddp-cli's --problem dispatch"
        );
        assert!(
            cli::parse(&[
                "solve".to_string(),
                "--problem".to_string(),
                name.to_string(),
                "--n".to_string(),
                "16".to_string(),
            ])
            .is_ok(),
            "\"{name}\" does not parse as a --problem value"
        );
    }
}

#[test]
fn every_exported_problem_solves_and_matches_the_oracle() {
    for name in lddp::problems::NAMES {
        let out = cli::run_solve_traced(name, 24, "high", None, &NullSink)
            .unwrap_or_else(|e| panic!("solving \"{name}\" failed: {e}"));
        let oracle = cli::run_solve_seq(name, 24)
            .unwrap_or_else(|e| panic!("sequential oracle for \"{name}\" failed: {e}"));
        assert_eq!(
            out.summary.answer, oracle,
            "\"{name}\": heterogeneous answer diverges from the sequential oracle"
        );
    }
}

#[test]
fn every_cli_problem_is_classifiable_and_tunable() {
    for name in cli::PROBLEMS {
        let pattern = cli::classify_problem(name, 24)
            .unwrap_or_else(|e| panic!("classifying \"{name}\" failed: {e}"));
        assert!(pattern.is_canonical(), "\"{name}\" classified as {pattern}");
        cli::tune_params(name, 24, "low")
            .unwrap_or_else(|e| panic!("tuning \"{name}\" failed: {e}"));
    }
}

#[test]
fn compare_tune_and_balance_solve_the_problem_they_name() {
    let (n, platform) = (32, "high");
    let fig9_compare = cli::run_compare_data("fig9", n, platform).unwrap();
    let fig9_tune = cli::run_tune("fig9", n, platform, false).unwrap();
    // `balance` names the problem on its first line; the figures follow.
    let figures = |out: String| out.lines().skip(1).collect::<Vec<_>>().join("\n");
    let fig9_balance = figures(cli::run_balance("fig9", n, platform, 0).unwrap());
    for name in cli::PROBLEMS {
        // `compare` tunes the instance the traced solve tunes.
        let c = cli::run_compare_data(name, n, platform)
            .unwrap_or_else(|e| panic!("compare \"{name}\" failed: {e}"));
        let solved = cli::run_solve_traced(name, n, platform, None, &NullSink).unwrap();
        assert_eq!(
            c.params, solved.summary.params,
            "\"{name}\": compare tuned another problem's kernel"
        );
        let tune = cli::run_tune(name, n, platform, false)
            .unwrap_or_else(|e| panic!("tune \"{name}\" failed: {e}"));
        let balance = cli::run_balance(name, n, platform, 0)
            .unwrap_or_else(|e| panic!("balance \"{name}\" failed: {e}"));
        if *name == "fig9" {
            continue;
        }
        assert_ne!(
            (c.cpu_s, c.gpu_s, c.framework_s),
            (
                fig9_compare.cpu_s,
                fig9_compare.gpu_s,
                fig9_compare.framework_s
            ),
            "\"{name}\": compare printed fig9's figures"
        );
        assert_ne!(tune, fig9_tune, "\"{name}\": tune printed fig9's curves");
        assert_ne!(
            figures(balance),
            fig9_balance,
            "\"{name}\": balance printed fig9's figures"
        );
    }
    for unknown in ["nonsense", ""] {
        assert!(cli::run_compare_data(unknown, n, platform).is_err());
        assert!(cli::run_tune(unknown, n, platform, false).is_err());
        assert!(cli::run_balance(unknown, n, platform, 0).is_err());
    }
}
