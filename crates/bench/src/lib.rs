//! Shared harness for the experiment binaries that regenerate every table
//! and figure of the paper (see DESIGN.md §3 for the index).

use miss_data::{Dataset, WorldConfig};
use miss_metrics::relative_improvement;
use miss_trainer::{EvalResult, Experiment};
use miss_util::{mean_std, paired_t_significant};

/// Command-line options shared by every experiment binary.
#[derive(Clone, Debug)]
pub struct ExpOpts {
    /// Dataset scale factor (1.0 = the default reduced-scale worlds).
    pub scale: f64,
    /// Seeds per cell (the paper uses 5).
    pub reps: usize,
    /// Smoke mode: tiny datasets, one rep, two epochs — for tests.
    pub smoke: bool,
}

/// Printed with every argument error.
const USAGE: &str = "usage: <table|figure binary> [--scale X] [--reps N] [--smoke]";

impl ExpOpts {
    /// Parse `--scale X --reps N --smoke` from `std::env::args`. On a bad
    /// argument, print the message and the usage line and exit with code 2
    /// (the usage-error code beside `MissError::exit_code`'s codes).
    pub fn from_args() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        ExpOpts::parse(&args).unwrap_or_else(|msg| {
            eprintln!("{msg}\n{USAGE}");
            std::process::exit(2)
        })
    }

    /// Parse the arguments that follow the program name.
    pub fn parse(args: &[String]) -> Result<ExpOpts, String> {
        let mut opts = ExpOpts {
            scale: 1.0,
            reps: 3,
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    opts.scale = flag_value(&mut it, "--scale")?;
                    if !(opts.scale.is_finite() && opts.scale > 0.0) {
                        return Err(format!("--scale must be positive, got {}", opts.scale));
                    }
                }
                "--reps" => {
                    opts.reps = flag_value(&mut it, "--reps")?;
                    if opts.reps == 0 {
                        return Err("--reps must be at least 1".to_string());
                    }
                }
                "--smoke" => {
                    opts.smoke = true;
                    opts.reps = 1;
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(opts)
    }

    /// The three dataset configurations at this scale (smoke → tiny).
    pub fn worlds(&self) -> Vec<WorldConfig> {
        if self.smoke {
            vec![WorldConfig::tiny()]
        } else {
            vec![
                WorldConfig::amazon_cds(self.scale),
                WorldConfig::amazon_books(self.scale),
                WorldConfig::alipay(self.scale),
            ]
        }
    }

    /// Apply smoke-mode shortcuts to an experiment.
    pub fn tune(&self, e: &mut Experiment) {
        if self.smoke {
            e.train_cfg.max_epochs = 2;
            e.train_cfg.patience = 0;
        }
    }
}

/// The value after `flag`, parsed.
fn flag_value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
) -> Result<T, String> {
    let raw = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

/// Generate the dataset for a world with the canonical seed.
pub fn dataset_for(config: WorldConfig) -> Dataset {
    Dataset::generate(config, 0xDA7A)
}

/// Aggregate of repeated runs.
#[derive(Clone, Debug)]
pub struct CellResult {
    /// Row label, e.g. "DIN-MISS".
    pub label: String,
    /// Per-seed AUCs.
    pub aucs: Vec<f64>,
    /// Per-seed Loglosses.
    pub loglosses: Vec<f64>,
}

impl CellResult {
    /// Build from per-seed evaluation results.
    pub fn from_runs(label: impl Into<String>, runs: &[EvalResult]) -> Self {
        CellResult {
            label: label.into(),
            aucs: runs.iter().map(|r| r.auc).collect(),
            loglosses: runs.iter().map(|r| r.logloss).collect(),
        }
    }

    /// Mean AUC.
    pub fn auc(&self) -> f64 {
        mean_std(&self.aucs).0
    }

    /// Mean Logloss.
    pub fn logloss(&self) -> f64 {
        mean_std(&self.loglosses).0
    }

    /// Statistical significance of the AUC difference vs another cell
    /// (paired over seeds, p < 0.05).
    pub fn significant_vs(&self, other: &CellResult) -> bool {
        self.aucs.len() == other.aucs.len()
            && self.aucs.len() >= 2
            && paired_t_significant(&self.aucs, &other.aucs)
    }
}

/// Print a paper-style table: one row per cell, AUC/Logloss per dataset.
/// `cells[d]` holds the rows of dataset `d` (same order in every dataset).
pub fn print_table(title: &str, dataset_names: &[String], cells: &[Vec<CellResult>]) {
    println!("\n=== {title} ===");
    print!("{:<18}", "Model");
    for name in dataset_names {
        print!(" | {:^21}", name);
    }
    println!();
    print!("{:<18}", "");
    for _ in dataset_names {
        print!(" | {:>10} {:>10}", "AUC", "Logloss");
    }
    println!();
    let rows = cells[0].len();
    for r in 0..rows {
        print!("{:<18}", cells[0][r].label);
        for d in cells {
            print!(" | {:>10.4} {:>10.4}", d[r].auc(), d[r].logloss());
        }
        println!();
    }
}

/// Format a relative-improvement column (Tables X/XI).
pub fn ri(base: f64, new: f64) -> String {
    format!("{:+.2}%", relative_improvement(base, new))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ExpOpts, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        ExpOpts::parse(&args)
    }

    #[test]
    fn parses_every_flag() {
        let o = parse(&[]).unwrap();
        assert_eq!((o.scale, o.reps, o.smoke), (1.0, 3, false));
        let o = parse(&["--scale", "0.5", "--reps", "5"]).unwrap();
        assert_eq!((o.scale, o.reps, o.smoke), (0.5, 5, false));
        let o = parse(&["--reps", "5", "--smoke"]).unwrap();
        assert_eq!((o.reps, o.smoke), (1, true), "--smoke implies one rep");
    }

    #[test]
    fn trailing_flag_is_an_error() {
        for flag in ["--scale", "--reps"] {
            let err = parse(&["--smoke", flag]).unwrap_err();
            assert!(err.contains(flag) && err.contains("needs a value"), "{err}");
        }
    }

    #[test]
    fn bad_numbers_are_errors() {
        assert!(parse(&["--scale", "big"]).unwrap_err().contains("--scale"));
        assert!(parse(&["--reps", "-1"]).unwrap_err().contains("--reps"));
        assert!(parse(&["--reps", "0"]).is_err());
        assert!(parse(&["--scale", "0"]).is_err());
        assert!(parse(&["--scale", "NaN"]).is_err());
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = parse(&["--smoke", "--seeds", "3"]).unwrap_err();
        assert!(err.contains("unknown argument --seeds"), "{err}");
    }
}
