//! Command-line pieces the `spgemm` subcommands share: a flag walker
//! whose parsers return `Result`s (so they can be unit-tested), the one
//! size parser, and the engine-driver flags that `serve` and
//! `trace --per-job` both accept.

use engine::DriverConfig;
use nsparse_core::{Backend, Estimator};
use std::str::FromStr;

/// Walks a command line flag by flag.
pub struct Flags<'a> {
    it: std::slice::Iter<'a, String>,
}

impl<'a> Flags<'a> {
    /// Walk `argv` (without the program or subcommand name).
    pub fn new(argv: &'a [String]) -> Self {
        Flags { it: argv.iter() }
    }

    /// The next flag, `None` at the end.
    pub fn next_flag(&mut self) -> Option<&'a str> {
        self.it.next().map(String::as_str)
    }

    /// The value that follows `flag`.
    pub fn value(&mut self, flag: &str) -> Result<&'a str, String> {
        self.it.next().map(String::as_str).ok_or_else(|| format!("{flag} needs a value"))
    }

    /// The value that follows `flag`, parsed.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse().map_err(|_| format!("bad {flag} '{v}'"))
    }
}

/// The error for a flag no arm matched. `--help` is an error without a
/// message: the caller prints the usage alone.
pub fn unknown(flag: &str) -> String {
    match flag {
        "--help" | "-h" => String::new(),
        other => format!("unknown flag '{other}'"),
    }
}

/// Print a parse error and the usage; the exit code of a usage error.
pub fn usage_error(msg: &str, usage: &str) -> i32 {
    if !msg.is_empty() {
        eprintln!("{msg}");
    }
    eprintln!("{usage}");
    2
}

/// `--precision f32|f64`: whether the run is in double precision.
pub fn parse_f64(s: &str) -> Result<bool, String> {
    match s.to_ascii_lowercase().as_str() {
        "f32" => Ok(false),
        "f64" => Ok(true),
        _ => Err("precision must be f32 or f64".into()),
    }
}

/// `--backend sim|host|host:N`.
pub fn parse_backend(s: &str) -> Result<Backend, String> {
    Backend::parse(&s.to_ascii_lowercase())
        .ok_or_else(|| format!("unknown backend '{s}' (sim, host, host:N)"))
}

/// `--estimator exact|sampled[:K]`.
pub fn parse_estimator(s: &str) -> Result<Estimator, String> {
    Estimator::parse(s).map_err(|e| format!("bad --estimator '{s}': {e}"))
}

/// A memory size: absolute bytes, or a fraction of a forecast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Size {
    /// Bytes (`65536`, `64K`, `256M`, `4G`).
    Bytes(u64),
    /// A positive multiple of a forecast (`0.25x` = a quarter of it).
    Fraction(f64),
}

/// The one size parser: `N`, `N[K|M|G]` (binary units) or `Fx`. Zero,
/// negative and malformed sizes are rejected.
pub fn parse_size(s: &str) -> Option<Size> {
    if let Some(frac) = s.strip_suffix('x') {
        let v: f64 = frac.parse().ok()?;
        return (v > 0.0 && v.is_finite()).then_some(Size::Fraction(v));
    }
    let (digits, shift) = match s.chars().last()? {
        'K' | 'k' => (&s[..s.len() - 1], 10),
        'M' | 'm' => (&s[..s.len() - 1], 20),
        'G' | 'g' => (&s[..s.len() - 1], 30),
        _ => (s, 0),
    };
    let v: u64 = digits.parse().ok()?;
    (v > 0).then(|| Size::Bytes(v.saturating_mul(1 << shift)))
}

/// The engine-driver flags `serve` and `trace --per-job` share.
pub const DRIVER_FLAGS: &str = "[--jobs N] [--workers N] [--seed S] \
     [--backend sim|host|host:N] [--dim N] [--nnz-per-row F] [--patterns N] \
     [--budget BYTES[K|M|G]] [--cache N] [--precision f32|f64] \
     [--estimator exact|sampled[:K]] [--faults] [--no-verify]";

/// A driver run from the command line: its config and precision.
#[derive(Debug)]
pub struct DriverArgs {
    /// The driver's configuration.
    pub cfg: DriverConfig,
    /// Run the jobs in double precision (the default).
    pub f64: bool,
}

/// Parse the [`DRIVER_FLAGS`] in `argv`; `extra` may claim the flags
/// that only its subcommand knows (returning `Ok(true)`).
pub fn parse_driver_args(
    argv: &[String],
    mut extra: impl FnMut(&str, &mut Flags) -> Result<bool, String>,
) -> Result<DriverArgs, String> {
    let mut args = DriverArgs { cfg: DriverConfig::default(), f64: true };
    let c = &mut args.cfg;
    let mut flags = Flags::new(argv);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--jobs" => c.jobs = flags.parse(flag)?,
            "--workers" => c.workers = flags.parse(flag)?,
            "--seed" => c.seed = flags.parse(flag)?,
            "--backend" => c.backend = parse_backend(flags.value(flag)?)?,
            "--dim" => c.dim = flags.parse(flag)?,
            "--nnz-per-row" => c.nnz_per_row = flags.parse(flag)?,
            "--patterns" => c.patterns = flags.parse(flag)?,
            "--budget" => {
                let spec = flags.value(flag)?;
                match parse_size(spec) {
                    Some(Size::Bytes(b)) => c.budget_bytes = Some(b),
                    _ => return Err(format!("bad --budget '{spec}' (e.g. 4G, 256M, 65536)")),
                }
            }
            "--cache" => c.cache_capacity = flags.parse(flag)?,
            "--estimator" => c.opts.estimator = parse_estimator(flags.value(flag)?)?,
            "--precision" => args.f64 = parse_f64(flags.value(flag)?)?,
            "--faults" => c.faults = true,
            "--no-verify" => c.verify = false,
            _ if extra(flag, &mut flags)? => {}
            other => return Err(unknown(other)),
        }
    }
    if c.jobs == 0 || c.dim < 2 {
        return Err("--jobs must be > 0 and --dim at least 2".into());
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn sizes_parse_bytes_units_and_fractions() {
        assert_eq!(parse_size("256M"), Some(Size::Bytes(256 << 20)));
        assert_eq!(parse_size("64K"), Some(Size::Bytes(64 << 10)));
        assert_eq!(parse_size("65536"), Some(Size::Bytes(65536)));
        assert_eq!(parse_size("0.25x"), Some(Size::Fraction(0.25)));
        for bad in ["0", "0x", "-1", "4Q", "", "x", "M", "-0.5x", "infx"] {
            assert_eq!(parse_size(bad), None, "{bad:?} must be rejected");
        }
    }

    #[test]
    fn driver_flags_parse_and_extra_claims_its_own() {
        let mut out_dir = None;
        let a = parse_driver_args(
            &argv(
                "--jobs 9 --workers 3 --seed 4 --backend host:2 --dim 64 --nnz-per-row 3.5 \
                 --patterns 2 --budget 64K --cache 5 --estimator sampled:8 --precision f32 \
                 --faults --no-verify --out-dir d",
            ),
            |flag, flags| match flag {
                "--out-dir" => {
                    out_dir = Some(flags.value(flag)?.to_string());
                    Ok(true)
                }
                _ => Ok(false),
            },
        )
        .unwrap();
        let c = &a.cfg;
        assert_eq!((c.jobs, c.workers, c.seed, c.dim, c.patterns), (9, 3, 4, 64, 2));
        assert_eq!(c.backend, Backend::Host { threads: 2 });
        assert_eq!((c.nnz_per_row, c.budget_bytes, c.cache_capacity), (3.5, Some(65536), 5));
        assert_eq!(c.opts.estimator, Estimator::parse("sampled:8").unwrap());
        assert!(!a.f64 && c.faults && !c.verify);
        assert_eq!(out_dir.as_deref(), Some("d"));
    }

    #[test]
    fn driver_flags_reject_bad_input() {
        let none = |_: &str, _: &mut Flags| Ok(false);
        for bad in [
            "--out-dir d",
            "--budget 0.5x",
            "--budget 0",
            "--jobs 0",
            "--dim 1",
            "--jobs",
            "--precision f16",
            "--help",
        ] {
            assert!(parse_driver_args(&argv(bad), none).is_err(), "{bad:?} must be rejected");
        }
    }
}
