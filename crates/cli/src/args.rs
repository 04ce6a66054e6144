//! Minimal argument parsing for the `psph` binary: positional
//! subcommand plus `--key value` / `--flag` options. No external
//! dependencies.

use std::collections::BTreeMap;
use std::fmt;

/// Parsed command line: subcommand, positionals, and options.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first positional), if any.
    pub command: Option<String>,
    /// Remaining positional arguments.
    pub positional: Vec<String>,
    /// `--key value` options and bare `--flag`s (mapped to `"true"`).
    pub options: BTreeMap<String, String>,
}

/// Argument error with a user-facing message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses raw arguments (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, ArgError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(key) = tok.strip_prefix("--") {
                if key.is_empty() {
                    return Err(ArgError("empty option name `--`".into()));
                }
                // `--key=value` or `--key value` or bare flag
                if let Some((k, v)) = key.split_once('=') {
                    args.options.insert(k.to_string(), v.to_string());
                } else if iter.peek().is_some_and(|n| !n.starts_with("--")) {
                    args.options.insert(key.to_string(), iter.next().unwrap());
                } else {
                    args.options.insert(key.to_string(), "true".to_string());
                }
            } else if args.command.is_none() {
                args.command = Some(tok);
            } else {
                args.positional.push(tok);
            }
        }
        Ok(args)
    }

    /// A `usize` option with a default.
    pub fn usize_opt(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key} expects an integer, got `{v}`"))),
        }
    }

    /// A `u64` option with a default.
    pub fn u64_opt(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key} expects an integer, got `{v}`"))),
        }
    }

    /// A `u32` option with a default; values above `u32::MAX` are an
    /// error, not truncated.
    pub fn u32_opt(&self, key: &str, default: u32) -> Result<u32, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| {
                ArgError(format!(
                    "--{key} expects an integer in 0..={}, got `{v}`",
                    u32::MAX
                ))
            }),
        }
    }

    /// An `i32` option with a default.
    pub fn i32_opt(&self, key: &str, default: i32) -> Result<i32, ArgError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ArgError(format!("--{key} expects an integer, got `{v}`"))),
        }
    }

    /// A string option with a default.
    pub fn str_opt(&self, key: &str, default: &str) -> String {
        self.options
            .get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// A boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        self.options.get(key).map(String::as_str) == Some("true")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(toks: &[&str]) -> Args {
        Args::parse(toks.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn subcommand_and_positionals() {
        let a = parse(&["solve", "extra1", "extra2"]);
        assert_eq!(a.command.as_deref(), Some("solve"));
        assert_eq!(a.positional, vec!["extra1", "extra2"]);
    }

    #[test]
    fn options_forms() {
        let a = parse(&["complex", "--procs", "4", "--rounds=2", "--verbose"]);
        assert_eq!(a.usize_opt("procs", 0).unwrap(), 4);
        assert_eq!(a.usize_opt("rounds", 0).unwrap(), 2);
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
        assert_eq!(a.usize_opt("missing", 7).unwrap(), 7);
    }

    #[test]
    fn numeric_errors() {
        let a = parse(&["x", "--procs", "--three"]);
        // `--procs` captured as a bare flag because next token is an option
        assert!(a.flag("procs"));
        let b = parse(&["x", "--n=abc"]);
        assert!(b.usize_opt("n", 0).is_err());
        assert!(b.u64_opt("n", 0).is_err());
        assert!(b.u32_opt("n", 0).is_err());
        assert!(b.i32_opt("n", 0).is_err());
        let c = parse(&["x", "--p", "4294967298"]);
        assert!(c.u32_opt("p", 2).is_err(), "no silent truncation to 2");
        assert_eq!(c.usize_opt("p", 2).unwrap(), 4_294_967_298);
    }

    #[test]
    fn string_defaults() {
        let a = parse(&["x", "--format", "dot"]);
        assert_eq!(a.str_opt("format", "summary"), "dot");
        assert_eq!(a.str_opt("other", "summary"), "summary");
    }

    #[test]
    fn empty_option_rejected() {
        assert!(Args::parse(["--".to_string()]).is_err());
    }
}
