//! A small, dependency-free argument parser for the `witag` CLI.
//!
//! Supports `--key value`, `--key=value` and bare flags; collects
//! positional arguments; reports unknown keys. Deliberately tiny — the
//! CLI has a handful of options per subcommand and the offline crate set
//! is kept minimal.

use std::collections::BTreeMap;

/// Parsed arguments: options by key plus positionals in order.
#[derive(Debug, Default, Clone)]
pub struct Args {
    opts: BTreeMap<String, String>,
    positionals: Vec<String>,
    /// Keys the caller has read (for unknown-option reporting).
    consumed: std::cell::RefCell<Vec<String>>,
}

/// Parsing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--key` given without a value.
    MissingValue(String),
    /// A value failed to parse.
    BadValue {
        /// The option name.
        key: String,
        /// The unparsable text.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// Options the subcommand does not understand.
    Unknown(Vec<String>),
}

impl core::fmt::Display for ArgError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "option --{key}: '{value}' is not a valid {expected}")
            }
            ArgError::Unknown(keys) => {
                write!(f, "unknown option(s): ")?;
                for (i, k) in keys.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "--{k}")?;
                }
                Ok(())
            }
        }
    }
}

impl Args {
    /// Parse a raw argument list (after the subcommand).
    ///
    /// Flags (`--foo` with no value) are stored with an empty value; a
    /// following token starting with `--` is treated as the next option,
    /// not a value.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut iter = raw.into_iter().peekable();
        while let Some(tok) = iter.next() {
            if let Some(stripped) = tok.strip_prefix("--") {
                if let Some((k, v)) = stripped.split_once('=') {
                    args.opts.insert(k.to_string(), v.to_string());
                } else {
                    // Value is the next token unless it is another option.
                    match iter.peek() {
                        Some(next) if !next.starts_with("--") => {
                            let v = iter.next().unwrap();
                            args.opts.insert(stripped.to_string(), v);
                        }
                        _ => {
                            args.opts.insert(stripped.to_string(), String::new());
                        }
                    }
                }
            } else {
                args.positionals.push(tok);
            }
        }
        Ok(args)
    }

    /// Positional arguments (the `report` subcommand takes the trace
    /// path as one).
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Raw option lookup (marks the key consumed).
    pub fn raw(&self, key: &str) -> Option<&str> {
        self.consumed.borrow_mut().push(key.to_string());
        self.opts.get(key).map(|s| s.as_str())
    }

    /// `true` if a bare flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.raw(key).is_some()
    }

    /// A string option with a default.
    pub fn str_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        match self.raw(key) {
            Some(v) if !v.is_empty() => v,
            _ => default,
        }
    }

    /// An f64 option with a default.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        match self.raw(key) {
            Some(v) if !v.is_empty() => v.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.to_string(),
                expected: "number",
            }),
            Some(_) => Err(ArgError::MissingValue(key.to_string())),
            None => Ok(default),
        }
    }

    /// A usize option with a default.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        match self.raw(key) {
            Some(v) if !v.is_empty() => v.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.to_string(),
                expected: "integer",
            }),
            Some(_) => Err(ArgError::MissingValue(key.to_string())),
            None => Ok(default),
        }
    }

    /// A u64 option with a default.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        match self.raw(key) {
            Some(v) if !v.is_empty() => v.parse().map_err(|_| ArgError::BadValue {
                key: key.to_string(),
                value: v.to_string(),
                expected: "integer",
            }),
            Some(_) => Err(ArgError::MissingValue(key.to_string())),
            None => Ok(default),
        }
    }

    /// After reading every option a subcommand understands, reject
    /// anything left over.
    pub fn reject_unknown(&self) -> Result<(), ArgError> {
        let consumed = self.consumed.borrow();
        let unknown: Vec<String> = self
            .opts
            .keys()
            .filter(|k| !consumed.contains(k))
            .cloned()
            .collect();
        if unknown.is_empty() {
            Ok(())
        } else {
            Err(ArgError::Unknown(unknown))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(toks: &[&str]) -> Args {
        Args::parse(toks.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn key_value_forms() {
        let a = parse(&["--distance", "3.5", "--rounds=200", "--quiet"]);
        assert_eq!(a.f64_or("distance", 0.0).unwrap(), 3.5);
        assert_eq!(a.usize_or("rounds", 0).unwrap(), 200);
        assert!(a.flag("quiet"));
        assert!(a.reject_unknown().is_ok());
    }

    #[test]
    fn defaults_apply() {
        let a = parse(&[]);
        assert_eq!(a.f64_or("distance", 1.5).unwrap(), 1.5);
        assert_eq!(a.str_or("location", "a"), "a");
    }

    #[test]
    fn flag_followed_by_option() {
        let a = parse(&["--quiet", "--seed", "7"]);
        assert!(a.flag("quiet"));
        assert_eq!(a.u64_or("seed", 0).unwrap(), 7);
    }

    #[test]
    fn positionals_collected() {
        let a = parse(&["hello", "--x", "1", "world"]);
        assert_eq!(a.positionals(), &["hello".to_string(), "world".to_string()]);
    }

    #[test]
    fn bad_value_reported() {
        let a = parse(&["--rounds", "many"]);
        assert!(matches!(
            a.usize_or("rounds", 0),
            Err(ArgError::BadValue { .. })
        ));
    }

    #[test]
    fn unknown_rejected() {
        let a = parse(&["--typo", "1"]);
        let _ = a.f64_or("distance", 0.0);
        assert!(matches!(a.reject_unknown(), Err(ArgError::Unknown(keys)) if keys == ["typo"]));
    }
}
