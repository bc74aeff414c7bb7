//! Minimal, strict `--key value` command-line parsing (no external
//! dependencies).
//!
//! A sweep that silently runs its defaults prints a table for parameters
//! nobody asked for, so nothing is ignored: a value that does not parse, a
//! key the binary does not take, a key without its value and a stray word are
//! all errors (exit code 2).

use std::collections::HashMap;
use std::str::FromStr;

/// Parsed command-line arguments.
#[derive(Debug, Clone, Default)]
pub struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parse from `std::env::args` (skipping the program name).
    pub fn from_env() -> Self {
        Self::parse(std::env::args().skip(1)).unwrap_or_else(|e| Self::fail(&e))
    }

    /// Parse from an explicit iterator: `--name value` pairs and bare
    /// `--name` flags; anything else is an error.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut iter = args.into_iter().peekable();
        while let Some(arg) = iter.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected argument `{arg}` (expected --key)"));
            };
            match iter.peek() {
                Some(next) if !next.starts_with("--") => {
                    values.insert(name.to_string(), iter.next().expect("peeked"));
                }
                _ => flags.push(name.to_string()),
            }
        }
        Ok(Args { values, flags })
    }

    /// Report a command-line error and exit with code 2.
    pub fn fail(message: &str) -> ! {
        eprintln!("error: {message}");
        std::process::exit(2);
    }

    /// Check that every key given is one of `accepted` — each binary ends
    /// its parsing with the list of keys it takes.
    pub fn check_keys(&self, accepted: &[&str]) -> Result<(), String> {
        let given = self.values.keys().chain(&self.flags);
        match given.into_iter().find(|k| !accepted.contains(&k.as_str())) {
            None => Ok(()),
            Some(unknown) => Err(format!(
                "unknown option --{unknown} (accepted: --{})",
                accepted.join(", --")
            )),
        }
    }

    /// [`Args::check_keys`], exiting with code 2 on an unknown key.
    pub fn finish(&self, accepted: &[&str]) {
        self.check_keys(accepted).unwrap_or_else(|e| Self::fail(&e));
    }

    /// Whether the bare flag `--name` was passed.
    pub fn try_flag(&self, name: &str) -> Result<bool, String> {
        if self.values.contains_key(name) {
            return Err(format!("--{name} takes no value"));
        }
        Ok(self.flags.iter().any(|f| f == name))
    }

    /// The value of `--name`, if given.
    pub fn try_value<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        if self.flags.iter().any(|f| f == name) {
            return Err(format!("--{name} needs a value"));
        }
        match self.values.get(name) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| format!("--{name}: `{raw}` is not a valid value")),
        }
    }

    /// [`Args::try_flag`], exiting with code 2 if the flag was given a value.
    pub fn flag(&self, name: &str) -> bool {
        self.try_flag(name).unwrap_or_else(|e| Self::fail(&e))
    }

    /// [`Args::try_value`], exiting with code 2 on a value that does not
    /// parse.
    pub fn value<T: FromStr>(&self, name: &str) -> Option<T> {
        self.try_value(name).unwrap_or_else(|e| Self::fail(&e))
    }

    /// The value of `--name`, or `default` when it was not given.
    pub fn get_or<T: FromStr>(&self, name: &str, default: T) -> T {
        self.value(name).unwrap_or(default)
    }

    /// Common scale factor: `--quick` shrinks experiments for smoke runs.
    pub fn quick(&self) -> bool {
        self.flag("quick")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn values_flags_and_defaults() {
        let a = parse("--threads 8 --theta 0.99 --quick --keys 100000");
        assert_eq!(a.get_or("threads", 1u64), 8);
        assert_eq!(a.get_or("threads", 1usize), 8);
        assert!((a.get_or("theta", 0.0f64) - 0.99).abs() < 1e-9);
        assert_eq!(a.get_or("keys", 0u64), 100_000);
        assert!(a.flag("quick"));
        assert!(a.quick());
        assert_eq!(a.get_or("missing", 7u64), 7);
        assert!(!a.flag("verbose"));
        a.check_keys(&["threads", "theta", "quick", "keys"])
            .unwrap();
    }

    #[test]
    fn a_value_that_does_not_parse_is_an_error() {
        let a = parse("--threads x8 --ops");
        let err = a.try_value::<usize>("threads").unwrap_err();
        assert!(err.contains("--threads") && err.contains("x8"), "{err}");
        // A key that lost its value, and a flag that grew one, too.
        assert!(a
            .try_value::<usize>("ops")
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse("--quick 3").try_flag("quick").is_err());
        // Words outside `--key value` are not skipped over.
        assert!(Args::parse(["stray".to_string()]).is_err());
    }

    #[test]
    fn an_unknown_key_is_an_error() {
        let a = parse("--thread 8 --quick");
        let err = a.check_keys(&["threads", "quick"]).unwrap_err();
        assert!(
            err.contains("--thread ") && err.contains("--threads"),
            "{err}"
        );
        parse("--quick").check_keys(&["threads", "quick"]).unwrap();
        assert!(parse("--smoke").check_keys(&["quick"]).is_err());
    }
}
