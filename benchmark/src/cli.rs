//! Strict command-line parsing: an unknown flag, a missing or unparseable
//! value and a stray argument are all errors.  (`crates/bench/src/args.rs`
//! silently ignores them, which is why it is not reused.)

use std::str::FromStr;

/// Flags of one subcommand, in the order given; repeats are kept.
#[derive(Debug, Default, PartialEq)]
pub struct Flags(Vec<(&'static str, String)>);

/// Parse `args` against the flags a subcommand knows.  `valued` flags take
/// the next argument as their value; `switches` take none.
pub fn parse(
    args: &[String],
    valued: &[&'static str],
    switches: &[&'static str],
) -> Result<Flags, String> {
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if let Some(&name) = valued.iter().find(|f| *f == arg) {
            let value = it.next().ok_or_else(|| format!("{name} needs a value"))?;
            flags.push((name, value.clone()));
        } else if let Some(&name) = switches.iter().find(|f| *f == arg) {
            flags.push((name, String::new()));
        } else {
            let known = [valued, switches].concat().join(" ");
            return Err(format!("unknown argument {arg:?} (known: {known})"));
        }
    }
    Ok(Flags(flags))
}

impl Flags {
    pub fn has(&self, name: &str) -> bool {
        self.0.iter().any(|(n, _)| *n == name)
    }

    /// Every value given for `name`.
    pub fn all(&self, name: &str) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// The value of a flag that may be given at most once.
    pub fn one<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.all(name).as_slice() {
            [] => Ok(None),
            [v] => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name}: cannot read {v:?}")),
            _ => Err(format!("{name} given more than once")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn known_flags_parse_and_repeat() {
        let f = parse(
            &args("--seed 7 --workload a --workload b --smoke"),
            &["--seed", "--workload"],
            &["--smoke"],
        )
        .unwrap();
        assert_eq!(f.one::<u64>("--seed"), Ok(Some(7)));
        assert_eq!(f.all("--workload"), vec!["a", "b"]);
        assert!(f.has("--smoke") && !f.has("--out"));
        assert_eq!(f.one::<f64>("--scale"), Ok(None));
    }

    #[test]
    fn unknown_flags_and_bad_values_are_errors() {
        assert!(parse(&args("--sed 7"), &["--seed"], &[]).is_err());
        assert!(parse(&args("--seed"), &["--seed"], &[]).is_err());
        assert!(parse(&args("stray"), &["--seed"], &[]).is_err());
        let f = parse(&args("--seed x"), &["--seed"], &[]).unwrap();
        assert!(f.one::<u64>("--seed").is_err());
        let f = parse(&args("--seed 1 --seed 2"), &["--seed"], &[]).unwrap();
        assert!(f.one::<u64>("--seed").is_err());
    }
}
