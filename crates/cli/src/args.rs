//! Minimal hand-rolled option parsing: `--key value` flags plus at
//! most one bare positional argument, the operand. A command names the
//! flags it reads and whether it takes an operand; any other flag or
//! positional argument is an error.

use std::collections::BTreeMap;

/// Parsed command-line options.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Options {
    flags: BTreeMap<String, String>,
    operand: Option<String>,
}

impl Options {
    /// Parse an argument list for a command that reads the flags
    /// `known` (space-separated, without dashes) and, when `operand`
    /// describes one, exactly one positional argument. Every `--key`
    /// consumes the following token as its value.
    pub fn parse(args: &[String], known: &str, operand: Option<&str>) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                match operand {
                    Some(_) if opts.operand.is_none() => opts.operand = Some(arg.clone()),
                    Some(what) => {
                        return Err(format!(
                            "unexpected argument {arg:?}; this command takes one, {what}"
                        ))
                    }
                    None => {
                        return Err(format!(
                            "unexpected argument {arg:?}; this command takes no positional \
                             arguments"
                        ))
                    }
                }
                continue;
            };
            if key.is_empty() {
                return Err("empty flag name".to_string());
            }
            if !known.split_whitespace().any(|flag| flag == key) {
                let known: Vec<&str> = known.split_whitespace().collect();
                return Err(match known.as_slice() {
                    [] => format!("unknown flag --{key}; this command takes no flags"),
                    _ => format!(
                        "unknown flag --{key}; this command takes --{}",
                        known.join(", --")
                    ),
                });
            }
            let value = iter
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            if opts.flags.insert(key.to_string(), value.clone()).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
        }
        match operand {
            Some(what) if opts.operand.is_none() => Err(format!("this command needs {what}")),
            _ => Ok(opts),
        }
    }

    /// A string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// A parsed numeric flag, with a default.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("flag --{key} expects an integer, got {v:?}")),
        }
    }

    /// The positional argument of a command that takes one (`parse`
    /// has checked it is there).
    pub fn operand(&self) -> &str {
        self.operand.as_deref().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn flags_and_positionals() {
        let opts = Options::parse(
            &argv("file.json --seed 42 --scale quick"),
            "seed scale",
            Some("a file"),
        )
        .unwrap();
        assert_eq!(opts.get("seed"), Some("42"));
        assert_eq!(opts.get("scale"), Some("quick"));
        assert_eq!(opts.operand(), "file.json");
        assert_eq!(opts.get_u64("seed", 0).unwrap(), 42);
        assert_eq!(opts.get_u64("missing", 7).unwrap(), 7);
    }

    #[test]
    fn errors() {
        assert!(
            Options::parse(&argv("--seed"), "seed", None).is_err(),
            "missing value"
        );
        assert!(
            Options::parse(&argv("--seed 1 --seed 2"), "seed", None).is_err(),
            "dup"
        );
        assert!(
            Options::parse(&argv("--seed abc"), "seed", None)
                .unwrap()
                .get_u64("seed", 0)
                .is_err(),
            "non-numeric"
        );
    }

    #[test]
    fn unknown_flags_are_named() {
        let known = "machines seed";
        assert_eq!(
            Options::parse(&argv("--machnes 5 --sed 3"), known, None),
            Err("unknown flag --machnes; this command takes --machines, --seed".to_string())
        );
        assert_eq!(
            Options::parse(&argv("--machines 5 --sed 3"), known, None),
            Err("unknown flag --sed; this command takes --machines, --seed".to_string())
        );
        assert_eq!(
            Options::parse(&argv("store.ktstore --seed 1"), "", Some("a store")),
            Err("unknown flag --seed; this command takes no flags".to_string())
        );
        assert!(Options::parse(&argv("--machines 5 --seed 3"), known, None).is_ok());
    }

    #[test]
    fn stray_positionals_are_named() {
        assert_eq!(
            Options::parse(&argv("5 --machines 3"), "machines seed", None),
            Err("unexpected argument \"5\"; this command takes no positional arguments".into())
        );
        assert_eq!(
            Options::parse(&argv("a.ktstore b.ktstore"), "", Some("a store path")),
            Err("unexpected argument \"b.ktstore\"; this command takes one, a store path".into())
        );
        assert_eq!(
            Options::parse(&argv("--repair yes"), "repair", Some("a journal path")),
            Err("this command needs a journal path".to_string())
        );
    }

    #[test]
    fn empty_input() {
        let opts = Options::parse(&[], "", None).unwrap();
        assert_eq!(opts.operand(), "");
        assert_eq!(opts.get("anything"), None);
    }
}
