//! Minimal hand-rolled option parsing: `--key value` flags plus bare
//! positional arguments, collected in order. A command names the flags
//! it reads, and any other flag is an error.

use std::collections::BTreeMap;

/// Parsed command-line options.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Options {
    flags: BTreeMap<String, String>,
    positional: Vec<String>,
}

impl Options {
    /// Parse an argument list for a command that reads the flags
    /// `known` (space-separated, without dashes). Every `--key`
    /// consumes the following token as its value; everything else is
    /// positional.
    pub fn parse(args: &[String], known: &str) -> Result<Options, String> {
        let mut opts = Options::default();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
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
            } else {
                opts.positional.push(arg.clone());
            }
        }
        Ok(opts)
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

    /// Positional arguments in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
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
            &argv("file.json --seed 42 --scale quick extra"),
            "seed scale",
        )
        .unwrap();
        assert_eq!(opts.get("seed"), Some("42"));
        assert_eq!(opts.get("scale"), Some("quick"));
        assert_eq!(opts.positional(), &["file.json", "extra"]);
        assert_eq!(opts.get_u64("seed", 0).unwrap(), 42);
        assert_eq!(opts.get_u64("missing", 7).unwrap(), 7);
    }

    #[test]
    fn errors() {
        assert!(
            Options::parse(&argv("--seed"), "seed").is_err(),
            "missing value"
        );
        assert!(
            Options::parse(&argv("--seed 1 --seed 2"), "seed").is_err(),
            "dup"
        );
        assert!(
            Options::parse(&argv("--seed abc"), "seed")
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
            Options::parse(&argv("--machnes 5 --sed 3"), known),
            Err("unknown flag --machnes; this command takes --machines, --seed".to_string())
        );
        assert_eq!(
            Options::parse(&argv("--machines 5 --sed 3"), known),
            Err("unknown flag --sed; this command takes --machines, --seed".to_string())
        );
        assert_eq!(
            Options::parse(&argv("store.ktstore --seed 1"), ""),
            Err("unknown flag --seed; this command takes no flags".to_string())
        );
        assert!(Options::parse(&argv("--machines 5 --seed 3"), known).is_ok());
    }

    #[test]
    fn empty_input() {
        let opts = Options::parse(&[], "").unwrap();
        assert!(opts.positional().is_empty());
        assert_eq!(opts.get("anything"), None);
    }
}
