//! Tiny dependency-free flag parser: `--key value` and `--flag` switches
//! after a subcommand.

use std::collections::HashMap;

/// Flags every subcommand accepts.
pub const GLOBAL_FLAGS: &[&str] = &["threads"];

/// Parsed command line: subcommand + flags.
#[derive(Debug, Clone)]
pub struct Args {
    pub command: String,
    flags: HashMap<String, String>,
    switches: Vec<String>,
    /// Every flag and switch name, in command-line order.
    names: Vec<String>,
}

/// Errors produced while parsing or reading flags.
#[derive(Debug)]
pub enum ArgError {
    MissingCommand,
    Missing(String),
    /// A flag the subcommand does not read.
    Unknown {
        flag: String,
        command: String,
    },
    Invalid {
        flag: String,
        value: String,
        expected: &'static str,
    },
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "no subcommand given"),
            ArgError::Missing(flag) => write!(f, "required flag --{flag} is missing"),
            ArgError::Unknown { flag, command } => {
                write!(f, "unknown flag --{flag} for `cfkg {command}`")
            }
            ArgError::Invalid {
                flag,
                value,
                expected,
            } => {
                write!(f, "--{flag} {value:?} is not a valid {expected}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `argv[1..]`: first token is the subcommand, the rest are
    /// `--key value` pairs (a `--key` followed by another `--…` or nothing
    /// is a boolean switch).
    pub fn parse(argv: &[String]) -> Result<Args, ArgError> {
        let mut it = argv.iter().peekable();
        let command = it.next().ok_or(ArgError::MissingCommand)?.clone();
        let mut flags = HashMap::new();
        let mut switches = Vec::new();
        let mut names = Vec::new();
        while let Some(tok) = it.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(ArgError::Invalid {
                    flag: tok.clone(),
                    value: tok.clone(),
                    expected: "--flag",
                });
            };
            names.push(name.to_string());
            match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    flags.insert(name.to_string(), it.next().expect("peeked").clone());
                }
                _ => switches.push(name.to_string()),
            }
        }
        Ok(Args {
            command,
            flags,
            switches,
            names,
        })
    }

    /// Errors on the first flag or switch, in command-line order, that is
    /// neither in one of the `known` lists nor in [`GLOBAL_FLAGS`].
    pub fn check_known(&self, known: &[&[&str]]) -> Result<(), ArgError> {
        let is_known = |name: &str| {
            GLOBAL_FLAGS.contains(&name) || known.iter().any(|list| list.contains(&name))
        };
        match self.names.iter().find(|name| !is_known(name)) {
            Some(flag) => Err(ArgError::Unknown {
                flag: flag.clone(),
                command: self.command.clone(),
            }),
            None => Ok(()),
        }
    }

    pub fn get(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    pub fn require(&self, flag: &str) -> Result<&str, ArgError> {
        self.get(flag)
            .ok_or_else(|| ArgError::Missing(flag.to_string()))
    }

    pub fn switch(&self, flag: &str) -> bool {
        self.switches.iter().any(|s| s == flag)
    }

    pub fn get_parse<T: std::str::FromStr>(
        &self,
        flag: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::Invalid {
                flag: flag.to_string(),
                value: v.to_string(),
                expected,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_command_flags_and_switches() {
        let a = Args::parse(&sv(&[
            "train",
            "--epochs",
            "10",
            "--quality",
            "--seed",
            "7",
        ]))
        .unwrap();
        assert_eq!(a.command, "train");
        assert_eq!(a.get("epochs"), Some("10"));
        assert_eq!(a.get("seed"), Some("7"));
        assert!(a.switch("quality"));
        assert!(!a.switch("missing"));
    }

    #[test]
    fn get_parse_defaults_and_validates() {
        let a = Args::parse(&sv(&["x", "--n", "5"])).unwrap();
        assert_eq!(a.get_parse("n", 1usize, "integer").unwrap(), 5);
        assert_eq!(a.get_parse("m", 3usize, "integer").unwrap(), 3);
        let bad = Args::parse(&sv(&["x", "--n", "five"])).unwrap();
        assert!(bad.get_parse("n", 1usize, "integer").is_err());
    }

    #[test]
    fn missing_command_is_an_error() {
        assert!(matches!(Args::parse(&[]), Err(ArgError::MissingCommand)));
    }

    #[test]
    fn rejects_positional_arguments() {
        assert!(Args::parse(&sv(&["x", "oops"])).is_err());
    }

    #[test]
    fn check_known_names_the_first_unknown_flag() {
        let a = Args::parse(&sv(&[
            "serve",
            "--seed",
            "1",
            "--shardz",
            "2",
            "--workers",
            "--threads",
            "2",
        ]))
        .unwrap();
        let err = a.check_known(&[&["seed"], &["shards"]]).unwrap_err();
        assert_eq!(err.to_string(), "unknown flag --shardz for `cfkg serve`");
        assert!(a.check_known(&[&["seed", "shardz"], &["workers"]]).is_ok());
    }

    #[test]
    fn require_reports_flag_name() {
        let a = Args::parse(&sv(&["x"])).unwrap();
        let err = a.require("input").unwrap_err();
        assert!(err.to_string().contains("input"));
    }
}
