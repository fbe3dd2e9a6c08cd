//! The one command-line grammar of every parflow binary: `--key value` (a
//! value is any token not starting with `--`, so `--seed -5` and
//! `--input -` work), `--key` alone or with `on|true|1|off|false|0` for a
//! flag the caller declared boolean, and positionals anywhere.
//!
//! A repeated flag fails in [`Args::parse`]. Getters mark what they read,
//! and [`Args::finish`] fails on any flag or positional the command never
//! asked for — a misspelt flag is a usage error, not a silently applied
//! default. Commands read every flag, call `finish`, and only then work.

use std::cell::Cell;
use std::fmt;
use std::str::FromStr;

/// A usage error: which flag, and what is wrong with it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArgError {
    /// Flag name without the leading `--`; empty for a positional.
    pub flag: String,
    /// What is wrong, as a user-facing phrase.
    pub problem: String,
}

impl ArgError {
    fn new(flag: &str, problem: impl Into<String>) -> Self {
        ArgError {
            flag: flag.to_string(),
            problem: problem.into(),
        }
    }
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if !self.flag.is_empty() {
            write!(f, "--{}: ", self.flag)?;
        }
        write!(f, "{}", self.problem)
    }
}

impl std::error::Error for ArgError {}

/// Parsed command-line arguments with read tracking.
pub struct Args {
    /// `(key, value, read)`; booleans are stored as `on` / `off`.
    flags: Vec<(String, String, Cell<bool>)>,
    positionals: Vec<String>,
    positionals_read: Cell<bool>,
    /// A bare boolean and the positional right after it: when the command
    /// takes no positionals, `--stream maybe` is a bad value for `--stream`.
    stray: Option<(String, String)>,
}

impl Args {
    /// Parse `argv` (program name and subcommand already removed).
    /// `bools` names the flags that take no value.
    pub fn parse(argv: &[String], bools: &[&str]) -> Result<Args, ArgError> {
        let mut args = Args {
            flags: Vec::new(),
            positionals: Vec::new(),
            positionals_read: Cell::new(false),
            stray: None,
        };
        let mut bare: Option<&str> = None;
        let mut it = argv.iter().peekable();
        while let Some(tok) = it.next() {
            let Some(key) = tok.strip_prefix("--") else {
                if let (Some(flag), None) = (bare.take(), &args.stray) {
                    args.stray = Some((flag.to_string(), tok.clone()));
                }
                args.positionals.push(tok.clone());
                continue;
            };
            if args.flags.iter().any(|(k, ..)| k == key) {
                return Err(ArgError::new(key, "given more than once"));
            }
            let value = if bools.contains(&key) {
                let word =
                    it.next_if(|w| ["on", "true", "1", "off", "false", "0"].contains(&w.as_str()));
                bare = word.is_none().then_some(key);
                match word.map(String::as_str) {
                    Some("off" | "false" | "0") => "off",
                    _ => "on",
                }
            } else {
                bare = None;
                it.next_if(|next| !next.starts_with("--"))
                    .ok_or_else(|| ArgError::new(key, "needs a value"))?
            };
            args.flags
                .push((key.to_string(), value.to_string(), Cell::new(false)));
        }
        Ok(args)
    }

    fn raw(&self, key: &str) -> Option<&str> {
        let (_, value, read) = self.flags.iter().find(|(k, ..)| k == key)?;
        read.set(true);
        Some(value)
    }

    /// The value of `--key` parsed as `T`, `None` when the flag is absent.
    pub fn get<T: FromStr>(&self, key: &str) -> Result<Option<T>, ArgError>
    where
        T::Err: fmt::Display,
    {
        let parse = |v: &str| {
            v.parse()
                .map_err(|e| ArgError::new(key, format!("bad value '{v}': {e}")))
        };
        self.raw(key).map(parse).transpose()
    }

    /// [`Args::get`] with a default for an absent flag.
    pub fn get_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, ArgError>
    where
        T::Err: fmt::Display,
    {
        Ok(self.get(key)?.unwrap_or(default))
    }

    /// Whether the boolean flag `--key` (declared in `parse`) is on.
    pub fn flag(&self, key: &str) -> bool {
        self.raw(key) == Some("on")
    }

    /// The positionals, in order. A command that never asks accepts none.
    pub fn positionals(&self) -> &[String] {
        self.positionals_read.set(true);
        &self.positionals
    }

    /// Reject every flag no getter asked about, and every positional if
    /// the command takes none.
    pub fn finish(&self) -> Result<(), ArgError> {
        if let Some((key, ..)) = self.flags.iter().find(|(.., read)| !read.get()) {
            return Err(ArgError::new(key, "unknown flag"));
        }
        match (&self.stray, self.positionals.first()) {
            _ if self.positionals_read.get() => Ok(()),
            (Some((flag, tok)), _) => Err(ArgError::new(
                flag,
                format!("bad value '{tok}' (want on|off)"),
            )),
            (None, Some(tok)) => Err(ArgError::new("", format!("unexpected argument '{tok}'"))),
            (None, None) => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str, bools: &[&str]) -> Result<Args, ArgError> {
        let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
        Args::parse(&argv, bools)
    }

    #[test]
    fn grammar_table() {
        // A bare boolean does not swallow the positional after it.
        let a = parse("--stream fig3 --obs-json p steal-k", &["stream"]).unwrap();
        assert!(a.flag("stream"));
        assert_eq!(a.get::<String>("obs-json").unwrap().as_deref(), Some("p"));
        assert_eq!(a.positionals(), ["fig3", "steal-k"]);
        a.finish().unwrap();
        // Explicit boolean words, both polarities; an absent flag is off.
        for (word, want) in [
            ("on", true),
            ("true", true),
            ("1", true),
            ("off", false),
            ("false", false),
            ("0", false),
        ] {
            let a = parse(&format!("--stream {word} --jobs 5"), &["stream", "certify"]).unwrap();
            assert_eq!(a.flag("stream"), want, "{word}");
            assert!(!a.flag("certify"));
            assert_eq!(a.get_or("jobs", 0u64).unwrap(), 5);
            a.finish().unwrap();
        }
        // A single dash is a value, not a flag.
        let a = parse("--seed -5 --input -", &[]).unwrap();
        assert_eq!(a.get::<i64>("seed").unwrap(), Some(-5));
        assert_eq!(a.get::<String>("input").unwrap().as_deref(), Some("-"));
        assert_eq!(a.get::<u64>("absent").unwrap(), None);
        assert_eq!(a.get_or("absent", 7u64).unwrap(), 7);
        a.finish().unwrap();
    }

    #[test]
    fn errors_name_the_flag() {
        let err = |r: Result<Args, ArgError>| r.err().expect("must fail");
        // Missing value: at the end, and before another flag.
        assert_eq!(err(parse("--key", &[])).flag, "key");
        let e = err(parse("--csv --list", &["list"]));
        assert_eq!(
            (e.flag.as_str(), e.problem.as_str()),
            ("csv", "needs a value")
        );
        // Given twice, with either the same or a different value.
        let e = err(parse("--m 4 --jobs 9 --m 8", &[]));
        assert_eq!(e.to_string(), "--m: given more than once");
        assert_eq!(err(parse("--stream --stream", &["stream"])).flag, "stream");
        // Unparsable value.
        let a = parse("--jobs nope", &[]).unwrap();
        let e = a.get::<u64>("jobs").unwrap_err();
        assert_eq!(e.flag, "jobs");
        assert!(e.problem.starts_with("bad value 'nope'"), "{e}");
    }

    #[test]
    fn finish_rejects_what_was_never_read() {
        // A misspelt flag is unknown, even though a sibling was read.
        let a = parse("--jobs 5 --mm 9", &[]).unwrap();
        assert_eq!(a.get_or("jobs", 0u64).unwrap(), 5);
        let e = a.finish().unwrap_err();
        assert_eq!(e.to_string(), "--mm: unknown flag");
        // Positionals nobody asked for.
        let a = parse("orphan value", &[]).unwrap();
        let e = a.finish().unwrap_err();
        assert_eq!(e.to_string(), "unexpected argument 'orphan'");
        // ... and right after a bare boolean, the boolean takes the blame.
        let a = parse("--stream maybe --jobs 5", &["stream"]).unwrap();
        assert!(a.flag("stream"));
        a.get::<u64>("jobs").unwrap();
        let e = a.finish().unwrap_err();
        assert_eq!(e.flag, "stream");
        assert!(e.problem.contains("'maybe'"), "{e}");
        // `--` alone is not a flag any command reads.
        assert!(parse("--", &[]).is_err());
    }
}
