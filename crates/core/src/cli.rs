//! Small shared argument parser for the `nvc` subcommands.
//!
//! Every subcommand declares its flags up front; anything starting with
//! `--` that is not declared is a hard error with usage text, instead of
//! being silently ignored (a misspelled `--bacth 64` used to fall
//! through as a positional and change nothing). Both `--flag value` and
//! `--flag=value` spellings are accepted; repeatable flags collect every
//! occurrence (`nvc hub --model a=1.ckpt --model b=2.ckpt`).

/// One declared flag.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag token, including the leading dashes (`"--kernels"`).
    pub name: &'static str,
    /// True when the flag consumes a value; false for boolean switches.
    pub(crate) takes_value: bool,
    /// True when the flag may appear more than once.
    pub(crate) repeatable: bool,
}

impl Flag {
    /// A single-occurrence flag taking a value.
    pub const fn value(name: &'static str) -> Self {
        Flag {
            name,
            takes_value: true,
            repeatable: false,
        }
    }

    /// A flag taking a value that may repeat.
    pub const fn repeated(name: &'static str) -> Self {
        Flag {
            name,
            takes_value: true,
            repeatable: true,
        }
    }

    /// A boolean switch.
    pub const fn switch(name: &'static str) -> Self {
        Flag {
            name,
            takes_value: false,
            repeatable: false,
        }
    }
}

/// The result of a successful parse.
#[derive(Debug, Default)]
pub struct ParsedArgs {
    values: Vec<(&'static str, String)>,
    positionals: Vec<String>,
}

impl ParsedArgs {
    /// The last value of `name` (conventional flag override order).
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every value of a repeatable flag, in order.
    pub fn get_all(&self, name: &str) -> Vec<&str> {
        self.values
            .iter()
            .filter(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// True when a switch (or any flag) was present.
    pub fn has(&self, name: &str) -> bool {
        self.values.iter().any(|(n, _)| *n == name)
    }

    /// Parses `name`'s value, with a readable error naming the flag.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag and the bad value.
    pub fn parse_value<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.get(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("invalid value `{v}` for {name}")),
        }
    }

    /// Positional arguments, in order.
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }
}

/// Parses `args` against the declared `flags`.
///
/// # Errors
///
/// Returns a message (already containing `usage`) for: an undeclared
/// `--flag`, a value flag at the end of the line, or a repeated
/// non-repeatable flag.
pub fn parse_args(args: &[String], flags: &[Flag], usage: &str) -> Result<ParsedArgs, String> {
    let mut out = ParsedArgs::default();
    let mut i = 0;
    while i < args.len() {
        let tok = &args[i];
        if let Some(stripped) = tok.strip_prefix("--") {
            let (name, inline) = match stripped.split_once('=') {
                Some((n, v)) => (n, Some(v.to_string())),
                None => (stripped, None),
            };
            let flag = flags
                .iter()
                .find(|f| f.name.trim_start_matches('-') == name)
                .ok_or_else(|| format!("unknown flag `--{name}`\n{usage}"))?;
            if !flag.repeatable && out.has(flag.name) {
                return Err(format!("{} given more than once\n{usage}", flag.name));
            }
            let value = if !flag.takes_value {
                if inline.is_some() {
                    return Err(format!("{} takes no value\n{usage}", flag.name));
                }
                "true".to_string()
            } else if let Some(v) = inline {
                v
            } else {
                i += 1;
                args.get(i)
                    .cloned()
                    .ok_or_else(|| format!("{} requires a value\n{usage}", flag.name))?
            };
            out.values.push((flag.name, value));
        } else {
            out.positionals.push(tok.clone());
        }
        i += 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    const FLAGS: &[Flag] = &[
        Flag::value("--kernels"),
        Flag::repeated("--model"),
        Flag::switch("--verbose"),
    ];

    #[test]
    fn parses_values_positionals_and_switches() {
        let p = parse_args(
            &argv(&["file.c", "--kernels", "64", "--verbose", "other.c"]),
            FLAGS,
            "usage",
        )
        .unwrap();
        assert_eq!(p.get("--kernels"), Some("64"));
        assert_eq!(p.parse_value::<usize>("--kernels").unwrap(), Some(64));
        assert!(p.has("--verbose"));
        assert_eq!(p.positionals(), &["file.c", "other.c"]);
    }

    #[test]
    fn equals_spelling_and_repeats() {
        let p = parse_args(
            &argv(&["--model=a=1.ckpt", "--model", "b=2.ckpt"]),
            FLAGS,
            "usage",
        )
        .unwrap();
        // Only the first `=` splits flag from value.
        assert_eq!(p.get_all("--model"), vec!["a=1.ckpt", "b=2.ckpt"]);
    }

    #[test]
    fn unknown_flag_is_an_error_with_usage() {
        let e = parse_args(&argv(&["--bacth", "64"]), FLAGS, "usage: nvc …").unwrap_err();
        assert!(e.contains("unknown flag `--bacth`"), "{e}");
        assert!(e.contains("usage: nvc …"), "error must carry usage text");
    }

    #[test]
    fn missing_value_and_duplicate_are_errors() {
        assert!(parse_args(&argv(&["--kernels"]), FLAGS, "u")
            .unwrap_err()
            .contains("requires a value"));
        assert!(
            parse_args(&argv(&["--kernels", "1", "--kernels", "2"]), FLAGS, "u")
                .unwrap_err()
                .contains("more than once")
        );
        assert!(parse_args(&argv(&["--verbose=yes"]), FLAGS, "u")
            .unwrap_err()
            .contains("takes no value"));
    }

    #[test]
    fn bad_numeric_value_names_the_flag() {
        let p = parse_args(&argv(&["--kernels", "lots"]), FLAGS, "u").unwrap();
        let e = p.parse_value::<usize>("--kernels").unwrap_err();
        assert!(e.contains("--kernels") && e.contains("lots"), "{e}");
    }
}
