//! Command lines parsed against one declaration per command: its
//! positionals and its `--flag value` options. Parsing, defaults and
//! usage text all read that declaration.

use std::fmt::Display;
use std::str::FromStr;

/// One `--name VALUE` option.
pub struct Flag {
    /// Spelled `--name` on the command line.
    pub name: &'static str,
    /// The value's placeholder in usage text.
    pub value: &'static str,
    /// The value read when the flag is absent.
    pub default: Option<&'static str>,
    /// One line of help.
    pub help: &'static str,
}

/// One subcommand.
pub struct Command {
    /// Spelled `datacomp <name>`.
    pub name: &'static str,
    /// The positionals as usage shows them: `<x>` is required, `[x]`
    /// optional, and `...` takes any number more.
    pub synopsis: &'static str,
    /// The options only this command takes.
    pub flags: &'static [Flag],
    /// Runs the command.
    pub run: fn(&Args) -> Result<(), String>,
}

/// The options every command takes.
#[rustfmt::skip]
const SHARED: &[Flag] = &[
    Flag { name: "telemetry", value: "PATH", default: None, help: "write the series /metrics would serve to PATH (JSON) and PATH.prom" },
    Flag { name: "trace", value: "PATH", default: None, help: "write the tail-sampled requests to PATH as Chrome trace JSON" },
];

impl Command {
    fn flags(&self) -> impl Iterator<Item = &'static Flag> {
        self.flags.iter().chain(SHARED)
    }

    /// `datacomp <name> <positionals> [--flag VALUE]...`, without the
    /// options every command takes.
    pub fn synopsis_line(&self) -> String {
        let mut line = format!("datacomp {} {}", self.name, self.synopsis);
        line.truncate(line.trim_end().len()); // no positionals
        for f in self.flags {
            line.push_str(&format!(" [--{} {}]", f.name, f.value));
        }
        line
    }

    /// The synopsis line, then one help line per option.
    fn usage(&self) -> String {
        let mut out = format!("usage: {}", self.synopsis_line());
        for f in self.flags() {
            let flag = format!("--{} {}", f.name, f.value);
            out.push_str(&format!("\n  {flag:<26} {}", f.help));
            if let Some(d) = f.default {
                out.push_str(&format!(" (default {d})"));
            }
        }
        out
    }
}

/// A command line checked against its [`Command`].
pub struct Args {
    /// Arguments without a leading `--`.
    pub positionals: Vec<String>,
    given: Vec<(&'static str, String)>,
    command: &'static Command,
}

impl Args {
    /// Splits `raw` into positionals and the options `command`
    /// declares. An undeclared or repeated option, an option without a
    /// value, a missing positional or one the synopsis has no room for
    /// is an error: a line naming it, then the command's usage.
    pub fn parse(raw: &[String], command: &'static Command) -> Result<Self, String> {
        let fault = |what: String| format!("{what}\n{}", command.usage());
        let (mut positionals, mut given) = (Vec::new(), Vec::new());
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                positionals.push(a.clone());
                continue;
            };
            let flag = (command.flags().find(|f| f.name == name))
                .ok_or_else(|| fault(format!("unknown flag --{name}")))?;
            if given.iter().any(|(n, _)| *n == name) {
                return Err(fault(format!("--{name} given twice")));
            }
            let value = (it.next())
                .ok_or_else(|| fault(format!("--{name} needs a value {}", flag.value)))?;
            given.push((flag.name, value.clone()));
        }
        let slots: Vec<&str> = command.synopsis.split_whitespace().collect();
        let required = slots.iter().filter(|s| s.starts_with('<')).count();
        let n = positionals.len();
        if n < required {
            return Err(fault(format!("missing {}", slots[n])));
        }
        if n > slots.len() && !command.synopsis.contains("...") {
            let extra = &positionals[slots.len()];
            return Err(fault(format!("unexpected argument {extra}")));
        }
        Ok(Args {
            positionals,
            given,
            command,
        })
    }

    /// `--name`'s value, else its default, parsed as `T`; `None` when
    /// neither is set. An unparsable value is an error naming the flag,
    /// and a name the command does not declare is a bug: it panics.
    pub fn opt<T: FromStr<Err: Display>>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|e| format!("invalid value for --{name}: {v} ({e})"))
        };
        self.raw(name).map(parse).transpose()
    }

    /// [`Args::opt`] for a flag the command cannot run without.
    pub fn get<T: FromStr<Err: Display>>(&self, name: &str) -> Result<T, String> {
        self.opt(name)?.ok_or_else(|| format!("need --{name}"))
    }

    /// `--name`'s comma list, else its default, each item trimmed and
    /// read by `item`; `None` when neither is set.
    pub fn list<T, F>(&self, name: &str, item: F) -> Result<Option<Vec<T>>, String>
    where
        F: Fn(&str) -> Result<T, String>,
    {
        let split = |v: &str| v.split(',').map(|s| item(s.trim())).collect();
        self.raw(name).map(split).transpose()
    }

    fn raw(&self, name: &str) -> Option<&str> {
        let flag = (self.command.flags().find(|f| f.name == name))
            .unwrap_or_else(|| panic!("datacomp {} declares no --{name}", self.command.name));
        let given = self.given.iter().find(|(n, _)| *n == name);
        given.map_or(flag.default, |(_, v)| Some(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[rustfmt::skip]
    const DEMO: Command = Command {
        name: "demo",
        synopsis: "<in> [out]",
        flags: &[
            Flag { name: "level", value: "N", default: Some("3"), help: "level" },
            Flag { name: "block", value: "BYTES", default: None, help: "block size" },
            Flag { name: "levels", value: "A,B", default: Some("1, 3"), help: "levels" },
        ],
        run: |_| Ok(()),
    };

    fn parse(v: &[&str]) -> Result<Args, String> {
        Args::parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>(), &DEMO)
    }

    #[test]
    fn splits_positionals_and_options() {
        let a = parse(&["in.bin", "out.bin", "--level", "7", "--trace", "t.json"]).unwrap();
        assert_eq!(a.positionals, vec!["in.bin", "out.bin"]);
        assert_eq!(a.get::<i32>("level").unwrap(), 7);
        assert_eq!(a.get::<String>("trace").unwrap(), "t.json");
    }

    #[test]
    fn defaults_and_missing() {
        let a = parse(&["x"]).unwrap();
        assert_eq!(a.get::<i32>("level").unwrap(), 3);
        assert_eq!(a.opt::<usize>("block").unwrap(), None);
        assert!(a.get::<usize>("block").unwrap_err().contains("--block"));
        let levels = a.list("levels", |s| s.parse::<i32>().map_err(|e| e.to_string()));
        assert_eq!(levels.unwrap(), Some(vec![1, 3]));
    }

    #[test]
    fn bad_value_is_an_error() {
        let a = parse(&["x", "--level", "abc"]).unwrap();
        let err = a.opt::<i32>("level").unwrap_err();
        assert_eq!(
            err,
            "invalid value for --level: abc (invalid digit found in string)"
        );
    }

    #[test]
    fn faults_name_the_input_and_list_the_flags() {
        for (argv, fault) in [
            (&["x", "--levle", "7"][..], "unknown flag --levle"),
            (
                &["x", "--level", "1", "--level", "2"],
                "--level given twice",
            ),
            (&["x", "--level"], "--level needs a value N"),
            (&[], "missing <in>"),
            (&["x", "y", "z"], "unexpected argument z"),
        ] {
            let err = parse(argv).err().unwrap();
            assert!(
                err.starts_with(&format!("{fault}\nusage: datacomp demo <in> [out]")),
                "{err}"
            );
            for flag in [
                "--level N",
                "--block BYTES",
                "--levels A,B",
                "--telemetry PATH",
                "--trace PATH",
            ] {
                assert!(err.contains(flag), "{flag} missing from {err}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "datacomp demo declares no --nope")]
    fn reading_an_undeclared_flag_is_a_bug() {
        let _ = parse(&["x"]).unwrap().opt::<i32>("nope");
    }
}
