//! The one command-line reader every bin declares its flags on.
//!
//! A bin creates a [`Cli`], declares exactly the flags it reads — each
//! declaration returns its parsed value on the spot — and calls
//! [`Cli::finish`] before doing any work:
//!
//! ```no_run
//! use portopt_bench::cli::{parse, positive, Cli};
//!
//! let mut cli = Cli::new("serve", "Serves predictions from a model snapshot.");
//! let port: u16 = cli.value("--port PORT", 7209, "TCP port", parse);
//! let batch: usize = cli.value("--batch N", 32, "requests per batch", positive);
//! cli.finish(); // exits 0 on --help, 2 on any usage error
//! ```
//!
//! A token starting with `--` is always a flag, never a value:
//! `--snapshot --stdio` is a missing path, not a file named `--stdio`.

use std::fmt::Display;
use std::str::FromStr;

/// Parses a value with its [`FromStr`] impl.
pub fn parse<T: FromStr>(s: &str) -> Option<T> {
    s.parse().ok()
}

/// Parses a number that must be greater than zero.
pub fn positive<T: FromStr + PartialOrd + Default>(s: &str) -> Option<T> {
    parse(s).filter(|v| *v > T::default())
}

/// Splits a flag spec `"--name META"` into its name and value placeholder.
fn split(spec: &str) -> (&str, &str) {
    spec.split_once(' ').unwrap_or((spec, "a value"))
}

/// A bin's command line, taken apart flag by flag as the bin declares
/// them. Each declaration removes its tokens from the argument list and
/// adds a line to the `--help` text; [`Cli::finish`] settles the run.
pub struct Cli {
    bin: &'static str,
    about: &'static str,
    /// The arguments after the program name; `None` once taken.
    args: Vec<Option<String>>,
    help: bool,
    positionals: String,
    options: String,
    errors: Vec<String>,
}

impl Cli {
    /// Reads the process arguments for the bin `bin`, described by
    /// `about` at the top of its `--help`.
    pub fn new(bin: &'static str, about: &'static str) -> Self {
        let mut args: Vec<Option<String>> = std::env::args().skip(1).map(Some).collect();
        let help = args.iter().any(|a| a.as_deref() == Some("--help"));
        args.retain(|a| a.as_deref() != Some("--help"));
        Cli {
            bin,
            about,
            args,
            help,
            positionals: String::new(),
            options: String::new(),
            errors: Vec::new(),
        }
    }

    fn describe(&mut self, spec: &str, help: &str) {
        self.options += &format!("  {spec}\n      {help}\n");
    }

    /// Records a usage error; [`Cli::finish`] reports it and exits 2.
    pub fn error(&mut self, msg: impl Into<String>) {
        self.errors.push(msg.into());
    }

    /// Takes every `--name VALUE` pair, recording an error for an
    /// occurrence without a value.
    fn take(&mut self, spec: &str) -> Vec<String> {
        let (name, meta) = split(spec);
        let mut found = Vec::new();
        for i in 0..self.args.len() {
            if self.args[i].as_deref() != Some(name) {
                continue;
            }
            self.args[i] = None;
            match self.args.get_mut(i + 1) {
                Some(next) if next.as_ref().is_some_and(|v| !v.starts_with("--")) => {
                    found.extend(next.take());
                }
                _ => self.error(format!("{name} expects {meta}")),
            }
        }
        found
    }

    /// A boolean switch: `true` when `name` is present.
    pub fn flag(&mut self, name: &str, help: &str) -> bool {
        self.describe(name, help);
        let mut seen = false;
        for a in self.args.iter_mut().filter(|a| a.as_deref() == Some(name)) {
            *a = None;
            seen = true;
        }
        seen
    }

    /// An optional `"--name META"` value, converted by `conv` (e.g.
    /// [`parse`]). A value `conv` rejects, or a second occurrence, is a
    /// usage error.
    pub fn opt<T>(
        &mut self,
        spec: &str,
        help: &str,
        conv: impl Fn(&str) -> Option<T>,
    ) -> Option<T> {
        self.describe(spec, help);
        let (name, meta) = split(spec);
        let mut found = self.take(spec);
        if found.len() > 1 {
            self.error(format!("{name} given more than once"));
        }
        let raw = found.pop()?;
        let value = conv(&raw);
        if value.is_none() {
            self.error(format!("{name} expects {meta}, got {raw:?}"));
        }
        value
    }

    /// [`Cli::opt`] with a default, which the usage text shows.
    pub fn value<T: Display>(
        &mut self,
        spec: &str,
        default: T,
        help: &str,
        conv: impl Fn(&str) -> Option<T>,
    ) -> T {
        let help = format!("{help} [default: {default}]");
        self.opt(spec, &help, conv).unwrap_or(default)
    }

    /// A `"--name META"` value that must be given.
    pub fn required(&mut self, spec: &str, help: &str) -> String {
        let name = split(spec).0;
        if !self.args.iter().any(|a| a.as_deref() == Some(name)) {
            self.error(format!("missing {spec}"));
        }
        let help = format!("{help} [required]");
        self.opt(spec, &help, parse).unwrap_or_default()
    }

    /// A repeatable `"--name META"` value, every occurrence in order.
    pub fn values(&mut self, spec: &str, help: &str) -> Vec<String> {
        self.describe(spec, &format!("{help} [repeatable]"));
        self.take(spec)
    }

    /// The next required positional argument. Declare positionals after
    /// every flag, so flag values are already taken.
    pub fn positional(&mut self, meta: &str, help: &str) -> String {
        self.positionals += &format!(" {meta}");
        self.describe(meta, help);
        let next = self
            .args
            .iter_mut()
            .find(|a| a.as_ref().is_some_and(|a| !a.starts_with("--")));
        next.and_then(Option::take).unwrap_or_else(|| {
            self.error(format!("missing {meta}"));
            String::new()
        })
    }

    /// Settles the command line before any work starts. On `--help` it
    /// prints the usage built from the declarations and exits 0, whatever
    /// else is wrong. Otherwise every usage error — including each token
    /// no declaration took — is printed on its own line and the process
    /// exits 2. With neither, the bin runs.
    pub fn finish(mut self) {
        for a in self.args.iter().flatten() {
            self.errors.push(if a.starts_with("--") {
                format!("unknown flag {a}")
            } else {
                format!("unexpected argument {a:?}")
            });
        }
        if self.help {
            print!(
                "usage: {}{} [OPTIONS]\n\n{}\n\noptions:\n{}  --help\n      print this help\n",
                self.bin, self.positionals, self.about, self.options
            );
            std::process::exit(0);
        }
        if !self.errors.is_empty() {
            for e in &self.errors {
                eprintln!("{}: usage error: {e}", self.bin);
            }
            eprintln!("run `{} --help` for usage", self.bin);
            std::process::exit(2);
        }
    }
}
