//! The one flag table of the subcommands that take flags (`gen`,
//! `compress`, `sweep`, and the run subcommands `fl`, `serve`,
//! `worker`) and the parser over it.
//!
//! Every `--flag` those subcommands accept is one [`FLAGS`] row: its
//! name, what follows it, and the subcommands it is legal on (a name
//! may have two rows when no subcommand takes both). The rows
//! are the single source for what each subcommand parses, for the keys
//! a `--config` run spec may set ([`crate::spec`]: every run
//! subcommand's row but `config`), and for which flags `serve`/`worker`
//! refuse as simulator-only.
//!
//! [`Args::parse`] only *parses*. An unknown flag, a flag of another
//! subcommand, a missing value, a one-value flag given twice and a
//! stray positional argument are errors; a number is checked for
//! syntax only. Whether a value is in range is the plan's question
//! (`FlConfig::plan`, `ServeConfig::plan`, `WorkerConfig::plan`), asked
//! once, of the configuration the flags built.

use std::collections::BTreeMap;
use std::str::FromStr;
use std::time::Duration;

/// The subcommands that share the flag table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// `fedsz fl`, the in-process simulator.
    Fl,
    /// `fedsz serve`, the socket root or relay.
    Serve,
    /// `fedsz worker`, one socket client.
    Worker,
    /// `fedsz gen`, which writes a model state dict.
    Gen,
    /// `fedsz compress`, the FedSZ pipeline over a state-dict file.
    Compress,
    /// `fedsz sweep`, a grid of `fl` runs.
    Sweep,
}

impl Command {
    /// Every subcommand, in usage order.
    pub const ALL: [Command; 6] = [
        Command::Gen,
        Command::Compress,
        Command::Fl,
        Command::Sweep,
        Command::Serve,
        Command::Worker,
    ];

    /// The subcommand's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Command::Fl => "fl",
            Command::Serve => "serve",
            Command::Worker => "worker",
            Command::Gen => "gen",
            Command::Compress => "compress",
            Command::Sweep => "sweep",
        }
    }

    fn bit(self) -> u8 {
        1 << self as u8
    }
}

const FL: u8 = 1 << Command::Fl as u8;
const SERVE: u8 = 1 << Command::Serve as u8;
const WORKER: u8 = 1 << Command::Worker as u8;
const RUN: u8 = FL | SERVE | WORKER;
const GEN: u8 = 1 << Command::Gen as u8;
const COMPRESS: u8 = 1 << Command::Compress as u8;
const SWEEP: u8 = 1 << Command::Sweep as u8;

/// What follows a flag on the command line. The text names the value
/// in parse errors, as in "--clients expects a client count".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arity {
    /// A bare switch: present or absent.
    Switch,
    /// One value, given at most once.
    Value(&'static str),
    /// One value per occurrence; the flag may repeat.
    Repeated(&'static str),
    /// A switch that may carry one value: the next word, unless it is
    /// a flag.
    Optional(&'static str),
}

/// One row of the flag table.
#[derive(Debug)]
pub struct Flag {
    /// The name without its leading `--`, which is also its run-spec key.
    pub name: &'static str,
    /// What follows the flag.
    pub arity: Arity,
    commands: u8,
}

impl Flag {
    /// Whether `command` accepts this flag.
    pub fn accepted_by(&self, command: Command) -> bool {
        self.commands & command.bit() != 0
    }

    /// Whether a run subcommand (`fl`, `serve`, `worker`) accepts this
    /// flag: the rows a run spec may set.
    pub fn runs(&self) -> bool {
        self.commands & RUN != 0
    }

    fn expects(&self) -> &'static str {
        match self.arity {
            Arity::Switch => "no value",
            Arity::Value(what) | Arity::Repeated(what) | Arity::Optional(what) => what,
        }
    }
}

const fn flag(name: &'static str, arity: Arity, commands: u8) -> Flag {
    Flag { name, arity, commands }
}

use Arity::{Optional, Repeated, Switch, Value};

/// Every flag of `fedsz gen`, `fedsz compress`, `fedsz fl`, `fedsz
/// sweep`, `fedsz serve` and `fedsz worker`.
///
/// The flags all three run subcommands share shape the *bits* of the
/// run (cohort, data, seeds, architecture, codec, topology, DP), so one
/// run spec can drive a whole serve + worker fleet and its `fl` twin.
/// `threads` and `trace` are shared too; they never change the bits.
pub const FLAGS: &[Flag] = &[
    flag("config", Value("a run-spec file"), RUN),
    flag("clients", Value("a client count"), RUN),
    flag("rounds", Value("a round count"), RUN),
    flag("seed", Value("an integer seed"), RUN | GEN),
    flag("train-per-class", Value("a sample count"), RUN),
    flag("arch", Value("alexnet, mobilenetv2 or resnet"), RUN),
    flag("non-iid", Value("a Dirichlet alpha"), RUN),
    flag("tree", Value("per-level fan-outs like 4x8"), RUN),
    flag("psum", Value("a stage policy (raw, lossless, auto, ...)"), RUN),
    flag("downlink", Value("a stage policy (raw, lossy, auto, ...)"), RUN),
    flag("uplink", Value("a stage policy (raw, lossy, topk:R, q8, auto, ...)"), RUN),
    flag("dp-clip", Value("a number (the L2 clip bound)"), RUN),
    flag("dp-noise", Value("a number (the noise multiplier)"), RUN),
    flag("dp-mechanism", Value("gaussian or laplace"), RUN),
    flag("dp-seed", Value("an integer seed"), RUN),
    flag("threads", Value("a worker-thread count"), RUN | SWEEP),
    flag("trace", Value("a trace file path"), RUN),
    flag("json", Switch, FL | SERVE),
    flag("json", Optional("a report file"), SWEEP),
    // The simulator's network and cohort model.
    flag("participation", Value("a fraction"), FL),
    flag("bandwidth", Value("a bandwidth in Mbps"), FL),
    flag("latency", Value("a latency in ms"), FL),
    flag("links", Value("MBPS,MBPS,..."), FL),
    flag("straggler", Repeated("ID:FACTOR"), FL),
    flag("drop", Repeated("ID:PROB"), FL),
    flag("weighted", Switch, FL),
    // The socket runtime.
    flag("connect", Value("a host:port"), SERVE | WORKER),
    flag("bind", Value("a host:port"), SERVE),
    flag("shard", Value("a shard index"), SERVE),
    flag("accept-timeout", Value("seconds"), SERVE),
    flag("round-timeout", Value("seconds"), SERVE),
    flag("reconnect-grace", Value("seconds"), SERVE),
    flag("max-sessions", Value("a session count"), SERVE),
    flag("fail-at-round", Value("a round index"), SERVE),
    flag("metrics-addr", Value("a host:port"), SERVE),
    flag("id", Value("a client index"), WORKER),
    flag("fallback", Value("a host:port"), WORKER),
    flag("retries", Value("an attempt count"), WORKER),
    flag("drop-at-round", Value("a round index"), WORKER),
    flag("timeout", Value("seconds"), WORKER),
    // The file subcommands.
    flag("scale", Value("a fraction of the full model"), GEN),
    flag("eb", Value("a number (relative bound)"), COMPRESS),
    flag("abs", Value("a number (absolute bound)"), COMPRESS),
    flag("lossy", Value("sz2, sz3, szx or zfp"), COMPRESS),
    flag("lossless", Value("blosc-lz, zlib, gzip, zstd or xz"), COMPRESS),
    flag("threshold", Value("an element count"), COMPRESS),
];

/// The first table row named `name` (without `--`).
pub fn lookup(name: &str) -> Option<&'static Flag> {
    FLAGS.iter().find(|flag| flag.name == name)
}

/// The row `name` has on `command`, if `command` takes it.
fn row_of(command: Command, name: &str) -> Option<&'static Flag> {
    FLAGS.iter().find(|flag| flag.name == name && flag.accepted_by(command))
}

/// Why `command` refuses `flag`. Several simulator-only flags shape the
/// bits (`--weighted`, `--participation`, `--drop`), so a
/// socket process that ignored one would print a checksum that can
/// never match the `fl` run it claims to mirror.
fn refusal(flag: &Flag, command: Command) -> String {
    let (name, command) = (flag.name, command.name());
    if flag.commands == FL {
        return format!(
            "--{name} is simulator-only: `fedsz {command}` cannot honor it (use `fedsz fl`)"
        );
    }
    let owners: Vec<String> = Command::ALL
        .iter()
        .filter(|c| flag.accepted_by(**c))
        .map(|c| format!("`fedsz {}`", c.name()))
        .collect();
    format!("--{name} is a {} flag, not a `fedsz {command}` one", owners.join("/"))
}

/// A parsed command line: every flag given, with its values in order.
#[derive(Debug)]
pub struct Args<'a> {
    command: Command,
    given: BTreeMap<&'static str, Vec<&'a str>>,
}

impl<'a> Args<'a> {
    /// Parses `args` (the words after the subcommand) against the table.
    ///
    /// # Errors
    ///
    /// Returns a message for an unknown flag, a flag `command` does not
    /// take, a flag missing its value, a one-value flag given twice, or
    /// a positional argument.
    pub fn parse(command: Command, args: &'a [String]) -> Result<Self, String> {
        let mut given: BTreeMap<&'static str, Vec<&'a str>> = BTreeMap::new();
        let mut words = args.iter().peekable();
        while let Some(word) = words.next() {
            let Some(name) = word.strip_prefix("--") else {
                return Err(format!("unexpected argument `{word}` for `fedsz {}`", command.name()));
            };
            let Some(flag) = row_of(command, name) else {
                return Err(match lookup(name) {
                    Some(flag) => refusal(flag, command),
                    None => format!("unknown flag {word} (see `fedsz --help`)"),
                });
            };
            if given.contains_key(flag.name) && !matches!(flag.arity, Repeated(_)) {
                return Err(format!("{word} given twice (it takes one value)"));
            }
            let values = given.entry(flag.name).or_default();
            let value = match flag.arity {
                Switch => None,
                Optional(_) => words.next_if(|next| !next.starts_with("--")),
                Value(_) | Repeated(_) => {
                    Some(words.next().ok_or_else(|| format!("{word} expects {}", flag.expects()))?)
                }
            };
            values.extend(value.map(String::as_str));
        }
        Ok(Self { command, given })
    }

    /// The row of a flag the code reads. Asking for a name the
    /// subcommand does not take is a bug in this crate, not a user
    /// error.
    fn row(&self, name: &str) -> &'static Flag {
        row_of(self.command, name).unwrap_or_else(|| panic!("--{name} is not in the flag table"))
    }

    /// Whether the switch (or optional-value flag) `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        debug_assert!(
            matches!(self.row(name).arity, Switch | Optional(_)),
            "--{name} is not a switch"
        );
        self.given.contains_key(name)
    }

    /// The value of the one-value (or optional-value) flag `name`, if
    /// given.
    pub fn value(&self, name: &str) -> Option<&'a str> {
        debug_assert!(
            matches!(self.row(name).arity, Value(_) | Optional(_)),
            "--{name} takes no single value"
        );
        self.given.get(name).and_then(|values| values.first().copied())
    }

    /// Every value of the repeatable flag `name`, in order.
    pub fn values(&self, name: &str) -> &[&'a str] {
        debug_assert!(matches!(self.row(name).arity, Repeated(_)), "--{name} does not repeat");
        self.given.get(name).map_or(&[], Vec::as_slice)
    }

    /// The value of `name` parsed as a `T`, if given. Only the syntax is
    /// checked here; the range is the plan's.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag, what it expects and the value
    /// given, when the value does not parse.
    pub fn parsed<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.value(name)
            .map(|value| value.parse().map_err(|_| self.malformed(name, value)))
            .transpose()
    }

    /// [`Args::parsed`], falling back to `default` when `name` is absent.
    ///
    /// # Errors
    ///
    /// As [`Args::parsed`].
    pub fn parsed_or<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        Ok(self.parsed(name)?.unwrap_or(default))
    }

    /// A duration flag given in (fractional) seconds, or `default_secs`.
    /// A negative or non-finite value is no duration at all and fails
    /// here; whether zero is allowed is the plan's question.
    ///
    /// # Errors
    ///
    /// As [`Args::parsed`].
    pub fn secs_or(&self, name: &str, default_secs: f64) -> Result<Duration, String> {
        let secs = self.parsed_or(name, default_secs)?;
        Duration::try_from_secs_f64(secs).map_err(|_| self.malformed(name, &secs.to_string()))
    }

    fn malformed(&self, name: &str, value: &str) -> String {
        format!("--{name} expects {}, got `{value}`", self.row(name).expects())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn names_are_unique_and_every_flag_belongs_somewhere() {
        for (i, flag) in FLAGS.iter().enumerate() {
            let clash = |f: &Flag| f.name == flag.name && f.commands & flag.commands != 0;
            assert!(!FLAGS[..i].iter().any(clash), "--{} twice", flag.name);
            assert!(Command::ALL.iter().any(|c| flag.accepted_by(*c)), "--{} unused", flag.name);
        }
    }

    #[test]
    fn the_usage_text_lists_exactly_each_subcommands_flags() {
        // Each subcommand's usage synopsis runs from its `fedsz NAME`
        // line to the next `fedsz` line; its `--flags` must be exactly
        // the table's rows for that subcommand.
        let synopsis = crate::USAGE.split("\n\n").nth(1).expect("USAGE has a synopsis block");
        for command in Command::ALL {
            let head = format!("  fedsz {} ", command.name());
            let start = synopsis.find(&head).expect("every run subcommand has a synopsis");
            let body = &synopsis[start + head.len()..];
            let body = &body[..body.find("\n  fedsz ").unwrap_or(body.len())];
            let mut listed: Vec<&str> = body
                .split(|c: char| c.is_whitespace() || "[]|".contains(c))
                .filter_map(|word| word.strip_prefix("--"))
                .collect();
            listed.sort_unstable();
            listed.dedup();
            let mut table: Vec<&str> =
                FLAGS.iter().filter(|f| f.accepted_by(command)).map(|f| f.name).collect();
            table.sort_unstable();
            assert_eq!(listed, table, "`fedsz {}` usage vs flag table", command.name());
        }
    }

    #[test]
    fn parses_switches_values_and_repeats() {
        let argv =
            words(&["--clients", "8", "--weighted", "--straggler", "0:4", "--straggler", "1:2"]);
        let args = Args::parse(Command::Fl, &argv).unwrap();
        assert_eq!(args.parsed_or("clients", 4usize), Ok(8));
        assert_eq!(args.parsed_or("rounds", 5usize), Ok(5));
        assert!(args.switch("weighted") && !args.switch("json"));
        assert_eq!(args.values("straggler"), ["0:4", "1:2"]);
        assert!(args.values("drop").is_empty());
        // Negative numbers are values, not flags.
        let argv = words(&["--dp-noise", "-1"]);
        assert_eq!(Args::parse(Command::Fl, &argv).unwrap().value("dp-noise"), Some("-1"));
    }

    #[test]
    fn malformed_command_lines_are_errors_not_ignored() {
        for (argv, command, needle) in [
            (&["--clinets", "8"][..], Command::Fl, "unknown flag --clinets"),
            (&["--rounds", "1", "--rounds", "2"], Command::Fl, "--rounds given twice"),
            (&["--weighted", "--weighted"], Command::Fl, "--weighted given twice"),
            (&["--rounds"], Command::Fl, "--rounds expects a round count"),
            (&["stray"], Command::Worker, "unexpected argument `stray`"),
            (&["--bind", "h:1"], Command::Fl, "--bind is a `fedsz serve` flag"),
            (&["--connect", "h:1"], Command::Fl, "`fedsz serve`/`fedsz worker` flag"),
            (&["--id", "0"], Command::Serve, "--id is a `fedsz worker` flag"),
            (&["--json"], Command::Worker, "--json is a `fedsz fl`/`fedsz serve` flag"),
            (&["--links", "1"], Command::Serve, "--links is simulator-only"),
        ] {
            let argv = words(argv);
            let err = Args::parse(command, &argv).unwrap_err();
            assert!(err.contains(needle), "{argv:?} gave `{err}`, wanted `{needle}`");
        }
        let argv = words(&["--clients", "abc", "--timeout", "-5"]);
        let args = Args::parse(Command::Worker, &argv).unwrap();
        assert_eq!(
            args.parsed_or("clients", 4usize).unwrap_err(),
            "--clients expects a client count, got `abc`"
        );
        assert_eq!(
            args.secs_or("timeout", 1.0).unwrap_err(),
            "--timeout expects seconds, got `-5`"
        );
    }
}
