//! The bench binaries' shared front end.
//!
//! Every table and figure in the paper's evaluation (§5) is an entry of
//! [`paper::CATALOG`], which `bench --bin paper` prints with its claims
//! checked against the paper (see DESIGN.md's experiment index). The rest
//! serves the other bins: argument parsing, and the JSON summaries
//! [`summary`] builds for the sim-throughput and chaos bins.

use std::cell::RefCell;
use std::str::FromStr;

use burst::json::Json;

pub mod paper;
pub mod summary;

/// Prints an aligned text table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    print!("{}", table(title, headers, rows));
}

/// An aligned text table: a blank line, `== title ==`, the headers, a
/// rule, then one line per row.
pub fn table(title: &str, headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let rule = "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len());
    let headers: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let mut out = format!("\n== {title} ==\n{}\n{rule}\n", fmt_row(&headers));
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Peak resident set size in bytes (`VmHWM` from `/proc/self/status`);
/// 0 where procfs is unavailable, so a gate on it first asserts a reading.
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Renders a summary the way every bin writes one: two-space indent, one
/// member per line, `": "` after keys (`benchmark/src/port.rs` scans them
/// for `"key": ` followed by digits; [`summary`]'s tests pin that shape).
/// Scalars and empty containers print as [`Json`]'s compact form.
fn pretty(value: &Json) -> String {
    let mut out = String::new();
    write_pretty(value, 0, &mut out);
    out.push('\n');
    out
}

fn write_pretty(value: &Json, depth: usize, out: &mut String) {
    let (open, close, members): (_, _, Vec<(Option<&str>, &Json)>) = match value {
        Json::Arr(items) if !items.is_empty() => {
            ('[', ']', items.iter().map(|item| (None, item)).collect())
        }
        Json::Obj(pairs) if !pairs.is_empty() => (
            '{',
            '}',
            pairs.iter().map(|(k, v)| (Some(k.as_str()), v)).collect(),
        ),
        scalar => return out.push_str(&scalar.to_string()),
    };
    out.push(open);
    for (i, (key, member)) in members.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str(&"  ".repeat(depth + 1));
        if let Some(key) = key {
            out.push_str(&format!("{}: ", Json::from(key)));
        }
        write_pretty(member, depth + 1, out);
    }
    out.push('\n');
    out.push_str(&"  ".repeat(depth));
    out.push(close);
}

/// A convergence report's machine-readable violations, one
/// `{oracle, entity, detail}` object per breach — the chaos summary embeds
/// this so a reader can consume breaches without scraping log lines.
pub fn violations_json(violations: &[bladerunner::fault::Violation]) -> Json {
    let row = |v: &bladerunner::fault::Violation| {
        Json::obj([
            ("oracle", Json::from(v.oracle.name())),
            ("entity", Json::from(v.entity.as_str())),
            ("detail", Json::from(v.detail.as_str())),
        ])
    };
    Json::Arr(violations.iter().map(row).collect())
}

/// A bin's command line: `--key value` options and bare `--flag`s. An
/// option whose value is missing, is the next flag or does not parse is
/// an error naming the option, and so, at [`Args::finish`], is a flag the
/// bin never read; the bins exit 2 on either ([`die`]) rather than run a
/// default the caller did not ask for or ignore a flag.
pub struct Args {
    line: Vec<String>,
    /// Every key a read has asked for.
    read: RefCell<Vec<String>>,
}

impl Args {
    /// The process's arguments, without the program name.
    pub fn from_env() -> Args {
        Args::new(std::env::args().skip(1))
    }

    /// A command line from its arguments, without the program name.
    pub fn new<S: Into<String>>(args: impl IntoIterator<Item = S>) -> Args {
        Args {
            line: args.into_iter().map(Into::into).collect(),
            read: RefCell::default(),
        }
    }

    /// `key`'s value, parsed; `Ok(None)` when `key` is absent.
    pub fn parse<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.read.borrow_mut().push(key.to_owned());
        let Some(at) = self.line.iter().position(|a| a == key) else {
            return Ok(None);
        };
        match self.line.get(at + 1) {
            Some(value) if !value.starts_with("--") => value
                .parse()
                .map(Some)
                .map_err(|_| format!("{key}: cannot parse {value:?}")),
            _ => Err(format!("{key}: missing value")),
        }
    }

    /// `key`'s value, `None` when absent; exits 2 on a bad value.
    pub fn opt<T: FromStr>(&self, key: &str) -> Option<T> {
        self.parse(key).unwrap_or_else(|e| die(&e))
    }

    /// `key`'s value, `default` when absent; exits 2 on a bad value.
    pub fn or<T: FromStr>(&self, key: &str, default: T) -> T {
        self.opt(key).unwrap_or(default)
    }

    /// Whether the bare flag `key` is present.
    pub fn flag(&self, key: &str) -> bool {
        self.read.borrow_mut().push(key.to_owned());
        self.line.iter().any(|a| a == key)
    }

    /// An error naming a `--flag` no read has asked for.
    pub fn unread(&self) -> Result<(), String> {
        let read = self.read.borrow();
        match self
            .line
            .iter()
            .find(|a| a.starts_with("--") && !read.contains(a))
        {
            Some(flag) => Err(format!("{flag}: unknown flag")),
            None => Ok(()),
        }
    }

    /// Exits 2 on [`Args::unread`]'s error. A bin calls it once it has read
    /// every option it takes and before it runs, so that a flag it does
    /// not take stops it instead of being ignored.
    pub fn finish(&self) {
        self.unread().unwrap_or_else(|e| die(&e));
    }
}

/// Prints `message` and exits 2, the bins' code for a bad argument or an
/// unreadable input.
pub fn die(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2)
}

/// Delivers a bin's JSON summary: into the file `out` (the bin's `--out`,
/// read before its run so a bad value fails fast) or, when there is none,
/// onto stdout. Nothing is written by default — a number is only
/// comparable with a same-host run of the previous commit, so no bin
/// leaves one behind in the checkout.
pub fn emit_summary(out: Option<&str>, summary: &Json) {
    let json = pretty(summary);
    match out {
        Some(out) => {
            std::fs::write(out, json).expect("write bench summary");
            println!("wrote {out}");
        }
        None => print!("{json}"),
    }
}

/// Parses a half-open `A..B` seed range ("0..200"); a bare number `N`
/// means `N..N+1`.
pub fn parse_seed_range(spec: &str) -> Result<std::ops::Range<u64>, String> {
    if let Some((a, b)) = spec.split_once("..") {
        let lo: u64 = a
            .trim()
            .parse()
            .map_err(|_| format!("bad range start {a:?}"))?;
        let hi: u64 = b
            .trim()
            .parse()
            .map_err(|_| format!("bad range end {b:?}"))?;
        if hi <= lo {
            return Err(format!("empty seed range {spec:?}"));
        }
        Ok(lo..hi)
    } else {
        let n: u64 = spec
            .trim()
            .parse()
            .map_err(|_| format!("bad seed {spec:?}"))?;
        Ok(n..n + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_parse_or_name_the_flag() {
        let args = Args::new(["--devices", "2000", "--rate", "0.5", "--json", "--quiet"]);
        assert_eq!(args.or("--devices", 7usize), 2000);
        assert_eq!(args.or("--absent", 42u32), 42);
        assert_eq!(args.parse::<f64>("--rate"), Ok(Some(0.5)));
        assert!(args.flag("--quiet") && !args.flag("--loud"));
        // `scale --devices 2k` must not run the default 100,000 devices.
        let bad = Args::new(["--devices", "2k"]);
        assert_eq!(
            bad.parse::<usize>("--devices"),
            Err("--devices: cannot parse \"2k\"".to_string())
        );
        // A flag at the end of the line has no value.
        let last = Args::new(["--seed", "7", "--devices"]);
        assert_eq!(
            last.parse::<usize>("--devices"),
            Err("--devices: missing value".to_string())
        );
        // `scale --out --seed 7` must not write a file named `--seed`.
        let next = Args::new(["--out", "--seed", "7"]);
        assert_eq!(
            next.parse::<String>("--out"),
            Err("--out: missing value".to_string())
        );
        assert_eq!(next.parse::<u64>("--seed"), Ok(Some(7)));
        // A bare flag followed by another flag has no value.
        assert!(args.parse::<String>("--json").is_err());
    }

    #[test]
    fn a_flag_the_bin_does_not_read_is_named() {
        // `scale --snapshot-every 3` must not run and ignore the flag.
        let args = Args::new(["--devices", "200", "--snapshot-every", "3", "--json"]);
        let unknown = |flag: &str| Err(format!("{flag}: unknown flag"));
        assert_eq!(args.unread(), unknown("--devices"));
        assert_eq!(args.or("--devices", 7usize), 200);
        assert!(!args.flag("--quiet") && args.flag("--json"));
        assert_eq!(args.unread(), unknown("--snapshot-every"));
        // A read of an absent or bad option still reads the key.
        assert!(args.parse::<u64>("--snapshot-every").is_ok());
        assert_eq!(args.unread(), Ok(()));
        // Values are not flags, however they read; no flag at all is fine.
        let values = Args::new(["--out", "-snapshot", "--seed", "-3"]);
        assert_eq!(values.opt::<String>("--out").as_deref(), Some("-snapshot"));
        assert_eq!(values.opt::<String>("--seed").as_deref(), Some("-3"));
        assert_eq!(values.unread(), Ok(()));
        assert_eq!(Args::new(Vec::<String>::new()).unread(), Ok(()));
    }

    #[test]
    fn seed_range_forms() {
        assert_eq!(parse_seed_range("0..200"), Ok(0..200));
        assert_eq!(parse_seed_range("7"), Ok(7..8));
        assert!(parse_seed_range("5..5").is_err());
        assert!(parse_seed_range("x..3").is_err());
    }

    #[test]
    fn pretty_output_parses_back_and_puts_each_member_on_its_own_line() {
        let value = Json::obj([
            ("events_total", Json::from(12u64)),
            ("wall_seconds", Json::from(0.25)),
            ("note", Json::from("tab\there, \"quoted\"")),
            ("metrics", Json::obj([("deliveries", Json::from(3u64))])),
            (
                "tiers",
                Json::Arr(vec![Json::from(1u64), Json::Arr(vec![])]),
            ),
            ("empty", Json::obj(Vec::<(String, Json)>::new())),
        ]);
        let text = pretty(&value);
        assert_eq!(Json::parse(&text).expect("pretty output is JSON"), value);
        // The shape `benchmark/src/port.rs` scans for.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "{");
        assert_eq!(lines[1], "  \"events_total\": 12,");
        assert!(lines.contains(&"  \"metrics\": {"));
        assert!(lines.contains(&"    \"deliveries\": 3"));
        assert!(lines.contains(&"  \"empty\": {}"));
        assert!(text.ends_with("}\n"));
    }
}
