//! The subcommand implementations. Each takes its input text (already
//! read) plus parsed [`crate::Flags`] and returns the output string.

use crate::{usage_err, CliError};
use v6census_core::temporal::Day;

mod aggregate;
mod census;
mod classify;
mod dense;
mod mra;
mod profile;
mod ptr;
mod serve;
mod stability;
mod stable;
mod synth;
mod targets;

pub use aggregate::aggregate;
pub use census::census;
pub use classify::classify;
pub use dense::dense;
pub use mra::mra;
pub use profile::profile;
pub use ptr::ptr;
pub use serve::{serve, serve_config_from_flags};
pub use stability::{stability, DayFile};
pub use stable::stable;
pub use synth::synth;
pub use targets::targets;

/// Parses the `YYYY-MM-DD` value of `--{flag}` with [`Day::parse_ymd`];
/// anything else, an impossible date included, is a usage error.
pub(crate) fn parse_day(flag: &str, s: &str) -> Result<Day, CliError> {
    Day::parse_ymd(s)
        .ok_or_else(|| usage_err(format!("bad --{flag} {s:?}; expected a date YYYY-MM-DD")))
}

/// Usage text for the tool.
pub const USAGE: &str = "\
v6census — temporal & spatial classification of IPv6 addresses (IMC'15)

USAGE: v6census <command> [flags]   (address input on stdin, one per line)

COMMANDS
  classify              content-based scheme per address; summary histogram
                        [--tsv] [--malone]
  mra                   Multi-Resolution Aggregate plot + signatures
                        [--title T] [--tsv]
  dense                 n@/p-dense prefixes and density report
                        [--class 2@/112] [--table3] [--general]
  aggregate             active aggregate counts n_p, or populations
                        [--length P] [--populations]
  stable                cross-epoch stability spectrum + boundary (§7.2)
                        --earlier FILE  (current epoch on stdin)
                        [--threshold 0.5] [--step 8] [--prefixes]
  stability             full nd-stable analysis over daily files (§5.1)
                        --dir DIR  (files named YYYY-MM-DD*, one addr/line)
                        [--n 3] [--window 7] [--slew 0] [--reference DATE]
  census                fault-tolerant supervised pipeline over day-log files:
                        ingest health, run manifest, Table 1, gap-aware
                        stability, dense prefixes
                        --dir DIR (or positional; files named YYYY-MM-DD*)
                        [--max-bad-ratio 0.01] [--strict] [--merge-duplicates]
                        [--checkpoint DIR] [--resume] [--max-days N]
                        [--n 3] [--reference DATE] [--gap-policy widen|flag|ignore]
                        [--jobs 1] worker threads per analysis stage
                        [--stage-deadline MS] per-stage wall-clock deadline
                        [--max-trie-nodes N] densify node budget (degrade, not die)
                        [--class 8@/64] density class for the dense section
                        [--no-timings] omit wall clocks from the manifest so
                          the report is byte-identical across reruns/--jobs
                        [--inject SPEC] analysis fault drill, e.g.
                          panic:densify/2001  hang:stability:60000  slow:ingest:50
  serve                 crash-safe census daemon over day-log files:
                        background incremental ingest, immutable published
                        snapshots, HTTP/1.1 queries on /stable/<addr>,
                        /classify/<prefix>, /stats, /healthz, /readyz
                        --dir DIR (or positional; files named YYYY-MM-DD*)
                        [--bind 127.0.0.1:0] prints `listening on ADDR`
                        [--state DIR] crash-safe journal + checkpoints
                        [--routing FILE] `prefix asn` lines for /classify
                        [--max-connections 64] load-shed (503) past the cap
                        [--header-deadline-ms 3000] [--max-request-bytes 8192]
                        [--read-timeout-ms 2000] [--write-timeout-ms 2000]
                        [--poll-ms 200] source rescan cadence
                        [--drain-ms 5000] graceful-drain deadline
                        [--run-for-ms MS] exit after MS (default: stdin EOF)
                        [--n 3] [--class 8@/64] plus the census ingest flags
  targets               probe-target list from dense prefixes (§6.2.2)
                        [--class 2@/112] [--budget 10000] [--include-observed]
  ptr                   addresses -> ip6.arpa names [--reverse]
  profile               aguri traffic profile from `addr hits` lines
                        [--threshold 0.01]
  synth                 emit a synthetic day log (addr, hits, true kind)
                        [--day 2015-03-17] [--scale 0.02] [--seed N]
                        (0 < scale <= 1000; 1.0 is 1/1000 of the paper's
                        populations, 1000 the paper's own size)
  help                  this text

EXIT CODES
  0  success, all results exact
  1  data or I/O error (bad input, strict-mode abort, unreadable files)
  2  usage error (unknown command, missing arguments, a --scale outside
     (0, 1000], a --day or --reference that is not a real YYYY-MM-DD)
  3  completed but degraded: some result is coarser or partial — a shard
     panicked twice, a stage hit its deadline, or a budget forced coarser
     aggregation; the run manifest in the output names every casualty.
     For `serve`: the daemon ran and drained, but had to abandon
     in-flight connections at the drain deadline (the summary says how
     many). A serve that cannot even start (bad bind, unusable state
     dir) exits 1; bad flags exit 2.
";
