//! What every experiment shares: the command line, the one artifact
//! writer, sharded-archive assembly, fault profiles, and the soundness
//! checks the chaos harnesses repeat.

use mbir_archive::fault::FaultProfile;
use mbir_archive::tile::TileStore;
use mbir_bench::ShardWorld;
use mbir_core::resilient::ResilientHit;
use mbir_core::shard::{ArchiveShard, ShardReport, ShardedArchive};
use mbir_core::source::{CellSource, TileSource};
use mbir_progressive::pyramid::AggregatePyramid;

/// Version of the envelope [`write_artifact`] stamps on every
/// `BENCH_*.json`. Above every per-file version the artifacts carried
/// before they shared one envelope (r8 wrote 1, r7 wrote 2).
const SCHEMA_VERSION: u32 = 3;

/// The command line: one experiment (or `all`) and its knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// The experiment to run, or `"all"`.
    pub experiment: String,
    /// Worker threads for r8; `None` is the pool's detected parallelism.
    pub threads: Option<usize>,
    pub seed: u64,
    /// Submissions per service cycle in r5.
    pub load: usize,
    /// Row-band shards in r6's chaos gate.
    pub shards: usize,
    /// Fault domains r6 kills, in `1..shards`.
    pub kill_shards: usize,
    /// Shrinks r8's and r10's worlds for CI.
    pub small: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            experiment: "all".to_owned(),
            threads: None,
            seed: 7,
            load: 4,
            shards: 4,
            kill_shards: 1,
            small: false,
        }
    }
}

/// The usage line printed with every argument error.
pub fn usage(names: &[&str]) -> String {
    format!(
        "usage: repro [{}|all] [--seed N] [--threads N] [--load L] [--shards S] \
         [--kill-shards F] [--small]",
        names.join("|")
    )
}

/// Parses the arguments after the program name against the experiment
/// `names`. An unknown flag, a flag without its value, an unknown
/// experiment and a second experiment are all errors: a mistyped CI step
/// must fail, not run nothing and pass.
pub fn parse(argv: &[String], names: &[&str]) -> Result<Args, String> {
    fn value<T: std::str::FromStr>(
        v: Option<&String>,
        ok: impl Fn(&T) -> bool,
        msg: &str,
    ) -> Result<T, String> {
        v.and_then(|v| v.parse().ok())
            .filter(|x| ok(x))
            .ok_or_else(|| msg.to_owned())
    }
    let mut args = Args::default();
    let mut experiment: Option<&str> = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threads" => {
                args.threads = Some(value(
                    it.next(),
                    |&t| t > 0,
                    "--threads needs a positive integer",
                )?)
            }
            "--seed" => {
                args.seed = value(it.next(), |_| true, "--seed needs a non-negative integer")?
            }
            "--load" => {
                args.load = value(it.next(), |&l| l > 0, "--load needs a positive integer")?
            }
            "--shards" => {
                args.shards = value(it.next(), |&s| s > 0, "--shards needs a positive integer")?
            }
            "--kill-shards" => {
                args.kill_shards = value(
                    it.next(),
                    |_| true,
                    "--kill-shards needs a positive integer",
                )?
            }
            "--small" => args.small = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag}")),
            name if name != "all" && !names.contains(&name) => {
                return Err(format!("unknown experiment {name}"))
            }
            name => {
                if let Some(first) = experiment.replace(name) {
                    return Err(format!("one experiment at a time: got {first} and {name}"));
                }
            }
        }
    }
    if let Some(name) = experiment {
        args.experiment = name.to_owned();
    }
    let runs_r6 = matches!(args.experiment.as_str(), "r6" | "all");
    if runs_r6 && (args.kill_shards == 0 || args.kill_shards >= args.shards) {
        return Err(
            "--kill-shards must be in 1..shards (the chaos gate needs a victim)".to_owned(),
        );
    }
    Ok(args)
}

/// Writes `path`: the envelope every artifact shares (`experiment`,
/// `schema_version`, `git_rev`, `host_cpus`, `seed`, `small`) followed by
/// the experiment's own `fields` — JSON object members separated by
/// `",\n  "`. A failed write ends the process with status 1, so a later
/// step that reads the artifact can never read a stale copy.
pub fn write_artifact(path: &str, experiment: &str, args: &Args, fields: &str) {
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let json = format!(
        "{{\n  \"experiment\": \"{experiment}\",\n  \"schema_version\": {SCHEMA_VERSION},\n  \
         \"git_rev\": \"{}\",\n  \"host_cpus\": {host_cpus},\n  \"seed\": {},\n  \
         \"small\": {},\n  {fields}\n}}\n",
        git_rev(),
        args.seed,
        args.small,
    );
    match std::fs::write(path, json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => {
            eprintln!("\ncould not write {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// The commit of the checkout this binary was built from, suffixed
/// `-dirty` when its work tree has uncommitted changes, or `unknown`
/// outside a git work tree.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args([
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "describe",
            "--always",
            "--dirty",
            "--abbrev=12",
        ])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// One `ShardReport` as a JSON object — shared by r6 and r9.
pub fn shard_report_json(s: &ShardReport) -> String {
    format!(
        "{{\"shard\":{},\"outcome\":\"{}\",\"completeness\":{:.6},\"exact_hits\":{},\
         \"skipped_pages\":{},\"pages_read\":{},\"ticks\":{},\"hedged\":{}}}",
        s.shard,
        s.outcome,
        s.completeness,
        s.exact_hits,
        s.skipped_pages.len(),
        s.pages_read,
        s.ticks,
        s.hedged,
    )
}

/// A deterministic hash of `x` keyed by `seed` and `salt`: how r4 picks
/// the pages its cocktail hits and r5 the shape of each storm query.
pub fn page_mix(seed: u64, x: usize, salt: u64) -> u64 {
    seed.wrapping_add(salt)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(x as u64)
        .wrapping_mul(0x5851_f42d_4c95_7f2d)
        >> 32
}

/// Every one of `pages` pages fails permanently.
pub fn dead(pages: usize) -> FaultProfile {
    (0..pages).fold(FaultProfile::new(), |p, pg| p.permanent(pg))
}

/// Every one of `pages` pages answers `ticks` late.
pub fn slow(pages: usize, ticks: u64) -> FaultProfile {
    (0..pages).fold(FaultProfile::new(), |p, pg| p.latency(pg, ticks))
}

/// Fresh copies of `stores`, each under `faults` when given.
pub fn faulted(stores: &[TileStore], faults: Option<&FaultProfile>) -> Vec<TileStore> {
    stores
        .iter()
        .map(|s| match faults {
            Some(f) => s.clone().with_faults(f.clone()),
            None => s.clone(),
        })
        .collect()
}

/// One `TileSource` per store group.
pub fn tile_sources<'a>(groups: impl IntoIterator<Item = &'a [TileStore]>) -> Vec<TileSource<'a>> {
    groups
        .into_iter()
        .map(|g| TileSource::new(g).expect("aligned stores"))
        .collect()
}

/// The (pyramids, row offset) of every band of a sharded world.
pub fn layout(worlds: &[ShardWorld]) -> impl Iterator<Item = (&[AggregatePyramid], usize)> {
    worlds.iter().map(|w| (w.pyramids.as_slice(), w.row_offset))
}

/// Shard handles: band `i` of `layout` answers from `sources[i]`.
pub fn shards<'a, S: CellSource>(
    layout: impl IntoIterator<Item = (&'a [AggregatePyramid], usize)>,
    sources: &'a [S],
) -> Vec<ArchiveShard<'a, S>> {
    layout
        .into_iter()
        .zip(sources)
        .map(|((pyramids, row_offset), src)| ArchiveShard::new(pyramids, src, row_offset))
        .collect()
}

/// The sharded archive over [`shards`]`(layout, sources)`.
pub fn archive<'a, S: CellSource>(
    layout: impl IntoIterator<Item = (&'a [AggregatePyramid], usize)>,
    sources: &'a [S],
) -> ShardedArchive<'a, S> {
    ShardedArchive::new(shards(layout, sources)).expect("contiguous bands")
}

/// Whether some reported bound contains `truth`, the true winner's score.
pub fn covers(hits: &[ResilientHit], truth: f64) -> bool {
    hits.iter()
        .any(|h| h.bounds.lo <= truth && truth <= h.bounds.hi)
}

/// Whether every hit's score lies inside its own bounds.
pub fn in_own_bounds(hits: &[ResilientHit]) -> bool {
    hits.iter()
        .all(|h| h.bounds.lo <= h.score && h.score <= h.bounds.hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    const NAMES: &[&str] = &["e1", "r4", "r5", "r6"];

    fn parse_str(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_owned).collect();
        parse(&argv, NAMES)
    }

    #[test]
    fn no_arguments_run_everything_at_the_defaults() {
        assert_eq!(parse_str(""), Ok(Args::default()));
    }

    #[test]
    fn flags_and_one_experiment_parse_in_any_order() {
        let args = parse_str("--seed 20 r5 --load 6 --threads 2 --small").unwrap();
        assert_eq!(args.experiment, "r5");
        assert_eq!(args.seed, 20);
        assert_eq!(args.load, 6);
        assert_eq!(args.threads, Some(2));
        assert!(args.small);
        let r6 = parse_str("r6 --seed 7 --shards 4 --kill-shards 1").unwrap();
        assert_eq!((r6.shards, r6.kill_shards), (4, 1));
    }

    #[test]
    fn mistyped_command_lines_are_errors() {
        for line in [
            "r4 --sed 7",
            "r11",
            "r4 r5",
            "r4 --seed",
            "r4 --seed -1",
            "r4 --legacy",
            "r5 --load 0",
            "--threads 0 r4",
            "r6 --shards 4 --kill-shards 4",
            "r6 --kill-shards 0",
        ] {
            assert!(parse_str(line).is_err(), "`{line}` must not parse");
        }
    }

    #[test]
    fn per_flag_messages_name_the_flag() {
        assert_eq!(
            parse_str("r4 --seed").unwrap_err(),
            "--seed needs a non-negative integer"
        );
        assert_eq!(parse_str("r4 --sed 7").unwrap_err(), "unknown flag --sed");
        assert_eq!(parse_str("r11").unwrap_err(), "unknown experiment r11");
    }

    #[test]
    fn the_kill_shards_range_binds_only_runs_with_r6() {
        assert!(parse_str("r4 --kill-shards 0").is_ok());
        assert!(parse_str("--kill-shards 0").is_err(), "`all` runs r6");
    }
}
