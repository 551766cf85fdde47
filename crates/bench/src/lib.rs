//! Shared fixtures and CLI plumbing for the experiment binaries and
//! Criterion benches.

#![warn(missing_docs)]

use std::sync::OnceLock;

use cuisine_core::PipelineConfig;
use cuisine_data::Corpus;
use cuisine_lexicon::Lexicon;
use cuisine_mining::{MineOpts, Miner};
use cuisine_synth::{generate_corpus, SynthConfig};

/// The default seed used by every experiment unless overridden.
pub const DEFAULT_SEED: u64 = 42;

/// The default corpus scale for experiment binaries: 10% of the paper's
/// 158k recipes — large enough for stable statistics, small enough to
/// finish every experiment in minutes. Use `--scale 1.0` for the full run.
pub const DEFAULT_SCALE: f64 = 0.10;

/// The corpus scale used by Criterion benches (kept small so the measured
/// iteration is seconds, not minutes).
pub const BENCH_SCALE: f64 = 0.02;

/// Lazily-built shared benchmark corpus (2% scale, fixed seed).
pub fn bench_corpus() -> &'static Corpus {
    static CORPUS: OnceLock<Corpus> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let config = SynthConfig { seed: DEFAULT_SEED, scale: BENCH_SCALE, ..Default::default() };
        generate_corpus(&config, Lexicon::standard())
    })
}

/// Options shared by the `exp_*` binaries.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Corpus scale (fraction of Table-I recipe counts).
    pub scale: f64,
    /// Master seed.
    pub seed: u64,
    /// Ensemble replicates (experiments E5/E6 only).
    pub replicates: usize,
    /// Worker threads for per-cuisine/per-model fan-out (`None` = all
    /// cores; `0`/`1` = sequential). Results are identical either way.
    pub threads: Option<usize>,
    /// Disable the encoded-transaction cache (`--no-cache`).
    pub no_cache: bool,
    /// Kernel-level DFS threads (`--mine-threads N`; default sequential —
    /// the per-cuisine fan-out above usually owns the cores).
    pub mine_threads: Option<usize>,
    /// Optional CSV output path.
    pub csv: Option<String>,
    /// Extra boolean flags (e.g. `--categories`).
    pub flags: Vec<String>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            scale: DEFAULT_SCALE,
            seed: DEFAULT_SEED,
            replicates: 100,
            threads: None,
            no_cache: false,
            mine_threads: MineOpts::default().threads,
            csv: None,
            flags: Vec::new(),
        }
    }
}

/// A CLI usage error: what was wrong with the arguments.
///
/// Returned by [`ExpOptions::try_parse`]; rendered (followed by the
/// binary's usage line) by [`ExpOptions::parse_or_exit`], which terminates
/// with exit code 2 — the conventional "usage error" status — instead of
/// panicking with a backtrace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

impl ExpOptions {
    /// Parse from a `std::env::args()`-style iterator (first element is
    /// the program name). Recognized: `--scale F`, `--seed N`,
    /// `--replicates N`, `--threads N`, `--no-cache`, `--mine-threads N`,
    /// `--csv PATH`; anything else starting with `--` is collected into
    /// `flags`.
    pub fn try_parse(args: impl IntoIterator<Item = String>) -> Result<Self, CliError> {
        Self::try_parse_with(args, &[]).map(|(opts, _)| opts)
    }

    /// Like [`ExpOptions::try_parse`], but additionally accepts the
    /// options named in `valued` (each takes one value) and returns them
    /// as `(name, value)` pairs in argument order. This is how the
    /// `serve`/`loadgen` binaries extend the shared CLI with options such
    /// as `--port` without duplicating the parser.
    pub fn try_parse_with(
        args: impl IntoIterator<Item = String>,
        valued: &[&str],
    ) -> Result<(Self, Vec<(String, String)>), CliError> {
        let mut opts = ExpOptions::default();
        let mut extra = Vec::new();
        let mut iter = args.into_iter().skip(1);
        while let Some(arg) = iter.next() {
            let mut value_of = |name: &str| {
                iter.next().ok_or_else(|| CliError(format!("{name} requires a value")))
            };
            match arg.as_str() {
                "--scale" => {
                    opts.scale = value_of("--scale")?
                        .parse()
                        .map_err(|_| CliError("--scale takes a float in (0, 1]".into()))?;
                }
                "--seed" => {
                    opts.seed = value_of("--seed")?
                        .parse()
                        .map_err(|_| CliError("--seed takes an integer".into()))?;
                }
                "--replicates" => {
                    opts.replicates = value_of("--replicates")?
                        .parse()
                        .map_err(|_| CliError("--replicates takes an integer".into()))?;
                }
                "--threads" => {
                    opts.threads = Some(
                        value_of("--threads")?
                            .parse()
                            .map_err(|_| CliError("--threads takes an integer".into()))?,
                    );
                }
                "--no-cache" => opts.no_cache = true,
                "--mine-threads" => {
                    opts.mine_threads = Some(
                        value_of("--mine-threads")?
                            .parse()
                            .map_err(|_| CliError("--mine-threads takes an integer".into()))?,
                    );
                }
                "--csv" => opts.csv = Some(value_of("--csv")?),
                other if valued.contains(&other) => {
                    let value = value_of(other)?;
                    extra.push((other.to_string(), value));
                }
                other if other.starts_with("--") => opts.flags.push(other.to_string()),
                other => return Err(CliError(format!("unrecognized argument {other:?}"))),
            }
        }
        if !(opts.scale > 0.0 && opts.scale <= 1.0) {
            return Err(CliError(format!("--scale must be in (0, 1], got {}", opts.scale)));
        }
        Ok((opts, extra))
    }

    /// Parse or print `error: ... / usage: ...` to stderr and exit with
    /// status 2 (the conventional usage-error code).
    pub fn parse_or_exit(args: impl IntoIterator<Item = String>, usage: &str) -> Self {
        Self::try_parse(args).unwrap_or_else(|e| exit_usage(&e, usage))
    }

    /// [`ExpOptions::try_parse_with`] with the same exit-code-2 error
    /// handling as [`ExpOptions::parse_or_exit`].
    pub fn parse_with_or_exit(
        args: impl IntoIterator<Item = String>,
        valued: &[&str],
        usage: &str,
    ) -> (Self, Vec<(String, String)>) {
        Self::try_parse_with(args, valued).unwrap_or_else(|e| exit_usage(&e, usage))
    }

    /// Whether a boolean flag was passed.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.flags.iter().any(|f| f == flag)
    }

    /// The generator config implied by these options.
    pub fn synth_config(&self) -> SynthConfig {
        SynthConfig { seed: self.seed, scale: self.scale, ..Default::default() }
    }

    /// The kernel execution options implied by these options
    /// (`--mine-threads N`).
    pub fn mine_opts(&self) -> MineOpts {
        MineOpts { threads: self.mine_threads }
    }

    /// The pipeline execution config implied by these options
    /// (`--threads N`, `--no-cache`, `--mine-threads N`).
    pub fn pipeline_config(&self) -> PipelineConfig {
        PipelineConfig {
            threads: self.threads,
            cache: !self.no_cache,
            miner: Miner::DEclat,
            mining: self.mine_opts(),
        }
    }
}

/// Print a usage error to stderr and exit with status 2 — the shared
/// convention for every workspace binary (`exp_*`, `serve`, `cuisine-lint`).
pub fn exit_usage(error: &CliError, usage: &str) -> ! {
    eprintln!("error: {error}");
    eprintln!("usage: {usage}");
    std::process::exit(2);
}

/// The CLI options shared by every `exp_*` binary, for usage strings.
pub const COMMON_USAGE: &str =
    "[--scale F] [--seed N] [--replicates N] [--threads N] [--no-cache] \
     [--mine-threads N] [--csv PATH]";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        std::iter::once("prog")
            .chain(list.iter().copied())
            .map(String::from)
            .collect()
    }

    #[test]
    fn defaults_when_no_args() {
        let o = ExpOptions::try_parse(args(&[])).unwrap();
        assert_eq!(o.scale, DEFAULT_SCALE);
        assert_eq!(o.seed, DEFAULT_SEED);
        assert_eq!(o.replicates, 100);
        assert!(o.csv.is_none());
    }

    #[test]
    fn parses_all_options() {
        let o = ExpOptions::try_parse(args(&[
            "--scale", "0.5", "--seed", "9", "--replicates", "10", "--csv", "/tmp/x.csv",
            "--categories",
        ]))
        .unwrap();
        assert_eq!(o.scale, 0.5);
        assert_eq!(o.seed, 9);
        assert_eq!(o.replicates, 10);
        assert_eq!(o.csv.as_deref(), Some("/tmp/x.csv"));
        assert!(o.has_flag("--categories"));
        assert!(!o.has_flag("--other"));
    }

    #[test]
    fn parses_threads_and_cache_knobs() {
        let o = ExpOptions::try_parse(args(&["--threads", "4", "--no-cache"])).unwrap();
        assert_eq!(o.threads, Some(4));
        assert!(o.no_cache);
        let pc = o.pipeline_config();
        assert_eq!(
            pc,
            PipelineConfig {
                threads: Some(4),
                cache: false,
                miner: Miner::DEclat,
                mining: MineOpts::default(),
            }
        );
        // Defaults: all cores, cache on.
        let d = ExpOptions::try_parse(args(&[])).unwrap().pipeline_config();
        assert_eq!(d, PipelineConfig::default());
    }

    #[test]
    fn parses_kernel_option_knobs() {
        let o = ExpOptions::try_parse(args(&["--mine-threads", "4"])).unwrap();
        assert_eq!(o.mine_opts(), MineOpts { threads: Some(4) });
        assert_eq!(o.pipeline_config().mining, o.mine_opts());
        // Defaults: sequential kernel DFS.
        let d = ExpOptions::try_parse(args(&[])).unwrap();
        assert_eq!(d.mine_opts(), MineOpts::default());
        let e = ExpOptions::try_parse(args(&["--mine-threads", "many"])).unwrap_err();
        assert!(e.0.contains("--mine-threads takes an integer"), "{e}");
    }

    #[test]
    fn rejects_bad_scale() {
        let e = ExpOptions::try_parse(args(&["--scale", "2.0"])).unwrap_err();
        assert!(e.0.contains("--scale must be in (0, 1]"), "{e}");
        let e = ExpOptions::try_parse(args(&["--scale", "zero"])).unwrap_err();
        assert!(e.0.contains("--scale takes a float"), "{e}");
    }

    #[test]
    fn rejects_unknown_positional_and_valueless_options() {
        let e = ExpOptions::try_parse(args(&["oops"])).unwrap_err();
        assert!(e.0.contains("unrecognized argument"), "{e}");
        let e = ExpOptions::try_parse(args(&["--seed"])).unwrap_err();
        assert!(e.0.contains("--seed requires a value"), "{e}");
        let e = ExpOptions::try_parse(args(&["--csv"])).unwrap_err();
        assert!(e.0.contains("--csv requires a value"), "{e}");
    }

    #[test]
    fn extra_valued_options_are_returned_in_order() {
        let (o, extra) = ExpOptions::try_parse_with(
            args(&["--port", "8080", "--seed", "3", "--lru", "16", "--self-check"]),
            &["--port", "--lru"],
        )
        .unwrap();
        assert_eq!(o.seed, 3);
        assert!(o.has_flag("--self-check"));
        assert_eq!(
            extra,
            vec![("--port".into(), "8080".into()), ("--lru".into(), "16".into())]
        );
        // Extra valued options still require their value.
        let e = ExpOptions::try_parse_with(args(&["--port"]), &["--port"]).unwrap_err();
        assert!(e.0.contains("--port requires a value"), "{e}");
    }

    #[test]
    fn bench_corpus_is_cached_and_populated() {
        let a = bench_corpus();
        let b = bench_corpus();
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.populated_cuisines().len(), 25);
    }
}
