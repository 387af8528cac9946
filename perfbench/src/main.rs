//! The repository's standing benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <batch|serve|churn> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Each run generates its inputs from the seed, measures for the given
//! seconds, checks every answer, prints its environment and a human-readable
//! report (lines starting with `#`), and ends with one JSON line: `correct`,
//! `attempted`, `failed`, and the end-to-end metrics (`--trace 0`) or the
//! per-layer metrics of a traced run (`--trace 1`). `--smoke` shrinks every
//! input so all three workloads finish in seconds. See `README.md`.

mod affinity;
mod batch;
mod inputs;
mod layers;
mod measure;
mod redrive;
mod serve;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use measure::{Outcome, Tracer};

const USAGE: &str = "usage: kvcc-perfbench --workload <batch|serve|churn> --seed <n> \
                     --seconds <s> --trace <0|1> [--smoke]";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Batch,
    Serve,
    Churn,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "batch" => Some(Workload::Batch),
            "serve" => Some(Workload::Serve),
            "churn" => Some(Workload::Churn),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Batch => "batch",
            Workload::Serve => "serve",
            Workload::Churn => "churn",
        }
    }
}

#[derive(Clone, Debug)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub smoke: bool,
    /// Where scratch files and traces go.
    pub out_dir: PathBuf,
}

impl RunConfig {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<RunConfig, String> {
        let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
            (None, None, None, None, false);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if flag == "--smoke" {
                smoke = true;
                continue;
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => {
                    let s = value.parse::<f64>().map_err(|_| bad())?;
                    if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                        return Err(bad());
                    }
                    seconds = Some(Duration::from_secs_f64(s));
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(RunConfig {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            smoke,
            out_dir: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
        })
    }

    /// Set-up repetitions whose median is `setup_s` (`serve` and `churn`
    /// run them in bursts seconds apart).
    pub fn setup_reps(&self) -> usize {
        match (self.smoke, self.workload) {
            (true, _) => 3,
            (false, Workload::Batch) => 15,
            (false, _) => 42,
        }
    }

    /// `batch`: k = 4 enumerations, one per ring drawn from the seed, whose
    /// median is `heavy_op_s`.
    pub fn heavy_reps(&self) -> usize {
        if self.smoke {
            2
        } else {
            5
        }
    }

    /// `serve`, `churn`: how many set-up repetitions also time the first
    /// answer (the lazy index build), whose median is `serve`'s
    /// `heavy_op_s`.
    pub fn first_answer_reps(&self) -> usize {
        if self.smoke {
            2
        } else {
            3
        }
    }

    /// `LOC-CUT` probes the traced run replays.
    pub fn probe_samples(&self) -> usize {
        if self.smoke {
            4
        } else {
            16
        }
    }

    /// Writes the run's spans to `out/` (the first 100,000: the set-up,
    /// index and replay spans come first, then the per-request ones).
    fn write_trace(&self, tracer: &Tracer) {
        let path = self.out_dir.join(format!(
            "trace-{}-seed{}{}.jsonl",
            self.workload.name(),
            self.seed,
            if self.smoke { "-smoke" } else { "" }
        ));
        if let Err(e) = tracer.write_jsonl(&path, 100_000) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
}

/// A scratch file under the run's output directory, removed when dropped.
pub struct TempFile(PathBuf);

impl TempFile {
    pub fn new(cfg: &RunConfig, name: &str) -> TempFile {
        TempFile(cfg.out_dir.join(format!("{}-{name}", std::process::id())))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// What `std::thread::available_parallelism` reports (1 if it cannot).
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// The commit the sources came from, when they sit in a git checkout.
fn git_commit(root: &Path) -> String {
    let head = read(&root.join(".git/HEAD"));
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown (not a git checkout)".into()
        } else {
            head.into()
        };
    };
    let direct = read(&root.join(".git").join(reference));
    if !direct.trim().is_empty() {
        return direct.trim().into();
    }
    read(&root.join(".git/packed-refs"))
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|h| h.trim().to_string()))
        .unwrap_or_else(|| "unknown".into())
}

fn environment(cfg: &RunConfig) -> String {
    let cpuinfo = read(Path::new("/proc/cpuinfo"));
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or("unknown", str::trim);
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .unwrap_or(Path::new("."));
    format!(
        "# env: workload {} seed {} seconds {} trace {} smoke {} | nproc {} available_parallelism {} cpu \"{}\" | rustc \"{}\" profile \"{}\" | commit {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds.as_secs_f64(),
        cfg.trace as u8,
        cfg.smoke,
        nproc,
        parallelism(),
        model,
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE"),
        git_commit(root)
    )
}

pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    std::fs::create_dir_all(&cfg.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.out_dir.display()))?;
    let mut out = Outcome::default();
    match cfg.workload {
        Workload::Batch => batch::run(cfg, &mut out)?,
        Workload::Serve => serve::run(cfg, &mut out, false)?,
        Workload::Churn => serve::run(cfg, &mut out, true)?,
    }
    Ok(out)
}

fn main() -> ExitCode {
    let cfg = match RunConfig::parse(std::env::args().skip(1)) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", environment(&cfg));
    match run(&cfg) {
        Ok(outcome) => {
            for line in &outcome.notes {
                println!("# {line}");
            }
            println!("{}", outcome.result_json(cfg.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The end-to-end metric names, in report order.
    const END_TO_END: [&str; 6] = [
        "setup_s",
        "heavy_op_s",
        "light_op_p50_ms",
        "light_op_tail_ms",
        "light_ops_per_s",
        "peak_rss_mb",
    ];

    fn smoke(workload: Workload, trace: bool) -> RunConfig {
        RunConfig {
            workload,
            seed: 11,
            seconds: Duration::from_millis(300),
            trace,
            smoke: true,
            out_dir: std::env::temp_dir()
                .join(format!("kvcc-perfbench-test-{}", std::process::id())),
        }
    }

    #[test]
    fn smoke_runs_every_workload_with_checked_answers() {
        for workload in [Workload::Batch, Workload::Serve, Workload::Churn] {
            for trace in [false, true] {
                let cfg = smoke(workload, trace);
                let out = run(&cfg).unwrap_or_else(|e| panic!("{workload:?}: {e}"));
                assert!(out.attempted > 0);
                assert_eq!(
                    out.failed, 0,
                    "{workload:?} trace={trace}: {:#?}",
                    out.notes
                );
                let e2e: Vec<&str> = out.end_to_end.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(e2e, END_TO_END);
                assert!(
                    out.end_to_end.iter().all(|m| m.value > 0.0),
                    "{:?}",
                    out.end_to_end
                );
                if trace {
                    let names: Vec<String> = out.per_layer.iter().map(|m| m.name.clone()).collect();
                    assert_eq!(names, layers::names());
                }
            }
        }
        let _ = std::fs::remove_dir_all(smoke(Workload::Batch, false).out_dir);
    }

    #[test]
    fn arguments_are_validated() {
        let parse = |line: &str| RunConfig::parse(line.split_whitespace().map(String::from));
        let cfg = parse("--workload churn --seed 4 --seconds 2.5 --trace 1").unwrap();
        assert_eq!(
            (cfg.workload, cfg.seed, cfg.trace, cfg.smoke),
            (Workload::Churn, 4, true, false)
        );
        assert_eq!(cfg.seconds, Duration::from_millis(2500));
        assert!(parse("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(parse("--workload batch --seed 1 --seconds 0 --trace 0").is_err());
        assert!(parse("--workload batch --seed 1 --seconds 1 --trace 2").is_err());
        assert!(parse("--workload batch --seconds 1 --trace 0").is_err());
        assert!(
            parse("--workload batch --seed 1 --seconds 1 --trace 0 --smoke")
                .unwrap()
                .smoke
        );
    }

    /// `BENCHMARK.json` declares exactly the metrics the harness prints.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let names_in = |section: &str, until: &str| -> Vec<String> {
            let start = json.find(section).expect("section present");
            let end = json[start..].find(until).map_or(json.len(), |e| start + e);
            json[start..end]
                .split("\"name\": \"")
                .skip(1)
                .map(|s| s.split('"').next().unwrap_or_default().to_string())
                .collect()
        };
        assert_eq!(names_in("\"end_to_end\"", "\"per_layer\""), END_TO_END);
        assert_eq!(names_in("\"per_layer\"", "]"), layers::names());
        // `serve` runs by hand only: see README.md, "Why `serve` is not in
        // BENCHMARK.json".
        assert_eq!(names_in("\"workloads\"", "]"), ["batch", "churn"]);
    }
}
