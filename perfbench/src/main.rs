//! `perfbench`: the end-to-end and per-layer benchmark of voltnoise.
//!
//! ```text
//! perfbench --workload <report-cold|rack-placement|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process. Until
//! `--seconds` have passed it sets the workload up several times (the
//! median of all set-ups is `setup_s`) and runs one repetition of the
//! workload's fixed work on the last set-up, checking its outputs. With
//! `--trace 0` the last stdout line carries the end-to-end metrics, the
//! same for every workload; with `--trace 1` untraced and traced
//! repetitions alternate and the last line carries the per-layer ledger.
//! Both are also written as JSON under `.bench_out/`. A failed output
//! check exits 1 without a result line. See `perfbench/README.md`.

mod rack;
mod report;
mod serve;
mod stats;

use stats::median;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use voltnoise_analysis::registry;
use voltnoise_fleet::chaos::splitmix64;
use voltnoise_stressmark::{find_max_power_sequence, SearchConfig};
use voltnoise_system::{set_trace, ChipConfig, EngineStats, Testbed};
use voltnoise_uarch::epi::EpiProfile;
use voltnoise_uarch::isa::Isa;

/// Engine workers every workload pins: the benchmark machine has 2 cores.
pub const WORKERS: usize = 2;

/// Timed set-ups before each repetition (the last one's state feeds the
/// repetition), after one untimed warm-up; `setup_s` is the median of
/// all of a run's set-ups.
const SETUPS_PER_REP: usize = 5;

/// Timings of each public call that makes up the testbed build, in a
/// traced run; the ledger reports their medians.
const LAYER_SETUPS: usize = 9;

/// Fewest workload repetitions per run.
const MIN_REPS: usize = 2;

/// Where metric and ledger JSON files land, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

/// Temporary files (server stores), relative to the working directory;
/// removed on exit.
const TMP_DIR: &str = ".bench_tmp";

/// Every per-layer metric name with its unit, in output order, before the
/// per-experiment timings. A layer a workload does not touch reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("uarch.epi_profile_ms", "ms"),
    ("stressmark.search_ms", "ms"),
    ("pdn.steps", "count"),
    ("pdn.step_ns", "ns"),
    ("pdn.step_share", "ratio"),
    ("pdn.assemble_ms", "ms"),
    ("pdn.validate_ms", "ms"),
    ("pdn.est_flops", "count"),
    ("pdn.lu_factorizations", "count"),
    ("pdn.factor_us", "us"),
    ("pdn.sparse_solves", "count"),
    ("engine.solves", "count"),
    ("engine.cache_hits", "count"),
    ("engine.store_hits", "count"),
    ("engine.inflight_joins", "count"),
    ("engine.hit_ratio", "ratio"),
    ("scheduler.place_us.naive", "us"),
    ("scheduler.place_us.aware", "us"),
    ("scheduler.model_calls", "count"),
    ("scheduler.model_ms", "ms"),
    ("scheduler.occupancies", "count"),
    ("server.ka_hit_ms", "ms"),
    ("server.ka_fresh_ms", "ms"),
    ("wire.parse_batch_us", "us"),
    ("server.reconnects", "count"),
    ("server.healthz_ms", "ms"),
    ("server.oneshot_jobs_ms", "ms"),
    ("server.stats_ms", "ms"),
    ("serve.ka_p50_ms", "ms"),
    ("serve.ka_p90_ms", "ms"),
    ("serve.ka_samples", "count"),
    ("serve.oneshot_p50_ms", "ms"),
    ("serve.oneshot_p95_ms", "ms"),
    ("serve.oneshot_samples", "count"),
    ("store.open_ms", "ms"),
    ("store.appends", "count"),
    ("store.bytes", "bytes"),
    ("store.compact_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Prefix of the per-experiment timings (`analysis.exp_ms.<id>`, in ms).
pub const EXP_MS: &str = "analysis.exp_ms.";

/// The reduced-search configuration of [`Testbed::fast`].
pub fn fast_search() -> SearchConfig {
    SearchConfig {
        ipc_keep: 60,
        eval_iterations: 120,
    }
}

/// Builds the reduced testbed afresh (the cached [`Testbed::fast`] would
/// hide the cost from the second set-up on).
pub fn build_testbed() -> Result<Testbed, String> {
    Testbed::build(&fast_search(), &ChipConfig::default()).map_err(|e| format!("testbed: {e}"))
}

/// Parsed command line.
struct Args {
    workload: String,
    /// Workload seed (ignored by `report-cold`, whose inputs are fixed).
    seed: u64,
    budget: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| "bad --seconds")?),
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err("--trace must be 0 or 1".into()),
            },
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        budget: Duration::from_secs_f64(seconds),
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One fixed-work repetition of a workload.
#[derive(Default)]
pub struct Rep {
    /// Host time to complete the fixed work, seconds.
    pub wall_s: f64,
    /// Peak resident set while the repetition ran, MiB.
    pub peak_rss_mb: f64,
    /// Operations attempted and failed or refused.
    pub attempted: u64,
    pub failed: u64,
    /// Counts that must repeat exactly in every repetition.
    pub counts: BTreeMap<String, f64>,
    /// Layer timings of this repetition (reported from traced ones).
    pub times: BTreeMap<String, f64>,
    /// Latency samples by class, milliseconds.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Rep {
    /// Records the solver and engine counters of `stats`, plus the phase
    /// timings its traced solves accumulated.
    pub fn record_engine(&mut self, stats: &EngineStats) {
        let solver = &stats.telemetry.solver;
        let phase = &stats.telemetry.phase_ns;
        let settled = stats.solves + stats.cache_hits + stats.store_hits + stats.inflight_joins;
        for (name, value) in [
            ("pdn.steps", solver.steps as f64),
            ("pdn.est_flops", solver.est_flops as f64),
            ("pdn.lu_factorizations", solver.lu_factorizations as f64),
            ("pdn.sparse_solves", solver.sparse_solves as f64),
            ("engine.solves", stats.solves as f64),
            ("engine.cache_hits", stats.cache_hits as f64),
            ("engine.store_hits", stats.store_hits as f64),
            ("engine.inflight_joins", stats.inflight_joins as f64),
            (
                "engine.hit_ratio",
                ratio((settled - stats.solves) as f64, settled as f64),
            ),
        ] {
            self.counts.insert(name.to_string(), value);
        }
        for (name, value) in [
            (
                "pdn.step_ns",
                ratio(phase.step_ns as f64, solver.steps as f64),
            ),
            (
                "pdn.step_share",
                ratio(phase.step_ns as f64, phase.total_ns() as f64),
            ),
            ("pdn.assemble_ms", phase.assemble_ns as f64 / 1e6),
            ("pdn.validate_ms", phase.validate_ns as f64 / 1e6),
            (
                "pdn.factor_us",
                ratio(
                    phase.factor_ns as f64 / 1e3,
                    solver.lu_factorizations as f64,
                ),
            ),
        ] {
            self.times.insert(name.to_string(), value);
        }
    }

    /// Adds one latency sample of `class`.
    pub fn sample(&mut self, class: &'static str, ms: f64) {
        self.samples.entry(class).or_default().push(ms);
    }
}

/// Uniform in `0..n` from the seeded stream `rng` (`n > 0`; the modulo
/// bias is immaterial here).
pub fn below(rng: &mut u64, n: u64) -> u64 {
    splitmix64(rng) % n
}

/// Shuffles `items` in place from the seeded stream `rng` (Fisher–Yates).
pub fn shuffle<T>(rng: &mut u64, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, below(rng, i as u64 + 1) as usize);
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Milliseconds since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// A workload: set-up plus a repeatable unit of fixed, checked work.
pub trait Workload {
    /// What one set-up leaves for the repetitions.
    type State;

    /// One in-process set-up (timed by the caller).
    fn setup(&mut self) -> Result<Self::State, String>;

    /// Releases a set-up no repetition uses.
    fn discard(&mut self, _state: Self::State) -> Result<(), String> {
        Ok(())
    }

    /// One repetition on a fresh set-up. Returns `Err` when an output
    /// check fails.
    fn rep(&mut self, state: Self::State, traced: bool) -> Result<Rep, String>;

    /// Per-layer values the workload derives from its untraced
    /// repetitions (latency percentiles), by ledger name.
    fn untraced_ledger(&self, _untraced: &[Rep]) -> Result<Vec<(String, f64)>, String> {
        Ok(Vec::new())
    }
}

/// Everything one run measured.
struct Measured {
    setup_s: Vec<f64>,
    untraced: Vec<Rep>,
    traced: Vec<Rep>,
    setup_ledger: BTreeMap<String, f64>,
}

fn measure<W: Workload>(w: &mut W, args: &Args) -> Result<Measured, String> {
    let mut setup_ledger = BTreeMap::new();
    if args.trace {
        setup_ledger = time_testbed_layers()?;
    }
    let warm_up = w.setup()?;
    w.discard(warm_up)?;
    let t0 = Instant::now();
    let mut setup_s = Vec::new();
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    // At least two cycles of set-ups and a repetition (a traced run's
    // first untraced/traced pair). Past that, start another cycle only
    // if it fits the remaining time at the slowest pace seen so far.
    // Set-ups sit between repetitions so that a machine slowing down
    // mid-run weighs on both alike.
    let mut slowest = 0.0f64;
    loop {
        let done = untraced.len() + traced.len();
        let elapsed = t0.elapsed().as_secs_f64();
        if done >= MIN_REPS && elapsed + slowest > args.budget.as_secs_f64() {
            break;
        }
        let cycle_t0 = Instant::now();
        let mut state = None;
        for _ in 0..SETUPS_PER_REP {
            let t = Instant::now();
            let fresh = w.setup()?;
            setup_s.push(t.elapsed().as_secs_f64());
            if let Some(unused) = state.replace(fresh) {
                w.discard(unused)?;
            }
        }
        let state = state.ok_or("no set-up")?;
        let trace_this = args.trace && done % 2 == 1;
        set_trace(trace_this);
        reset_peak_rss()?;
        let mut rep = w.rep(state, trace_this)?;
        rep.peak_rss_mb = peak_rss_mb()?;
        slowest = slowest.max(cycle_t0.elapsed().as_secs_f64());
        eprintln!(
            "perfbench: repetition {done} ({}): wall {:.4} s, peak {:.2} MiB",
            if trace_this { "traced" } else { "untraced" },
            rep.wall_s,
            rep.peak_rss_mb
        );
        if trace_this {
            traced.push(rep);
        } else {
            untraced.push(rep);
        }
    }
    set_trace(false);
    check_counts_repeat(untraced.iter().chain(&traced))?;
    Ok(Measured {
        setup_s,
        untraced,
        traced,
        setup_ledger,
    })
}

/// Times the two public calls that dominate [`Testbed::build`]: the EPI
/// profile and the max-power sequence search (medians of
/// [`LAYER_SETUPS`] calls each).
fn time_testbed_layers() -> Result<BTreeMap<String, f64>, String> {
    let core = ChipConfig::default().core;
    let isa = Isa::zlike();
    let mut epi = Vec::new();
    let mut search = Vec::new();
    for _ in 0..LAYER_SETUPS {
        let t0 = Instant::now();
        let profile = EpiProfile::generate(&isa, &core);
        epi.push(ms_since(t0));
        let t0 = Instant::now();
        std::hint::black_box(find_max_power_sequence(
            &isa,
            &core,
            &profile,
            &fast_search(),
        ));
        search.push(ms_since(t0));
    }
    let mut ledger = BTreeMap::new();
    ledger.insert("uarch.epi_profile_ms".to_string(), median(&epi)?);
    ledger.insert("stressmark.search_ms".to_string(), median(&search)?);
    Ok(ledger)
}

/// Every count must read the same in every repetition, traced or not.
fn check_counts_repeat<'a>(reps: impl Iterator<Item = &'a Rep>) -> Result<(), String> {
    let mut first: Option<&BTreeMap<String, f64>> = None;
    for rep in reps {
        match first {
            None => first = Some(&rep.counts),
            Some(expected) if *expected != rep.counts => {
                return Err(format!(
                    "counts differ between repetitions: {expected:?} vs {:?}",
                    rep.counts
                ))
            }
            Some(_) => {}
        }
    }
    Ok(())
}

extern "C" {
    /// glibc: returns free heap memory of every arena to the OS.
    fn malloc_trim(pad: usize) -> i32;
}

/// Resets this process's resident-set high-water mark to its current
/// resident set, so each repetition's peak is measured on its own. Free
/// heap left by earlier set-ups and repetitions is returned to the OS
/// first, so every repetition starts from the same resident set.
fn reset_peak_rss() -> Result<(), String> {
    // SAFETY: malloc_trim takes no pointers and only releases pages of
    // free chunks.
    unsafe { malloc_trim(0) };
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak resident set: {e}"))
}

/// Peak resident set of this process since the last reset, MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// A metric as printed: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// The end-to-end metrics: the same four for every workload.
fn end_to_end(m: &Measured) -> Result<Vec<Metric>, String> {
    let walls: Vec<f64> = m.untraced.iter().map(|r| r.wall_s).collect();
    let peaks: Vec<f64> = m.untraced.iter().map(|r| r.peak_rss_mb).collect();
    let attempted: u64 = m.untraced.iter().map(|r| r.attempted).sum();
    let failed: u64 = m.untraced.iter().map(|r| r.failed).sum();
    Ok(vec![
        ("setup_s".to_string(), median(&m.setup_s)?, "s"),
        ("wall_s".to_string(), median(&walls)?, "s"),
        ("peak_rss_mb".to_string(), median(&peaks)?, "MiB"),
        (
            "ok_share".to_string(),
            1.0 - ratio(failed as f64, attempted as f64),
            "ratio",
        ),
    ])
}

fn per_layer<W: Workload>(w: &W, m: &Measured) -> Result<Vec<Metric>, String> {
    let reference = m.traced.first().ok_or("no traced repetition")?;
    let mut values: BTreeMap<String, f64> = m.setup_ledger.clone();
    values.extend(reference.counts.clone());
    values.extend(w.untraced_ledger(&m.untraced)?);
    // Timings: median over the traced repetitions.
    for name in reference.times.keys() {
        let xs: Vec<f64> = m.traced.iter().map(|r| r.times[name]).collect();
        values.insert(name.clone(), median(&xs)?);
    }
    let untraced: Vec<f64> = m.untraced.iter().map(|r| r.wall_s).collect();
    let traced: Vec<f64> = m.traced.iter().map(|r| r.wall_s).collect();
    values.insert(
        "trace.overhead_ratio".to_string(),
        median(&traced)? / median(&untraced)?,
    );
    let experiments = registry()
        .iter()
        .filter(|e| e.in_report)
        .map(|e| (format!("{EXP_MS}{}", e.id), "ms"));
    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .chain(experiments)
        .map(|(name, unit)| {
            let value = values.remove(&name).unwrap_or(0.0);
            (name, value, unit)
        })
        .collect())
}

fn metrics_json(metrics: &[Metric]) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        body.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    Ok(format!("{{{}}}", body.join(",")))
}

/// Writes `json` to `.bench_out/<file>`.
fn write_out(file: &str, json: &str) -> Result<(), String> {
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let path = Path::new(OUT_DIR).join(file);
    std::fs::write(&path, format!("{json}\n")).map_err(|e| format!("writing {path:?}: {e}"))
}

fn run<W: Workload>(mut w: W, args: &Args) -> Result<String, String> {
    let m = measure(&mut w, args)?;
    let reps = if args.trace { &m.traced } else { &m.untraced };
    let attempted: u64 = reps.iter().map(|r| r.attempted).sum();
    let failed: u64 = reps.iter().map(|r| r.failed).sum();
    let (metrics, kind) = if args.trace {
        (per_layer(&w, &m)?, "ledger")
    } else {
        (end_to_end(&m)?, "metrics")
    };
    let metrics = metrics_json(&metrics)?;
    write_out(
        &format!("{}-seed{}.{kind}.json", args.workload, args.seed),
        &metrics,
    )?;
    eprintln!(
        "perfbench: {}: {} untraced + {} traced repetitions, {} set-ups (s): {:.4?}",
        args.workload,
        m.untraced.len(),
        m.traced.len(),
        m.setup_s.len(),
        m.setup_s
    );
    if attempted == 0 {
        return Err("no operation was attempted".into());
    }
    Ok(format!(
        "{{\"correct\":true,\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{metrics}}}"
    ))
}

/// Pins the environment knobs the program reads, so results do not
/// depend on the caller's shell: `VOLTNOISE_THREADS` sizes engines built
/// by [`voltnoise_system::Engine::new`] (the server's), and stores,
/// stats export and tracing are set explicitly by the benchmark.
fn pin_environment() {
    std::env::set_var("VOLTNOISE_THREADS", WORKERS.to_string());
    for var in [
        "VOLTNOISE_STORE",
        "VOLTNOISE_READ_STORES",
        "VOLTNOISE_STATS_PATH",
        "VOLTNOISE_TRACE",
    ] {
        std::env::remove_var(var);
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!(
                "perfbench: {why}\nusage: perfbench --workload <report-cold|rack-placement|serve-mixed> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    pin_environment();
    let tmp = PathBuf::from(TMP_DIR).join(format!("{}-{}", args.workload, std::process::id()));
    let result = match args.workload.as_str() {
        "report-cold" => report::ReportCold::new().and_then(|w| run(w, &args)),
        "rack-placement" => run(rack::RackPlacement::new(args.seed), &args),
        "serve-mixed" => serve::ServeMixed::new(args.seed, &tmp).and_then(|w| run(w, &args)),
        other => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(TMP_DIR);
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("perfbench: {}: FAILED: {why}", args.workload);
            ExitCode::from(1)
        }
    }
}
