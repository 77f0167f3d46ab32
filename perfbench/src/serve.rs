//! `serve-mixed`: an in-process `Server` (2 connection workers, reduced
//! testbed, a fresh store per repetition) driven closed-loop by two
//! client threads.
//!
//! - `ka`, a campaign client on one keep-alive `HttpClient`: hot `/jobs`
//!   batches (memo hits after warm-up), a few hot `/rack` and `/drawer`
//!   requests, and 20% requests carrying one fresh-seed job (a solve
//!   plus a store append).
//! - `oneshot`, a CLI-style caller opening a connection per request with
//!   `http_request`: hot single-job `/jobs`, `GET /stats`, `GET /healthz`.
//!
//! The request mix and the fresh seeds come from the workload seed; the
//! class counts are fixed, so every class share is exact.

use crate::stats::{median, percentile};
use crate::{below, build_testbed, ms_since, ratio, shuffle, Rep, Workload, WORKERS};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Barrier;
use std::time::{Duration, Instant};
use voltnoise_fleet::chaos::splitmix64;
use voltnoise_fleet::client::extract_outcome;
use voltnoise_server::wire::parse_batch;
use voltnoise_server::{http_request, BatchRequest, HttpClient, JobSpec, Response};
use voltnoise_server::{Server, ServerConfig};
use voltnoise_stressmark::SyncSpec;
use voltnoise_system::{
    DrawerStepConfig, Engine, NoiseOutcome, NoiseRunConfig, ResultStore, SimJob, Testbed,
    WorkloadKind,
};

/// `ka` requests per repetition, by class (fresh is 20%).
const KA_HOT: usize = 108;
const KA_FRESH: usize = 30;
const KA_RACK: usize = 6;
const KA_DRAWER: usize = 6;
/// `oneshot` requests per repetition, by class.
const OS_HEALTHZ: usize = 300;
const OS_JOBS: usize = 500;
const OS_STATS: usize = 200;

/// Client I/O timeout.
const TIMEOUT: Duration = Duration::from_secs(60);
/// Chip job window and stimulus.
const WINDOW_S: f64 = 5e-6;
const STIM_FREQ_HZ: f64 = 2.5e6;
/// Seed of every hot job.
const HOT_SEED: u64 = 42;

/// One client request.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Call {
    /// `ka`: the hot batch (every hot spec).
    HotBatch,
    /// `ka`: one fresh-seed job.
    Fresh(usize),
    /// `ka`: the hot rack job.
    Rack,
    /// `ka`: the hot drawer job.
    Drawer,
    /// `oneshot`: `GET /healthz`.
    Healthz,
    /// `oneshot`: one hot spec alone.
    OneJob(usize),
    /// `oneshot`: `GET /stats`.
    Stats,
}

impl Call {
    /// Latency class of the call, for the per-layer ledger.
    fn class(self) -> &'static str {
        match self {
            Call::HotBatch => "ka.hot",
            Call::Fresh(_) => "ka.fresh",
            Call::Rack => "ka.rack",
            Call::Drawer => "ka.drawer",
            Call::Healthz => "oneshot.healthz",
            Call::OneJob(_) => "oneshot.jobs",
            Call::Stats => "oneshot.stats",
        }
    }

    fn is_ka(self) -> bool {
        matches!(
            self,
            Call::HotBatch | Call::Fresh(_) | Call::Rack | Call::Drawer
        )
    }
}

/// One finished request.
struct Sample {
    call: Call,
    ms: f64,
    resp: std::io::Result<Response>,
}

pub struct ServeMixed {
    tmp: PathBuf,
    /// Hot chip specs and their outcome JSON straight from `Engine::run_one`.
    hot: Vec<JobSpec>,
    hot_outcomes: Vec<String>,
    fresh: Vec<JobSpec>,
    ka_plan: Vec<Call>,
    oneshot_plan: Vec<Call>,
    hot_body: String,
    rack_body: String,
    drawer_body: String,
    /// Rack and drawer response bodies of the first warm-up; every later
    /// response must match them.
    rack_ref: Option<String>,
    drawer_ref: Option<String>,
    stores: usize,
}

fn hot_specs() -> Vec<JobSpec> {
    use WorkloadKind::{Idle as I, MaxDidt as X, MediumDidt as M};
    [
        [X, I, I, I, I, I],
        [X, X, X, I, I, I],
        [M, M, M, M, M, M],
        [X, I, X, I, X, I],
    ]
    .into_iter()
    .map(|mapping| JobSpec {
        mapping,
        stim_freq_hz: STIM_FREQ_HZ,
        sync: true,
        window_s: Some(WINDOW_S),
        seed: HOT_SEED,
        record_traces: false,
        max_steps: None,
    })
    .collect()
}

fn body(jobs: Vec<JobSpec>) -> String {
    BatchRequest {
        jobs,
        deadline_ms: None,
    }
    .to_json()
}

/// The engine job the server compiles for `spec` (same content key).
fn sim_job(tb: &Testbed, spec: &JobSpec) -> SimJob {
    let sync = spec.sync.then(SyncSpec::paper_default);
    SimJob::batch(tb.chip()).job(
        tb.loads_of_mapping(&spec.mapping, spec.stim_freq_hz, sync),
        NoiseRunConfig {
            window_s: spec.window_s,
            record_traces: spec.record_traces,
            seed: spec.seed,
            max_steps: spec.max_steps,
            ..NoiseRunConfig::default()
        },
    )
}

impl ServeMixed {
    pub fn new(seed: u64, tmp: &Path) -> Result<ServeMixed, String> {
        std::fs::create_dir_all(tmp).map_err(|e| format!("creating {tmp:?}: {e}"))?;
        let mut rng = seed ^ 0x5345_5256;
        let hot = hot_specs();
        // Reference outcomes from a private engine on the server's testbed.
        let tb = Testbed::fast();
        let engine = Engine::with_workers(WORKERS);
        let mut hot_outcomes = Vec::new();
        for spec in &hot {
            let outcome = engine
                .run_one(&sim_job(tb, spec))
                .map_err(|e| format!("reference solve: {e}"))?;
            hot_outcomes
                .push(serde_json::to_string(&*outcome).map_err(|e| format!("reference: {e}"))?);
        }
        let base = splitmix64(&mut rng) >> 16;
        let fresh = (0..KA_FRESH)
            .map(|k| JobSpec {
                seed: base + k as u64,
                ..hot[below(&mut rng, hot.len() as u64) as usize].clone()
            })
            .collect();
        let mut ka_plan: Vec<Call> = std::iter::repeat_n(Call::HotBatch, KA_HOT)
            .chain((0..KA_FRESH).map(Call::Fresh))
            .chain(std::iter::repeat_n(Call::Rack, KA_RACK))
            .chain(std::iter::repeat_n(Call::Drawer, KA_DRAWER))
            .collect();
        shuffle(&mut rng, &mut ka_plan);
        let mut oneshot_plan: Vec<Call> = std::iter::repeat_n(Call::Healthz, OS_HEALTHZ)
            .chain((0..OS_JOBS).map(|i| Call::OneJob(i % hot.len())))
            .chain(std::iter::repeat_n(Call::Stats, OS_STATS))
            .collect();
        shuffle(&mut rng, &mut oneshot_plan);
        let rack_body = r#"[{"drawers":1,"chips_per_drawer":2,"variation_seed":7,"active":[0,7],"stim_freq_hz":2.5e6,"sync":true,"window_s":4e-6,"seed":1}]"#.to_string();
        let drawer_body = format!(
            "[{}]",
            serde_json::to_string(&DrawerStepConfig::default())
                .map_err(|e| format!("drawer body: {e}"))?
        );
        Ok(ServeMixed {
            tmp: tmp.to_path_buf(),
            hot_body: body(hot.clone()),
            hot,
            hot_outcomes,
            fresh,
            ka_plan,
            oneshot_plan,
            rack_body,
            drawer_body,
            rack_ref: None,
            drawer_ref: None,
            stores: 0,
        })
    }

    fn bind(&mut self) -> Result<(Server, PathBuf), String> {
        self.stores += 1;
        let store = self.tmp.join(format!("store-{}.jsonl", self.stores));
        let server = Server::bind(ServerConfig {
            workers: 2,
            reduced: true,
            store: Some(store.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        })
        .map_err(|e| format!("binding server: {e}"))?;
        Ok((server, store))
    }

    /// The request body and route of `call`.
    fn request(&self, call: Call) -> (&'static str, &'static str, Option<String>) {
        match call {
            Call::HotBatch => ("POST", "/jobs", Some(self.hot_body.clone())),
            Call::Fresh(k) => ("POST", "/jobs", Some(body(vec![self.fresh[k].clone()]))),
            Call::Rack => ("POST", "/rack", Some(self.rack_body.clone())),
            Call::Drawer => ("POST", "/drawer", Some(self.drawer_body.clone())),
            Call::Healthz => ("GET", "/healthz", None),
            Call::OneJob(i) => ("POST", "/jobs", Some(body(vec![self.hot[i].clone()]))),
            Call::Stats => ("GET", "/stats", None),
        }
    }

    /// The hot specs a `/jobs` call carries, in batch order (`None` for a
    /// fresh job).
    fn specs_of(&self, call: Call) -> Vec<Option<usize>> {
        match call {
            Call::HotBatch => (0..self.hot.len()).map(Some).collect(),
            Call::OneJob(i) => vec![Some(i)],
            Call::Fresh(_) => vec![None],
            _ => Vec::new(),
        }
    }

    /// Checks one response. `Ok(false)` is a failed or refused request;
    /// `Err` is wrong output, which fails the run.
    fn verify(&mut self, call: Call, resp: &Response) -> Result<bool, String> {
        if resp.status != 200 {
            return Ok(false);
        }
        match call {
            Call::Healthz => Ok(resp.body == "ok\n"),
            Call::Stats => Ok(resp.body.starts_with('{')),
            Call::Rack | Call::Drawer => {
                if resp.body.contains("\"status\":\"error\"") {
                    return Ok(false);
                }
                let slot = if call == Call::Rack {
                    &mut self.rack_ref
                } else {
                    &mut self.drawer_ref
                };
                match slot {
                    None => *slot = Some(resp.body.clone()),
                    Some(first) if *first != resp.body => {
                        return Err(format!("{call:?} response differs from the first one"))
                    }
                    Some(_) => {}
                }
                Ok(true)
            }
            Call::HotBatch | Call::OneJob(_) | Call::Fresh(_) => self.verify_jobs(call, resp),
        }
    }

    /// Solves the hot specs, rack and drawer jobs once, checking them.
    fn warm_up(&mut self, addr: &str) -> Result<(), String> {
        for call in [Call::HotBatch, Call::Rack, Call::Drawer] {
            let (method, path, body) = self.request(call);
            let resp = http_request(addr, method, path, body.as_deref(), TIMEOUT)
                .map_err(|e| format!("warm-up {call:?}: {e}"))?;
            if !self.verify(call, &resp)? {
                return Err(format!("warm-up {call:?} failed"));
            }
        }
        Ok(())
    }

    /// The store the repetition left: size, reload and compaction cost.
    fn record_store(&self, rep: &mut Rep, path: &Path) -> Result<(), String> {
        let bytes = std::fs::metadata(path)
            .map_err(|e| format!("store {path:?}: {e}"))?
            .len();
        let t0 = Instant::now();
        let store = ResultStore::open(path).map_err(|e| format!("reopening store: {e}"))?;
        rep.times.insert("store.open_ms".into(), ms_since(t0));
        rep.counts
            .insert("store.appends".into(), store.len() as f64);
        rep.counts.insert("store.bytes".into(), bytes as f64);
        let t0 = Instant::now();
        store
            .compact()
            .map_err(|e| format!("compacting store: {e}"))?;
        rep.times.insert("store.compact_ms".into(), ms_since(t0));
        Ok(())
    }

    fn verify_jobs(&self, call: Call, resp: &Response) -> Result<bool, String> {
        let specs = self.specs_of(call);
        let lines = resp.lines();
        let Some((summary, results)) = lines.split_last() else {
            return Ok(false);
        };
        if !summary.starts_with("{\"done\":true") || results.len() != specs.len() {
            return Ok(false);
        }
        for line in results {
            let Some((index, outcome)) = extract_outcome(line) else {
                // A fault line: the request failed.
                return Ok(false);
            };
            match specs.get(index) {
                Some(Some(hot)) => {
                    if outcome != self.hot_outcomes[*hot] {
                        return Err(format!(
                            "hot job {hot} outcome differs from Engine::run_one"
                        ));
                    }
                }
                Some(None) => {
                    let parsed: NoiseOutcome = serde_json::from_str(outcome)
                        .map_err(|e| format!("fresh outcome does not parse: {e}"))?;
                    if let Some((site, v)) = parsed.first_non_finite() {
                        return Err(format!("fresh outcome non-finite at site {site}: {v}"));
                    }
                }
                None => return Err(format!("result index {index} out of range")),
            }
        }
        Ok(true)
    }
}

/// Runs `plan` on one client; returns its samples and when it finished.
fn drive(
    w: &ServeMixed,
    plan: &[Call],
    addr: &str,
    keep_alive: Option<&mut HttpClient>,
    start: &Barrier,
) -> (Vec<Sample>, Instant) {
    let requests: Vec<_> = plan.iter().map(|&c| (c, w.request(c))).collect();
    let mut samples = Vec::with_capacity(plan.len());
    let mut client = keep_alive;
    start.wait();
    for (call, (method, path, body)) in requests {
        let t0 = Instant::now();
        let resp = match client.as_mut() {
            Some(c) => c.request(method, path, body.as_deref()),
            None => http_request(addr, method, path, body.as_deref(), TIMEOUT),
        };
        samples.push(Sample {
            call,
            ms: ms_since(t0),
            resp,
        });
    }
    (samples, Instant::now())
}

impl Workload for ServeMixed {
    /// A bound server on a freshly opened store, and the store's path.
    type State = (Server, PathBuf);

    /// A fresh daemon's start-up: the reduced testbed build (which
    /// `Server::bind` pays through `Testbed::fast()` on a new process's
    /// first bind, cached in-process after that), then the bind and the
    /// open of a fresh store.
    fn setup(&mut self) -> Result<Self::State, String> {
        build_testbed()?;
        self.bind()
    }

    /// Drains the unused server, so its threads end, and drops its store.
    fn discard(&mut self, (server, store): Self::State) -> Result<(), String> {
        server.stop_handle().store(true, Ordering::SeqCst);
        server.run().map_err(|e| format!("server drain: {e}"))?;
        std::fs::remove_file(&store).map_err(|e| format!("removing {store:?}: {e}"))
    }

    fn rep(&mut self, (server, store_path): Self::State, _traced: bool) -> Result<Rep, String> {
        let mut rep = Rep::default();
        let addr = server
            .local_addr()
            .map_err(|e| format!("server address: {e}"))?
            .to_string();
        let stop = server.stop_handle();
        let engine = server.engine();
        let daemon = std::thread::spawn(move || server.run());
        let mut ka_client = HttpClient::new(addr.clone(), TIMEOUT);
        let clients = self.warm_up(&addr).and_then(|()| {
            let start = Barrier::new(3);
            let (ka, oneshot, t0) = std::thread::scope(|s| {
                let this = &*self;
                let ka =
                    s.spawn(|| drive(this, &this.ka_plan, &addr, Some(&mut ka_client), &start));
                let oneshot = s.spawn(|| drive(this, &this.oneshot_plan, &addr, None, &start));
                start.wait();
                let t0 = Instant::now();
                (ka.join(), oneshot.join(), t0)
            });
            let (ka, ka_end) = ka.map_err(|_| "ka client panicked")?;
            let (oneshot, os_end) = oneshot.map_err(|_| "oneshot client panicked")?;
            Ok((ka, oneshot, ka_end.max(os_end).duration_since(t0)))
        });
        // The server drains whether or not the clients got through.
        stop.store(true, Ordering::SeqCst);
        let drained = daemon.join().map_err(|_| "server thread panicked")?;
        let (ka, oneshot, wall) = clients?;
        drained.map_err(|e| format!("server drain: {e}"))?;
        rep.wall_s = wall.as_secs_f64();

        let mut parse_ns = 0u128;
        let mut parsed = 0u32;
        for sample in ka.iter().chain(&oneshot) {
            rep.attempted += 1;
            let ok = match &sample.resp {
                Ok(resp) => self.verify(sample.call, resp)?,
                Err(_) => false,
            };
            if !ok {
                rep.failed += 1;
                continue;
            }
            let total = if sample.call.is_ka() { "ka" } else { "oneshot" };
            rep.sample(total, sample.ms);
            rep.sample(sample.call.class(), sample.ms);
            if let (_, "/jobs", Some(body)) = self.request(sample.call) {
                let t = Instant::now();
                parse_batch(&body).map_err(|e| format!("parse_batch: {e:?}"))?;
                parse_ns += t.elapsed().as_nanos();
                parsed += 1;
            }
        }
        rep.record_engine(&engine.stats());
        rep.counts
            .insert("server.reconnects".into(), ka_client.reconnects() as f64);
        rep.times.insert(
            "wire.parse_batch_us".into(),
            ratio(parse_ns as f64 / 1e3, f64::from(parsed)),
        );
        for (name, class) in [
            ("server.ka_hit_ms", "ka.hot"),
            ("server.ka_fresh_ms", "ka.fresh"),
            ("server.healthz_ms", "oneshot.healthz"),
            ("server.oneshot_jobs_ms", "oneshot.jobs"),
            ("server.stats_ms", "oneshot.stats"),
        ] {
            let xs = rep.samples.get(class).cloned().unwrap_or_default();
            rep.times.insert(name.into(), median(&xs).unwrap_or(0.0));
        }
        self.record_store(&mut rep, &store_path)?;
        Ok(rep)
    }

    fn untraced_ledger(&self, untraced: &[Rep]) -> Result<Vec<(String, f64)>, String> {
        let pooled = |class: &str| -> Vec<f64> {
            untraced
                .iter()
                .flat_map(|r| r.samples.get(class).cloned().unwrap_or_default())
                .collect()
        };
        let ka = pooled("ka");
        let oneshot = pooled("oneshot");
        Ok(vec![
            ("serve.ka_p50_ms".into(), percentile(&ka, 0.5)?),
            ("serve.ka_p90_ms".into(), percentile(&ka, 0.9)?),
            ("serve.ka_samples".into(), ka.len() as f64),
            ("serve.oneshot_p50_ms".into(), percentile(&oneshot, 0.5)?),
            ("serve.oneshot_p95_ms".into(), percentile(&oneshot, 0.95)?),
            ("serve.oneshot_samples".into(), oneshot.len() as f64),
        ])
    }
}
