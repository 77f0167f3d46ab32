//! `rack-placement`: naive and noise-aware placement of seeded job traces
//! over a variated 2 drawer × 2 chip rack (24 sites), replayed through
//! `EngineNoiseModel::rack`. The one path through the sparse MNA backend
//! and the scheduler; it never touches HTTP.

use crate::{build_testbed, ratio, shuffle, Rep, Workload, WORKERS};
use std::cell::Cell;
use std::sync::Arc;
use std::time::Instant;
use voltnoise_analysis::RackMapConfig;
use voltnoise_pdn::topology::VariationSpec;
use voltnoise_pdn::PdnError;
use voltnoise_stressmark::SyncSpec;
use voltnoise_system::{
    replay, CoreLoad, Engine, EngineNoiseModel, Job, NaivePolicy, NoiseAwarePolicy, NoiseModel,
    NoiseRunConfig, Occupancy, PlacementPolicy, RackScenario, ScheduleOutcome, Testbed,
};

/// Independent seeded traces per repetition and their jobs. Occupancy
/// counts of one trace swing with its order (a single 96-job trace varied
/// 9% between seeds), so a repetition sums several; two keep a repetition
/// short enough for a run to take the median of five or more.
const TRACES: usize = 2;
const JOBS: usize = 24;

pub struct RackPlacement {
    seed: u64,
    /// The reduced rack study's shape, solve window, stimulus and mean
    /// overlap; its variation seed and trace come from the workload seed.
    cfg: RackMapConfig,
    traces: Vec<Vec<Job>>,
    /// The first repetition's outcomes; every later one must match.
    first: Option<Vec<ScheduleOutcome>>,
}

impl RackPlacement {
    pub fn new(seed: u64) -> RackPlacement {
        let mut rng = seed ^ 0x5241_434b;
        let cfg = RackMapConfig::reduced();
        RackPlacement {
            seed,
            traces: (0..TRACES)
                .map(|_| job_trace(&mut rng, cfg.mean_parallelism))
                .collect(),
            cfg,
            first: None,
        }
    }
}

/// A seeded trace of `JOBS` jobs: the generator shuffles a fixed multiset
/// of inter-arrival gaps (1..=2·100/`mean_parallelism` ticks) and of
/// durations (60..140 ticks), so every trace offers the same load, about
/// `mean_parallelism` jobs in flight, in its own order.
fn job_trace(rng: &mut u64, mean_parallelism: f64) -> Vec<Job> {
    let gap = (100.0 / mean_parallelism) as u64;
    let mut gaps: Vec<u64> = (0..JOBS as u64).map(|k| 1 + k % (2 * gap)).collect();
    let mut durations: Vec<u64> = (0..JOBS as u64)
        .map(|k| 60 + k * 80 / JOBS as u64)
        .collect();
    shuffle(rng, &mut gaps);
    shuffle(rng, &mut durations);
    let mut arrival = 0;
    gaps.into_iter()
        .zip(durations)
        .map(|(gap, duration)| {
            arrival += gap;
            Job { arrival, duration }
        })
        .collect()
}

/// Counts and times every call into the wrapped noise model.
struct TimedModel<M> {
    inner: M,
    calls: u64,
    ns: u64,
    non_finite: u64,
}

impl<M: NoiseModel> TimedModel<M> {
    fn check(&mut self, n: f64) -> f64 {
        if !n.is_finite() {
            self.non_finite += 1;
        }
        n
    }
}

impl<M: NoiseModel> NoiseModel for TimedModel<M> {
    fn sites(&self) -> usize {
        self.inner.sites()
    }

    fn noise_pct_of(&mut self, occ: &Occupancy) -> Result<f64, PdnError> {
        let t0 = Instant::now();
        let n = self.inner.noise_pct_of(occ)?;
        self.ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        Ok(self.check(n))
    }

    fn noise_pct_of_batch(&mut self, occs: &[Occupancy]) -> Result<Vec<f64>, PdnError> {
        let t0 = Instant::now();
        let ns = self.inner.noise_pct_of_batch(occs)?;
        self.ns += t0.elapsed().as_nanos() as u64;
        self.calls += 1;
        Ok(ns.into_iter().map(|n| self.check(n)).collect())
    }
}

/// Counts and times every placement decision of the wrapped policy
/// (including the model calls a decision makes).
struct TimedPolicy<P> {
    inner: P,
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl<P> TimedPolicy<P> {
    fn new(inner: P) -> TimedPolicy<P> {
        TimedPolicy {
            inner,
            calls: Cell::new(0),
            ns: Cell::new(0),
        }
    }

    fn mean_us(&self) -> f64 {
        ratio(self.ns.get() as f64 / 1e3, self.calls.get() as f64)
    }
}

impl<P: PlacementPolicy> PlacementPolicy for TimedPolicy<P> {
    fn place(
        &self,
        occupied: &Occupancy,
        model: &mut dyn NoiseModel,
    ) -> Result<Option<usize>, PdnError> {
        let t0 = Instant::now();
        let site = self.inner.place(occupied, model);
        self.ns.set(self.ns.get() + t0.elapsed().as_nanos() as u64);
        self.calls.set(self.calls.get() + 1);
        site
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

impl Workload for RackPlacement {
    type State = (Testbed, Arc<RackScenario>);

    fn setup(&mut self) -> Result<Self::State, String> {
        let tb = build_testbed()?;
        let rack = RackScenario::build(
            tb.chip(),
            self.cfg.drawers,
            self.cfg.chips_per_drawer,
            VariationSpec::paper_default(self.seed),
        )
        .map_err(|e| format!("rack: {e}"))?;
        Ok((tb, Arc::new(rack)))
    }

    fn rep(&mut self, (tb, rack): Self::State, _traced: bool) -> Result<Rep, String> {
        let mut rep = Rep::default();
        let engine = Engine::with_workers(WORKERS);
        let active = CoreLoad::Stressmark(
            tb.max_stressmark(self.cfg.stim_freq_hz, Some(SyncSpec::paper_default())),
        );
        let naive = TimedPolicy::new(NaivePolicy);
        let aware = TimedPolicy::new(NoiseAwarePolicy::new());
        let (mut calls, mut ns, mut occupancies) = (0, 0, 0);
        let mut outcomes = Vec::new();
        let t0 = Instant::now();
        for (k, trace) in self.traces.iter().enumerate() {
            // A solve seed per trace keeps the traces' occupancies apart
            // in the shared engine; within a trace both replays share one
            // model, as in the rack study, so the aware scans and the
            // naive trajectory share its occupancy memo.
            let run_cfg = NoiseRunConfig {
                window_s: Some(self.cfg.window_s),
                record_traces: false,
                seed: k as u64 + 1,
                ..NoiseRunConfig::default()
            };
            let mut model = TimedModel {
                inner: EngineNoiseModel::rack(&engine, rack.clone(), active.clone(), run_cfg),
                calls: 0,
                ns: 0,
                non_finite: 0,
            };
            for policy in [&naive as &dyn PlacementPolicy, &aware] {
                rep.attempted += trace.len() as u64;
                match replay(&mut model, policy, trace) {
                    Ok(o) => outcomes.push(o),
                    Err(e) => {
                        rep.failed += trace.len() as u64;
                        eprintln!("perfbench: {} replay failed: {e}", policy.name());
                    }
                }
            }
            if model.non_finite > 0 {
                return Err(format!("{} non-finite noise values", model.non_finite));
            }
            calls += model.calls;
            ns += model.ns;
            occupancies += model.inner.evaluated();
        }
        rep.wall_s = t0.elapsed().as_secs_f64();
        if rep.failed == 0 {
            self.check(outcomes)?;
        }
        rep.record_engine(&engine.stats());
        rep.counts
            .insert("scheduler.occupancies".into(), occupancies as f64);
        rep.counts
            .insert("scheduler.model_calls".into(), calls as f64);
        rep.times
            .insert("scheduler.model_ms".into(), ns as f64 / 1e6);
        rep.times
            .insert("scheduler.place_us.naive".into(), naive.mean_us());
        rep.times
            .insert("scheduler.place_us.aware".into(), aware.mean_us());
        Ok(rep)
    }
}

impl RackPlacement {
    /// Finite outcomes, aware no worse than naive at the peak of every
    /// trace, and the same outcomes in every repetition, traced or not.
    fn check(&mut self, outcomes: Vec<ScheduleOutcome>) -> Result<(), String> {
        for o in &outcomes {
            if !(o.mean_required_pct.is_finite() && o.peak_required_pct.is_finite()) {
                return Err(format!("{} outcome is not finite: {o:?}", o.policy));
            }
        }
        for pair in outcomes.chunks(2) {
            if let [naive, aware] = pair {
                if aware.peak_required_pct > naive.peak_required_pct {
                    return Err(format!(
                        "aware peak {} exceeds naive peak {}",
                        aware.peak_required_pct, naive.peak_required_pct
                    ));
                }
            }
        }
        match &self.first {
            None => self.first = Some(outcomes),
            Some(first) if *first != outcomes => {
                return Err(format!(
                    "outcomes differ between repetitions: {first:?} vs {outcomes:?}"
                ))
            }
            Some(_) => {}
        }
        Ok(())
    }
}
