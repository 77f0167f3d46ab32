//! `report-cold`: the reduced registry report on a fresh engine with no
//! store — the dense chip solve path. Its inputs are fixed; the workload
//! seed is ignored.

use crate::{build_testbed, ms_since, Rep, Workload, EXP_MS, WORKERS};
use std::time::Instant;
use voltnoise_analysis::registry;
use voltnoise_system::{Engine, Testbed};

/// The golden bytes every repetition must reproduce.
const GOLDEN: &str = "tests/golden/full_report_reduced.txt";

/// The report's first line, as `full_report_on` writes it.
const HEADER: &str = "# voltnoise — full evaluation report\n\n";

pub struct ReportCold {
    golden: String,
}

impl ReportCold {
    pub fn new() -> Result<ReportCold, String> {
        let golden =
            std::fs::read_to_string(GOLDEN).map_err(|e| format!("reading {GOLDEN}: {e}"))?;
        Ok(ReportCold { golden })
    }
}

impl Workload for ReportCold {
    type State = Testbed;

    fn setup(&mut self) -> Result<Testbed, String> {
        build_testbed()
    }

    fn rep(&mut self, tb: Testbed, _traced: bool) -> Result<Rep, String> {
        let mut rep = Rep::default();
        let engine = Engine::with_workers(WORKERS);
        let mut out = String::from(HEADER);
        let t0 = Instant::now();
        // The walk of `full_report_on`, with each experiment timed.
        for entry in registry().iter().filter(|e| e.in_report) {
            let t = Instant::now();
            let result = entry.run_settled(&tb, &engine, true);
            rep.times
                .insert(format!("{EXP_MS}{}", entry.id), ms_since(t));
            rep.attempted += 1;
            match result {
                Ok(output) => {
                    out.push_str(&output.rendered);
                    out.push('\n');
                }
                Err(failure) => {
                    rep.failed += 1;
                    eprintln!("perfbench: {} failed: {}", entry.id, failure.summary());
                }
            }
        }
        rep.wall_s = t0.elapsed().as_secs_f64();
        if out != self.golden {
            return Err(format!("report bytes differ from {GOLDEN}"));
        }
        rep.record_engine(&engine.stats());
        Ok(rep)
    }
}
