//! Scenario sweep: refine one design against a *grid* of operating
//! conditions instead of a single stimulus, with the scenarios simulated
//! on a worker pool and their monitor statistics merged deterministically.
//!
//! The refinement then decides types that hold across every scenario —
//! the merged min/max drives the MSB side, the merged error statistics
//! the LSB side — and the result is bit-identical no matter how many
//! workers simulate the grid.
//!
//! ```text
//! cargo run --example scenario_sweep
//! ```

use fixref::refine::{RefinePolicy, RefinementFlow, ShardSim, SweepDriver};
use fixref::sim::{Design, Scenario, ScenarioSet};

/// The example datapath: a leaky integrator smoothing a noisy tone.
struct Smoother {
    x: fixref::sim::Sig,
    acc: fixref::sim::Reg,
    y: fixref::sim::Sig,
}

impl Smoother {
    fn new(design: &Design) -> Self {
        Smoother {
            x: design.sig("x"),
            acc: design.reg("acc"),
            y: design.sig("y"),
        }
    }

    /// Drives the datapath for one scenario: a tone plus noise whose
    /// amplitude follows the scenario SNR and whose stream follows the
    /// scenario seed.
    fn drive(&self, design: &Design, scenario: &Scenario) {
        let noise_amp = 10f64.powf(-scenario.snr_db / 20.0);
        let mut state = scenario.seed | 1;
        for i in 0..scenario.samples {
            // A small xorshift keeps the example dependency-free.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state as f64 / u64::MAX as f64 - 0.5) * 2.0 * noise_amp;
            self.x.set((i as f64 * 0.05).sin() * 0.9 + noise);
            self.acc.set(self.acc.get() * 0.9 + self.x.get() * 0.25);
            self.y.set(self.acc.get() + self.x.get());
            design.tick();
        }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The master design: the flow analyzes and annotates this one.
    let design = Design::with_seed(42);
    let _master = Smoother::new(&design);

    // 2. The operating grid: 4 noise seeds x 2 SNRs x one sample count.
    let scenarios = ScenarioSet::grid(&[1, 2, 3, 4], &[10.0, 30.0], &[], &[2000]);
    println!("sweeping {} scenarios:", scenarios.len());
    for s in &scenarios {
        println!("  {}", s.label());
    }

    // 3. The shard builder: a fresh, independent copy of the design per
    //    scenario. Worker threads never share simulation state — each
    //    shard's monitors are merged back in scenario order.
    let builder = Box::new(|scenario: &Scenario| {
        let design = Design::with_seed(42); // must match the master seed
        let smoother = Smoother::new(&design);
        let scenario = scenario.clone();
        ShardSim {
            design,
            stimulus: Box::new(move |d: &Design, _iter: usize| smoother.drive(d, &scenario)),
        }
    });

    // 4. Refine over the whole grid. `workers` only changes wall time,
    //    never the outcome.
    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut sweep = SweepDriver::new(scenarios, workers, builder);
    let mut flow = RefinementFlow::new(design.clone(), RefinePolicy::default());
    let outcome = flow.run_with(&mut sweep)?;

    println!();
    println!(
        "refined in {} MSB + {} LSB iterations over {} worker(s)",
        outcome.msb_iterations, outcome.lsb_iterations, workers
    );
    for (id, dtype) in &outcome.types {
        println!("  {:<6} -> {}", design.name_of(*id), dtype);
    }

    // 5. Per-shard statistics from the last simulated iteration.
    println!();
    println!("last iteration, per shard:");
    for shard in sweep.shard_summaries() {
        println!(
            "  {:<28} {:>8} cycles  {:>9.3} ms",
            shard.scenario.label(),
            shard.cycles,
            shard.wall_ns as f64 / 1e6
        );
    }
    Ok(())
}
