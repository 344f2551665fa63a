//! Integration tests pinning the paper's headline quantitative claims to
//! tolerance bands. These run the *entire* stack: model zoo → op lowering →
//! analytic simulation → energy accounting.
//!
//! We assert shapes, not the paper's absolute numbers (our substrate is a
//! reimplemented simulator): who wins, by roughly what factor, and where
//! the crossovers are.

use diva_core::{geomean, Accelerator, DesignPoint, Phase};
use diva_workload::{zoo, Algorithm};

const HBM: u64 = 16 * (1 << 30);

fn paper_batch(model: &diva_workload::ModelSpec) -> u64 {
    model.max_batch_pow2(Algorithm::DpSgd, HBM).max(1)
}

/// Abstract: "2.6× higher energy-efficiency vs conventional systolic
/// arrays" — we accept a 1.5×–8× band for the suite average.
#[test]
fn headline_energy_efficiency() {
    let ws = Accelerator::from_design_point(DesignPoint::WsBaseline).unwrap();
    let diva = Accelerator::from_design_point(DesignPoint::Diva).unwrap();
    let reductions: Vec<f64> = zoo::all_models()
        .iter()
        .map(|m| {
            let b = paper_batch(m);
            let e_ws = ws.run(m, Algorithm::DpSgdReweighted, b).energy.total();
            let e_diva = diva.run(m, Algorithm::DpSgdReweighted, b).energy.total();
            e_ws / e_diva
        })
        .collect();
    let avg = reductions.iter().sum::<f64>() / reductions.len() as f64;
    assert!(
        (1.5..8.0).contains(&avg),
        "average energy reduction {avg:.2}x outside the accepted band (paper: 2.6x)"
    );
    // Every model must at least break even.
    assert!(reductions.iter().all(|&r| r > 1.0), "{reductions:?}");
}

/// Section VI-A: DiVa end-to-end speedup vs WS — paper avg 3.6×, max 7.3×.
/// We accept a 2×–6× band for the average and require max ≥ 3×.
#[test]
fn headline_end_to_end_speedup() {
    let ws = Accelerator::from_design_point(DesignPoint::WsBaseline).unwrap();
    let diva = Accelerator::from_design_point(DesignPoint::Diva).unwrap();
    let speedups: Vec<f64> = zoo::all_models()
        .iter()
        .map(|m| {
            let b = paper_batch(m);
            let t_ws = ws.run(m, Algorithm::DpSgdReweighted, b).seconds;
            let t_diva = diva.run(m, Algorithm::DpSgdReweighted, b).seconds;
            t_ws / t_diva
        })
        .collect();
    let avg = speedups.iter().sum::<f64>() / speedups.len() as f64;
    let max = speedups.iter().cloned().fold(0.0, f64::max);
    assert!(
        (2.0..6.0).contains(&avg),
        "average speedup {avg:.2}x outside band (paper: 3.6x); all: {speedups:?}"
    );
    assert!(max >= 3.0, "max speedup {max:.2}x too low (paper: 7.3x)");
    assert!(
        speedups.iter().all(|&s| s > 1.0),
        "DiVa must win on every model: {speedups:?}"
    );
}

/// Section III-B: on the WS baseline, DP-SGD is many times slower than SGD
/// (paper avg 9.1×) and DP-SGD(R) beats vanilla DP-SGD (paper ~31% faster).
#[test]
fn dp_training_tax_and_reweighting_win() {
    let ws = Accelerator::from_design_point(DesignPoint::WsBaseline).unwrap();
    let mut dp_slowdowns = Vec::new();
    let mut dpr_wins = 0usize;
    let models = zoo::all_models();
    for m in &models {
        let b = paper_batch(m);
        let sgd = ws.run(m, Algorithm::Sgd, b).seconds;
        let dp = ws.run(m, Algorithm::DpSgd, b).seconds;
        let dpr = ws.run(m, Algorithm::DpSgdReweighted, b).seconds;
        dp_slowdowns.push(dp / sgd);
        if dpr < dp {
            dpr_wins += 1;
        }
    }
    let avg = dp_slowdowns.iter().sum::<f64>() / dp_slowdowns.len() as f64;
    assert!(
        avg > 2.5,
        "DP-SGD should be much slower than SGD on WS, got avg {avg:.2}x"
    );
    // DP-SGD(R) wins on the (large) majority of models. (The paper reports
    // an average 31% win; MobileNet-style models can flip locally.)
    assert!(
        dpr_wins * 2 > models.len(),
        "DP-SGD(R) won on only {dpr_wins}/{} models",
        models.len()
    );
}

/// Section III-A / Figure 4: DP-SGD's memory is dominated by per-example
/// gradients (paper: ~78% average) and DP-SGD(R) shrinks the footprint
/// (paper: ~3.8× average).
#[test]
fn memory_bloat_and_reweighted_savings() {
    let mut fracs = Vec::new();
    let mut reductions = Vec::new();
    for m in zoo::all_models() {
        let b = paper_batch(&m);
        let dp = m.memory_profile(Algorithm::DpSgd, b);
        let dpr = m.memory_profile(Algorithm::DpSgdReweighted, b);
        fracs.push(dp.per_example_fraction());
        reductions.push(dp.total() as f64 / dpr.total() as f64);
    }
    let avg_frac = fracs.iter().sum::<f64>() / fracs.len() as f64;
    let avg_red = reductions.iter().sum::<f64>() / reductions.len() as f64;
    assert!(
        avg_frac > 0.5,
        "per-example gradients should dominate DP-SGD memory, got {avg_frac:.2}"
    );
    assert!(
        (2.0..8.0).contains(&avg_red),
        "DP-SGD(R) memory reduction {avg_red:.2}x outside band (paper: 3.8x)"
    );
}

/// Section IV-C / VI-A: the PPU eliminates essentially all off-chip traffic
/// of gradient post-processing (paper: 99%).
#[test]
fn ppu_kills_postprocessing_traffic() {
    let diva = Accelerator::from_design_point(DesignPoint::Diva).unwrap();
    let no_ppu = Accelerator::from_design_point(DesignPoint::DivaNoPpu).unwrap();
    for m in zoo::all_models() {
        let b = paper_batch(&m);
        let with = diva.run(&m, Algorithm::DpSgdReweighted, b);
        let without = no_ppu.run(&m, Algorithm::DpSgdReweighted, b);
        // Norm phase fully fused with the PPU.
        assert_eq!(
            with.phase_cycles(Phase::BwdGradNorm),
            0,
            "{}: PPU failed to fuse norms",
            m.name
        );
        assert!(without.phase_cycles(Phase::BwdGradNorm) > 0, "{}", m.name);
        // Gradient spill traffic (per-example write + norm sweeps).
        let spill = |r: &diva_core::StepTiming| {
            r.ops
                .iter()
                .filter(|o| o.phase == Phase::BwdPerExampleGrad)
                .map(|o| o.dram_write_bytes)
                .sum::<u64>()
                + r.phase_dram_bytes(Phase::BwdGradNorm)
        };
        let b_with = spill(&with.timing);
        let b_without = spill(&without.timing);
        assert!(
            (b_with as f64) < 0.05 * b_without as f64,
            "{}: PPU reduction only {:.1}%",
            m.name,
            100.0 * (1.0 - b_with as f64 / b_without as f64)
        );
    }
}

/// Figure 15: DiVa's utilization gain concentrates in per-example-gradient
/// GEMMs (paper: avg 5.5×; CNNs benefit most).
#[test]
fn per_example_utilization_improvement() {
    let ws = Accelerator::from_design_point(DesignPoint::WsBaseline).unwrap();
    let diva = Accelerator::from_design_point(DesignPoint::Diva).unwrap();
    let mut gains = Vec::new();
    for m in zoo::all_models() {
        let b = paper_batch(&m);
        let pe_macs = ws.config().pe.macs();
        let u_ws = ws
            .run(&m, Algorithm::DpSgdReweighted, b)
            .phase_utilization(Phase::BwdPerExampleGrad, pe_macs);
        let u_diva = diva
            .run(&m, Algorithm::DpSgdReweighted, b)
            .phase_utilization(Phase::BwdPerExampleGrad, pe_macs);
        assert!(u_ws > 0.0 && u_diva > 0.0, "{}", m.name);
        gains.push(u_diva / u_ws);
    }
    let gm = geomean(&gains);
    assert!(
        gm > 2.0,
        "per-example utilization geomean gain {gm:.2}x too small (paper avg: 5.5x)"
    );
    assert!(gains.iter().all(|&g| g > 1.0), "{gains:?}");
}

/// Section VI-A: non-private SGD also benefits from the outer-product
/// dataflow (paper: ~1.6×), and DiVa's DP training approaches non-private
/// WS throughput (paper: ~75%).
#[test]
fn sgd_side_benefits() {
    let ws = Accelerator::from_design_point(DesignPoint::WsBaseline).unwrap();
    let diva = Accelerator::from_design_point(DesignPoint::Diva).unwrap();
    let mut sgd_speedups = Vec::new();
    let mut dp_vs_sgd = Vec::new();
    for m in zoo::all_models() {
        let b = paper_batch(&m);
        let ws_sgd = ws.run(&m, Algorithm::Sgd, b).seconds;
        let diva_sgd = diva.run(&m, Algorithm::Sgd, b).seconds;
        let diva_dp = diva.run(&m, Algorithm::DpSgdReweighted, b).seconds;
        sgd_speedups.push(ws_sgd / diva_sgd);
        dp_vs_sgd.push(ws_sgd / diva_dp);
    }
    let avg_sgd = sgd_speedups.iter().sum::<f64>() / sgd_speedups.len() as f64;
    assert!(
        (1.0..4.0).contains(&avg_sgd),
        "DiVa-SGD speedup {avg_sgd:.2}x outside band (paper: 1.6x)"
    );
    let avg_ratio = dp_vs_sgd.iter().sum::<f64>() / dp_vs_sgd.len() as f64;
    assert!(
        avg_ratio > 0.5,
        "DiVa DP-SGD(R) reaches only {:.0}% of WS SGD (paper: ~75%)",
        100.0 * avg_ratio
    );
}

/// The fig13 scenario run through the registry must reproduce the same
/// headline numbers as a direct computation by hand: identical
/// per-model speedups (same simulator calls) and a bit-identical geomean
/// (both sides reduce with `diva_core::geomean` over the same model
/// order).
#[test]
fn fig13_registry_matches_direct_computation() {
    use diva_bench::scenario::{self, RunOptions};

    let result = scenario::run_with("fig13", &RunOptions::default()).expect("fig13 runs");

    let ws = Accelerator::from_design_point(DesignPoint::WsBaseline).unwrap();
    let diva = Accelerator::from_design_point(DesignPoint::Diva).unwrap();
    let mut direct = Vec::new();
    for m in zoo::all_models() {
        let b = paper_batch(&m);
        let t_ws = ws.run(&m, Algorithm::DpSgdReweighted, b).seconds;
        let t_diva = diva.run(&m, Algorithm::DpSgdReweighted, b).seconds;
        direct.push((m.name.clone(), t_ws / t_diva));
    }

    // Per-model speedups agree exactly (same simulator, same arithmetic).
    for (name, speedup) in &direct {
        let row = result
            .rows
            .iter()
            .find(|r| {
                r.coord("model") == Some(name)
                    && r.coord("point") == Some("DiVa")
                    && r.coord("algorithm") == Some("DP-SGD(R)")
            })
            .unwrap_or_else(|| panic!("no fig13 row for {name}"));
        assert_eq!(
            row.get("speedup"),
            Some(*speedup),
            "{name}: registry speedup diverged from the direct path"
        );
    }

    // And so does the declared geomean reduction.
    let summary = result
        .summaries
        .iter()
        .find(|s| s.label == "DiVa speedup vs WS (geomean)")
        .expect("fig13 declares the geomean headline");
    let speedups: Vec<f64> = direct.iter().map(|(_, s)| *s).collect();
    assert_eq!(summary.count, speedups.len());
    assert_eq!(summary.value, geomean(&speedups));
}

/// Section VI-C: DiVa's edge narrows (but persists) as inputs grow.
#[test]
fn sensitivity_trend_holds() {
    let ws = Accelerator::from_design_point(DesignPoint::WsBaseline).unwrap();
    let diva = Accelerator::from_design_point(DesignPoint::Diva).unwrap();
    let speedup = |m: &diva_workload::ModelSpec| {
        let b = paper_batch(m);
        ws.run(m, Algorithm::DpSgdReweighted, b).seconds
            / diva.run(m, Algorithm::DpSgdReweighted, b).seconds
    };
    let s32 = speedup(&zoo::resnet50_at(32));
    let s128 = speedup(&zoo::resnet50_at(128));
    assert!(
        s128 < s32,
        "speedup should narrow with larger images: {s32} -> {s128}"
    );
    assert!(s128 > 1.0, "but DiVa should still win: {s128}");

    let l32 = speedup(&zoo::bert_base_with_seq(32));
    let l256 = speedup(&zoo::bert_base_with_seq(256));
    assert!(
        l256 < l32,
        "speedup should narrow with longer sequences: {l32} -> {l256}"
    );
    assert!(l256 > 1.0, "but DiVa should still win: {l256}");
}
