//! Integration tests for the figure-level performance claims through the
//! public umbrella API (the per-number calibration lives in
//! `gemm-perfmodel`'s unit tests; these check the cross-figure story).

use gemm_perfmodel::{
    breakdown, evaluation_devices, fig4_dgemm_throughput, fig5_sgemm_throughput, fig8_dgemm_power,
    fig9_sgemm_power, gh200, headline, Os2Input, Os2Mode, SWEEP_NS,
};

#[test]
fn figure4_and_figure8_trends_agree() {
    // §5.4: "power efficiency exhibits trends similar to those of
    // throughput performance" — the rank order of methods at n = 16384
    // must broadly agree between Fig. 4 and Fig. 8.
    for device in evaluation_devices() {
        let tf = fig4_dgemm_throughput(device);
        let pw = fig8_dgemm_power(device);
        let last = SWEEP_NS.len() - 1;
        let rank = |series: &[gemm_perfmodel::Series]| -> Vec<String> {
            let mut v: Vec<(String, f64)> = series
                .iter()
                .map(|s| (s.label.clone(), s.points[last].1))
                .collect();
            v.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
            v.into_iter().map(|(l, _)| l).take(3).collect()
        };
        let top_tf = rank(&tf);
        let top_pw = rank(&pw);
        // The throughput winner should be top-3 in power efficiency.
        assert!(
            top_pw.contains(&top_tf[0]),
            "{}: Fig4 winner {} not in Fig8 top-3 {:?}",
            device.name,
            top_tf[0],
            top_pw
        );
    }
}

#[test]
fn sgemm_emulation_power_catches_up_earlier_than_throughput() {
    // §5.4: "for smaller problem sizes, the results of Ozaki scheme II
    // reached those of existing emulation, DGEMM, and SGEMM" (power closes
    // the gap before throughput does). Compare the smallest n where
    // OS II-fast-8 >= SGEMM in each metric on RTX 5080.
    let device = gemm_perfmodel::rtx5080();
    let find_cross = |series: &[gemm_perfmodel::Series]| -> Option<usize> {
        let sgemm = series.iter().find(|s| s.label == "SGEMM").unwrap();
        let emu = series.iter().find(|s| s.label == "OS II-fast-8").unwrap();
        sgemm
            .points
            .iter()
            .zip(&emu.points)
            .find(|((_, s), (_, e))| e >= s)
            .map(|((n, _), _)| *n)
    };
    let cross_tf = find_cross(&fig5_sgemm_throughput(device));
    let cross_pw = find_cross(&fig9_sgemm_power(device));
    let cross_pw = cross_pw.expect("power efficiency must cross");
    match cross_tf {
        Some(n_tf) => assert!(
            cross_pw <= n_tf,
            "power ({cross_pw}) after throughput ({n_tf})"
        ),
        None => { /* throughput never crosses: power crossing earlier trivially */ }
    }
}

#[test]
fn breakdown_overhead_shrinks_with_n_everywhere() {
    // §5.3's conclusion: "for n >= 16384, Ozaki scheme II can be performed
    // even more efficiently" — the non-GEMM share decreases in n on every
    // device and in both modes.
    for device in evaluation_devices() {
        for mode in [Os2Mode::Fast, Os2Mode::Accurate] {
            let bars = breakdown(device, 15, mode, Os2Input::F64);
            let gemm_share = |b: &gemm_perfmodel::BreakdownBar| {
                b.shares
                    .iter()
                    .find(|(l, _)| l.contains("int8 GEMM"))
                    .map(|(_, f)| *f)
                    .unwrap()
            };
            let first = gemm_share(&bars[0]);
            let last = gemm_share(&bars[bars.len() - 1]);
            assert!(
                last > first,
                "{} {:?}: GEMM share must grow with n ({first} -> {last})",
                device.name,
                mode
            );
        }
    }
}

#[test]
fn headline_is_best_on_gh200_dgemm() {
    // The paper headlines GH200; the model should indeed show GH200 as the
    // device where DGEMM emulation is closest to (but above) 1x among the
    // datacenter parts, with RTX 5080 as the runaway.
    let hs: Vec<_> = evaluation_devices().into_iter().map(headline).collect();
    let gh = hs.iter().find(|h| h.device == "GH200").unwrap();
    let rtx = hs.iter().find(|h| h.device == "RTX 5080").unwrap();
    assert!(gh.dgemm_speedup > 1.0);
    assert!(rtx.dgemm_speedup > 10.0 * gh.dgemm_speedup);
}

#[test]
fn modelled_gh200_matches_measured_phase_structure() {
    // The modelled GH200 breakdown and this repository's measured CPU
    // breakdown must agree qualitatively: int8 GEMM is the largest phase,
    // convert is the largest non-GEMM phase (fast mode, moderate n).
    let bars = breakdown(gh200(), 15, Os2Mode::Fast, Os2Input::F64);
    let bar = &bars[1]; // n = 2048
    let get = |tag: &str| {
        bar.shares
            .iter()
            .find(|(l, _)| l.contains(tag))
            .map(|(_, f)| *f)
            .unwrap()
    };
    let gemm = get("int8 GEMM");
    let convert = get("convert");
    let mod_reduce = get("mod");
    for (label, share) in &bar.shares {
        if !label.contains("int8 GEMM") {
            assert!(gemm > *share, "GEMM must dominate over {label}");
        }
    }
    // The two plane-sized passes (convert, mod) lead the overheads.
    assert!(convert + mod_reduce > get("scale") + get("trunc") + get("fold"));

    // Measured counterpart on the CPU substrate: check structure, not
    // wall-clock ratios (CI machines are noisy and shared).
    let a = gemm_dense::workload::phi_matrix_f64(160, 160, 0.5, 3, 0);
    let b = gemm_dense::workload::phi_matrix_f64(160, 160, 0.5, 3, 1);
    let rep = ozaki2::Ozaki2::new(15, ozaki2::Mode::Fast)
        .gemm(ozaki2::GemmArgs::new(&a, &b))
        .unwrap()
        .report;
    let rows = rep.phases.as_rows();
    assert_eq!(
        rows.len(),
        7,
        "one row per Algorithm-1 phase group, plus the ABFT verify row"
    );
    let gemm_t = rows
        .iter()
        .find(|(l, _)| l.contains("int8 GEMM"))
        .unwrap()
        .1;
    assert!(gemm_t > 0.0, "the INT8 GEMM phase must be timed");
    assert!(
        rep.phases.total().as_secs_f64() >= gemm_t,
        "total covers all phases"
    );
}
