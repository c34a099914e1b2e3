//! Public-API surface snapshot: the consolidation guard.
//!
//! Every GEMM entry runs one element-generic Algorithm-1 body. The
//! `Ozaki2` surface is the constructors, `gemm`/`gemm_into` for plain
//! products (with `GemmArgs` carrying trans/alpha/beta, workspace,
//! report sink, fault policy and `parallel`; either operand may be a
//! cached one-sided front end from `prepare`), the `dgemm`/`sgemm`
//! panicking delegates, and `prepare`.
//! This test pins that state two ways:
//!
//! 1. the canonical items must exist and work (checked by using them);
//! 2. the set of `pub fn`s on `impl Ozaki2` (scanned from source) must
//!    equal the frozen whitelist below — adding a new named entry fails
//!    this test, forcing the addition through the facade (or an explicit
//!    whitelist change with review).
//!
//! The INT8 engine's GEMM entries are frozen the same way: one entry for
//! caller-built panels, one contiguous i8-input entry, and the two test
//! oracles. So is the batched runtime: one entry per job (uniform strided
//! batches, ragged groups) beside its constructors and accessors.

use gemm_dense::{MatView, MatViewMut, Matrix};
use ozaki2::{
    Accuracy, GemmArgs, GemmOut, Mode, OperandInput, OperandSide, Ozaki2, Ozaki2Builder,
    PreparedOperand, Workspace,
};
use std::collections::BTreeSet;
use std::path::Path;

/// The consolidated `impl Ozaki2` surface. Keep SMALL: new capabilities
/// belong on the facade (`gemm`/`gemm_into` args) or the builder, not as
/// new named methods.
const OZAKI2_PUB_FNS: &[&str] = &[
    // construction
    "new",
    "builder",
    "n_moduli",
    "mode",
    "fault_policy",
    "with_fault_policy",
    // plain products
    "gemm",
    "gemm_into",
    // panicking delegates of `gemm`
    "dgemm",
    "sgemm",
    // cached one-sided front ends, consumed as `gemm`/`gemm_into` operands
    "prepare",
];

/// Collect the `pub fn` names declared directly inside `impl <ty> {`
/// blocks of one source file (brace-depth scan; good enough for rustfmt'd
/// source, which this repo enforces in CI).
fn pub_fns_in_impl(src: &str, ty: &str) -> Vec<String> {
    let header = format!("impl {ty} {{");
    let mut found = Vec::new();
    let mut in_impl = false;
    let mut depth = 0i32;
    for line in src.lines() {
        let trimmed = line.trim();
        if !in_impl && trimmed.starts_with(&header) {
            in_impl = true;
            depth = 0;
        }
        if in_impl {
            if depth == 1 {
                if let Some(rest) = trimmed.strip_prefix("pub fn ") {
                    let name: String = rest
                        .chars()
                        .take_while(|c| c.is_alphanumeric() || *c == '_')
                        .collect();
                    found.push(name);
                }
            }
            depth += line.matches('{').count() as i32;
            depth -= line.matches('}').count() as i32;
            if depth <= 0 {
                in_impl = false;
            }
        }
    }
    found
}

#[test]
fn ozaki2_surface_matches_the_frozen_whitelist() {
    let core_src = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/core/src");
    let mut got: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(&core_src).expect("read crates/core/src") {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("rs") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("read source");
        got.extend(pub_fns_in_impl(&src, "Ozaki2"));
    }
    let got: BTreeSet<String> = got.into_iter().collect();
    let want: BTreeSet<String> = OZAKI2_PUB_FNS.iter().map(|s| s.to_string()).collect();

    let unexpected: Vec<_> = got.difference(&want).collect();
    let missing: Vec<_> = want.difference(&got).collect();
    assert!(
        unexpected.is_empty(),
        "new pub fn(s) on Ozaki2 outside the consolidated surface: \
         {unexpected:?}. Extend the facade (GemmArgs / builder) instead of \
         adding named entries — or update the whitelist in tests/api_surface.rs \
         with reviewer sign-off."
    );
    assert!(
        missing.is_empty(),
        "whitelisted Ozaki2 entry points disappeared: {missing:?} \
         (breaking change — update tests/api_surface.rs deliberately)"
    );
    // Belt and braces: the surface must never regrow past the frozen size.
    assert_eq!(got.len(), OZAKI2_PUB_FNS.len());
}

#[test]
fn canonical_items_exist_and_compose() {
    // The three pillars, exercised end to end: views → facade → builder.
    let emu: Ozaki2 = Ozaki2::builder()
        .accuracy(Accuracy::TargetError(2f64.powi(-52)))
        .mode(Mode::Fast)
        .k(1024)
        .build()
        .expect("DGEMM-level at k=1024 is reachable");
    assert_eq!(emu.n_moduli(), 15, "the paper's §5.1 sweet spot");

    let a = gemm_dense::workload::phi_matrix_f64(8, 12, 0.5, 1, 0);
    let b = gemm_dense::workload::phi_matrix_f64(12, 6, 0.5, 1, 1);
    let va: MatView<'_, f64> = a.view();
    let out: GemmOut<f64> = emu.gemm(GemmArgs::new(va, b.view())).unwrap();
    assert_eq!(out.c, emu.dgemm(&a, &b));

    let mut cbuf = vec![0f64; 8 * 6];
    let cview: MatViewMut<'_, f64> = MatViewMut::col_major(&mut cbuf, 8, 6);
    emu.gemm_into(GemmArgs::new(&a, &b), cview).unwrap();
    assert_eq!(&cbuf, out.c.as_slice());

    // prepare → gemm_into: one side cached, the other a view.
    let pb: PreparedOperand = emu.prepare(OperandSide::B, &b).unwrap();
    let mut ws = Workspace::new();
    let mut c = Matrix::<f64>::zeros(8, 6);
    let a_in: OperandInput<'_, f64> = OperandInput::View(va);
    let args = GemmArgs::new(a_in, &pb).workspace(&mut ws).parallel(false);
    emu.gemm_into(args, c.view_mut()).unwrap();
    assert_eq!(c, out.c);

    // Builder type is nameable (for APIs that store one).
    let _builder: Ozaki2Builder = Ozaki2::builder().accuracy(Accuracy::FixedN(8));
}

/// The INT8 engine's `pub fn int8_gemm*` entries: the one panel entry
/// every Algorithm-1 product runs, the packing entry for contiguous i8
/// operands, and the two oracles.
const ENGINE_GEMM_FNS: &[&str] = &[
    "int8_gemm_prepacked_fused",
    "int8_gemm_blocked",
    "int8_gemm_naive",
    "int8_gemm_rm_cm_scalar",
];

#[test]
fn engine_gemm_entries_match_the_frozen_whitelist() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/engine/src/int8.rs");
    let src = std::fs::read_to_string(&path).expect("read crates/engine/src/int8.rs");
    let got: BTreeSet<String> = src
        .lines()
        .filter_map(|line| line.trim().strip_prefix("pub fn int8_gemm"))
        .map(|rest| {
            let tail: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            format!("int8_gemm{tail}")
        })
        .collect();
    let want: BTreeSet<String> = ENGINE_GEMM_FNS.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        got, want,
        "the engine's GEMM entries changed: products belong on \
         int8_gemm_prepacked_fused (or int8_gemm_blocked for contiguous i8 \
         operands) — update tests/api_surface.rs deliberately"
    );
}

/// The `impl BatchedOzaki2` surface: constructors, the two accessors,
/// and one GEMM entry per job — `try_batched_into` for uniform strided
/// batches (either precision), `try_dgemm_group_into` for ragged groups.
const BATCHED_PUB_FNS: &[&str] = &[
    "new",
    "with_fault_policy",
    "pool",
    "cache",
    "try_batched_into",
    "try_dgemm_group_into",
];

#[test]
fn batched_surface_matches_the_frozen_whitelist() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/batch/src/lib.rs");
    let src = std::fs::read_to_string(&path).expect("read crates/batch/src/lib.rs");
    let found = pub_fns_in_impl(&src, "BatchedOzaki2");
    let got: BTreeSet<String> = found.iter().cloned().collect();
    let want: BTreeSet<String> = BATCHED_PUB_FNS.iter().map(|s| s.to_string()).collect();
    assert_eq!(
        got, want,
        "the batched runtime's entries changed: a new job shape belongs on \
         try_batched_into or try_dgemm_group_into — update tests/api_surface.rs \
         deliberately"
    );
    assert_eq!(
        found.len(),
        BATCHED_PUB_FNS.len(),
        "one impl block, no repeats"
    );
}
