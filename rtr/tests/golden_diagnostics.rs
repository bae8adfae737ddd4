//! Golden-file tests for rendered diagnostics: the `rtr check` human
//! output (source snippets with caret underlines, secondary labels,
//! notes) is pinned byte-for-byte against committed golden files.
//!
//! Regenerate after an intentional rendering change with:
//!
//! ```sh
//! RTR_BLESS=1 cargo test -p rtr --test golden_diagnostics
//! ```

use std::path::PathBuf;
use std::process::Command;

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Runs `rtr check` on the committed fixture and compares the full
/// stderr stream to the committed golden file.
fn check_golden(name: &str, expect_success: bool) {
    check_golden_with(name, &[], if expect_success { 0 } else { 1 });
}

/// Like [`check_golden`], with extra `rtr check` flags and an exact
/// expected exit code.
fn check_golden_with(name: &str, extra_args: &[&str], expect_code: i32) {
    let fixture = golden_dir().join(format!("{name}.rtr"));
    let golden = golden_dir().join(format!("{name}.stderr"));
    let out = Command::new(env!("CARGO_BIN_EXE_rtr"))
        .arg("check")
        .args(extra_args)
        .arg(&fixture)
        .output()
        .expect("spawn rtr");
    assert_eq!(
        out.status.code(),
        Some(expect_code),
        "unexpected exit status; stderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // The fixture path embedded in `--> file:line:col` markers varies
    // with the checkout location; normalize it to the bare name.
    let stderr = String::from_utf8_lossy(&out.stderr)
        .replace(&fixture.display().to_string(), &format!("{name}.rtr"));
    if std::env::var_os("RTR_BLESS").is_some() {
        std::fs::write(&golden, stderr.as_bytes()).expect("bless golden");
        return;
    }
    let expected = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", golden.display()));
    assert_eq!(
        stderr,
        expected,
        "rendered diagnostics drifted from {}; re-bless with RTR_BLESS=1 if intentional",
        golden.display()
    );
}

#[test]
fn multi_error_module_renders_snippets_and_carets() {
    check_golden("multi_error", false);
}

#[test]
fn refinement_failure_names_the_theory() {
    check_golden("refinement", false);
}

#[test]
fn macro_expansion_provenance_points_at_the_surface_form() {
    check_golden("expansion", false);
}

/// `\r\n` line ends, multibyte and astral text before the carets, a
/// two-digit gutter and a trailing newline: the snippet lines, columns
/// and gutter width come from one line index per report.
#[test]
fn crlf_and_multibyte_lines_render_many_errors() {
    check_golden("crlf_multibyte", false);
}

/// A starved depth budget degrades to a located `E0202` on the deep
/// item while the shallow item in the same module still checks.
#[test]
fn depth_limit_degrades_to_a_located_e0202() {
    check_golden_with("exhausted", &["--max-depth", "16"], 1);
}

/// Compares an in-process rendered string against a committed golden
/// file, honoring `RTR_BLESS` like [`check_golden`].
fn string_golden(name: &str, actual: &str) {
    let golden = golden_dir().join(format!("{name}.golden"));
    if std::env::var_os("RTR_BLESS").is_some() {
        std::fs::write(&golden, actual.as_bytes()).expect("bless golden");
        return;
    }
    let expected = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", golden.display()));
    assert_eq!(
        actual,
        expected,
        "rendered output drifted from {}; re-bless with RTR_BLESS=1 if intentional",
        golden.display()
    );
}

/// An isolated internal error (`E0203`) cannot be provoked
/// deterministically without the `chaos` feature, so the golden pins
/// the renderer and the `rtr-check-v1` emitter against a synthetic
/// [`Diagnostic::ice`] (and, for symmetry, a synthetic `E0202`).
#[test]
fn ice_and_exhausted_rendering_is_pinned() {
    use rtr::core::diag::{render, Diagnostic};
    use rtr::json::diagnostic_json;
    use rtr::prelude::LimitKind;

    let ice = Diagnostic::ice(
        "the definition of `f`".to_string(),
        "index out of bounds: the len is 3 but the index is 7".to_string(),
    );
    let exhausted = Diagnostic::exhausted("the definition of `g`".to_string(), LimitKind::Deadline);
    let mut out = String::new();
    for d in [&ice, &exhausted] {
        out.push_str(&render(d, "synthetic.rtr", ""));
        out.push_str(&diagnostic_json(d));
        out.push('\n');
    }
    string_golden("ice_synthetic", &out);
}
